"""Canonical transformations between generic coordinates (q, p) and the
spherical chart (r, theta_1..theta_{N-1}, p_r, p_theta).

The point transformation is

    q_j = r cos(theta_j) prod_{k<j} sin(theta_k)   (j = 1..N-1)
    q_N = r prod_{k=1}^{N-1} sin(theta_k)

and momenta follow by the Legendre/point-transformation rule.  The chart is
orthogonal, so the momentum map and its inverse are assembled from the exact
tangent-frame decomposition rather than a generic linear solve:

    p = p_r q/r + sum_j p_theta_j e_j / (r^2 S_j),
    S_j = prod_{k<j} sin^2(theta_k),  e_j = dq/dtheta_j,  |e_j|^2 = r^2 S_j.

The chart degenerates where sin(theta_k) = 0 for k <= N-2; transforms raise
ChartError there.  Empty products are 1 and empty sums 0 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import PhaseState, SingularStateError, _nonzero

__all__ = [
    "SphericalPhaseState", "ChartError",
    "to_cartesian", "to_cartesian_columns", "from_cartesian",
    "from_cartesian_columns", "spherical_casimir", "spherical_casimir_columns",
    "angular_chain", "angular_chain_columns", "radial_hamiltonian",
]

_TWO_PI = 2.0 * math.pi

# centrifugal denominators below this are treated as singular; float trig
# almost never returns exact zeros (cos(pi/2) rounds to ~6e-17), so exact
# comparisons would let 1/cos^2 blow up silently
_SING2 = 1e-30


class ChartError(ValueError):
    """The spherical chart is singular at the requested point."""


@dataclass(frozen=True)
class SphericalPhaseState:
    """Radius, N-1 angles in [0, 2pi), and their conjugate momenta.

    Angles are normalized into [0, 2pi) on construction.  States returned by
    from_cartesian use the canonical branch theta_j in [0, pi] for j <= N-2
    (products of sines nonnegative), theta_{N-1} in [0, 2pi).
    """

    r: float
    theta: np.ndarray
    p_r: float
    p_theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float) % _TWO_PI
        p_theta = np.asarray(self.p_theta, dtype=float)
        if theta.ndim != 1 or theta.shape != p_theta.shape or theta.shape[0] < 1:
            raise ValueError("theta and p_theta must be equal-length nonempty vectors")
        if not self.r > 0.0:
            raise ValueError(f"r must be positive, got {self.r}")
        theta.setflags(write=False)
        p_theta.setflags(write=False)
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "p_r", float(self.p_r))
        object.__setattr__(self, "p_theta", p_theta)

    @property
    def n(self) -> int:
        return self.theta.shape[0] + 1


def _sq(x):
    """x ** 2 by libm pow, also row by row on a numpy column: numpy's x * x
    differs in the last bit for about 0.1 % of inputs."""
    return np.array([v ** 2 for v in x.tolist()]) if isinstance(x, np.ndarray) else x ** 2


def _rows(fn, *args):
    """fn on floats, or row by row on numpy columns (floats broadcast):
    math.hypot and math.atan2 differ from numpy's in the last bit."""
    if not any(isinstance(a, np.ndarray) for a in args):
        return fn(*args)
    return np.array([fn(*v) for v in zip(*(a.tolist() for a in np.broadcast_arrays(*args)))])


def _dot(a, b):
    """sum_i a_i b_i of two lists of N floats or numpy columns by a stacked
    (S,1,N) @ (S,N,1) matmul, each row np.dot's sum (a column sum is not)."""
    x = np.stack(np.broadcast_arrays(*a, *b), axis=-1)
    return (x[..., None, :len(a)] @ x[..., len(a):, None])[..., 0, 0]


def _check(hit, exc, message: str) -> None:
    """Raise exc(message) if hit, a bool or a column, holds: at its first row."""
    hit = np.asarray(hit)
    if hit.any():
        raise exc(message + (f" at row {hit.argmax()}" if hit.ndim else ""))


def _e_theta(r, sins, coss, j: int) -> list:
    """Tangent vector dq/dtheta_j as a list; squared length r^2 prod_{k<j} sin^2."""
    pre = r
    for k in range(j):
        pre = pre * sins[k]
    e = [0.0] * j + [-pre * sins[j]]
    tail = pre * coss[j]  # the sin(theta_j) factor of deeper components, differentiated
    for i in range(j + 1, len(sins)):
        e.append(tail * coss[i])
        tail = tail * sins[i]
    return e + [tail]


def _chart(r, sins, coss, p_r, p_theta) -> tuple[list, list]:
    """Cartesian q and p (N entries each) from r, the sines and cosines of
    the angles, p_r and p_theta: floats, or numpy columns with one point per
    row, each row bit for bit its point's floats (a zero p_theta_j in a
    column with others adds zeros, which can flip the sign of a zero p)."""
    # sin(theta_k) for k = 1..N-2 enters the denominators S_j; the last does not
    for k, s in enumerate(sins[:-1]):
        _check(np.abs(s) < 1e-15, ChartError, f"sin(theta_{k + 1}) = 0: chart is singular here")
    q, prod = [], 1.0
    for s, c in zip(sins, coss):
        q.append(r * c * prod)
        prod = prod * s
    q.append(r * prod)
    p = [p_r * x / r for x in q]
    r2, s_prod = _sq(r), 1.0  # S_j = prod_{k<j} sin^2
    for j, (pt, nz) in enumerate(zip(p_theta, _nonzero(p_theta))):
        if nz:
            p = [a + pt * e / (r2 * s_prod) for a, e in zip(p, _e_theta(r, sins, coss, j))]
        s_prod = s_prod * _sq(sins[j])
    return q, p


def to_cartesian(s: SphericalPhaseState) -> PhaseState:
    """Map a spherical phase point to generic coordinates and momenta."""
    return PhaseState(*_chart(s.r, np.sin(s.theta).tolist(), np.cos(s.theta).tolist(),
                              s.p_r, s.p_theta.tolist()))


def to_cartesian_columns(q: list, p: list) -> list:
    """to_cartesian on the column contract of algebra.fd_gradient: q = (r,
    theta) and p = (p_r, p_theta) as lists of N numpy columns, the angles
    taken into [0, 2pi); returns the Cartesian q columns, then those of p."""
    theta = np.remainder(q[1:], _TWO_PI)
    q, p = _chart(q[0], np.sin(theta), np.cos(theta), p[0], p[1:])
    return q + p


def from_cartesian(s: PhaseState) -> SphericalPhaseState:
    """Invert the spherical chart (see from_cartesian_columns)."""
    x, n = from_cartesian_columns(list(s.q), list(s.p)), s.n
    return SphericalPhaseState(x[0], x[1:n], x[n], x[n + 1:])


def from_cartesian_columns(q: list, p: list) -> list:
    """The inverse of to_cartesian_columns: r, theta, p_r and p_theta from q
    and p, lists of N floats or numpy columns, each row bit for bit its
    state's from_cartesian.  theta_j = atan2(|q_{j+1..N}|, q_j) for j <= N-2
    lands in [0, pi]; the last angle is atan2(q_N, q_{N-1}) in [0, 2pi)."""
    n = len(q)
    if n < 2:
        raise ValueError("need at least two coordinates for a spherical chart")
    # tail norms T_j = |q_{j..N}|, built backwards for accuracy
    tail = [0.0] * (n + 1)
    for j in range(n - 1, -1, -1):
        tail[j] = _rows(math.hypot, q[j], tail[j + 1])
    for j in range(n - 2):
        _check(tail[j + 1] == 0.0, ChartError, f"q_{j + 2}..q_{n} all vanish: "
               f"angles beyond theta_{j + 1} undefined")
    theta = [_rows(math.atan2, tail[j + 1], q[j]) for j in range(n - 2)]
    theta.append(_rows(math.atan2, q[n - 1], q[n - 2]) % _TWO_PI)
    r, sins, coss = tail[0], np.sin(theta), np.cos(theta)
    p_theta = [_dot(_e_theta(r, sins, coss, j), p) for j in range(n - 1)]
    # a last angle just below 0 wraps to 2pi, where the momenta are taken; it is kept as 0
    return [r, *theta[:-1], theta[-1] % _TWO_PI, _dot(q, p) / r, *p_theta]


def _b_vector(n: int, b) -> np.ndarray:
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"b must have length {n}")
    return b


def spherical_casimir(m: int, s: SphericalPhaseState, b=None) -> float:
    """The right-family integral C_(m) in spherical variables, 2 <= m <= N.

    C_(m) = sum_{j=N-m+1}^{N-1} (p_theta_j^2 + b_j/cos^2 theta_j)
              / prod_{k=N-m+1}^{j-1} sin^2 theta_k
            + b_N / prod_{l=N-m+1}^{N-1} sin^2 theta_l .
    """
    if not 2 <= m <= s.n:
        raise ValueError(f"need 2 <= m <= {s.n}, got m = {m}")
    return spherical_casimir_columns(m, s.theta, s.p_theta, _b_vector(s.n, b))[-1]


def spherical_casimir_columns(m: int, theta, p_theta, b) -> list:
    """[C_(2), ..., C_(m)] from theta, p_theta and b (N-1, N-1 and N floats
    or numpy columns), each row bit for bit spherical_casimir at its state.
    An all-zero b_j is skipped (algebra._nonzero); a zero entry in a b_j
    column with others needs a nonsingular angle at its row."""
    n = len(theta) + 1
    sins2, coss2, nz = np.sin(theta) ** 2, np.cos(theta) ** 2, _nonzero(b)
    terms = {j: _sq(p_theta[j]) for j in range(n - m, n - 1)}  # + b_j/cos^2 theta_j
    for j in terms:
        if nz[j]:
            _check((b[j] != 0.0) & (coss2[j] < _SING2), SingularStateError,
                   f"cos(theta_{j + 1}) = 0 with b_{j + 1} != 0")
            terms[j] = terms[j] + b[j] / coss2[j]
    out = []
    for level in range(2, m + 1):
        total, s_prod = 0.0, 1.0  # s_prod: prod of sin^2 over the angles before j
        for j in range(n - level, n - 1):
            total = total + terms[j] / s_prod
            s_prod = s_prod * sins2[j]
        if nz[n - 1]:
            _check((b[n - 1] != 0.0) & (s_prod < _SING2), SingularStateError,
                   f"vanishing sine product with b_{n} != 0")
            total = total + b[n - 1] / s_prod
        out.append(total)
    return out


def angular_chain(s: SphericalPhaseState, b=None) -> list:
    """Evaluate the nested recursion for C_(2)..C_(N):

        C_(1) = b_N,
        C_(l) = p_theta_{N-l+1}^2 + C_(l-1)/sin^2 theta_{N-l+1}
                + b_{N-l+1}/cos^2 theta_{N-l+1} .
    """
    return angular_chain_columns(s.theta, s.p_theta, _b_vector(s.n, b))


def angular_chain_columns(theta, p_theta, b) -> list:
    """angular_chain on floats or numpy columns, as spherical_casimir_columns
    takes them (a zero C_(l-1) in a column with others is divided too)."""
    n = len(theta) + 1
    sins2, coss2, nz = np.sin(theta) ** 2, np.cos(theta) ** 2, _nonzero(b)
    value, out = b[n - 1], []
    for j in range(n - 2, -1, -1):  # the 0-based angle index N-l+1 of level l
        if np.any(value != 0.0):
            _check((value != 0.0) & (sins2[j] < _SING2), SingularStateError,
                   f"sin(theta_{j + 1}) = 0 in the angular chain")
            value = value / sins2[j]
        value = value + _sq(p_theta[j])
        if nz[j]:
            _check((b[j] != 0.0) & (coss2[j] < _SING2), SingularStateError,
                   f"cos(theta_{j + 1}) = 0 with b_{j + 1} != 0")
            value = value + b[j] / coss2[j]
        out.append(value)
    return out


def radial_hamiltonian(r, p_r, c_n, mu2, metric, potential=None):
    """Energy of the reduced one-degree-of-freedom radial system:

        H(r, p_r) = [p_r^2 + (C_N + mu2)/r^2] / (2 f(r)^2) + U(r),

    on floats or numpy columns, f (domain-checked) and U = potential.u (a
    PotentialSpec's, or None for no potential) row by row on floats.
    """
    f = _rows(metric.f, r)
    value = (_sq(p_r) + (c_n + mu2) / _sq(r)) / (2.0 * f * f)
    if potential is not None:
        value = value + _rows(potential.u, r)
    return value
