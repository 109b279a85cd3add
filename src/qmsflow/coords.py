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
    "spherical_casimir", "angular_chain", "radial_hamiltonian",
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
    hit = np.abs(sins[:-1]) < 1e-15
    if hit.any():
        raise ChartError(f"sin(theta_{np.nonzero(hit)[0][0] + 1}) = 0: chart is singular here")
    q, prod = [], 1.0
    for s, c in zip(sins, coss):
        q.append(r * c * prod)
        prod = prod * s
    q.append(r * prod)
    p = [p_r * x / r for x in q]
    # libm pow, as for a float: numpy squares a column as x * x, which
    # differs in the last bit for about 0.1 % of inputs
    sq = lambda x: np.array([v ** 2 for v in x.tolist()]) if isinstance(x, np.ndarray) else x ** 2
    r2, s_prod = sq(r), 1.0  # S_j = prod_{k<j} sin^2
    for j, (pt, nz) in enumerate(zip(p_theta, _nonzero(p_theta))):
        if nz:
            p = [a + pt * e / (r2 * s_prod) for a, e in zip(p, _e_theta(r, sins, coss, j))]
        s_prod = s_prod * sq(sins[j])
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
    """Invert the spherical chart: radius, successive arctangents, momenta.

    theta_j = atan2(|q_{j+1..N}|, q_j) for j <= N-2 lands in [0, pi]; the last
    angle is atan2(q_N, q_{N-1}) wrapped into [0, 2pi).
    """
    q, p = s.q, s.p
    n = s.n
    if n < 2:
        raise ValueError("need at least two coordinates for a spherical chart")
    # tail norms T_j = |q_{j..N}|, built backwards for accuracy
    tail = np.zeros(n + 1)
    for j in range(n - 1, -1, -1):
        tail[j] = math.hypot(q[j], tail[j + 1])
    r = tail[0]
    theta = np.empty(n - 1)
    for j in range(n - 2):
        if tail[j + 1] == 0.0:
            raise ChartError(f"q_{j + 2}..q_{n} all vanish: angles beyond theta_{j + 1} undefined")
        theta[j] = math.atan2(tail[j + 1], q[j])
    theta[n - 2] = math.atan2(q[n - 1], q[n - 2]) % _TWO_PI

    sins = np.sin(theta)
    coss = np.cos(theta)
    p_r = float(np.dot(q, p)) / r
    p_theta = np.array([float(np.dot(_e_theta(r, sins, coss, j), p))
                        for j in range(n - 1)])
    return SphericalPhaseState(r, theta, p_r, p_theta)


def spherical_casimir(m: int, s: SphericalPhaseState, b=None) -> float:
    """The right-family integral C_(m) in spherical variables, 2 <= m <= N.

    C_(m) = sum_{j=N-m+1}^{N-1} (p_theta_j^2 + b_j/cos^2 theta_j)
              / prod_{k=N-m+1}^{j-1} sin^2 theta_k
            + b_N / prod_{l=N-m+1}^{N-1} sin^2 theta_l .
    """
    n = s.n
    if not 2 <= m <= n:
        raise ValueError(f"need 2 <= m <= {n}, got m = {m}")
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"b must have length {n}")
    sins2 = np.sin(s.theta) ** 2
    coss2 = np.cos(s.theta) ** 2
    start = n - m  # 0-based index of the first participating angle
    total = 0.0
    s_prod = 1.0  # prod of sin^2 over participating angles before j
    for j in range(start, n - 1):
        term = s.p_theta[j] ** 2
        if b[j] != 0.0:
            if coss2[j] < _SING2:
                raise SingularStateError(f"cos(theta_{j + 1}) = 0 with b_{j + 1} != 0")
            term += b[j] / coss2[j]
        total += term / s_prod
        s_prod *= sins2[j]
    if b[n - 1] != 0.0:
        if s_prod < _SING2:
            raise SingularStateError(f"vanishing sine product with b_{n} != 0")
        total += b[n - 1] / s_prod
    return total


def angular_chain(s: SphericalPhaseState, b=None) -> list:
    """Evaluate the nested recursion for C_(2)..C_(N):

        C_(1) = b_N,
        C_(l) = p_theta_{N-l+1}^2 + C_(l-1)/sin^2 theta_{N-l+1}
                + b_{N-l+1}/cos^2 theta_{N-l+1} .
    """
    n = s.n
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"b must have length {n}")
    sins2 = np.sin(s.theta) ** 2
    coss2 = np.cos(s.theta) ** 2
    value = b[n - 1]
    out = []
    for level in range(2, n + 1):
        j = n - level  # 0-based angle index N-l+1
        if value != 0.0:
            if sins2[j] < _SING2:
                raise SingularStateError(f"sin(theta_{j + 1}) = 0 in the angular chain")
            value = value / sins2[j]
        value += s.p_theta[j] ** 2
        if b[j] != 0.0:
            if coss2[j] < _SING2:
                raise SingularStateError(f"cos(theta_{j + 1}) = 0 with b_{j + 1} != 0")
            value += b[j] / coss2[j]
        out.append(value)
    return out


def radial_hamiltonian(r: float, p_r: float, c_n: float, mu2: float,
                       metric, potential=None) -> float:
    """Energy of the reduced one-degree-of-freedom radial system:

        H(r, p_r) = [p_r^2 + (C_N + mu2)/r^2] / (2 f(r)^2) + U(r).

    `potential` may be any callable U(r) or an object with a .u method.
    """
    metric.check_domain(r)
    f = metric.f(r)
    value = (p_r ** 2 + (c_n + mu2) / r ** 2) / (2.0 * f * f)
    if potential is not None:
        u = getattr(potential, "u", potential)
        value += float(u(r))
    return value
