"""sl(2,R) symplectic realization, universal integrals, and a numerical
Poisson-bracket engine.

The three phase-space functions

    J- = q^2 ,   J3 = q.p ,   J+ = p^2 + sum_i b_i/q_i^2

close the sl(2,R) Poisson brackets {J3,J+} = 2J+, {J3,J-} = -2J-,
{J-,J+} = 4J3 for any choice of the centrifugal coefficients b.  Out of them
come the left/right families of quadratic integrals

    C^(m) = sum_{1<=i<j<=m} [ (q_i p_j - q_j p_i)^2 + b_i q_j^2/q_i^2
                              + b_j q_i^2/q_j^2 ] + sum_{i<=m} b_i ,

with C_(m) the mirror image over the last m axes and C^(N) = C_(N).  These
are conserved by every Hamiltonian of the form
[p^2 + mu^2/q^2 + sum b_i/q_i^2]/(2 f(|q|)^2) + U(|q|), whatever f and U.

Brackets of arbitrary user-supplied functions are computed numerically:
central differences with one level of Richardson extrapolation, per-coordinate
step h_i = 1e-6 * max(1, |x_i|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "PhaseState", "Sl2Triple", "IntegralSet", "SingularStateError",
    "sl2_realize", "casimir_left", "casimir_right", "integral_set",
    "so_n_generator", "angular_momentum_sq",
    "fd_gradient", "poisson_bracket", "independence_rank",
]


class SingularStateError(ValueError):
    """A coordinate hit a centrifugal singularity (q_i = 0 with b_i != 0)."""


@dataclass(frozen=True)
class PhaseState:
    """Generic coordinates q and conjugate momenta p (N-vectors, |q| > 0)."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if q.ndim != 1 or q.shape != p.shape:
            raise ValueError(f"q and p must be equal-length vectors, got {q.shape} and {p.shape}")
        if q.shape[0] < 1:
            raise ValueError("empty state")
        if not np.dot(q, q) > 0.0:
            raise ValueError("|q| must be positive")
        q.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def radius(self) -> float:
        return float(np.linalg.norm(self.q))


@dataclass(frozen=True)
class Sl2Triple:
    """Values (J-, J3, J+) of the coalgebra generators at a phase point."""

    jminus: float
    j3: float
    jplus: float

    def __post_init__(self):
        if not self.jminus > 0.0:
            raise ValueError(f"J- = q^2 must be positive, got {self.jminus}")


def _check_b(q: np.ndarray, b) -> np.ndarray:
    """b as a float array (zeros for None), checked against q, which is one
    state or one state per row: the first q_i = 0 with b_i != 0, row by row,
    raises SingularStateError."""
    n = q.shape[-1]
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"b must have length {n}, got shape {b.shape}")
    hit = (b != 0.0) & (q == 0.0)
    if np.any(hit):
        i = int(np.argmax(hit)) % n
        raise SingularStateError(f"q_{i} = 0 with b_{i} = {b[i]} != 0")
    return b


def sl2_realize(s: PhaseState, b: Sequence[float] | None = None) -> Sl2Triple:
    """Evaluate (J-, J3, J+) at a phase point for centrifugal coefficients b."""
    b = _check_b(s.q, b)
    q, p = s.q, s.p
    jminus = float(np.dot(q, q))
    j3 = float(np.dot(q, p))
    jplus = float(np.dot(p, p))
    nz = b != 0.0
    if np.any(nz):
        jplus += float(np.sum(b[nz] / q[nz] ** 2))
    return Sl2Triple(jminus, j3, jplus)


def so_n_generator(i: int, j: int, s: PhaseState) -> float:
    """Angular momentum component J_ij = q_i p_j - q_j p_i (0-based, i < j)."""
    if not 0 <= i < j < s.n:
        raise ValueError(f"need 0 <= i < j < {s.n}, got ({i}, {j})")
    return float(s.q[i] * s.p[j] - s.q[j] * s.p[i])


def angular_momentum_sq(s: PhaseState) -> float:
    """L^2 = sum_{i<j} J_ij^2, the b = 0 value of C^(N) = C_(N)."""
    return integral_set(s).left[-1] if s.n > 1 else 0.0


def casimir_left(m: int, s: PhaseState, b: Sequence[float] | None = None) -> float:
    """C^(m): the integral built over the first m axes, 2 <= m <= N."""
    if not 2 <= m <= s.n:
        raise ValueError(f"need 2 <= m <= {s.n}, got m = {m}")
    return integral_set(s, b).left[m - 2]


def casimir_right(m: int, s: PhaseState, b: Sequence[float] | None = None) -> float:
    """C_(m): the mirror integral over the last m axes, 2 <= m <= N."""
    if not 2 <= m <= s.n:
        raise ValueError(f"need 2 <= m <= {s.n}, got m = {m}")
    return integral_set(s, b).right[m - 2]


@dataclass(frozen=True)
class IntegralSet:
    """All universal integrals at one state: left C^(2..N), right C_(2..N).
    The top members are one number (same index set), kept for symmetry."""

    left: tuple          # (C^(2), ..., C^(N))
    right: tuple         # (C_(2), ..., C_(N))

    def as_dict(self) -> dict:
        n = len(self.left) + 1
        out = {f"Cl{m}": v for m, v in zip(range(2, n + 1), self.left)}
        out.update({f"Cr{m}": v for m, v in zip(range(2, n + 1), self.right)})
        return out


def integral_set(s: PhaseState, b: Sequence[float] | None = None) -> IntegralSet:
    """Both towers at s (see _towers)."""
    b = _check_b(s.q, b).tolist()
    return _towers(s.q.tolist(), s.p.tolist(), b)


def _towers(q: Sequence, p: Sequence, b: Sequence[float]) -> IntegralSet:
    """Both towers from the coordinates q_1..q_N, p_1..p_N, by nesting from
    C^(1) = b_1:

        C^(m) = C^(m-1) + sum_{i<m} [J_im^2 + b_i q_m^2/q_i^2
                                     + b_m q_i^2/q_m^2] + b_m

    over axes 1..N for the left tower and N..1 for the right one, O(N^2) in
    all.  C_(N) is taken from C^(N), so the top members agree exactly.  Zero
    b terms are skipped, since q may vanish there; b is not checked here.

    Each q_i and p_i is a float, or a numpy column holding that coordinate
    at many states.  The same float operations run on either, so every
    entry of a column result is the value at its state bit for bit.
    """
    out = []
    for q, p, b in ((q, p, b), (q[::-1], p[::-1], b[::-1])):
        sq = [x * x for x in q]
        c, tower = b[0], []
        for m in range(1, len(q)):
            pm, bm = p[m], b[m]
            for i in range(m):
                jim = q[i] * pm - q[m] * p[i]
                c = c + jim * jim
                if b[i] != 0.0:
                    c = c + b[i] * sq[m] / sq[i]
                if bm != 0.0:
                    c = c + bm * sq[i] / sq[m]
            c = c + bm
            tower.append(c)
        out.append(tower)
    left, right = out
    right[-1] = left[-1]
    return IntegralSet(tuple(left), tuple(right))


# ---------------------------------------------------------------------------
# numerical brackets
# ---------------------------------------------------------------------------

_EPS = 1e-6


def fd_gradient(fn: Callable[[PhaseState], float | Sequence[float]],
                s: PhaseState, eps: float = _EPS) -> tuple[np.ndarray, np.ndarray]:
    """(dF/dq, dF/dp) by central differences with one Richardson level.

    Per-coordinate step h_i = eps * max(1, |x_i|); the extrapolation
    (4 D(h/2) - D(h))/3 cancels the leading h^2 truncation term.  A scalar
    fn gives two N-vectors; a fn returning m values gives two contiguous
    (m, N) arrays, row a the gradient of value a, from one stencil sweep.
    Evaluation failures at stencil points (domain exits, centrifugal
    singularities) propagate to the caller.
    """
    x = np.concatenate([s.q, s.p])
    n = s.n
    rows = []

    def feval(vec):
        return np.asarray(fn(PhaseState(vec[:n], vec[n:])), dtype=float)

    for i in range(2 * n):
        h = eps * max(1.0, abs(x[i]))
        d = np.zeros_like(x)
        d[i] = h
        coarse = (feval(x + d) - feval(x - d)) / (2 * h)
        d[i] = 0.5 * h
        fine = (feval(x + d) - feval(x - d)) / h
        rows.append((4.0 * fine - coarse) / 3.0)
    grad = np.array(rows).T
    return (np.ascontiguousarray(grad[..., :n]),
            np.ascontiguousarray(grad[..., n:]))


def poisson_bracket(f: Callable[[PhaseState], float | Sequence[float]],
                    g: Callable[[PhaseState], float | Sequence[float]],
                    s: PhaseState, eps: float = _EPS) -> float | np.ndarray:
    """{F, G} = sum_i (dF/dq_i dG/dp_i - dG/dq_i dF/dp_i), numerically.

    For vector-valued f and g the result is the matrix {f_a, g_c}; with
    g is f the gradients are taken once.
    """
    fq, fp = fd_gradient(f, s, eps)
    gq, gp = (fq, fp) if g is f else fd_gradient(g, s, eps)
    out = fq @ gp.T - (gq @ fp.T).T
    return float(out) if out.ndim == 0 else out


def independence_rank(fn: Callable[[PhaseState], Sequence[float]],
                      s: PhaseState, threshold: float = 1e-8) -> int:
    """Numerical rank of the Jacobian of the values of fn at s.

    Rank counts singular values above threshold * (largest singular value);
    gradients use the same finite-difference scheme as poisson_bracket.  The
    threshold sits an order of magnitude above the ~1e-7 noise floor of the
    gradients.
    """
    sv = np.linalg.svd(np.hstack(fd_gradient(fn, s)), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > threshold * sv[0]))
