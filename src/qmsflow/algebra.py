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
step h_i = 1e-6 * max(1, |x_i|).  The function sees the stencils of one state
or of a stack of states in one call, q and p as lists of N numpy columns over
8N rows per state, and returns one column or m columns (see fd_gradient).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "PhaseState", "IntegralSet", "SingularStateError",
    "sl2_columns", "so_n_columns", "integral_set",
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


def _check_b(q: np.ndarray, b) -> np.ndarray:
    """b as a float array (zeros for None) or one column per axis (shape
    q.T), checked against q, one state or one state per row: the first
    q_i = 0 with b_i != 0 (i from 1), row by row, raises SingularStateError."""
    n = q.shape[-1]
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    if b.shape not in ((n,), q.T.shape):
        raise ValueError(f"b must have length {n}, got shape {b.shape}")
    hit = (b.T != 0.0) & (q == 0.0)
    if np.any(hit):
        i, bi = int(np.argmax(hit)) % n + 1, np.broadcast_to(b.T, hit.shape)[hit][0]
        raise SingularStateError(f"q_{i} = 0 with b_{i} = {bi} != 0")
    return b


def sl2_columns(q: Sequence, p: Sequence, b: Sequence | None = None) -> tuple:
    """(J-, J3, J+) from the coordinates q_1..q_N and p_1..p_N, each a float
    or a numpy column over many states, every sum taken in axis order; b_i
    may be a column too (then a zero entry needs q_i != 0 at its row).  The
    first q_i = 0 with b_i != 0 raises SingularStateError.  Symbolic b
    (sympy, say) takes the same sums unchecked."""
    b = [0.0] * len(q) if b is None else b
    if np.asarray(b).dtype != object:
        _check_b(np.transpose(q), b)
    jplus = _ordered_sum((bi / (x * x) for x, bi, nz in zip(q, b, _nonzero(b)) if nz),
                         _ordered_sum(y * y for y in p))
    return _ordered_sum(x * x for x in q), _ordered_sum(x * y for x, y in zip(q, p)), jplus


def _ordered_sum(terms, total=0):
    """sum(terms, total) added in order, as the kernels add (3.12's is compensated)."""
    for term in terms:
        total = total + term
    return total


def so_n_columns(q: Sequence, p: Sequence) -> list:
    """The so(N) generators J_ij = q_i p_j - q_j p_i for i < j, in the
    order of itertools.combinations, from floats or numpy columns."""
    return [q[i] * p[j] - q[j] * p[i] for i, j in combinations(range(len(q)), 2)]


def _nonzero(b) -> list:
    """Per axis, whether b_i (a float, a column or a symbol) is not all zero;
    the b_i terms of an axis that is are skipped, since q_i may vanish there."""
    return [bool(z.any() if isinstance(z, np.ndarray) else z) for z in (x != 0.0 for x in b)]


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


def _towers(q: Sequence, p: Sequence, b: Sequence) -> IntegralSet:
    """Both towers from the coordinates q_1..q_N, p_1..p_N, by nesting from
    C^(1) = b_1:

        C^(m) = C^(m-1) + sum_{i<m} [J_im^2 + b_i q_m^2/q_i^2
                                     + b_m q_i^2/q_m^2] + b_m

    over axes 1..N for the left tower and N..2 for the right one, O(N^2) in
    all; C_(N) is taken from C^(N), so the top members agree exactly.  An
    all-zero b_i's terms are skipped (see _nonzero); b is not checked here.

    Each q_i, p_i and b_i is a float, or a numpy column holding that value
    at many states.  The same float operations run on either, so every
    entry of a column result is the value at its state bit for bit.
    """
    nz, out = _nonzero(b), []
    for q, p, b, nz in ((q, p, b, nz), (q[:0:-1], p[:0:-1], b[:0:-1], nz[:0:-1])):
        sq = [x * x for x in q]
        c, tower = b[0], []
        for m in range(1, len(q)):
            pm, bm = p[m], b[m]
            for i in range(m):
                jim = q[i] * pm - q[m] * p[i]
                c = c + jim * jim
                if nz[i]:
                    c = c + b[i] * sq[m] / sq[i]
                if nz[m]:
                    c = c + bm * sq[i] / sq[m]
            c = c + bm
            tower.append(c)
        out.append(tower)
    left, right = out
    return IntegralSet(tuple(left), (*right, left[-1]))


# ---------------------------------------------------------------------------
# numerical brackets
# ---------------------------------------------------------------------------

_EPS = 1e-6
_RANK_THRESHOLD = 1e-8


def fd_gradient(fn: Callable[[list, list], np.ndarray | Sequence[np.ndarray]],
                s: PhaseState | Sequence[PhaseState] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dF/dq, dF/dp) by central differences with one Richardson level, at
    the state s or at each of S states of one dimension N, given as a
    sequence of PhaseStates or as one (S, 2N) array of rows (q, p).

    Per-coordinate step h_i = _EPS * max(1, |x_i|) with _EPS = 1e-6; the
    extrapolation (4 D(h/2) - D(h))/3 cancels the leading h^2 truncation
    term.  fn is called once, on the S * 8N stencil states x + D, state
    major: state k owns rows 8N k .. 8N k + 8N - 1 (a caller may repeat
    per-state parameters over them), its row 4i + c stepping coordinate i
    of x = (q, p) by h_i, -h_i, h_i/2, -h_i/2 for c = 0..3.  fn(q, p) gets
    q and p as lists of N numpy columns over the rows and returns one column
    (two N-vectors result) or m columns (two contiguous (m, N) arrays, row a
    the gradient of value a), each result with a leading state axis for a
    sequence and bit for bit what one call per state gives.  Failures in fn
    (domain exits, centrifugal singularities) propagate to the caller.
    """
    one = isinstance(s, PhaseState)
    x = s if isinstance(s, np.ndarray) else np.array([np.concatenate([t.q, t.p]) for t in ([s] if one else s)])
    n = x.shape[1] // 2
    h = _EPS * np.maximum(1.0, np.abs(x))
    d = (h[..., None] * [1.0, -1.0, 0.5, -0.5])[..., None] * np.eye(2 * n)[:, None]
    cols = (x[:, None, None] + d).reshape(-1, 2 * n).T
    v = np.asarray(fn(list(cols[:n]), list(cols[n:])), dtype=float)
    v = v.reshape(*v.shape[:-1], len(x), 2 * n, 4)
    coarse = (v[..., 0] - v[..., 1]) / (2 * h)
    fine = (v[..., 2] - v[..., 3]) / h
    grad = np.moveaxis((4.0 * fine - coarse) / 3.0, -2, 0)
    grad = grad[0] if one else grad
    return (np.ascontiguousarray(grad[..., :n]),
            np.ascontiguousarray(grad[..., n:]))


def poisson_bracket(f: Callable[[list, list], np.ndarray | Sequence[np.ndarray]],
                    g: Callable[[list, list], np.ndarray | Sequence[np.ndarray]],
                    s: PhaseState | Sequence[PhaseState] | np.ndarray) -> float | np.ndarray:
    """{F, G} = sum_i (dF/dq_i dG/dp_i - dG/dq_i dF/dp_i), numerically,
    with f, g and s (one state, a sequence or an array) as in fd_gradient.

    For vector-valued f and g the result is the matrix {f_a, g_c}, with a
    leading state axis for a sequence; with g is f the gradients are taken
    once.
    """
    fq, fp = fd_gradient(f, s)
    gq, gp = (fq, fp) if g is f else fd_gradient(g, s)
    # as one (m, N) matrix per state, a scalar function giving one row
    k = 0 if isinstance(s, PhaseState) else 1
    shape = fq.shape[:-1] + gq.shape[k:-1]
    fq, fp, gq, gp = (x.reshape(*x.shape[:k], -1, x.shape[-1]) for x in (fq, fp, gq, gp))
    t = lambda x: np.swapaxes(x, -1, -2)
    out = (fq @ t(gp) - t(gq @ t(fp))).reshape(shape)
    return float(out) if out.ndim == 0 else out


def independence_rank(fn: Callable[[list, list], Sequence[np.ndarray]],
                      s: PhaseState | Sequence[PhaseState] | np.ndarray) -> int | np.ndarray:
    """Numerical rank of the Jacobian of the values of fn at s, one state
    or S states as in fd_gradient (one rank per state, from one stacked SVD).

    Rank counts singular values above _RANK_THRESHOLD = 1e-8 times the largest
    one; gradients use the same finite-difference scheme as poisson_bracket.
    The threshold sits an order of magnitude above the ~1e-7 noise floor of
    the gradients.
    """
    sv = np.linalg.svd(np.concatenate(fd_gradient(fn, s), axis=-1), compute_uv=False)
    rank = np.sum(sv > _RANK_THRESHOLD * sv[..., :1], axis=-1)
    return int(rank) if isinstance(s, PhaseState) else rank
