"""Full Hamiltonian assembly, analytic gradients, and trajectory audits.

The Hamiltonian of a SystemSpec is

    H = [p^2 + mu^2/q^2 + sum_i b_i/q_i^2] / (2 f(|q|)^2) + U(|q|) ,

equivalently the coalgebra grouping [J+ + mu^2/J-]/(2 f(sqrt(J-))^2)
+ U(sqrt(J-)) in terms of the sl(2,R) generators; both orderings are
provided and agree to rounding.  Along the flow of Hamilton's equations,
H is conserved together with every universal integral C^(m)/C_(m),
whatever f and U -- conservation_report certifies exactly that.

Two integrators are provided.  The default is an adaptive embedded
Runge-Kutta of order 8(5,3) (rtol 1e-10 / atol 1e-12), the accuracy
workhorse.  For long-time drift studies there is a fixed-step implicit
midpoint rule (symplectic, order 2) with fixed-point iteration; H is not
separable as T(p) + V(q) -- f couples positions to momenta -- so explicit
leapfrog is not an option.  Each step's iteration starts from a predictor
built from the converged midpoint slopes of the previous steps (Hairer,
Lubich and Wanner, Geometric Numerical Integration, sec. VIII.6), which
puts it O(h^3) from the root, so most steps converge in two or three RHS
calls.

Integration halts early, recording the reason and the last valid state,
when a centrifugal axis is approached (|q_i| < 1e-10 with b_i != 0), when
|q| reaches the edge of the system domain, when the step size underflows
near a singular set, or when a quadrature-backed U fails to evaluate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
from scipy.integrate import DOP853

from .algebra import PhaseState, integral_set, sl2_realize, _check_b
from .geometry import DomainViolation
from .potentials import QuadratureError

__all__ = [
    "TrajectoryRecord", "hamiltonian", "hamiltonian_coalgebra", "gradient",
    "integrate", "conservation_report",
]

_AXIS_EPS = 1e-10   # |q_i| below this with b_i != 0 counts as singular
_EDGE_EPS = 1e-10   # margin for domain-exit detection


def _validate(sys, s: PhaseState) -> float:
    if s.n != sys.n:
        raise ValueError(f"state has dimension {s.n}, system expects {sys.n}")
    _check_b(s, sys.b)
    lo, hi = sys.domain
    r = s.radius
    if not lo < r < hi:
        raise DomainViolation(f"|q| = {r:.6g} outside the system domain ({lo:.6g}, {hi:.6g})")
    return r


def hamiltonian(sys, s: PhaseState) -> float:
    """H(q, p), grouped exactly as written in the module docstring."""
    r = _validate(sys, s)
    k = float(np.dot(s.p, s.p)) + sys.mu2 / (r * r)
    for i, bi in enumerate(sys.b):
        if bi != 0.0:
            k += bi / s.q[i] ** 2
    fr = sys.metric.f(r)
    val = k / (2.0 * fr * fr)
    if sys.potential is not None:
        val += sys.potential.u(r)
    return val


def hamiltonian_coalgebra(sys, s: PhaseState) -> float:
    """The same value through the coalgebra grouping [J+ + mu^2/J-]/(2f^2) + U."""
    _validate(sys, s)
    tri = sl2_realize(s, sys.b)
    r = math.sqrt(tri.jminus)
    fr = sys.metric.f(r)
    val = (tri.jplus + sys.mu2 / tri.jminus) / (2.0 * fr * fr)
    if sys.potential is not None:
        val += sys.potential.u(r)
    return val


def _make_rhs(sys):
    """Closure y -> ydot = (dH/dp, -dH/dq) over plain floats, y = (q, p).

    Chain rule on H = K/(2 f^2) + U with K = p^2 + mu^2/r^2 + sum b_i/q_i^2:

        dH/dp_i = p_i / f^2
        dH/dq_i = [-mu^2 q_i/r^4 - b_i/q_i^3]/f^2 - K f' q_i/(f^3 r) + U' q_i/r

    The only validation is one metric domain check of |q| per call, ahead of
    the raw compiled f and f': the integrators rely on its DomainViolation at
    out-of-domain stage points (DOP853 gets NaN and shrinks the step; the
    midpoint rule halts).  Plain floats, not numpy arrays: on vectors this
    short (measured up to N = 8) numpy's per-call overhead outweighs the
    arithmetic, even counting the DOP853 callback's list/array conversions.
    """
    n = sys.n
    mu2 = sys.mu2
    b = tuple(float(x) for x in sys.b)
    check_domain = sys.metric.check_domain
    f, fprime, _ = sys.metric.compiled()
    du = sys.potential.du if sys.potential is not None else None

    def rhs(y):
        r2 = 0.0
        for i in range(n):
            r2 += y[i] * y[i]
        r = math.sqrt(r2)
        check_domain(r)
        fr = f(r)
        inv_f2 = 1.0 / (fr * fr)
        k = mu2 / r2
        for i in range(n):
            k += y[n + i] * y[n + i]
        for i in range(n):
            if b[i] != 0.0:
                k += b[i] / (y[i] * y[i])
        coef = -mu2 / (r2 * r2) * inv_f2 - k * fprime(r) / (fr * fr * fr * r)
        if du is not None:
            coef += du(r) / r
        out = [0.0] * (2 * n)
        for i in range(n):
            g = coef * y[i]
            if b[i] != 0.0:
                g -= b[i] / y[i] ** 3 * inv_f2
            out[i] = y[n + i] * inv_f2
            out[n + i] = -g
        return out

    return rhs


def gradient(sys, s: PhaseState) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (dH/dq, dH/dp), assembled from f, f' and U'."""
    _validate(sys, s)
    ydot = np.array(_make_rhs(sys)(s.q.tolist() + s.p.tolist()))
    return -ydot[sys.n:], ydot[:sys.n]


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled trajectory with conservation bookkeeping.

    series maps each audited quantity ("H", "Cl2", ..., "ClN", "Cr2", ...,
    "CrN") to its read-only time series, one value per sample; drift maps
    the same names to max_t |v(t) - v(0)| / (1 + |v(0)|).  halted is None
    for a completed run, otherwise a short reason; on a halt the last valid
    state is kept as the final sample.
    """

    times: np.ndarray
    states: tuple
    series: MappingProxyType
    drift: dict
    stats: dict
    method: str
    halted: str | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("a trajectory needs at least one sample")
        if not np.all(np.diff(t) > 0):
            raise ValueError("sample times must be strictly increasing")
        series = {name: np.array(v, dtype=float) for name, v in self.series.items()}
        if any(len(v) != t.size for v in series.values()) or len(self.states) != t.size:
            raise ValueError("sample columns disagree in length")
        if any(v < 0 for v in self.drift.values()):
            raise ValueError("drift entries must be nonnegative")
        t.setflags(write=False)
        for v in series.values():
            v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "series", MappingProxyType(series))

    @property
    def final_state(self) -> PhaseState:
        return self.states[-1]


def _drift(values: np.ndarray) -> float:
    v0 = values[0]
    return float(np.max(np.abs(values - v0)) / (1.0 + abs(v0)))


def integrate(sys, s0: PhaseState, t_end: float, method: str = "adaptive",
              rtol: float = 1e-10, atol: float = 1e-12, samples: int = 201,
              step: float = 1e-3, fp_tol: float = 1e-13,
              max_fp_iter: int = 100) -> TrajectoryRecord:
    """Integrate Hamilton's equations qdot = dH/dp, pdot = -dH/dq.

    method "adaptive" (default): embedded Runge-Kutta 8(5,3) with the given
    rtol/atol, sampled at `samples` equally spaced times.  method
    "midpoint": fixed-step implicit midpoint with step `step`, sampled every
    matching stride of steps.  Step k solves y1 = y0 + h F, F = rhs((y0 +
    y1)/2), by fixed-point iteration started from y0 + h G: G = rhs(y0) (an
    explicit Euler guess) at step 1, G = F_1 at step 2 and G = 2 F_1 - F_2
    from step 3 on, F_1 and F_2 being the converged slopes of the last two
    steps.  Each iteration costs one RHS call; it stops once the update
    delta = max|y_new - y_old| satisfies delta <= fp_tol (1 + max|y_new|),
    and the run halts after max_fp_iter iterations without that.
    stats["nfev"] counts the step-1 Euler call plus every fixed-point call.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if method not in ("adaptive", "midpoint"):
        raise ValueError(f"unknown method {method!r} (adaptive | midpoint)")
    hamiltonian(sys, s0)  # validates dimension, domain, centrifugal axes
    n = sys.n
    lo, hi = sys.domain
    rmin = lo + _EDGE_EPS * max(1.0, abs(lo)) if lo > 0.0 else _EDGE_EPS
    rmax = hi - _EDGE_EPS * max(1.0, abs(hi)) if math.isfinite(hi) else math.inf
    b_idx = [i for i, bi in enumerate(sys.b) if bi != 0.0]

    def violation(y):
        r2 = 0.0
        for i in range(n):
            r2 += y[i] * y[i]
        if not rmin < math.sqrt(r2) < rmax:
            return "domain-exit"
        for i in b_idx:
            if abs(y[i]) < _AXIS_EPS:
                return "singular-axis"
        return None

    ts, states, hs, isets = [], [], [], []

    def record(t, y):
        st = PhaseState(np.array(y[:n], dtype=float), np.array(y[n:], dtype=float))
        hs.append(hamiltonian(sys, st))  # first: a QuadratureError appends nothing
        ts.append(float(t))
        states.append(st)
        isets.append(integral_set(st, sys.b))

    y0 = np.concatenate([s0.q, s0.p])
    record(0.0, y0)

    if method == "adaptive":
        kernel = _make_rhs(sys)

        def rhs(t, y):
            try:
                return np.array(kernel(y.tolist()))
            except (ValueError, ArithmeticError):
                return np.full(2 * n, np.nan)

        solver = DOP853(rhs, 0.0, y0, t_end, rtol=rtol, atol=atol)
        sample_ts = np.linspace(0.0, t_end, samples)
        next_i = 1
        steps = rejections = 0
        nfev_mark = solver.nfev
        halted = None
        try:
            while solver.status == "running":
                msg = solver.step()
                if solver.status == "failed":
                    halted = f"step-size underflow: {msg}"
                    if solver.t > ts[-1]:  # last accepted state is still valid
                        record(solver.t, solver.y)
                    break
                steps += 1
                # each attempted step costs the 12 stage evaluations of the
                # 8(5,3) pair, so extra multiples of 12 are rejected attempts
                rejections += max(0, (solver.nfev - nfev_mark) // 12 - 1)
                nfev_mark = solver.nfev
                dense = None
                t_hi = solver.t
                reason = violation(solver.y)
                if reason is not None:
                    dense = solver.dense_output()
                    a, c = solver.t_old, solver.t
                    for _ in range(80):  # bisect the crossing time
                        mid = 0.5 * (a + c)
                        if violation(dense(mid)) is None:
                            a = mid
                        else:
                            c = mid
                    t_hi = a
                while next_i < samples and sample_ts[next_i] <= t_hi + 1e-12 * max(1.0, t_hi):
                    if dense is None:
                        dense = solver.dense_output()
                    record(float(sample_ts[next_i]), dense(float(sample_ts[next_i])))
                    next_i += 1
                nfev_mark = solver.nfev  # dense output costs 3 extra evaluations
                if reason is not None:
                    halted = reason
                    if t_hi > ts[-1] + 1e-12 * max(1.0, t_hi):
                        record(t_hi, dense(t_hi))
                    break
        except QuadratureError as exc:
            halted = f"quadrature failed: {exc}"
        stats = {"steps": steps, "nfev": int(solver.nfev), "rejections": int(rejections)}
    else:
        if not step > 0:
            raise ValueError(f"step must be positive, got {step}")
        rhs = _make_rhs(sys)
        nsteps = max(1, round(t_end / step))
        h = t_end / nsteps
        stride = max(1, nsteps // (samples - 1))
        m = 2 * n
        y = [float(v) for v in y0]
        f1 = f2 = None  # converged midpoint slopes of the last two steps
        halted = None
        nfev = 0
        fp_worst = 0
        done = 0
        try:
            for kstep in range(1, nsteps + 1):
                try:
                    if f1 is None:
                        f0 = rhs(y)
                        nfev += 1
                        ynew = [y[j] + h * f0[j] for j in range(m)]
                    elif f2 is None:
                        ynew = [y[j] + h * f1[j] for j in range(m)]
                    else:
                        ynew = [y[j] + h * (2.0 * f1[j] - f2[j]) for j in range(m)]
                    mid = [0.5 * (y[j] + ynew[j]) for j in range(m)]
                    for it in range(max_fp_iter):
                        fm = rhs(mid)
                        nfev += 1
                        delta = scale = 0.0
                        for j in range(m):
                            v = y[j] + h * fm[j]
                            d = abs(v - ynew[j])
                            if d > delta or d != d:  # a NaN never converges
                                delta = d
                            if abs(v) > scale:
                                scale = abs(v)
                            ynew[j] = v
                            mid[j] = 0.5 * (y[j] + v)
                        if delta <= fp_tol * (1.0 + scale):
                            break
                    else:
                        halted = "fixed-point iteration stalled"
                        if (kstep - 1) * h > ts[-1]:
                            record((kstep - 1) * h, y)
                        break
                    fp_worst = max(fp_worst, it + 1)
                except (ValueError, ArithmeticError) as exc:
                    halted = f"rhs evaluation failed: {exc}"
                    if (kstep - 1) * h > ts[-1]:
                        record((kstep - 1) * h, y)
                    break
                f1, f2 = fm, f1
                prev = y
                y = ynew
                done = kstep
                reason = violation(y)
                if reason is not None:
                    halted = reason
                    if (kstep - 1) * h > ts[-1]:  # keep the last valid state
                        record((kstep - 1) * h, prev)
                    break
                if kstep % stride == 0 or kstep == nsteps:
                    record(kstep * h, y)
        except QuadratureError as exc:
            halted = f"quadrature failed: {exc}"
        stats = {"steps": done, "nfev": nfev, "rejections": 0,
                 "max_fp_iterations": fp_worst}

    towers = np.array([iset.left + iset.right for iset in isets])
    series = {"H": np.array(hs), **dict(zip(isets[0].as_dict(), towers.T))}
    drift = {name: _drift(vals) for name, vals in series.items()}
    return TrajectoryRecord(np.asarray(ts), tuple(states), series, drift,
                            stats, method, halted)


def conservation_report(rec: TrajectoryRecord, tol: float = 1e-7) -> dict:
    """Per-quantity drift with pass/fail against a drift tolerance."""
    quantities = {}
    ok = True
    for name, d in rec.drift.items():
        entry = {"initial": float(rec.series[name][0]), "drift": float(d),
                 "pass": bool(d <= tol)}
        ok = ok and entry["pass"]
        quantities[name] = entry
    return {
        "tolerance": float(tol),
        "method": rec.method,
        "t_final": float(rec.times[-1]),
        "samples": int(rec.times.size),
        "halted": rec.halted,
        "stats": dict(rec.stats),
        "quantities": quantities,
        "pass": bool(ok),
    }
