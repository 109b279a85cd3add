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

Both integrators run on kernels generated once per system as straight-line
Python source with the system's constants baked in (see _rhs_source): the
RHS, and the whole midpoint run -- predictor, fixed-point iteration, halt
checks and sample stride of every step in one call.  They match the plain
loop form of the chain rule bit for bit.

Integration halts early, recording the reason and the last valid state,
when a centrifugal axis is approached (|q_i| < 1e-10 with b_i != 0), when
|q| reaches the edge of the system domain, when the step size underflows
near a singular set, or when a quadrature-backed U fails to evaluate.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np
from scipy.integrate import DOP853

# integral_set is not called here; it stays bound because perfbench/tracing.py
# wraps dynamics.integral_set by name
from .algebra import PhaseState, integral_set, sl2_realize, _check_b, _towers  # noqa: F401
from .exprlang import to_python
from .geometry import DomainViolation
from .potentials import QuadratureError

__all__ = [
    "TrajectoryRecord", "hamiltonian", "hamiltonian_coalgebra", "gradient",
    "integrate", "conservation_report",
]

_AXIS_EPS = 1e-10   # |q_i| below this with b_i != 0 counts as singular
_EDGE_EPS = 1e-10   # margin for domain-exit detection


def _radius(q) -> float:
    """|q| of a sequence of floats, summed in order: the r of the generated
    RHS, of the halt checks and of the audit."""
    return math.sqrt(sum(x * x for x in q))


def _halt_bounds(sys) -> tuple[float, float]:
    """(rmin, rmax): the open interval of |q| a run halts on leaving, the
    system domain pulled in by _EDGE_EPS."""
    lo, hi = sys.domain
    return (lo + _EDGE_EPS * max(1.0, abs(lo)) if lo > 0.0 else _EDGE_EPS,
            hi - _EDGE_EPS * max(1.0, abs(hi)) if math.isfinite(hi) else math.inf)


def _check_domain(sys, r: float) -> None:
    lo, hi = sys.domain
    if not lo < r < hi:
        raise DomainViolation(f"|q| = {r:.6g} outside the system domain ({lo:.6g}, {hi:.6g})")


def _validate(sys, s: PhaseState) -> float:
    if s.n != sys.n:
        raise ValueError(f"state has dimension {s.n}, system expects {sys.n}")
    _check_b(s.q, sys.b)
    r = _radius(s.q.tolist())
    _check_domain(sys, r)
    return r


def _energy(sys, q, p, r, fr, u):
    """H from q, p, r = |q|, fr = f(r) and u = U(r) (None without a
    potential), grouped exactly as written in the module docstring.  Each
    argument but sys is a float, or a numpy column over many states (q and p
    as sequences of columns); the same float operations run on either."""
    k = sum(x * x for x in p) + sys.mu2 / (r * r)
    for x, bi in zip(q, sys.b):
        if bi != 0.0:
            k = k + bi / (x * x)
    val = k / (2.0 * fr * fr)
    return val if u is None else val + u


def hamiltonian(sys, s: PhaseState) -> float:
    """H(q, p), grouped exactly as written in the module docstring."""
    r = _validate(sys, s)
    fr = sys.metric.f(r)
    u = sys.potential.u(r) if sys.potential is not None else None
    return _energy(sys, s.q.tolist(), s.p.tolist(), r, fr, u)


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


def _rhs_source(sys):
    """Source of Hamilton's RHS for one system, as (names, body, slope): the
    local names q0.., p0.. of y = (q, p), statements on them that leave coef
    and inv_f2 set, and one expression per component of ydot = (dH/dp,
    -dH/dq).

    Chain rule on H = K/(2 f^2) + U with K = p^2 + mu^2/r^2 + sum b_i/q_i^2:

        dH/dp_i = p_i / f^2
        dH/dq_i = [-mu^2 q_i/r^4 - b_i/q_i^3]/f^2 - K f' q_i/(f^3 r) + U' q_i/r

    The system fixes N, mu^2, the b_i, f, f', U' and the metric domain, so
    all of them are baked in: unrolled over N, with terms only for the
    non-zero b_i, f and f' inlined through exprlang.to_python, U' inlined
    when the potential has a du_expr (a quadrature-backed U' stays a call to
    potential.du), and the domain bounds as literals.  The float operations
    are those of the loop form of the formulas above, in the same order, so
    the results are bitwise the same.  The only validation is the metric
    domain check of |q|: out of the domain the code raises the
    DomainViolation of MetricSpec.check_domain, which the integrators rely on
    (DOP853 gets NaN and shrinks the step; the midpoint rule halts and quotes
    the message).
    """
    n = sys.n
    metric, potential = sys.metric, sys.potential
    lo, hi = metric.domain
    b = [float(x) for x in sys.b]
    mu2 = float(sys.mu2)
    q = [f"q{i}" for i in range(n)]
    p = [f"p{i}" for i in range(n)]

    def lit(x):
        return f"({x!r})"

    if potential is None:
        du_term = []
    elif potential.du_expr is not None:
        du_term = [f"coef += ({to_python(potential.du_expr, potential.params)}) / r"]
    else:
        du_term = ["coef += du(r) / r"]
    body = [
        "r2 = " + " + ".join(f"{x} * {x}" for x in q),
        "r = math.sqrt(r2)",
        f"if not {lo!r} < r < {hi!r}:",
        "    check_domain(r)",
        f"fr = {to_python(metric.f_expr, metric.params)}",
        "inv_f2 = 1.0 / (fr * fr)",
        "k = " + " + ".join([f"{lit(mu2)} / r2"] + [f"{x} * {x}" for x in p]
                            + [f"{lit(b[i])} / ({q[i]} * {q[i]})"
                               for i in range(n) if b[i] != 0.0]),
        f"coef = {lit(-mu2)} / (r2 * r2) * inv_f2 - k * "
        f"({to_python(metric.fp_expr, metric.params)}) / (fr * fr * fr * r)",
        *du_term,
    ]
    slope = [f"{x} * inv_f2" for x in p] + [
        f"-(coef * {x} - {lit(b[i])} / {x} ** 3 * inv_f2)" if b[i] != 0.0
        else f"-(coef * {x})" for i, x in enumerate(q)]
    return q + p, body, slope


def _compile(sys, name, lines):
    """Compile the generated source of function `name` for sys.  Every float
    literal prints by repr, so inf and nan are bound as names; the metric
    domain check and U' are the only calls out."""
    potential = sys.potential
    env = {"math": math, "abs": abs, "range": range, "inf": math.inf, "nan": math.nan,
           "check_domain": sys.metric.check_domain,
           "du": potential.du if potential is not None else None,
           "ValueError": ValueError, "ArithmeticError": ArithmeticError,
           "QuadratureError": QuadratureError, "__builtins__": {}}
    exec(compile("\n".join(lines), f"<kernel of {sys.label}>", "exec"), env)
    return env[name]


def _make_rhs(sys):
    """Generate rhs(y) for one system: y = (q, p) -> ydot = (dH/dp, -dH/dq)
    as a list, straight-line code from _rhs_source.  Plain floats, not
    numpy arrays: on vectors this short numpy's per-call overhead outweighs
    the arithmetic."""
    names, body, slope = _rhs_source(sys)
    return _compile(sys, "rhs", [
        "def rhs(y):",
        f"    {', '.join(names)} = y",
        *("    " + line for line in body),
        f"    return [{', '.join(slope)}]",
    ])


def _make_march(sys):
    """Generate march(y, h, nsteps, stride, tol, maxit, record) for one
    system: the whole implicit-midpoint run from the state y, as described
    in integrate, with the RHS of _rhs_source inlined, the sweep unrolled
    over 2N and the halt checks baked in.

    Each fixed-point pass evaluates the RHS at w = (y + x)/2 and sweeps x to
    y + h rhs(w).  Step 1 opens with one pass at x = y, where w = y exactly:
    that is the Euler call, its sweep sets the Euler predictor, and it takes
    no convergence test.  A converged step that leaves (rmin, rmax) or comes
    within _AXIS_EPS of an axis with b_i != 0 halts the run; otherwise it is
    accepted, and record(t, y) gets every stride-th state and the last.
    It returns (kstep, done, nfev, fp_worst, reason, exc, y): the step
    reached, the steps accepted, the RHS evaluations that completed, the
    most fixed-point passes a step took, the halt reason or None, the
    exception that an RHS evaluation or record raised, if any, and the last
    accepted state.
    """
    names, body, slope = _rhs_source(sys)
    m = len(names)
    rmin, rmax = _halt_bounds(sys)
    y = [f"y{j}" for j in range(m)]
    x = [f"x{j}" for j in range(m)]
    g = [f"g{j}" for j in range(m)]
    f = [f"f{j}" for j in range(m)]
    sweep = []
    for j in range(m):
        sweep += [f"v = {y[j]} + h * {g[j]}",
                  f"d = abs(v - {x[j]})",
                  "if d > delta or d != d:",  # a NaN never converges
                  "    delta = d",
                  "if abs(v) > scale:",
                  "    scale = abs(v)",
                  f"{x[j]} = v"]
    axes = " or ".join(f"abs({x[i]}) < {_AXIS_EPS!r}"
                       for i, bi in enumerate(sys.b) if bi != 0.0)
    state = f"[{', '.join(y)}]"
    halt = "return kstep, done, nfev, fp_worst, {}, " + state
    return _compile(sys, "march", [
        "def march(y, h, nsteps, stride, tol, maxit, record):",
        f"    {', '.join(y)} = y",
        f"    {', '.join(x)} = y",
        "    done = nfev = fp_worst = 0",
        "    for kstep in range(1, nsteps + 1):",
        "        try:",
        "            for evals in range(kstep > 1, maxit + 1):",  # pass 0: Euler
        *(f"                {w} = 0.5 * ({y[j]} + {x[j]})" for j, w in enumerate(names)),
        *("                " + line for line in body),
        *(f"                {g[j]} = {e}" for j, e in enumerate(slope)),
        "                nfev += 1",
        "                delta = scale = 0.0",
        *("                " + line for line in sweep),
        "                if delta <= tol * (1.0 + scale) and evals:",
        "                    break",
        "            else:",
        "                " + halt.format('"fixed-point iteration stalled", None'),
        "        except (ValueError, ArithmeticError, QuadratureError) as exc:",
        "            " + halt.format("None, exc"),
        "        if evals > fp_worst:",
        "            fp_worst = evals",
        "        done = kstep",
        "        if not {!r} < math.sqrt({}) < {!r}:".format(
            rmin, " + ".join(f"{v} * {v}" for v in x[:m // 2]), rmax),
        "            " + halt.format('"domain-exit", None'),
        *([f"        if {axes}:", "            " + halt.format('"singular-axis", None')]
          if axes else []),
        f"        {', '.join(y)} = {', '.join(x)}",
        "        if kstep % stride == 0 or kstep == nsteps:",
        "            try:",
        f"                record(kstep * h, {state})",
        "            except QuadratureError as exc:",
        "                " + halt.format("None, exc"),
        "        if kstep == 1:",
        *(f"            {x[j]} = {y[j]} + h * {g[j]}" for j in range(m)),
        "        else:",
        *(f"            {x[j]} = {y[j]} + h * (2.0 * {g[j]} - {f[j]})" for j in range(m)),
        f"        {', '.join(f)} = {', '.join(g)}",
        "    return nsteps, done, nfev, fp_worst, None, None, None",
    ])


_KERNELS = weakref.WeakKeyDictionary()


def _kernel(sys, make):
    """The kernel that make (_make_rhs or _make_march) generates for sys,
    generated on first use: a system is fixed once built, so its kernels
    are too.  Each is generated only for the runs that use it, since
    compiling the midpoint run costs several times more than compiling the
    RHS."""
    kernels = _KERNELS.setdefault(sys, {})
    if make not in kernels:
        kernels[make] = make(sys)
    return kernels[make]


def gradient(sys, s: PhaseState) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (dH/dq, dH/dp), assembled from f, f' and U'."""
    _validate(sys, s)
    ydot = np.array(_kernel(sys, _make_rhs)(s.q.tolist() + s.p.tolist()))
    return -ydot[sys.n:], ydot[:sys.n]


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled trajectory with conservation bookkeeping.

    q and p are read-only (T, N) arrays, one row per sample time; states
    holds the same rows as PhaseStates, built on first access.  series maps
    each audited quantity ("H", "Cl2", ..., "ClN", "Cr2", ..., "CrN") to its
    read-only time series, one value per sample; drift maps the same names
    to max_t |v(t) - v(0)| / (1 + |v(0)|).  halted is None for a completed
    run, otherwise a short reason; on a halt the last valid state is kept as
    the final sample.
    """

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
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
        q = np.array(self.q, dtype=float)
        p = np.array(self.p, dtype=float)
        if q.ndim != 2 or q.shape != p.shape:
            raise ValueError(f"q and p must be equal (T, N) arrays, got {q.shape} and {p.shape}")
        series = {name: np.array(v, dtype=float) for name, v in self.series.items()}
        if any(len(v) != t.size for v in (q, *series.values())):
            raise ValueError("sample columns disagree in length")
        if any(v < 0 for v in self.drift.values()):
            raise ValueError("drift entries must be nonnegative")
        for v in (t, q, p, *series.values()):
            v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "series", MappingProxyType(series))

    @cached_property
    def states(self) -> tuple:
        return tuple(map(PhaseState, self.q, self.p))

    @property
    def final_state(self) -> PhaseState:
        return PhaseState(self.q[-1], self.p[-1])


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
    stats["nfev"] counts the step-1 Euler call plus every fixed-point call
    that completed, also on a halt.  The whole midpoint run is one call of
    the system's generated kernel (_make_march), which calls back here only
    to record a sample.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if method not in ("adaptive", "midpoint"):
        raise ValueError(f"unknown method {method!r} (adaptive | midpoint)")
    hamiltonian(sys, s0)  # validates dimension, domain, centrifugal axes
    n = sys.n
    rmin, rmax = _halt_bounds(sys)
    b_idx = [i for i, bi in enumerate(sys.b) if bi != 0.0]

    def violation(y):
        if not rmin < _radius(y[:n]) < rmax:
            return "domain-exit"
        for i in b_idx:
            if abs(y[i]) < _AXIS_EPS:
                return "singular-axis"
        return None

    # per sample, only what can fail there: a QuadratureError from U halts
    # the run with the samples before it kept; the rest of the audit runs
    # over whole columns once the run ends
    f = sys.metric.f
    u = sys.potential.u if sys.potential is not None else None
    ts, rows, rs, frs, us = [], [], [], [], []

    def record(t, y):
        r = _radius(y[:n])
        _check_domain(sys, r)
        fr = f(r)
        if u is not None:
            us.append(u(r))
        ts.append(float(t))
        rows.append(y)
        rs.append(r)
        frs.append(fr)

    y0 = np.concatenate([s0.q, s0.p])
    record(0.0, y0.tolist())

    if method == "adaptive":
        kernel = _kernel(sys, _make_rhs)

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
                        record(solver.t, solver.y.tolist())
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
                first = next_i
                while next_i < samples and sample_ts[next_i] <= t_hi + 1e-12 * max(1.0, t_hi):
                    next_i += 1
                if next_i > first:
                    if dense is None:
                        dense = solver.dense_output()
                    # the interpolant is elementwise in t, so one call for
                    # the step's samples gives the bits of one call each
                    block = sample_ts[first:next_i]
                    for t, y in zip(block.tolist(), dense(block).T.tolist()):
                        record(t, y)
                nfev_mark = solver.nfev  # dense output costs 3 extra evaluations
                if reason is not None:
                    halted = reason
                    if t_hi > ts[-1] + 1e-12 * max(1.0, t_hi):
                        record(t_hi, dense(t_hi).tolist())
                    break
        except QuadratureError as exc:
            halted = f"quadrature failed: {exc}"
        stats = {"steps": steps, "nfev": int(solver.nfev), "rejections": int(rejections)}
    else:
        if not step > 0:
            raise ValueError(f"step must be positive, got {step}")
        nsteps = max(1, round(t_end / step))
        h = t_end / nsteps
        kstep, done, nfev, fp_worst, halted, exc, y = _kernel(sys, _make_march)(
            y0.tolist(), h, nsteps, max(1, nsteps // (samples - 1)), fp_tol,
            max_fp_iter, record)
        try:
            if isinstance(exc, QuadratureError):
                raise exc  # to the quadrature halt that record shares
            if exc is not None:
                halted = f"rhs evaluation failed: {exc}"
            if halted is not None and (kstep - 1) * h > ts[-1]:
                record((kstep - 1) * h, y)  # keep the last valid state
        except QuadratureError as exc:
            halted = f"quadrature failed: {exc}"
        stats = {"steps": done, "nfev": nfev, "rejections": 0,
                 "max_fp_iterations": fp_worst}

    y = np.array(rows)
    q, p = y[:, :n], y[:, n:]
    series = _audit(sys, q, p, np.array(rs), np.array(frs),
                    np.array(us) if u is not None else None)
    drift = {name: _drift(vals) for name, vals in series.items()}
    return TrajectoryRecord(np.array(ts), q, p, series, drift, stats, method,
                            halted)


def _audit(sys, q, p, r, fr, u) -> dict:
    """H and both towers at every sample of a run, one column at a time: q
    and p are (T, N) arrays, r, fr and u the columns of |q|, f(|q|) and
    U(|q|) (u None without a potential).  A sample with q_i = 0 where
    b_i != 0 raises SingularStateError, the first such sample named."""
    _check_b(q, sys.b)
    q, p = list(q.T), list(p.T)
    return {"H": _energy(sys, q, p, r, fr, u), **_towers(q, p, sys.b).as_dict()}


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
