"""Full Hamiltonian assembly, analytic gradients, and trajectory audits.

The Hamiltonian of a SystemSpec is

    H = [p^2 + mu^2/q^2 + sum_i b_i/q_i^2] / (2 f(|q|)^2) + U(|q|) ,

equivalently the coalgebra grouping [J+ + mu^2/J-]/(2 f(sqrt(J-))^2)
+ U(sqrt(J-)) in terms of the sl(2,R) generators; both orderings are
provided and agree to rounding.  Along the flow of Hamilton's equations,
H is conserved together with every universal integral C^(m)/C_(m),
whatever f and U -- conservation_report certifies exactly that.

Two integrators are provided.  The default is the adaptive embedded
Runge-Kutta pair DOP853 of order 8(5,3) (Hairer, Norsett and Wanner,
Solving ODEs I, sec. II.10; rtol 1e-10 / atol 1e-12), the accuracy
workhorse, with the tableau, error norm, step control and dense output of
scipy.integrate's DOP853.  For long-time drift studies there is a
fixed-step implicit midpoint rule (symplectic, order 2) with fixed-point
iteration; H is not separable as T(p) + V(q) -- f couples positions to
momenta -- so explicit leapfrog is not an option.  Each step's iteration
starts from a predictor extrapolated from the converged midpoint slopes of
the previous five steps (Hairer, Lubich and Wanner, Geometric Numerical
Integration, sec. VIII.6.1), which puts it O(h^6) from the root, so on a
smooth orbit most steps converge after one RHS call.

Both integrators run on kernels generated as straight-line Python source
on plain floats, comparing without abs, max or min, from a system's
constants and its metric's domain check, as literals (see _rhs_source):
rhs(q0, ..., p{N-1}) -> ydot with the halt rule halt(x, y) in the same
source, and, with the RHS inlined, the whole adaptive run -- DOP853
stages, error norm, step control, halt checks and samples of every
attempt in one call -- and the whole midpoint run -- predictor,
fixed-point iteration, halt checks and sample stride of every step.  They
match the plain loop forms bit for bit and take their halt checks from
one generator (_halt_lines).  A system's kernels are kept by its value
(see _kernel); the dense output of an adaptive step, whose 3 extra stages
call rhs, by its dimension alone (see _make_dense).

Integration halts early, recording the reason and the last valid state,
when a centrifugal axis is approached or crossed (|q_i| < 1e-10 or a sign
change of q_i, with b_i != 0), when
|q| reaches the edge of the system domain, when the step size underflows
near a singular set, when an RHS evaluation the run cannot reject fails (a
midpoint pass, or a stage of an adaptive step's dense output), when an
interpolated sample falls outside the domain, or when a quadrature-backed U
fails to evaluate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from types import MappingProxyType

import numpy as np

from .algebra import PhaseState, sl2_columns, _check_b, _nonzero, _ordered_sum, _towers
from .algebra import integral_set  # noqa: F401  (perfbench/tracing.py wraps it by this name)
from .exprlang import to_python_block
from .geometry import DomainViolation, _outside_domain
from .potentials import QuadratureError

__all__ = [
    "TrajectoryRecord", "hamiltonian", "hamiltonian_coalgebra", "gradient",
    "integrate", "conservation_report",
]

_AXIS_EPS = 1e-10   # |q_i| below this with b_i != 0 counts as singular
_EDGE_EPS = 1e-10   # margin for domain-exit detection
_FP_TOL = 1e-13     # midpoint fixed-point tolerance, relative to 1 + max|y|
_MAX_FP_ITER = 100  # fixed-point passes per midpoint step before a stall
_MAX_STEPS = 10**9  # most midpoint steps a run may take
_DRIFT_TOL = 1e-7   # conservation_report passes a drift up to this
_QUEUE = 512        # samples integrate queues before a column pass over them

# DOP853 step control, as in scipy.integrate: the error estimate is of
# order 7, so a step scales by err^(-1/8) within [0.2, 10]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERR_EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0
_MIN_RTOL = 100.0 * math.ulp(1.0)


def _halt_bounds(sys) -> tuple[float, float]:
    """(rmin, rmax): the open interval of |q| a run halts on leaving, the
    system domain pulled in by _EDGE_EPS."""
    lo, hi = sys.domain
    return (lo + _EDGE_EPS * max(1.0, abs(lo)) if lo > 0.0 else _EDGE_EPS,
            hi - _EDGE_EPS * max(1.0, abs(hi)) if math.isfinite(hi) else math.inf)


class _SampleHalt(Exception):
    """A queued sample outside the system domain, found at a flush: it halts
    the run, with this message as the reason, as a QuadratureError of U does."""


def _check_domain(domain, r: float) -> None:
    lo, hi = domain
    if not lo < r < hi:
        raise DomainViolation(f"|q| = {r:.6g} outside the system domain ({lo:.6g}, {hi:.6g})")


def _f_and_u(domain, f, u, r, frs, us) -> None:
    """Append f(x) to frs and U(x) to us (u None: no U) for each x of the
    column r of |q| up to its first entry outside domain, then raise that
    one's DomainViolation; a row whose f or U raises appends neither.  The
    system domain lies inside the metric's, so f needs no check of its own."""
    lo, hi = domain
    out = ~((lo < r) & (r < hi))
    stop = int(out.argmax()) if out.any() else len(r)
    for x in r[:stop].tolist():
        fr = f(x)
        if u is not None:
            us.append(u(x))
        frs.append(fr)
    if stop < len(r):
        _check_domain(domain, float(r[stop]))


def _validate(sys, s: PhaseState) -> float:
    if s.n != sys.n:
        raise ValueError(f"state has dimension {s.n}, system expects {sys.n}")
    _check_b(s.q, sys.b)
    r = math.sqrt(_ordered_sum(x * x for x in s.q.tolist()))  # as the kernels sum |q|
    _check_domain(sys.domain, r)
    return r


def _energy(q, p, r, fr, u, mu2, b):
    """H from q, p, r = |q|, fr = f(r), u = U(r) (None without a potential),
    mu2 and b, grouped exactly as written in the module docstring.  Each is
    a float, or a numpy column over many states (q, p and b as sequences of
    them); the same float operations run on either."""
    k = _ordered_sum(x * x for x in p) + mu2 / (r * r)
    for x, bi, nz in zip(q, b, _nonzero(b)):
        if nz:
            k = k + bi / (x * x)
    val = k / (2.0 * fr * fr)
    return val if u is None else val + u


def hamiltonian(sys, s: PhaseState) -> float:
    """H(q, p), grouped exactly as written in the module docstring."""
    r = _validate(sys, s)
    fr = sys.metric.f(r)
    u = sys.potential.u(r) if sys.potential is not None else None
    return _energy(s.q.tolist(), s.p.tolist(), r, fr, u, sys.mu2, sys.b)


def hamiltonian_coalgebra(sys, s: PhaseState) -> float:
    """The same value through the coalgebra grouping [J+ + mu^2/J-]/(2f^2) + U,
    the paper's statement that H is a function of the sl(2,R) generators."""
    _validate(sys, s)
    jminus, _, jplus = sl2_columns(s.q.tolist(), s.p.tolist(), sys.b)
    r = math.sqrt(jminus)
    fr = sys.metric.f(r)
    val = (jplus + sys.mu2 / jminus) / (2.0 * fr * fr)
    if sys.potential is not None:
        val += sys.potential.u(r)
    return val


def _rhs_source(sys):
    """Source of Hamilton's RHS for one system, as (names, body, slope): the
    local names q0.., p0.. of y = (q, p), statements on them that leave coef
    (and inv_f2, unless f prints as 1.0) set, and one expression per
    component of ydot = (dH/dp, -dH/dq).

    Chain rule on H = K/(2 f^2) + U with K = p^2 + mu^2/r^2 + sum b_i/q_i^2:

        dH/dp_i = p_i / f^2
        dH/dq_i = [-mu^2 q_i/r^4 - b_i/q_i^3]/f^2 - K f' q_i/(f^3 r) + U' q_i/r

    The system fixes N, mu^2, the b_i, f, f', U' and the metric's domain and
    id, so all are baked in: unrolled over N, with terms only for the
    non-zero b_i, the domain check as literals, and f, f' and U' (a call to
    potential.du if U is quadrature-backed) from one exprlang.to_python_block,
    which evaluates each value they share once, as the body does q_i^2,
    f^2 and the centrifugal term bq_i = b_i/q_i^2 of K.  The float
    operations are those of the loop form of the formulas above, in order,
    with b_i/q_i^3 computed as b_i/(q_i q_i)/q_i, not by libm pow, so the
    results and the first exception raised are the same; where
    f prints as 1.0 (a flat space) the text leaves out f, f^2 and each
    factor 1/f^2 = 1.0, as x * 1.0 is x, and divides K f' by r, or, where
    f' prints as 0.0 too, leaves K * 0.0 undivided: for r in the domain
    (positive and finite), a signed zero or NaN over r is itself.
    The only validation is the metric domain check of |q|: out of the
    domain the code raises the DomainViolation of MetricSpec.check_domain,
    which the integrators rely on (the adaptive attempt is rejected and the
    step shrinks; the midpoint rule halts and quotes the message).
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

    items = [(metric.f_expr, metric.params), (metric.fp_expr, metric.params)]
    if potential is not None and potential.du_expr is not None:
        items.append((potential.du_expr, potential.params))
    f, fp, *du = to_python_block(items)
    du_term = [] if potential is None else [f"coef += {du[0] if du else 'du(r)'} / r"]
    # f = 1.0 (a flat space): f^2 and 1/f^2 are 1.0, and x * 1.0 is x, so
    # the text leaves out each factor 1/f^2 and divides by r alone
    flat = f == "1.0"
    over_f2 = "" if flat else " * inv_f2"
    body = [
        "r2 = " + " + ".join(f"(qq{i} := {x} * {x})" if b[i] != 0.0 else f"{x} * {x}"
                             for i, x in enumerate(q)),
        "r = math.sqrt(r2)",
        f"if not {lo!r} < r < {hi!r}:",
        f"    outside_domain(r, {lo!r}, {hi!r}, {metric.id!r})",
        *([] if flat else [f"fr = {f}", "f2 = fr * fr", "inv_f2 = 1.0 / f2"]),
        "k = " + " + ".join([f"{lit(mu2)} / r2"] + [f"{x} * {x}" for x in p]
                            + [f"(bq{i} := {lit(b[i])} / qq{i})" for i in range(n) if b[i] != 0.0]),
        f"coef = {lit(-mu2)} / (r2 * r2){over_f2} - k * {fp}"
        + ("" if flat and fp == "0.0" else " / r" if flat else " / (f2 * fr * r)"),
        *du_term,
    ]
    slope = [f"{x}{over_f2}" for x in p] + [
        f"-(coef * {x} - bq{i} / {x}{over_f2})" if b[i] != 0.0
        else f"-(coef * {x})" for i, x in enumerate(q)]
    return q + p, body, slope


def _exec(lines, sys=None):
    """Compile generated source lines and return their namespace.  Every
    float literal prints by repr, so inf and nan are bound as names; du, the
    U' of sys where U is quadrature-backed (any other U' is in the text), is
    the only call out that is not fixed.  A kernel reads nothing else, so its
    text, plus du, fixes it (see _kernel)."""
    potential = None if sys is None else sys.potential
    du = potential.du if potential is not None and potential.du_expr is None else None
    env = {"math": math, "abs": abs, "len": len, "range": range, "inf": math.inf,
           "nan": math.nan, "ValueError": ValueError, "ArithmeticError": ArithmeticError,
           "__builtins__": {}, "QuadratureError": QuadratureError, "SampleHalt": _SampleHalt,
           "outside_domain": _outside_domain, "du": du}
    exec(compile("\n".join(lines), "<generated kernel>", "exec"), env)
    return env


def _halt_lines(sys, x, y, stop):
    """The halt rule of a step from the state y to x, given the names of
    their 2N components: lines that run stop, a statement with {} for the
    reason's literal, for the first halt that applies.  |q| of x outside
    (rmin, rmax) (a NaN too) is "domain-exit"; for each b_i != 0,
    |x_i| < _AXIS_EPS or x_i y_i <= 0 (q_i changed sign) is
    "singular-axis".  Every kernel halts by these lines."""
    rmin, rmax = _halt_bounds(sys)
    r2 = " + ".join(f"{v} * {v}" for v in x[:sys.n])
    axes = " or ".join(f"{-_AXIS_EPS!r} < {x[i]} < {_AXIS_EPS!r} or {x[i]} * {y[i]} <= 0.0"
                       for i, bi in enumerate(sys.b) if bi != 0.0)
    lines = [f"if not {rmin!r} < math.sqrt({r2}) < {rmax!r}:",
             "    " + stop.format("'domain-exit'")]
    if axes:
        lines += [f"if {axes}:", "    " + stop.format("'singular-axis'")]
    return lines


_KEPT = {}  # (generator, metric, potential, repr of (mu2, b)) -> kernel


def _kernel(make, sys):
    """make(sys) for a kernel generator make, kept (up to 256) by what fixes
    its text: metric and potential (kept builds), mu2 and b by repr, as the
    text prints them, and the module constants as at the first make."""
    key = (make, sys.metric, sys.potential, repr((sys.mu2, sys.b)))
    kernel = _KEPT.get(key)
    if kernel is None:
        if len(_KEPT) >= 256:
            _KEPT.clear()
        kernel = _KEPT[key] = make(sys)
    return kernel


def _make_rhs(sys):
    """Generate rhs(q0, ..., p{N-1}) -> ydot = (dH/dp, -dH/dq), a tuple, for
    one system: straight-line code from _rhs_source on plain floats, as on
    vectors this short numpy's per-call overhead outweighs the arithmetic.
    The same source defines halt(x, y), the halt reason of a step from y to
    x (sequences of 2N floats) by _halt_lines, or None; it is
    rhs.__globals__["halt"]."""
    names, body, slope = _rhs_source(sys)
    m = len(names)
    return _exec([
        f"def rhs({', '.join(names)}):",
        *("    " + line for line in body),
        f"    return {', '.join(slope)},",
        "def halt(x, y):",
        *("    " + line for line in _halt_lines(
            sys, [f"x[{j}]" for j in range(m)], [f"y[{j}]" for j in range(m)], "return {}")),
    ], sys)["rhs"]


def _make_march(sys):
    """Generate march(y, h, nsteps, stride, record) for one system: the
    whole implicit-midpoint run from the state y, as described in integrate,
    with the RHS of _rhs_source inlined, the sweep unrolled over 2N, and the
    halt checks, _FP_TOL and _MAX_FP_ITER baked in.

    Each fixed-point pass evaluates the RHS at w = (y + x)/2 and forms the
    new iterates v = y + h rhs(w).  A pass with every -_FP_TOL <= v_j - x_j
    <= _FP_TOL has converged, whatever the scale: fl(1 + scale) >= 1 and
    rounding is monotone, so integrate's stopping rule holds too.  That
    exact fast test stops the step at once; any other pass sweeps x to v
    for delta and scale and takes the stopping rule itself, so every pass
    count and state is the same as with the sweep alone.  Step 1's Euler
    call, one pass at x = y (so w = y exactly) before the step loop, sets
    the Euler predictor x = v untested.  Every later step starts from x =
    y + h G, G extrapolated from the converged slopes g of the steps before
    (the registers F2 to F5 hold the four before g): step k <= 5 through
    all k - 1 there are, by degree k - 2, and every later step through the
    last five, by degree 4, G = 5 (g - F4) + 10 (F3 - F2) + F5.  A step runs its passes in one
    while loop and moves each register by one assignment, so it builds no
    iterator and no tuple.  A converged step from y to v that
    _halt_lines stops halts the run; otherwise it is accepted, and record(t,
    y) gets every stride-th state and the last.
    It returns (steps, nfev, fp_worst, reason, exc, y): the steps accepted,
    the RHS evaluations that completed, the most fixed-point passes a step
    took, the halt reason or None, the exception that an RHS evaluation or
    record raised, if any, and the last accepted state.
    """
    names, body, slope = _rhs_source(sys)
    m = len(names)
    y, x, g, v = ([f"{c}{j}" for j in range(m)] for c in "yxgv")
    f2, f3, f4, f5 = ([f"F{k}_{j}" for j in range(m)] for k in (2, 3, 4, 5))
    rhs = [*(f"{w} = 0.5 * ({y[j]} + {x[j]})" for j, w in enumerate(names)), *body,
           *(f"{g[j]} = {e}" for j, e in enumerate(slope)), "nfev += 1"]
    sweep = []
    for j in range(m):
        sweep += [f"d = {v[j]} - {x[j]}",
                  "if d > delta or -d > delta or d != d:",  # a NaN never converges
                  "    delta = d if d > 0.0 else -d",
                  f"if {v[j]} > scale or -{v[j]} > scale:",
                  f"    scale = {v[j]} if {v[j]} > 0.0 else -{v[j]}"]
    band = " and ".join(f"{-_FP_TOL!r} <= {v[j]} - {x[j]} <= {_FP_TOL!r}" for j in range(m))

    def moves(dst, src):  # dst = src, one register at a time
        return [f"{a} = {b}" for a, b in zip(dst, src)]

    def predictor(slope):  # x = y + h G, G given over the slope registers
        return [f"{x[j]} = {y[j]} + h * "
                + slope.format(g=g[j], f2=f2[j], f3=f3[j], f4=f4[j], f5=f5[j])
                for j in range(m)]

    state = f"[{', '.join(y)}]"
    stop = "return {}, nfev, fp_worst, {}, " + state
    return _exec([
        "def march(y, h, nsteps, stride, record):",
        f"    {', '.join(y)} = y",
        *("    " + line for line in moves(x, y)),
        f"    {' = '.join(f2 + f3 + f4)} = 0.0",  # no predictor reads them before steps fill them
        "    nfev = fp_worst = 0",
        "    try:",
        *("        " + line for line in rhs + predictor("{g}")),
        "    except (ValueError, ArithmeticError, QuadratureError) as exc:",
        "        " + stop.format(0, "None, exc"),
        "    for kstep in range(1, nsteps + 1):",
        "        evals = 1",
        "        try:",
        "            while True:",
        *("                " + line for line in rhs),
        *(f"                {v[j]} = {y[j]} + h * {g[j]}" for j in range(m)),
        f"                if {band}:",
        "                    break",
        "                delta = scale = 0.0",
        *("                " + line for line in sweep + moves(x, v)),
        f"                if delta <= {_FP_TOL!r} * (1.0 + scale):",
        "                    break",
        f"                if evals == {_MAX_FP_ITER}:",
        "                    " + stop.format("kstep - 1", '"fixed-point iteration stalled", None'),
        "                evals += 1",
        "        except (ValueError, ArithmeticError, QuadratureError) as exc:",
        "            " + stop.format("kstep - 1", "None, exc"),
        "        if evals > fp_worst:",
        "            fp_worst = evals",
        *("        " + line for line in _halt_lines(sys, v, y, stop.format("kstep - 1", "{}, None"))
          + moves(y, v)),
        "        if kstep % stride == 0 or kstep == nsteps:",
        "            try:",
        f"                record(kstep * h, {state})",
        "            except QuadratureError as exc:",
        "                " + stop.format("kstep", "None, exc"),
        "        if kstep > 4:",
        *("            " + line for line in predictor(
            "(5.0 * ({g} - {f4}) + 10.0 * ({f3} - {f2}) + {f5})")),
        "        elif kstep == 4:",
        *("            " + line for line in predictor("(4.0 * ({g} + {f3}) - 6.0 * {f2} - {f4})")),
        "        elif kstep == 3:",
        *("            " + line for line in predictor("(3.0 * ({g} - {f2}) + {f3})")),
        "        elif kstep == 2:",
        *("            " + line for line in predictor("(2.0 * {g} - {f2})")),
        "        else:",
        *("            " + line for line in predictor("{g}")),
        *("        " + line for line in moves(f5, f4) + moves(f4, f3) + moves(f3, f2)
          + moves(f2, g)),
        "    return nsteps, nfev, fp_worst, None, None, None",
    ], sys)["march"]


def _combo(row, j):
    """sum_s row_s k_s of component j, zero entries of row dropped."""
    return " + ".join(f"{float(c)!r} * k{s}_{j}" for s, c in enumerate(row) if c != 0.0)


def _stage(source, s, row):
    """Stage s of a DOP853 step from y by h, row A_s of the tableau: the RHS
    source of _rhs_source at y + h sum_j A_sj k_j, its slopes set to k{s}_j."""
    names, body, slope = source
    return [*(f"{w} = y{j} + ({_combo(row, j)}) * h" for j, w in enumerate(names)),
            *body, *(f"k{s}_{j} = {e}" for j, e in enumerate(slope))]


def _dense_args(m):
    """The parameters of dense: h, then y, y_new and the 13 slopes of a step."""
    return ", ".join(["h", *(f"{c}{j}" for c in ["y", "yn", *(f"k{s}_" for s in range(13))]
                             for j in range(m))])


@lru_cache(maxsize=64)
def _make_dense(m):
    """Generate dense(rhs, h, y, y_new, k), m state components each: a step's
    3 extra DOP853 stages, one call of the system's rhs each, and its
    interpolant's 7 rows (see _interpolate); kept per m, and apart from
    _make_run, as one source of both would multiply the compile's peak memory."""
    from scipy.integrate._ivp import dop853_coefficients as tab
    return _exec([
        f"def dense(rhs, {_dense_args(m)}):",
        *(f"    {', '.join(f'k{s}_{j}' for j in range(m))} = rhs("
          + ", ".join(f"y{j} + ({_combo(tab.A[s, :s], j)}) * h" for j in range(m)) + ")"
          for s in range(13, 16)),
        *(f"    d{j} = yn{j} - y{j}" for j in range(m)),
        f"    return [[{', '.join(f'd{j}' for j in range(m))}],",
        f"            [{', '.join(f'h * k0_{j} - d{j}' for j in range(m))}],",
        f"            [{', '.join(f'2.0 * d{j} - h * (k12_{j} + k0_{j})' for j in range(m))}],",
        *(f"            [{', '.join(f'h * ({_combo(row, j)})' for j in range(m))}],"
          for row in tab.D),
        "            ]",
    ])["dense"]


def _make_run(sys):
    """Generate run(y, ydot, h_abs, nfev, t_end, rtol, atol, sample_ts,
    queue, dense) for one system: the whole adaptive run from y, ydot =
    rhs(y), by h_abs first, nfev RHS calls made, as in integrate.  An attempt runs the
    12 DOP853 stages, scipy's tableau (scipy.integrate._ivp.
    dop853_coefficients) as literals, zero entries dropped, the RHS of
    _rhs_source inlined, then scipy's error norm; each max and min is the
    builtin's comparison: the first argument unless the second is strictly
    larger (smaller).  A step across samples of sample_ts calls queue(times,
    y, rows, t, h), rows from dense.  Returns (steps, nfev, rejections,
    reason, exc, last, crossing): counts, halt reason, the QuadratureError
    of a stage or queue, or the ValueError, ArithmeticError or
    QuadratureError that dense raised, the (t, y) of a step-size underflow
    or of the step before that dense, and of a step that _halt_lines stops
    (next sample, t, t_new, y, dense's arguments), whose crossing integrate
    bisects."""
    from scipy.integrate._ivp import dop853_coefficients as tab
    source = names, body, slope = _rhs_source(sys)
    m = len(names)
    y, y_new = ([f"{c}{j}" for j in range(m)] for c in ("y", "yn"))
    state, args = f"[{', '.join(y)}]", _dense_args(m)
    attempt = [
        *(line for s in range(1, 12) for line in _stage(source, s, tab.A[s, :s])),
        *(f"{y_new[j]} = {w} = {y[j]} + h * ({_combo(tab.B, j)})" for j, w in enumerate(names)),
        *body, *(f"k12_{j} = {e}" for j, e in enumerate(slope)),  # rhs(y_new)
        *(line for j in range(m) for line in (
            f"a = -{y[j]} if {y[j]} < 0.0 else {y[j]}",
            f"b = -{y_new[j]} if {y_new[j]} < 0.0 else {y_new[j]}",
            f"sc{j} = atol + (b if b > a else a) * rtol")),
        *(f"e{j} = ({_combo(tab.E5, j)}) / sc{j}" for j in range(m)),
        *(f"g{j} = ({_combo(tab.E3, j)}) / sc{j}" for j in range(m)),
        "n5 = " + " + ".join(f"e{j} * e{j}" for j in range(m)),
        "n3 = " + " + ".join(f"g{j} * g{j}" for j in range(m)),
        f"err = 0.0 if n5 == 0.0 and n3 == 0.0 else h * n5 / math.sqrt((n5 + 0.01 * n3) * {m})",
    ]
    quadrature = "return steps, nfev, rejections, None, exc, None, None"
    stop = ("return steps, nfev, rejections, {}, None, None, "
            f"(next_i, t, t_new, {state}, ({args}))")
    underflow = "step-size underflow: Required step size is less than spacing between numbers."
    factor = f"{_SAFETY!r} * err ** {_ERR_EXPONENT!r}"
    return _exec([
        "def run(y, ydot, h_abs, nfev, t_end, rtol, atol, sample_ts, queue, dense):",
        f"    {', '.join(y)} = y",
        f"    {', '.join(f'k0_{j}' for j in range(m))} = ydot",
        "    t, next_i, steps, rejections, samples = 0.0, 1, 0, 0, len(sample_ts)",
        "    while t < t_end:",
        "        min_step = 10.0 * (math.nextafter(t, inf) - t)",
        "        h_abs = min_step if min_step > h_abs else h_abs",
        "        rejected = False",
        "        while h_abs >= min_step:",
        "            t_new = t_end if t_end < t + h_abs else t + h_abs",
        "            h = t_new - t",
        "            nfev += 12",
        "            try:",
        *("                " + line for line in attempt),
        "            except (ValueError, ArithmeticError):",
        "                err = nan",
        "            except QuadratureError as exc:",
        "                " + quadrature,
        "            if err < 1.0:",
        "                break",
        f"            factor = {factor}",
        f"            h_abs = h * (factor if factor > {_MIN_FACTOR!r} else {_MIN_FACTOR!r})",
        "            rejected = True",
        "            rejections += 1",
        "        else:",
        f"            return steps, nfev, rejections, {underflow!r}, None, (t, {state}), None",
        f"        factor = {_MAX_FACTOR!r} if err == 0.0 else {factor}",
        f"        factor = factor if factor < {_MAX_FACTOR!r} else {_MAX_FACTOR!r}",
        "        h_abs = h * (factor if not rejected or factor < 1.0 else 1.0)",
        "        steps += 1",
        *("        " + line for line in _halt_lines(sys, y_new, y, stop)),
        "        bound = t_new + 1e-12 * (t_new if t_new > 1.0 else 1.0)",
        "        if next_i < samples and sample_ts[next_i] <= bound:",
        "            first = next_i",
        "            while next_i < samples and sample_ts[next_i] <= bound:",
        "                next_i += 1",
        "            try:",
        f"                rows = dense({args})",
        "            except (ValueError, ArithmeticError, QuadratureError) as exc:",
        f"                return steps, nfev, rejections, None, exc, (t, {state}), None",
        "            nfev += 3",
        "            try:",
        f"                queue(sample_ts[first:next_i], {state}, rows, t, h)",
        "            except (QuadratureError, SampleHalt) as exc:",
        "                " + quadrature,
        "        t = t_new",
        *(f"        {a} = {b}" for a, b in zip(y, y_new)),
        *(f"        k0_{j} = k12_{j}" for j in range(m)),
        "    return steps, nfev, rejections, None, None, None, None",
    ], sys)["run"]


def _interpolate(rows, x, y_old):
    """States on accepted steps' interpolants, one per entry of the (S, 1)
    column x = (t - t_old)/h: scipy's Dop853DenseOutput, y_old plus the 7
    rows of the generated dense in reverse order, (7, m) for one step or
    (S, 7, m) for a step per entry, summed by Horner's rule over numpy
    columns, each factor x or 1 - x in turn."""
    y = np.zeros(np.broadcast_shapes(x.shape, y_old.shape))
    for i in range(rows.shape[-2]):
        y += rows[..., i, :]
        y *= x if i % 2 == 0 else 1.0 - x
    return y + y_old


def _rhs_or_nan(rhs, y):
    """rhs(y), or NaN in every component where it raises, as scipy's DOP853
    saw it: the step selection goes on, and the attempts from a NaN slope
    are rejected."""
    try:
        return rhs(*y)
    except (ValueError, ArithmeticError):
        return (math.nan,) * len(y)


def _rms(values) -> float:
    return math.sqrt(_ordered_sum(v * v for v in values)) / len(values) ** 0.5


def _initial_step(rhs, y, f, t_end, rtol, atol) -> float:
    """scipy's select_initial_step for DOP853's 7th-order error estimate
    (Hairer, Norsett and Wanner, sec. II.4), on floats: one probe rhs call."""
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(f, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    if h0 == 0.0:  # d1 overflowed to inf: scipy's step is then min(100 h0, ...) = 0
        return 0.0
    f1 = _rhs_or_nan(rhs, [v + h0 * w for v, w in zip(y, f)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t_end)


def gradient(sys, s: PhaseState) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (dH/dq, dH/dp), assembled from f, f' and U'."""
    _validate(sys, s)
    ydot = np.array(_kernel(_make_rhs, sys)(*s.q.tolist(), *s.p.tolist()))
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


def integrate(sys, s0: PhaseState, t_end: float, method: str = "adaptive",
              rtol: float = 1e-10, atol: float = 1e-12, samples: int = 201,
              step: float = 1e-3) -> TrajectoryRecord:
    """Integrate Hamilton's equations qdot = dH/dp, pdot = -dH/dq.

    method "adaptive" (default): embedded Runge-Kutta 8(5,3) with the given
    rtol/atol (atol > 0; rtol raised to at least 100 machine epsilons),
    sampled at `samples` equally spaced times.  After scipy's initial step,
    chosen here, the whole run is one call of the system's generated kernel
    (_make_run): scipy's DOP853 driver on Python floats, with the step
    factor 0.9 err^(-1/8) clipped to [0.2, 10] and capped at 1 after a
    rejection, and the step-size underflow below 10 ulps of t.  An attempt
    whose stage raises ValueError or ArithmeticError (a stage outside the
    metric domain) is rejected with factor 0.2.  Samples, and the crossing
    of a halt, bisected here, come from the interpolant of the step that
    spans them; an accepted step halts by the rule of _halt_lines, as the
    midpoint run does, so a step across a singular plane q_i = 0 with b_i
    != 0 (q_i changes sign) halts like one that ends within _AXIS_EPS of it.
    An accepted step whose dense output raises ValueError or
    ArithmeticError in one of its 3 extra stages halts the run as "rhs
    evaluation failed: ...", as a midpoint pass does, keeping the state
    before that step; an RHS that raises at the initial state halts the
    run so at t = 0, with nfev 0.  stats["nfev"] counts as scipy did: 2 for
    the initial slope and step, 12 per attempt and 3 per interpolant;
    stats["rejections"] counts the rejected attempts.

    method "midpoint": fixed-step implicit midpoint with step `step`,
    sampled every matching stride of steps.  Step k solves y1 = y0 + h F, F = rhs((y0 +
    y1)/2), by fixed-point iteration started from y0 + h G, G extrapolated
    from F_1, ..., F_5, the converged slopes of the last five steps:
    G = rhs(y0) (an explicit Euler guess) at step 1, F_1 at step 2,
    2 F_1 - F_2 at step 3, 3 (F_1 - F_2) + F_3 at step 4,
    4 (F_1 + F_3) - 6 F_2 - F_4 at step 5 and
    5 (F_1 - F_4) + 10 (F_3 - F_2) + F_5 from step 6 on, which starts O(h^6)
    from the root.  Each iteration costs one RHS call; it stops once the
    update delta = max|y_new - y_old| satisfies delta <= _FP_TOL (1 +
    max|y_new|), which an exact fast test of every |y_new - y_old| <=
    _FP_TOL decides first (see _make_march), and the run halts after
    _MAX_FP_ITER iterations without that.  At most _MAX_STEPS steps run:
    t_end / step above it raises ValueError, as one that overflows does.  A
    step accepted after one iteration is off the root by about h L/2 times
    the predictor's error (L a Lipschitz constant of rhs), far below
    _FP_TOL, but not zero: on long runs H drifts slowly, 6e-14 over t = 200
    on circular Kepler at h = 1e-3.
    stats["nfev"] counts the step-1 Euler call plus every fixed-point call
    that completed, also on a halt.  The whole midpoint run is one call of
    the system's generated kernel (_make_march), which calls back here only
    to queue a sample.

    Samples are queued -- a step's times with its interpolant rows, or a
    given state -- and flushed in one column pass (_interpolate over the
    stacked rows, |q|, then _f_and_u) at _QUEUE samples, at the end of the
    run and, for a U without a compiled expression, after every step: a
    QuadratureError of U halts the run at that step, the samples before it
    kept.  So does a sample outside the system domain, which only a step's
    interpolant can give (a loose rtol): "dense output failed: ..." quotes
    its DomainViolation, and the stats count the steps run before the flush
    that found it.  Any other error of f or U at a sample is raised at the
    flush: the same exception, for the same sample.  H and both towers are
    audited over whole columns at the end.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if method not in ("adaptive", "midpoint"):
        raise ValueError(f"unknown method {method!r} (adaptive | midpoint)")
    hamiltonian(sys, s0)  # validates dimension, domain, centrifugal axes
    n = sys.n
    # the queue: per piece (t_old, h, y_old, rows), a step's interpolant or
    # a given state y_old (rows no_rows), and per sample its piece
    f = sys.metric.compiled()[0]
    u = sys.potential.u if sys.potential is not None else None
    eager = u is not None and sys.potential.u_expr is None
    ts, ys, rs, frs, us = [], [], [], [], []
    pieces, owner, no_rows = [], [], np.zeros((7, 2 * n))

    def queue(times, y_old, rows=None, t_old=0.0, h=1.0):
        owner.extend([len(pieces)] * len(times))
        pieces.append((t_old, h, y_old, no_rows if rows is None else rows))
        ts.extend(times)
        if eager or len(owner) >= _QUEUE:
            flush()

    def flush():
        if not owner:
            return
        k = np.array(owner)
        t_old, h, y_old, rows = (np.array(v)[k] for v in zip(*pieces))
        x = ((np.array(ts[-k.size:]) - t_old) / h)[:, None]
        # a given state is kept as given: 0.0 + y_old turns -0.0 into 0.0
        given = np.array([p[3] is no_rows for p in pieces])[k, None]
        y = np.where(given, y_old, _interpolate(rows[:, ::-1], x, y_old))
        with np.errstate(over="ignore"):  # an inf |q| is a domain halt below, as in _audit
            r = np.sqrt(_ordered_sum(c * c for c in y.T[:n]))  # |q| as _validate sums it
        before = len(frs)
        try:
            _f_and_u(sys.domain, f, u, r, frs, us)
        except DomainViolation as exc:  # an interpolated sample: every other lies inside
            raise _SampleHalt(f"dense output failed: {exc}") from None
        finally:
            done = len(frs) - before
            ys.append(y[:done])
            rs.append(r[:done])
            del ts[len(ts) - k.size + done:], pieces[:], owner[:]

    y0 = np.concatenate([s0.q, s0.p])
    queue([0.0], y0.tolist())
    steps = nfev = rejections = fp_worst = 0
    # on a halt: the reason, and the last valid (t, y), recorded unless
    # within 1e-12 (relative) of the last sample or the halt is a quadrature's
    halted = last = None
    try:
        if method == "adaptive":
            if not atol > 0.0:  # the error scale atol + |y| rtol divides
                raise ValueError(f"atol must be positive, got {atol}")
            # Python floats throughout: a numpy scalar would slow every attempt
            rtol, atol, t_end = max(float(rtol), _MIN_RTOL), float(atol), float(t_end)
            rhs = _kernel(_make_rhs, sys)
            dense = partial(_make_dense(2 * n), rhs)
            sample_ts = np.linspace(0.0, t_end, samples).tolist()
            y = y0.tolist()
            try:
                ydot = rhs(*y)
            except (ValueError, ArithmeticError) as e:  # halts as a failing midpoint pass does
                exc, last, crossing = e, (0.0, y), None
            else:
                nfev = 2  # rhs(y0) and the initial-step probe
                steps, nfev, rejections, halted, exc, last, crossing = _kernel(_make_run, sys)(
                    y, ydot, _initial_step(rhs, y, ydot, t_end, rtol, atol), nfev, t_end, rtol,
                    atol, sample_ts, queue, dense)
            if crossing is not None:  # bisect the crossing time on the step's interpolant
                next_i, t_old, t, y_old, args = crossing
                try:
                    rows = dense(*args)
                except (ValueError, ArithmeticError, QuadratureError) as e:
                    exc, last = e, (t_old, y_old)
                else:
                    nfev += 3
                    h, halt = args[0], rhs.__globals__["halt"]  # compiled with rhs
                    back, start = np.array(rows)[::-1], np.array(y_old)
                    at = lambda t_s: _interpolate(back, np.array([[(t_s - t_old) / h]]), start)[0]
                    a, c = t_old, t
                    for _ in range(80):
                        mid = 0.5 * (a + c)
                        a, c = (mid, c) if halt(at(mid), y_old) is None else (a, mid)
                    first = next_i
                    while next_i < samples and sample_ts[next_i] <= a + 1e-12 * max(1.0, a):
                        next_i += 1
                    if next_i > first:
                        queue(sample_ts[first:next_i], y_old, rows, t_old, h)
                    last = a, at(a).tolist()
        else:
            if not step > 0 or math.isinf(t_end / step):
                raise ValueError(f"need step > 0 and t_end / step finite, got {t_end} / {step}")
            if t_end / step > _MAX_STEPS:
                raise ValueError(f"need t_end / step <= {_MAX_STEPS}, got {t_end} / {step}")
            nsteps = max(1, round(t_end / step))
            h = t_end / nsteps
            steps, nfev, fp_worst, halted, exc, y = _kernel(_make_march, sys)(
                y0.tolist(), h, nsteps, max(1, nsteps // (samples - 1)),
                lambda t_s, y_s: queue([t_s], y_s))
            last = steps * h, y
        if isinstance(exc, (QuadratureError, _SampleHalt)):
            raise exc
        if exc is not None:
            halted = f"rhs evaluation failed: {exc}"
        if halted is not None and last[0] > ts[-1] + 1e-12 * max(1.0, last[0]):
            queue([last[0]], last[1])
        flush()
    except QuadratureError as exc:
        halted = f"quadrature failed: {exc}"
    except _SampleHalt as exc:
        halted = str(exc)
    stats = {"steps": steps, "nfev": nfev, "rejections": rejections}
    if method == "midpoint":
        stats["max_fp_iterations"] = fp_worst

    y = np.concatenate(ys)
    q, p = y[:, :n], y[:, n:]
    series = _audit(q, p, np.concatenate(rs), np.array(frs),
                    np.array(us) if u is not None else None, sys.mu2, sys.b)
    table = np.array(list(series.values()))  # max |v - v0| / (1 + |v0|) per row
    v0 = table[:, 0]
    drift = dict(zip(series, (abs(table.T - v0).max(axis=0) / (1.0 + abs(v0))).tolist()))
    return TrajectoryRecord(np.array(ts), q, p, series, drift, stats, method,
                            halted)


def _audit(q, p, r, fr, u, mu2, b) -> dict:
    """H and both towers at every sample of a run, one column at a time: q
    and p are (T, N) arrays, r, fr and u the columns of |q|, f(|q|) and
    U(|q|) (u None without a potential), mu2 and b floats or columns too.  A
    sample with q_i = 0 where b_i != 0 raises SingularStateError, the first
    such sample named.  A float operation that overflows gives inf without
    a word, so the columns' do too."""
    _check_b(q, b)
    q, p = list(q.T), list(p.T)
    with np.errstate(over="ignore"):
        return {"H": _energy(q, p, r, fr, u, mu2, b), **_towers(q, p, b).as_dict()}


def conservation_report(rec: TrajectoryRecord) -> dict:
    """Per-quantity drift with pass/fail against _DRIFT_TOL."""
    quantities = {}
    ok = True
    for name, d in rec.drift.items():
        entry = {"initial": float(rec.series[name][0]), "drift": float(d),
                 "pass": bool(d <= _DRIFT_TOL)}
        ok = ok and entry["pass"]
        quantities[name] = entry
    return {
        "tolerance": _DRIFT_TOL,
        "method": rec.method,
        "t_final": float(rec.times[-1]),
        "samples": int(rec.times.size),
        "halted": rec.halted,
        "stats": dict(rec.stats),
        "quantities": quantities,
        "pass": bool(ok),
    }
