import ast
import builtins
import hashlib
import math

import numpy as np
import pytest

from qmsflow import algebra, dynamics
from qmsflow.algebra import (
    PhaseState,
    SingularStateError,
    fd_gradient,
    integral_set,
    _towers,
)
from qmsflow.cli import _conserved
from qmsflow.dynamics import (
    TrajectoryRecord,
    conservation_report,
    gradient,
    hamiltonian,
    hamiltonian_coalgebra,
    integrate,
)
from qmsflow.geometry import (
    CATALOG,
    DomainViolation,
    MetricSpec,
    catalog_lookup,
    sample_radii,
)
from qmsflow.potentials import (
    NAMED_SYSTEMS,
    PotentialSpec,
    SystemSpec,
    kc_potential,
    named_system,
    oscillator_potential,
)

EUCLID = catalog_lookup("euclidean")

# catalog entries exercised in bulk, with safe generic parameters
PARAMS = {
    "darboux3b": {"k": 1.0},
    "darboux4": {"a": 2.0},
    "taub-nut": {"m": 1.0},
    "nu-fold": {"a": 1.0, "b": 1.0, "nu": 2},
    "nu-fold-a0": {"nu": 2},
}


def metric_of(mid):
    return catalog_lookup(mid, PARAMS.get(mid))


def anchor(domain):
    lo, hi = domain
    if math.isinf(hi):
        return 1.0 if lo == 0.0 else lo * math.e
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Hamiltonian values
# ---------------------------------------------------------------------------


def test_hamiltonian_flat_values():
    free = SystemSpec(EUCLID, None, mu2=0.0, n=2)
    s = PhaseState([1.0, 2.0], [3.0, 4.0])
    assert hamiltonian(free, s) == pytest.approx(12.5, abs=1e-15)
    mono = SystemSpec(EUCLID, None, mu2=1.0, n=2)
    assert hamiltonian(mono, s) == pytest.approx(12.6, abs=1e-15)


def test_hamiltonian_kepler_circular_energy():
    sys = SystemSpec(EUCLID, kc_potential(EUCLID, 1.0), n=3)
    s = PhaseState([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert hamiltonian(sys, s) == pytest.approx(-0.5, abs=1e-15)


def test_hamiltonian_agrees_with_coalgebra_grouping():
    rng = np.random.default_rng(5)
    for mid in ("euclidean", "darboux3b", "taub-nut"):
        metric = metric_of(mid)
        for pot in (None, kc_potential(metric, 0.7), oscillator_potential(metric, 0.4)):
            sys = SystemSpec(metric, pot, mu2=rng.uniform(0, 2),
                             b=rng.uniform(-1.5, 1.5, 3))
            for _ in range(10):
                q = rng.uniform(0.5, 1.5, 3) * rng.choice([-1, 1], 3)
                p = rng.uniform(-1.5, 1.5, 3)
                s = PhaseState(q, p)
                h = hamiltonian(sys, s)
                assert hamiltonian_coalgebra(sys, s) == pytest.approx(h, rel=1e-14)


def test_hamiltonian_validation():
    sys = SystemSpec(metric_of("darboux1"), None, n=2)  # domain (1, inf)
    with pytest.raises(DomainViolation):
        hamiltonian(sys, PhaseState([0.3, 0.4], [0.0, 0.0]))
    sys = SystemSpec(EUCLID, None, b=(0.5, 0.0))
    with pytest.raises(SingularStateError):
        hamiltonian(sys, PhaseState([0.0, 1.0], [0.1, 0.2]))
    with pytest.raises(ValueError):
        hamiltonian(sys, PhaseState([1.0, 1.0, 1.0], [0.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_gradient_flat_kepler_force():
    sys = SystemSpec(EUCLID, kc_potential(EUCLID, 1.0), n=3)
    q = np.array([1.0, 2.0, 2.0])  # |q| = 3
    s = PhaseState(q, [0.2, -0.1, 0.4])
    dq, dp = gradient(sys, s)
    assert dq == pytest.approx(q / 27.0, rel=1e-12)
    assert dp == pytest.approx(s.p, rel=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    metrics = [metric_of(mid) for mid in
               ("euclidean", "spherical", "darboux3b", "taub-nut", "nu-fold")]
    pots = []
    for metric in metrics:
        pots.append((metric, None))
        pots.append((metric, kc_potential(metric, 0.8)))
        pots.append((metric, oscillator_potential(metric, 0.6)))
    for _ in range(200):
        metric, pot = pots[rng.integers(len(pots))]
        n = int(rng.integers(2, 5))
        sys = SystemSpec(metric, pot, mu2=rng.uniform(0, 2),
                         b=rng.uniform(-1.2, 1.2, n))
        u = rng.uniform(0.4, 1.0, n) * rng.choice([-1, 1], n)
        u /= np.linalg.norm(u)
        q = anchor(sys.domain) * rng.uniform(0.8, 1.2) * u
        p = rng.uniform(-1.5, 1.5, n)
        s = PhaseState(q, p)
        dq, dp = gradient(sys, s)
        fq, fp = fd_gradient(lambda q, p: _conserved(sys, q, p)[0], s)
        scale = 1.0 + max(np.max(np.abs(dq)), np.max(np.abs(dp)))
        assert np.max(np.abs(dq - fq)) <= 1e-6 * scale
        assert np.max(np.abs(dp - fp)) <= 1e-6 * scale


def _radius(q):
    """|q| with the squares added in order, as the generated kernels add."""
    r2 = 0.0
    for x in q:
        r2 += x * x
    return math.sqrt(r2)


def _reference_rhs(sys):
    """Hamilton's RHS as a loop over N with calls to the checked metric
    domain, the compiled f and f' and PotentialSpec.du: the form whose float
    operations the generated kernels perform, in the same order."""
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


def test_generated_rhs_matches_the_loop_form_bit_for_bit():
    # every catalog metric free, with kc and with an oscillator, a custom f
    # with quadrature-backed potentials, and the named systems; N = 2, 3, 8,
    # mu2 zero and not, b with zero and non-zero entries
    rng = np.random.default_rng(7)
    custom = MetricSpec.from_source("1/(1 + 0.2*r^2)", id="custom")
    parts = [(custom, kc_potential(custom, 1.0)),
             (custom, oscillator_potential(custom, 0.01))]
    for mid in CATALOG:
        metric = metric_of(mid)
        parts += [(metric, None), (metric, kc_potential(metric, 0.8)),
                  (metric, oscillator_potential(metric, 0.6))]
    cases = parts + list(NAMED_SYSTEMS)
    compared = 0
    for k in range(4 * len(cases) * 3):
        case = cases[k % len(cases)]
        n = (2, 3, 8)[k // len(cases) % 3]
        mu2 = 0.0 if k // (3 * len(cases)) % 2 else float(rng.uniform(0.1, 2.0))
        b = rng.uniform(-1.0, 1.0, n)
        b[rng.random(n) < 0.4] = 0.0
        b[rng.integers(n)] = 0.0
        if isinstance(case, str):
            sys = named_system(case, {"n": n, "mu2": mu2, "centrifugal": b.tolist()})
        else:
            sys = SystemSpec(*case, mu2=mu2, b=b)
        new, ref = dynamics._make_rhs(sys), _reference_rhs(sys)
        radii = sample_radii(sys.domain, 64)
        for r in rng.choice(radii, 3):
            u = rng.normal(size=n)
            y = (r * u / np.linalg.norm(u)).tolist() + rng.uniform(-1.5, 1.5, n).tolist()
            assert [v.hex() for v in new(*y)] == [v.hex() for v in ref(y)], (sys, y)
            compared += 1
    assert compared >= 1000


@pytest.mark.parametrize("mid", ["euclidean", "hyperbolic", "darboux1", "darboux4"])
def test_generated_rhs_raises_the_metric_domain_message(mid):
    metric = metric_of(mid)
    sys = SystemSpec(metric, kc_potential(metric, 0.8), mu2=0.3, b=(0.5, 0.0, 0.2))
    lo, hi = metric.domain
    rhs = dynamics._make_rhs(sys)
    for r in (0.5 * lo, 1.5 * hi if math.isfinite(hi) else math.inf):
        # sqrt(r*r) == r, so the kernel sees exactly this radius
        y = [r, 0.0, 0.0, 0.1, 0.2, 0.3]
        with pytest.raises(DomainViolation) as want:
            metric.check_domain(r)
        with pytest.raises(DomainViolation) as got:
            rhs(*y)
        assert str(got.value) == str(want.value)


def _kernel_systems():
    """Every catalog space free, with kc and with an oscillator, and every
    named system, at N = 3 with two non-zero b_i."""
    for mid in CATALOG:
        metric = metric_of(mid)
        for pot in (None, kc_potential(metric, 0.8), oscillator_potential(metric, 0.6)):
            yield SystemSpec(metric, pot, mu2=0.3, b=(0.2, 0.0, 0.5))
    for name in NAMED_SYSTEMS:
        yield named_system(name, {"centrifugal": (0.2, 0.0, 0.5)})


def test_generated_rhs_evaluates_each_subexpression_once():
    # f, f' and U' share their common subterms, and the chain rule shares
    # q_i^2 and f^2: no arithmetic or call node occurs twice in the body
    checked = 0
    for sys in _kernel_systems():
        names, body, slope = dynamics._rhs_source(sys)
        tree = ast.parse("\n".join(body + [f"out = {', '.join(slope)}"]))
        dumps = [ast.dump(node) for node in ast.walk(tree)
                 if isinstance(node, (ast.BinOp, ast.Call))]
        repeated = {d for d in dumps if dumps.count(d) > 1}
        assert not repeated, (sys.label, sorted(repeated)[:3])
        checked += 1
    assert checked == 3 * len(CATALOG) + len(NAMED_SYSTEMS)


def test_generated_march_and_attempt_call_no_abs_or_max(monkeypatch):
    # the convergence sweep, the axis halt and the error scale compare
    # floats directly; darboux3b's f and kc's U' call no abs
    sources = []
    real = dynamics._exec
    monkeypatch.setattr(dynamics, "_exec", lambda name, lines, *a, **kw:
                        sources.append("\n".join(lines)) or real(name, lines, *a, **kw))
    monkeypatch.setattr(dynamics, "_DOP853", {})
    sys, s0 = _darboux3b_kc_with_b()
    integrate(sys, s0, 0.01)
    integrate(sys, s0, 0.01, method="midpoint")
    assert [src.split("(", 1)[0] for src in sources] == [
        "def rhs", "def attempt", "def dense", "def march"]
    for src in sources:
        assert "abs(" not in src and "max(" not in src


def _raising_u_prime():
    # U' = exp(g) g' + sqrt(h) - r h'/(2 sqrt(h)) with g = 1/(r - 0.75) and
    # h = 0.75 - r: beyond r = 0.75 the shared sqrt(h) raises ValueError, and
    # up to r = 0.7514 the exp before it raises OverflowError first
    pot = PotentialSpec.from_expr("exp(1/(r - 0.75)) + r*sqrt(0.75 - r)", domain=(0.0, 0.75))
    return SystemSpec(EUCLID, pot, mu2=0.0, n=3)


@pytest.mark.parametrize("q1, p1, reason, steps, nfev", [
    (0.745, 0.3, "math range error", 1, 17),
    (0.74, 0.4, "math domain error", 2, 27),
    (0.7, 0.5, "math range error", 8, 90),
    (0.745, 1.0, "float division by zero", 0, 1),
])
def test_midpoint_halts_where_u_prime_raises_with_its_first_exception(q1, p1, reason, steps, nfev):
    # pinned before f, f' and U' shared subterms: the kernel raises the
    # exception that the plain evaluation order raises first
    rec = integrate(_raising_u_prime(), PhaseState([q1, 0.0, 0.0], [p1, 0.0, 0.0]), 1.0,
                    method="midpoint", step=0.01)
    assert rec.halted == f"rhs evaluation failed: {reason}"
    assert (rec.stats["steps"], rec.stats["nfev"]) == (steps, nfev)


def test_kernels_are_generated_once_per_system(monkeypatch):
    made = []
    for name in ("_make_rhs", "_make_march", "_make_dop853"):
        real = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name,
                            lambda arg, name=name, real=real: made.append(name) or real(arg))
    monkeypatch.setattr(dynamics, "_DOP853", {})
    sys = SystemSpec(EUCLID, kc_potential(EUCLID, 1.0), n=3)
    s = PhaseState([1.0, 2.0, 2.0], [0.2, -0.1, 0.4])
    for _ in range(3):
        gradient(sys, s)
    integrate(sys, s, 0.1)
    # an adaptive run compiles no midpoint run
    assert made == ["_make_rhs", "_make_dop853"]
    for _ in range(2):
        integrate(sys, s, 0.1, method="midpoint")
    assert made == ["_make_rhs", "_make_dop853", "_make_march"]
    # the DOP853 kernel is one per dimension: a second system of the same
    # dimension reuses it, a system of another dimension makes its own
    for other in (SystemSpec(EUCLID, None, n=3), SystemSpec(EUCLID, None, n=4)):
        for _ in range(2):
            integrate(other, PhaseState([1.0, 2.0] + [1.0] * (other.n - 2),
                                        [0.2, -0.1] + [0.1] * (other.n - 2)), 0.1)
    assert made == ["_make_rhs", "_make_dop853", "_make_march", "_make_rhs",
                    "_make_rhs", "_make_dop853"]


# ---------------------------------------------------------------------------
# the adaptive integrator against scipy's DOP853
# ---------------------------------------------------------------------------


def _scipy_reference(sys, s0, t_end, samples):
    """The same run on scipy.integrate.DOP853, which the generated DOP853
    kernel replaces: scipy steps the system's RHS (NaN where it raises), and
    the loop samples and halts the way integrate does.  Returns (times,
    states, stats, halted); rejections are the attempts beyond one per
    accepted step, counted from nfev (12 per attempt, 3 per dense output)."""
    from scipy.integrate import DOP853

    n = sys.n
    kernel = dynamics._kernel(sys, dynamics._make_rhs)

    def fun(t, y):
        try:
            return np.array(kernel(*y.tolist()))
        except (ValueError, ArithmeticError):
            return np.full(2 * n, np.nan)

    rmin, rmax = dynamics._halt_bounds(sys)

    def violation(y):
        if not rmin < _radius(y[:n]) < rmax:
            return "domain-exit"
        if any(bi != 0.0 and abs(x) < 1e-10 for x, bi in zip(y, sys.b)):
            return "singular-axis"
        return None

    solver = DOP853(fun, 0.0, np.concatenate([s0.q, s0.p]), t_end, rtol=1e-10, atol=1e-12)
    sample_ts = np.linspace(0.0, t_end, samples)
    times, states = [0.0], [solver.y.copy()]
    next_i, steps, denses, halted = 1, 0, 0, None
    while solver.status == "running":
        msg = solver.step()
        if solver.status == "failed":
            halted = f"step-size underflow: {msg}"
            if solver.t > times[-1]:
                times.append(solver.t)
                states.append(solver.y.copy())
            break
        steps += 1
        dense, t_hi = None, solver.t
        reason = violation(solver.y)
        if reason is not None:
            dense, denses = solver.dense_output(), denses + 1
            a, c = solver.t_old, solver.t
            for _ in range(80):
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
                dense, denses = solver.dense_output(), denses + 1
            times += sample_ts[first:next_i].tolist()
            states += list(dense(sample_ts[first:next_i]).T)
        if reason is not None:
            halted = reason
            if t_hi > times[-1] + 1e-12 * max(1.0, t_hi):
                times.append(t_hi)
                states.append(dense(t_hi))
            break
    attempts = (solver.nfev - 2 - 3 * denses) // 12
    stats = {"steps": steps, "nfev": solver.nfev, "rejections": attempts - steps}
    return np.array(times), np.array(states), stats, halted


def _oracle_cases():
    direction = np.array([0.6, -0.64, 0.48])
    for mid in CATALOG:
        metric = metric_of(mid)
        for kind, make, coupling in (("kc", kc_potential, 0.5),
                                     ("oscillator", oscillator_potential, 0.4)):
            sys = SystemSpec(metric, make(metric, coupling), mu2=0.05, b=(0.02, 0.04, 0.03))
            r0 = anchor(sys.domain)
            q0 = r0 * np.ones(3) / math.sqrt(3.0)
            yield (f"{mid}-{kind}", sys,
                   PhaseState(q0, 0.3 * metric.f(r0) ** 2 * direction), 5.0)
    for name in NAMED_SYSTEMS:
        sys = named_system(name, {"mu2": 0.3, "centrifugal": (0.02, 0.03, 0.01)})
        yield name, sys, PhaseState([0.5, 0.3, 0.2], [-0.1, 0.3, 0.2]), 10.0
    b8 = tuple(0.01 * (i + 1) for i in range(8))
    yield ("mic-kepler-n8", named_system("mic-kepler", {"n": 8, "mu2": 0.2, "centrifugal": b8}),
           PhaseState([0.6, -0.4, 0.3, 0.5, -0.2, 0.4, 0.3, -0.5],
                      [0.1, 0.2, -0.3, 0.1, 0.2, -0.1, 0.3, 0.1]), 3.0)
    strip = MetricSpec.from_source("1", id="flat-strip", domain=(0.5, 2.0))
    q0 = np.array([1.2, 0.3, 0.4])
    yield ("domain-exit", SystemSpec(strip, None, mu2=0.0, n=3),
           PhaseState(q0, 0.5 * q0 / 1.3), 20.0)
    # a free particle whose last step, cut to t_end, ends on the q_1 = 0 plane
    yield ("singular-axis", SystemSpec(EUCLID, None, mu2=0.0, b=(1e-30, 0.0, 0.0)),
           PhaseState([2.5, 0.8, 0.6], [-1.0, 0.0, 0.0]), 2.5)
    yield ("underflow", SystemSpec(EUCLID, None, mu2=0.0, b=(-0.5, 0.0, 0.0)),
           PhaseState([1.0, 0.8, 0.6], [-0.6, 0.0, 0.0]), 5.0)


# fixed before the first comparison: each sample's largest component
# difference, relative to that sample's largest component
_ORACLE_RTOL = 1e-9
_HALTS = {"domain-exit": "domain-exit", "singular-axis": "singular-axis",
          "underflow": "step-size underflow: Required step size is less than "
                       "spacing between numbers."}


@pytest.mark.parametrize("label, sys, s0, t_end",
                         [pytest.param(*case, id=case[0]) for case in _oracle_cases()])
def test_adaptive_run_matches_scipy_dop853(label, sys, s0, t_end):
    rec = integrate(sys, s0, t_end, samples=21)
    times, states, stats, halted = _scipy_reference(sys, s0, t_end, 21)
    assert rec.halted == halted == _HALTS.get(label)
    if halted is None:
        assert rec.stats == stats
    # on the halt setups some steps are so short, or the motion so nearly
    # free, that the error estimate is rounding noise, which depends on the
    # order of the sums (scipy's BLAS dot against the kernel's plain sums);
    # the step sequences may part there, the halt and the samples may not
    got, got_times = np.hstack([rec.q, rec.p]), rec.times
    if label == "underflow":
        # the state where the step size underflowed sits where p_1 ~ 1/q_1
        # blows up, and no two step sequences agree on it; the samples
        # before it are compared
        assert got_times[-1] == pytest.approx(times[-1], rel=1e-12)
        got, got_times, states, times = got[:-1], got_times[:-1], states[:-1], times[:-1]
    assert got_times.shape == times.shape
    np.testing.assert_allclose(got_times, times, rtol=_ORACLE_RTOL, atol=0.0)
    scale = np.max(np.abs(states), axis=1)
    assert np.max(np.max(np.abs(got - states), axis=1) / scale) <= _ORACLE_RTOL


def test_a_stage_outside_the_domain_rejects_the_attempt(monkeypatch):
    # the flat strip of test_halt_on_domain_exit: a stage beyond |q| = 2
    # raises the metric's DomainViolation, which rejects the attempt and
    # cuts h by 0.2; every state a returned attempt reached lies inside the
    # strip, so the run leaves it only through the bisection of a step
    attempt, dense = dynamics._dop853(6)
    log = []

    def spy(rhs, y, f, h, rtol, atol):
        try:
            err, y_new, k = attempt(rhs, y, f, h, rtol, atol)
        except DomainViolation:
            log.append((h, None, None))
            raise
        log.append((h, err, y_new))
        return err, y_new, k

    monkeypatch.setitem(dynamics._DOP853, 6, (spy, dense))
    metric = MetricSpec.from_source("1", id="flat-strip", domain=(0.5, 2.0))
    sys = SystemSpec(metric, None, mu2=0.0, n=3)
    q0 = np.array([1.2, 0.3, 0.4])
    rec = integrate(sys, PhaseState(q0, 0.5 * q0 / 1.3), 20.0)
    assert rec.halted == "domain-exit"
    failed = [i for i, (_, err, _) in enumerate(log) if err is None]
    assert failed and failed[-1] < len(log) - 1
    for i in failed:
        assert log[i + 1][0] == pytest.approx(0.2 * log[i][0], rel=1e-12)
    assert rec.stats["rejections"] >= len(failed)
    assert max(math.sqrt(sum(x * x for x in y[:3])) for _, err, y in log
               if err is not None) < 2.0
    assert rec.states[-1].radius < 2.0
    assert rec.states[-1].radius == pytest.approx(2.0, abs=1e-6)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def test_kepler_circular_orbit_returns_after_one_period():
    sys = SystemSpec(EUCLID, kc_potential(EUCLID, 1.0), n=3)
    s0 = PhaseState([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    rec = integrate(sys, s0, 2.0 * math.pi)
    assert rec.halted is None
    assert rec.times[-1] == pytest.approx(2.0 * math.pi, rel=1e-15)
    end = rec.states[-1]
    assert np.max(np.abs(end.q - s0.q)) <= 1e-8
    assert np.max(np.abs(end.p - s0.p)) <= 1e-8
    assert rec.stats["steps"] > 0 and rec.stats["nfev"] > 0


def test_flat_kepler_monopole_bound_orbit_conserves_everything():
    sys = named_system("mic-kepler", {"alpha": 1.0, "mu2": 0.1,
                                      "centrifugal": (0.02, 0.03, 0.01)})
    s0 = PhaseState([1.0, 0.3, 0.4], [-0.1, 0.5, 0.2])
    assert hamiltonian(sys, s0) < 0  # bound state
    rec = integrate(sys, s0, 100.0)
    assert rec.halted is None
    assert max(rec.drift.values()) <= 1e-8


def test_taub_nut_conserves_everything():
    sys = named_system("taub-nut-system", {"m": 1.0, "mu2": 1.0})
    s0 = PhaseState([0.8, 0.6, 0.5], [0.2, -0.1, 0.3])
    rec = integrate(sys, s0, 50.0)
    assert rec.halted is None
    assert max(rec.drift.values()) <= 1e-8


def test_universal_integrals_conserved_on_every_catalog_space():
    # the same C^(m)/C_(m) are conserved whatever f and U
    direction = np.array([0.6, -0.64, 0.48])
    direction /= np.linalg.norm(direction)
    for mid in PARAMS.keys() | {"euclidean", "spherical", "hyperbolic",
                                "darboux1", "darboux2", "darboux3a"}:
        metric = metric_of(mid)
        for kind in ("free", "kc", "oscillator"):
            if kind == "free":
                pot = None
            elif kind == "kc":
                pot = kc_potential(metric, 0.5)
            else:
                pot = oscillator_potential(metric, 0.4)
            # keep energies small: on spaces whose edge sits at infinite
            # metric distance (e.g. the hyperbolic r -> 1), a fast orbit ends
            # up exponentially close to the edge, where |p| ~ 1e9 makes the
            # integrals cancellation-limited in double precision
            sys = SystemSpec(metric, pot, mu2=0.05, b=(0.02, 0.04, 0.03))
            r0 = anchor(sys.domain)
            q0 = r0 * np.ones(3) / math.sqrt(3.0)
            p0 = 0.03 * metric.f(r0) ** 2 * direction
            rec = integrate(sys, PhaseState(q0, p0), 20.0, samples=201)
            # runs may halt at a geodesically reachable domain edge; the
            # integrals must be conserved over whatever flow was recorded
            assert rec.times.size >= 10, (mid, kind, rec.halted)
            worst = max(rec.drift.values())
            assert worst <= 1e-7, (mid, kind, worst, rec.halted)


def test_hamiltonian_in_involution_with_every_integral():
    rng = np.random.default_rng(23)
    n = 4
    for mid in ("euclidean", "darboux3b", "taub-nut"):
        metric = metric_of(mid)
        pot = kc_potential(metric, 0.7) if rng.random() < 0.5 \
            else oscillator_potential(metric, 0.5)
        b = rng.uniform(-2.0, 2.0, n)
        sys = SystemSpec(metric, pot, mu2=rng.uniform(0, 2), b=b)
        for _ in range(50):
            q = rng.uniform(0.5, 1.5, n) * rng.choice([-1, 1], n)
            p = rng.uniform(-1.0, 1.0, n)
            s = PhaseState(q, p)
            iset = integral_set(s, b)
            fns = {"H": lambda q, p: _conserved(sys, q, p)[0]}
            vals = {"H": hamiltonian(sys, s)}
            for m in range(2, n + 1):
                fns[f"Cl{m}"] = lambda q, p, m=m: _towers(q, p, b).left[m - 2]
                fns[f"Cr{m}"] = lambda q, p, m=m: _towers(q, p, b).right[m - 2]
            vals.update(iset.as_dict())
            grads = {name: fd_gradient(fn, s) for name, fn in fns.items()}

            def bracket(a, c):
                (aq, ap), (cq, cp) = grads[a], grads[c]
                return float(np.dot(aq, cp) - np.dot(ap, cq))

            pairs = [("H", f"Cl{m}") for m in range(2, n + 1)]
            pairs += [("H", f"Cr{m}") for m in range(2, n + 1)]
            pairs += [(f"Cl{i}", f"Cl{j}") for i in range(2, n + 1) for j in range(i + 1, n + 1)]
            pairs += [(f"Cr{i}", f"Cr{j}") for i in range(2, n + 1) for j in range(i + 1, n + 1)]
            for a, c in pairs:
                scale = 1.0 + abs(vals[a]) + abs(vals[c])
                assert abs(bracket(a, c)) <= 1e-5 * scale, (mid, a, c)


def test_time_reversal():
    metric = metric_of("darboux3b")
    sys = SystemSpec(metric, kc_potential(metric, 0.4), mu2=0.3, b=(0.2, 0.1, 0.4))
    s0 = PhaseState([0.8, 0.7, 0.6], [0.1, -0.3, 0.2])
    fwd = integrate(sys, s0, 10.0)
    assert fwd.halted is None
    mid = fwd.states[-1]
    back = integrate(sys, PhaseState(mid.q, -mid.p), 10.0)
    assert back.halted is None
    assert np.max(np.abs(back.q[-1] - s0.q)) <= 1e-6
    assert np.max(np.abs(back.p[-1] + s0.p)) <= 1e-6


def test_implicit_midpoint_energy_drift_is_bounded_not_secular():
    sys = SystemSpec(EUCLID, kc_potential(EUCLID, 1.0), n=3)
    s0 = PhaseState([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    rec = integrate(sys, s0, 1000.0, method="midpoint", step=1e-3, samples=1001)
    assert rec.halted is None
    assert rec.stats["steps"] == 1_000_000
    assert rec.stats["rejections"] == 0
    assert max(rec.drift.values()) <= 1e-5
    # oscillatory, not secular: |H(t) - H(0)| must not grow linearly
    slope = np.polyfit(rec.times, np.abs(rec.series["H"] - rec.series["H"][0]), 1)[0]
    assert abs(slope) <= 1e-9


def test_midpoint_agrees_with_adaptive():
    metric = metric_of("taub-nut")
    sys = SystemSpec(metric, kc_potential(metric, 0.5), mu2=0.4, b=(0.1, 0.2, 0.3))
    s0 = PhaseState([0.9, 0.7, 0.5], [0.2, -0.3, 0.1])
    ada = integrate(sys, s0, 1.0, samples=11)
    mid = integrate(sys, s0, 1.0, method="midpoint", step=1e-3, samples=11)
    assert np.max(np.abs(ada.q[-1] - mid.q[-1])) <= 1e-5
    assert np.max(np.abs(ada.p[-1] - mid.p[-1])) <= 1e-5


def _circular_kepler():
    return SystemSpec(EUCLID, kc_potential(EUCLID, 1.0), n=3), \
        PhaseState([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


def _taub_nut_kc_with_mu2_and_b():
    metric = metric_of("taub-nut")
    return SystemSpec(metric, kc_potential(metric, 0.5), mu2=0.4, b=(0.1, 0.2, 0.3)), \
        PhaseState([0.9, 0.7, 0.5], [0.2, -0.3, 0.1])


@pytest.mark.parametrize("setup", [_circular_kepler, _taub_nut_kc_with_mu2_and_b])
def test_midpoint_steps_solve_the_midpoint_equation(setup):
    # every recorded step (stride 1) solves y1 = y0 + h rhs((y0 + y1)/2) to
    # the fixed-point tolerance, whatever the predictor started from
    sys, s0 = setup()
    h, fp_tol, nsteps = 1e-3, dynamics._FP_TOL, 1000
    rec = integrate(sys, s0, nsteps * h, method="midpoint", step=h,
                    samples=nsteps + 1)
    assert rec.halted is None and len(rec.states) == nsteps + 1
    for a, b in zip(rec.states[:-1], rec.states[1:]):
        mid = PhaseState(0.5 * (a.q + b.q), 0.5 * (a.p + b.p))
        dh_dq, dh_dp = gradient(sys, mid)
        residual = max(np.max(np.abs(b.q - a.q - h * dh_dp)),
                       np.max(np.abs(b.p - a.p + h * dh_dq)))
        assert residual <= fp_tol * (1.0 + max(np.max(np.abs(b.q)), np.max(np.abs(b.p))))
    if setup is _circular_kepler:
        # step 1 adds the Euler call, and steps 1 to 4 start at most O(h^2)
        # from the root; every later step starts O(h^5) from it, about 1e-15
        # at h = 1e-3 on this orbit, below the 2e-13 the stopping rule asks
        # for, so nearly every step is accepted after its first pass
        assert rec.stats["nfev"] <= rec.stats["steps"] + rec.stats["steps"] // 20 + 5


def _darboux3b_kc_with_b():
    # closed-form U', two non-zero b_i baked into the kernel
    metric = metric_of("darboux3b")
    return SystemSpec(metric, kc_potential(metric, 1.0), mu2=0.3, b=(0.2, 0.0, 0.5)), \
        PhaseState([0.9, 0.7, 0.5], [0.2, -0.3, 0.1])


def _custom_f_oscillator():
    # U' needs the quadrature-backed U: the kernel calls potential.du
    metric = MetricSpec.from_source("1/(1 + 0.2*r^2)", id="custom")
    return SystemSpec(metric, oscillator_potential(metric, 0.01), n=3), \
        PhaseState([0.5, 0.0, 0.0], [2.0, 0.1, 0.0])


def _free_particle_at_rest():
    # ydot = 0: the step-1 Euler call lands on the root, and only the
    # fixed-point pass after it may take the convergence test
    return SystemSpec(EUCLID, None, mu2=0.0, n=3), \
        PhaseState([0.6, 0.0, 0.8], [0.0, 0.0, 0.0])


def _extrapolate(slopes, order):
    """The predictor slope G from the converged slopes of the earlier steps,
    latest first: polynomial extrapolation through the last order + 1 of
    them, or through all there are (constant, linear, quadratic, cubic)."""
    F = slopes[:order + 1]
    if len(F) == 1:
        return list(F[0])
    if len(F) == 2:
        return [2.0 * a - b for a, b in zip(*F)]
    if len(F) == 3:
        return [3.0 * (a - b) + c for a, b, c in zip(*F)]
    return [4.0 * (a + c) - 6.0 * b - d for a, b, c, d in zip(*F)]


def _reference_march(sys, s0, t_end, h, order):
    """The implicit-midpoint run of integrate as a per-step Python loop on
    _reference_rhs, at stride 1: (times, states, halted, stats).  Step 1
    opens with the Euler call (no convergence test); every later step starts
    from y + h G, G extrapolated to the given order from the converged
    slopes.  A pass evaluates F = rhs((y + x)/2) and moves x to y + h F; at
    integrate's constants _FP_TOL = 1e-13 and _MAX_FP_ITER = 100, the step
    has converged once max|x_new - x| <= _FP_TOL (1 + max|x_new|) (a NaN
    never does) and stalls after _MAX_FP_ITER passes besides the Euler call.  A
    converged state outside the halt bounds, within 1e-10 of a plane q_i = 0
    with b_i != 0 or across one halts the run, keeping the state before it;
    stats["steps"] counts the steps kept."""
    rhs = _reference_rhs(sys)
    rmin, rmax = dynamics._halt_bounds(sys)
    n, nsteps = sys.n, round(t_end / h)
    h = t_end / nsteps
    y = s0.q.tolist() + s0.p.tolist()
    times, states, slopes = [0.0], [y], []
    nfev = fp_worst = 0
    halted = None
    for kstep in range(1, nsteps + 1):
        x = list(y) if kstep == 1 else [a + h * g for a, g in zip(y, _extrapolate(slopes, order))]
        try:
            for evals in range(kstep > 1, 101):
                F = rhs([0.5 * (a + b) for a, b in zip(y, x)])
                nfev += 1
                x_new = [a + h * g for a, g in zip(y, F)]
                deltas = [abs(a - b) for a, b in zip(x_new, x)]
                delta = math.nan if any(map(math.isnan, deltas)) else max(deltas)
                scale = max(abs(v) for v in x_new)
                x = x_new
                if evals and delta <= 1e-13 * (1.0 + scale):
                    break
            else:
                halted = "fixed-point iteration stalled"
                break
        except (ValueError, ArithmeticError) as exc:
            halted = f"rhs evaluation failed: {exc}"
            break
        fp_worst = max(fp_worst, evals)
        if not rmin < _radius(x[:n]) < rmax:
            halted = "domain-exit"
        elif any(abs(x[i]) < 1e-10 or x[i] * y[i] <= 0.0
                 for i in range(n) if sys.b[i] != 0.0):
            halted = "singular-axis"
        if halted is not None:
            break
        y = x
        slopes.insert(0, F)
        times.append(kstep * h)
        states.append(y)
    return times, states, halted, {"steps": kstep - (halted is not None),
                                   "nfev": nfev, "max_fp_iterations": fp_worst}


def _digest(sys, states):
    """sha256 of the states' q, then p, then H columns as float64 bytes."""
    q = np.array([y[:sys.n] for y in states])
    p = np.array([y[sys.n:] for y in states])
    H = np.array([hamiltonian(sys, PhaseState(a, b)) for a, b in zip(q, p)])
    return hashlib.sha256(q.tobytes() + p.tobytes() + H.tobytes()).hexdigest()


@pytest.mark.parametrize("setup, nfev, fp_worst, digest", [
    (_darboux3b_kc_with_b, 903, 4,
     "ada6baf9888a339e4c84ba23402bc0377f760a1794f20fb9823d2176cf5a057b"),
    (_custom_f_oscillator, 1379, 8,
     "67aa1e3103be2bd5d98b12c2c655fbb7d2e2383383e3f6737ed74b57eb38acc4"),
    (_free_particle_at_rest, 301, 1,
     "5f4e810dc72cf1700600ebf8b51a0132fd7c7653f90b6ac1e92082cfe574dba0"),
])
def test_reference_loop_reproduces_the_linear_predictor_pins(setup, nfev, fp_worst, digest):
    # the pins of the generated run when its predictor stopped at linear
    # extrapolation (2 F_1 - F_2): the reference loop, at that order, gives
    # the same states, H and counts, so it is a sound oracle for the kernel
    sys, s0 = setup()
    times, states, halted, stats = _reference_march(sys, s0, 0.3, 1e-3, order=1)
    assert halted is None and len(states) == 301
    assert stats == {"steps": 300, "nfev": nfev, "max_fp_iterations": fp_worst}
    assert _digest(sys, states) == digest


def _strip_radial_escape():
    # the escape of test_midpoint_halt_on_domain_exit
    metric = MetricSpec.from_source("1", id="flat-strip", domain=(0.5, 2.0))
    q0 = np.array([1.2, 0.3, 0.4])
    return SystemSpec(metric, None, mu2=0.0, n=3), PhaseState(q0, 0.5 * q0 / 1.3)


def _across_a_singular_plane():
    # the free particle of test_both_integrators_halt_where_a_singular_plane_is_crossed:
    # no step lands within 1e-10 of q_1 = 0, one step crosses it
    return SystemSpec(EUCLID, None, mu2=0.0, b=(-1e-20, 0.0, 0.0)), \
        PhaseState([1.0, 0.8, 0.6], [-0.6, 0.0, 0.0])


@pytest.mark.parametrize("setup, t_end, halted", [
    (_darboux3b_kc_with_b, 0.3, None),
    (_custom_f_oscillator, 0.3, None),
    (_free_particle_at_rest, 0.3, None),
    (_strip_radial_escape, 2.0, "domain-exit"),
    (_across_a_singular_plane, 2.0, "singular-axis"),
])
def test_midpoint_run_matches_the_reference_loop_bit_for_bit(setup, t_end, halted):
    sys, s0 = setup()
    h = 1e-3
    nsteps = round(t_end / h)
    rec = integrate(sys, s0, t_end, method="midpoint", step=h, samples=nsteps + 1)
    times, states, want_halted, stats = _reference_march(sys, s0, t_end, h, order=3)
    assert rec.halted == want_halted == halted
    assert rec.stats == {**stats, "rejections": 0}
    assert rec.times.tolist() == times
    assert [st.q.tolist() + st.p.tolist() for st in rec.states] == states
    assert rec.series["H"].tolist() == [hamiltonian(sys, st) for st in rec.states]


@pytest.mark.parametrize("setup, nfev, fp_worst, digest", [
    (_darboux3b_kc_with_b, 322, 4,
     "976402377ac81b00e15a9e7046e65ba4cdb6b4b57d8a8ea466df68b2184c51c6"),
    (_custom_f_oscillator, 1080, 7,
     "097b0444be6b1d191b8b8dafbede2c7d14e9e56576df6a69aeb4ed15b0ec1995"),
    (_free_particle_at_rest, 301, 1,
     "5f4e810dc72cf1700600ebf8b51a0132fd7c7653f90b6ac1e92082cfe574dba0"),
])
def test_midpoint_run_is_pinned_bit_for_bit(setup, nfev, fp_worst, digest):
    # 300 steps at stride 1: every state, every H and every count of the
    # generated midpoint run, pinned to the values of _reference_march at
    # the kernel's predictor order (cubic)
    sys, s0 = setup()
    rec = integrate(sys, s0, 0.3, method="midpoint", step=1e-3, samples=301)
    assert rec.halted is None and rec.times.size == 301
    assert rec.stats == {"steps": 300, "nfev": nfev, "rejections": 0,
                         "max_fp_iterations": fp_worst}
    got = hashlib.sha256(rec.q.tobytes() + rec.p.tobytes()
                         + rec.series["H"].tobytes()).hexdigest()
    assert got == digest


def _compensated_sum(terms, start=0):
    """sum() of Python 3.12 and later: compensated (Neumaier) summation once
    the terms are floats."""
    terms = list(terms)
    if not all(type(t) is float for t in terms):
        return builtins.sum(terms, start)
    total, comp = float(start), 0.0
    for t in terms:
        new = total + t
        comp += (total - new) + t if abs(total) >= abs(t) else (t - new) + total
        total = new
    return total + comp


def test_float_sums_do_not_depend_on_the_sum_builtin(monkeypatch):
    # |q|, H, the audit and the initial step add in order whatever sum()
    # does, so under 3.12's compensated sum() H and the runs keep their bits:
    # the midpoint pin above, and an adaptive run (_rms sets its initial
    # step) recorded with the in-order sum
    sys, s0 = _darboux3b_kc_with_b()
    s = PhaseState([0.21, 0.72, 0.32], [-0.2, 0.16, 0.02])
    for module in (dynamics, algebra):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    assert hamiltonian(sys, s).hex() == "0x1.243b1d5b9758ap+2"
    for options, digest in [
            ({"method": "midpoint", "step": 1e-3, "samples": 301, "t_end": 0.3},
             "976402377ac81b00e15a9e7046e65ba4cdb6b4b57d8a8ea466df68b2184c51c6"),
            ({"t_end": 5.0}, "387dda3e0f56264eabfbbc8335802042c92d0303cf20d93fb1ea3a6897b3c38d")]:
        rec = integrate(sys, s0, **options)
        assert hashlib.sha256(rec.q.tobytes() + rec.p.tobytes()
                              + rec.series["H"].tobytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# conservation audit
# ---------------------------------------------------------------------------


def test_free_particle_report_is_exact():
    sys = SystemSpec(EUCLID, None, mu2=0.0, n=2)
    rec = integrate(sys, PhaseState([0.5, 1.0], [0.7, 0.1]), 5.0)
    report = conservation_report(rec)
    assert report["pass"] is True
    assert report["halted"] is None
    for name, entry in report["quantities"].items():
        assert entry["drift"] == rec.drift[name] <= 1e-12
        assert entry["pass"] is True


def test_geodesic_flow_report_passes_default_tolerance():
    rng = np.random.default_rng(31)
    metric = metric_of("darboux3b")
    sys = SystemSpec(metric, None, mu2=rng.uniform(0, 1.5),
                     b=rng.uniform(0.1, 1.0, 4))
    q0 = rng.uniform(0.6, 1.1, 4)
    p0 = rng.uniform(-0.4, 0.4, 4)
    rec = integrate(sys, PhaseState(q0, p0), 20.0)
    report = conservation_report(rec)
    assert report["tolerance"] == 1e-7
    assert report["pass"] is True
    assert report["samples"] == rec.times.size


class _Tampered:
    """Hand-built system with the wrong sign on mu^2, bypassing SystemSpec
    validation, to show the audit separates coalgebra from non-coalgebra
    quantities."""

    def __init__(self, metric, mu2, b):
        self.metric = metric
        self.potential = None
        self.mu2 = mu2
        self.b = b
        self.n = len(b)
        self.domain = metric.domain
        self.label = "tampered"


def test_integrals_survive_tampered_hamiltonian_but_other_functions_drift():
    b = (1.0, 0.8, 0.6)
    wrong = _Tampered(EUCLID, -0.3, b)
    good = SystemSpec(EUCLID, None, mu2=0.3, b=b)
    s0 = PhaseState([1.0, 0.7, 0.9], [0.3, -0.2, 0.1])
    rec = integrate(wrong, s0, 15.0)
    assert rec.halted is None
    # every universal integral is mu^2-blind: still conserved
    for name, d in rec.drift.items():
        assert d <= 1e-8, (name, d)
    # ... but the correctly signed Hamiltonian is not conserved by this flow
    h_plus = np.array([hamiltonian(good, st) for st in rec.states])
    assert np.max(np.abs(h_plus - h_plus[0])) > 1e-3
    # and neither is a generic non-coalgebra function like J3 = q.p
    j3 = np.array([float(np.dot(st.q, st.p)) for st in rec.states])
    assert np.max(np.abs(j3 - j3[0])) > 1e-3


# ---------------------------------------------------------------------------
# halting
# ---------------------------------------------------------------------------


def test_halt_on_domain_exit():
    metric = MetricSpec.from_source("1", id="flat-strip", domain=(0.5, 2.0))
    sys = SystemSpec(metric, None, mu2=0.0, n=3)
    q0 = np.array([1.2, 0.3, 0.4])  # |q| = 1.3
    rec = integrate(sys, PhaseState(q0, 0.5 * q0 / 1.3), 20.0)
    assert rec.halted == "domain-exit"
    assert rec.times[-1] == pytest.approx(1.4, abs=1e-6)  # (2 - 1.3) / 0.5
    assert rec.states[-1].radius == pytest.approx(2.0, abs=1e-6)
    assert conservation_report(rec)["halted"] == "domain-exit"


def test_midpoint_halt_on_domain_exit():
    # the same radial escape as above; the midpoint rule keeps the last
    # state before the step that crosses |q| = 2
    metric = MetricSpec.from_source("1", id="flat-strip", domain=(0.5, 2.0))
    sys = SystemSpec(metric, None, mu2=0.0, n=3)
    q0 = np.array([1.2, 0.3, 0.4])
    rec = integrate(sys, PhaseState(q0, 0.5 * q0 / 1.3), 20.0,
                    method="midpoint", step=1e-3)
    assert rec.halted == "domain-exit"
    assert rec.times[-1] == pytest.approx(1.399, abs=1e-9)
    assert rec.stats["steps"] == 1399   # the 1400th step left and was discarded
    assert rec.states[-1].radius < 2.0
    assert rec.states[-1].radius == pytest.approx(2.0, abs=1e-3)


def test_midpoint_halt_on_singular_axis():
    # a nearly free particle (b_1 = 1e-30) heads for the q_1 = 0 plane at
    # unit speed; the third step of 1e-3 from q_1 = 3e-3 lands within the
    # 1e-10 axis guard, and the state after step 2 is kept
    sys = SystemSpec(EUCLID, None, mu2=0.0, b=(1e-30, 0.0, 0.0))
    s0 = PhaseState([3e-3, 0.6, 0.8], [-1.0, 0.0, 0.0])
    rec = integrate(sys, s0, 1.0, method="midpoint", step=1e-3)
    assert rec.halted == "singular-axis"
    assert rec.times[-1] == pytest.approx(2e-3, rel=1e-12)
    assert rec.stats["steps"] == 2
    assert rec.q[-1, 0] == pytest.approx(1e-3, rel=1e-9)


@pytest.mark.parametrize("b1", [1e-30, -1e-20])
@pytest.mark.parametrize("method", ["adaptive", "midpoint"])
def test_both_integrators_halt_where_a_singular_plane_is_crossed(method, b1):
    # a nearly free particle crosses q_1 = 0 at t = 1/0.6 without an accepted
    # state landing within the 1e-10 guard: the sign change of q_1 halts the
    # run, and every kept state lies before the plane
    sys = SystemSpec(EUCLID, None, mu2=0.0, b=(b1, 0.0, 0.0))
    s0 = PhaseState([1.0, 0.8, 0.6], [-0.6, 0.0, 0.0])
    rec = integrate(sys, s0, 5.0, method=method)
    assert rec.halted == "singular-axis"
    assert np.all(rec.q[:, 0] > 0.0)
    if method == "adaptive":  # bisected on the interpolant
        assert rec.times[-1] == pytest.approx(1.0 / 0.6, abs=1e-9)
    else:  # the last step before the crossing
        # the steps kept: the 1667th crossed the plane and was discarded
        assert 1.0 / 0.6 - 1e-3 < rec.times[-1] == rec.stats["steps"] * 1e-3 < 1.0 / 0.6
        assert rec.stats["steps"] == 1666


def _kepler_midpoint_stall(monkeypatch):
    # one fixed-point pass per step: the kernel of this new system is
    # generated under the patched constant
    monkeypatch.setattr(dynamics, "_MAX_FP_ITER", 1)
    sys = SystemSpec(EUCLID, kc_potential(EUCLID, 1.0), mu2=0.0, n=3)
    s0 = PhaseState([1.0, 0.3, 0.4], [-0.1, 0.5, 0.2])
    return sys, s0, {}


def _cap_outward_kick(monkeypatch):
    # f = sqrt(2 - r) -> 0 at the edge, so qdot = p/f^2 is large near it:
    # the first midpoint stage from |q| = 1.9 lands beyond r = 2
    metric = MetricSpec.from_source("sqrt(2 - r)", id="cap", domain=(0.0, 2.0))
    sys = SystemSpec(metric, None, mu2=0.0, n=3)
    s0 = PhaseState([1.9, 0.0, 0.0], [1.0, 0.0, 0.0])
    return sys, s0, {"step": 0.05}


def _strip_outward_kick(monkeypatch):
    # f = 1 is finite beyond the strip, so only the domain check stops the
    # first midpoint stage from |q| = 1.99 at r = 2.015
    metric = MetricSpec.from_source("1", id="flat-strip", domain=(0.5, 2.0))
    sys = SystemSpec(metric, None, mu2=0.0, n=3)
    s0 = PhaseState([1.99, 0.0, 0.0], [1.0, 0.0, 0.0])
    return sys, s0, {"step": 0.05}


def _cap_late_failure(monkeypatch):
    # a gentler kick than _cap_outward_kick: the Euler call and the first
    # fixed-point call stay inside the cap, the second lands beyond r = 2
    sys, s0, _ = _cap_outward_kick(monkeypatch)
    return sys, s0, {"step": 0.015}


# nfev counts exactly the RHS evaluations that completed: the step-1 Euler
# call, then every fixed-point call that returned
_FIRST_STEP_NFEV = {_kepler_midpoint_stall: 2, _cap_outward_kick: 1,
                    _strip_outward_kick: 1, _cap_late_failure: 2}


@pytest.mark.parametrize("setup, reason", [
    (_kepler_midpoint_stall, "fixed-point iteration stalled"),
    (_cap_outward_kick, "rhs evaluation failed"),
    (_strip_outward_kick, "rhs evaluation failed: r = 2.015"),
    (_cap_late_failure, "rhs evaluation failed: r = 2.0843722563652323"),
])
def test_midpoint_halts_in_the_first_step(monkeypatch, setup, reason):
    sys, s0, options = setup(monkeypatch)
    rec = integrate(sys, s0, 1.0, method="midpoint", **options)
    assert rec.halted.startswith(reason)
    assert list(rec.times) == [0.0]
    assert rec.stats["steps"] == 0
    assert rec.stats["nfev"] == _FIRST_STEP_NFEV[setup]
    assert rec.stats["max_fp_iterations"] == 0
    np.testing.assert_array_equal(rec.q[-1], s0.q)
    assert conservation_report(rec)["halted"] == rec.halted


# (steps, nfev, samples) at the halt, recorded before samples were queued:
# a U without a compiled expression flushes its queue after every step, so
# the run halts at the same step with the same samples kept
_QUADRATURE_HALTS = {("adaptive", "kc_potential"): (2, 32, 5),
                     ("midpoint", "kc_potential"): (50, 108, 5),
                     ("adaptive", "oscillator_potential"): (1, 29, 3),
                     ("midpoint", "oscillator_potential"): (45, 96, 5)}


@pytest.mark.parametrize("method", ["adaptive", "midpoint"])
@pytest.mark.parametrize("make_potential, coupling", [
    (kc_potential, 1.0),           # U' is analytic: the audit's U(r) fails
    (oscillator_potential, 0.01),  # U' needs U: the RHS fails at a stage
])
def test_quadrature_failure_halts_and_keeps_earlier_samples(
        fail_quadrature_between, method, make_potential, coupling):
    metric = MetricSpec.from_source("1/(1 + 0.2*r^2)", id="custom")
    sys = SystemSpec(metric, make_potential(metric, coupling), n=3)
    fail_quadrature_between(0.6, 1.0)
    s0 = PhaseState([0.5, 0.0, 0.0], [2.0, 0.1, 0.0])
    rec = integrate(sys, s0, 1.0, method=method, samples=101)
    assert rec.halted.startswith("quadrature failed: green function on 'custom'")
    assert (rec.stats["steps"], rec.stats["nfev"], rec.times.size) == \
        _QUADRATURE_HALTS[method, make_potential.__name__]
    assert max(st.radius for st in rec.states) < 0.6
    assert all(v.size == rec.times.size for v in rec.series.values())
    assert conservation_report(rec)["halted"] == rec.halted


def test_darboux4_edge_is_unreachable():
    # f ~ 1/(pi - ln r) near r = e^pi: the edge sits at infinite metric
    # distance, so an outward geodesic asymptotes instead of exiting
    metric = metric_of("darboux4")
    sys = SystemSpec(metric, None, mu2=0.0, n=3)
    r0 = 20.0
    q0 = r0 * np.ones(3) / math.sqrt(3.0)
    p0 = 0.5 * metric.f(r0) ** 2 * q0 / r0  # outward radial shove
    rec = integrate(sys, PhaseState(q0, p0), 20.0)
    assert rec.halted is None
    assert rec.states[-1].radius < metric.domain[1]


@pytest.mark.parametrize("method", ["adaptive", "midpoint"])
def test_given_samples_keep_their_signed_zeros(method):
    # a queued state (the first one here) is kept as given, not summed
    # through an interpolant, so -0.0 stays -0.0
    sys = SystemSpec(EUCLID, kc_potential(EUCLID, 1.0), n=3)
    s0 = PhaseState([1.0, -0.0, 0.0], [-0.0, 1.0, -0.0])
    rec = integrate(sys, s0, 0.1, method=method, samples=3)
    assert [x.hex() for x in rec.q[0].tolist() + rec.p[0].tolist()] == \
        [x.hex() for x in s0.q.tolist() + s0.p.tolist()]


def test_halt_near_centrifugal_axis():
    # attractive b_1 < 0 pulls q_1 onto the singular axis in finite time;
    # p_1 diverges like 1/q_1 on the way down, so the step size underflows
    # at |q_1| ~ 1e-8 -- before an accepted step can land below the 1e-10
    # axis guard.  Either reason is a singular-set halt.
    sys = SystemSpec(EUCLID, None, mu2=0.0, b=(-0.5, 0.0, 0.0))
    s0 = PhaseState([1.0, 0.8, 0.6], [-0.6, 0.0, 0.0])
    rec = integrate(sys, s0, 5.0)
    assert rec.halted == "singular-axis" or rec.halted.startswith("step-size underflow")
    assert abs(rec.q[-1, 0]) < 1e-6
    assert rec.times[-1] < 5.0


# ---------------------------------------------------------------------------
# record plumbing
# ---------------------------------------------------------------------------


def _tiny_record(times):
    q = np.ones((len(times), 2))
    series = {"H": np.zeros(len(times)),
              "Cl2": np.zeros(len(times)), "Cr2": np.zeros(len(times))}
    return TrajectoryRecord(np.asarray(times, dtype=float), q, 0.0 * q,
                            series, {"H": 0.0}, {}, "adaptive")


def test_trajectory_record_validation():
    rec = _tiny_record([0.0, 1.0, 2.0])
    assert rec.states[-1].radius == pytest.approx(math.sqrt(2.0))
    assert list(rec.series) == ["H", "Cl2", "Cr2"]
    assert rec.q.shape == rec.p.shape == (3, 2)
    assert len(rec.states) == 3 and rec.states is rec.states  # built once
    assert all(isinstance(st, PhaseState) for st in rec.states)
    with pytest.raises(TypeError):
        rec.series["H"] = np.ones(3)                 # series are read-only
    with pytest.raises(ValueError):
        rec.series["Cl2"][0] = 1.0
    with pytest.raises(ValueError):
        rec.q[0, 0] = 2.0                            # so are the states
    with pytest.raises(ValueError):
        _tiny_record([0.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        _tiny_record([])
    one = np.ones((1, 2))
    with pytest.raises(ValueError):
        TrajectoryRecord(np.array([0.0]), one, one, {"H": np.zeros(1)},
                         {"H": -1.0}, {}, "adaptive")
    with pytest.raises(ValueError):
        TrajectoryRecord(np.array([0.0, 1.0]), np.ones((2, 2)),
                         np.ones((2, 2)), {"H": np.zeros(1)}, {"H": 0.0}, {},
                         "adaptive")
    with pytest.raises(ValueError):
        TrajectoryRecord(np.array([0.0, 1.0]), np.ones((1, 2)),
                         np.ones((1, 2)), {"H": np.zeros(2)}, {"H": 0.0}, {},
                         "adaptive")
    with pytest.raises(ValueError):
        TrajectoryRecord(np.array([0.0]), one, np.ones((1, 3)),
                         {"H": np.zeros(1)}, {"H": 0.0}, {}, "adaptive")


@pytest.mark.parametrize("method, n", [("adaptive", 8), ("midpoint", 3)])
def test_column_audit_matches_the_scalar_audit_bit_for_bit(method, n):
    # integrate computes H and both towers over whole columns after the run;
    # every sample must carry exactly the values of the per-state functions
    metric = metric_of("darboux3b")
    b = (0.02, 0.03, 0.025, 0.015, 0.035, 0.02, 0.03, 0.025)[:n]
    sys = SystemSpec(metric, kc_potential(metric, -1.0), mu2=0.3, b=b)
    s0 = PhaseState([0.5, -0.45, 0.4, 0.42, -0.38, 0.35, 0.44, -0.41][:n],
                    [0.1, 0.05, -0.08, 0.07, 0.02, -0.06, 0.09, 0.03][:n])
    options = ({"samples": 301} if method == "adaptive"
               else {"samples": 51, "step": 1e-3})
    rec = integrate(sys, s0, 0.5, method=method, **options)
    assert rec.halted is None and rec.times.size == options["samples"]
    assert rec.q.shape == rec.p.shape == (rec.times.size, n)
    assert set(rec.series) == {"H", *integral_set(s0, b).as_dict()}
    for k, st in enumerate(rec.states):
        assert st.q.tolist() == rec.q[k].tolist()
        assert st.p.tolist() == rec.p[k].tolist()
        expected = {"H": hamiltonian(sys, st), **integral_set(st, b).as_dict()}
        for name, value in expected.items():
            assert float(rec.series[name][k]).hex() == value.hex(), (k, name)


def test_singular_state_check_names_the_first_offending_state():
    sys = SystemSpec(EUCLID, None, mu2=0.0, b=(0.0, 0.5, 0.3))
    s0 = PhaseState([1.0, 0.0, 0.5], [0.1, 0.2, 0.3])
    for call in (lambda: hamiltonian(sys, s0), lambda: integral_set(s0, sys.b),
                 lambda: integrate(sys, s0, 1.0)):
        with pytest.raises(SingularStateError, match="q_2 = 0 with b_2 = 0.5"):
            call()
    # one state per row, as integrate checks its samples: the first row
    # with a hit decides, not the lowest axis index
    rows = np.array([[0.0, 1.0, 1.0], [1.0, 2.0, 0.0], [1.0, 0.0, 1.0]])
    with pytest.raises(SingularStateError, match="q_3 = 0 with b_3 = 0.3"):
        dynamics._check_b(rows, sys.b)
    np.testing.assert_array_equal(dynamics._check_b(rows[:1], sys.b), sys.b)


def test_integrate_argument_validation():
    sys = SystemSpec(EUCLID, None, mu2=0.0, n=2)
    s0 = PhaseState([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        integrate(sys, s0, -1.0)
    with pytest.raises(ValueError):
        integrate(sys, s0, 1.0, samples=1)
    with pytest.raises(ValueError):
        integrate(sys, s0, 1.0, method="rk4")
    for atol in (0.0, -1e-12):
        with pytest.raises(ValueError):
            integrate(sys, s0, 1.0, atol=atol)
    with pytest.raises(ValueError):
        integrate(sys, s0, 1.0, method="midpoint", step=0.0)
