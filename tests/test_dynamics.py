import ast
import builtins
import dis
import hashlib
import math
import re
import types
from sys import version_info

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
from qmsflow.exprlang import to_python_block
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
                g -= b[i] / (y[i] * y[i]) / y[i] * inv_f2
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


# a space id with both quotes, a format field, a backslash and a newline:
# the kernel text carries it as a literal, which must print it back verbatim
HOSTILE_ID = 'it\'s "{r}" \\ a\nb'


@pytest.mark.parametrize("mid", ["euclidean", "hyperbolic", "darboux1", "darboux4",
                                 pytest.param(HOSTILE_ID, id="custom")])
def test_generated_rhs_raises_the_metric_domain_message(mid):
    metric = (metric_of(mid) if mid in CATALOG else
              MetricSpec.from_source("1/(1 + 0.2*r^2)", domain=(0.5, 2.0), id=mid))
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
    if mid == HOSTILE_ID:
        # the Euler pass of a wide midpoint step lands far beyond hi, so the
        # next pass evaluates the RHS out of the domain and the run quotes it
        rec = integrate(sys, PhaseState([1.5, 0.3, 0.3], [20.0, 0.0, 0.0]), 1.0,
                        method="midpoint", step=0.5)
        assert rec.halted.startswith("rhs evaluation failed: r = ")
        with pytest.raises(DomainViolation) as want:
            metric.check_domain(float(rec.halted.split()[5]))
        assert rec.halted == f"rhs evaluation failed: {want.value}"
        assert HOSTILE_ID in rec.halted


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


def test_rhs_texts_square_and_cube_by_products():
    # the RHS writes b_i/q_i^3 as bq_i / q_i and every square that f' and U'
    # make as a product, so each ** 2 or ** 3 left in its text is one that f
    # or U contains as written; at nu = 1 the nu-fold spaces fold r^1 and r^0
    power = re.compile(r"\*\* [23]\b")
    for sys in _kernel_systems():
        names, body, slope = dynamics._rhs_source(sys)
        text = "\n".join(body + slope)
        written = [(sys.metric.f_expr, sys.metric.params)]
        if sys.potential is not None:
            written.append((sys.potential.u_expr, sys.potential.params))
        assert len(power.findall(text)) <= len(power.findall("\n".join(to_python_block(written)))), \
            sys.label
        assert not re.search(r"math\.pow\(r, [01]\.0\)|\(r \*\* 0\)", text), sys.label
        assert all(f"bq{i} / q{i}" in text for i in (0, 2)), sys.label


def _compiled(monkeypatch):
    """The list of sources that dynamics compiles from here on, with no
    kernel kept and no dense output memoized."""
    sources = []
    monkeypatch.setattr(dynamics, "compile", lambda source, *a:
                        sources.append(source) or builtins.compile(source, *a), raising=False)
    monkeypatch.setattr(dynamics, "_KEPT", {})
    dynamics._make_dense.cache_clear()
    return sources


def test_generated_march_and_attempt_call_no_abs_or_max(monkeypatch):
    # the convergence sweep, the axis halt, the error scale and the step
    # control of the adaptive run's attempts compare floats directly;
    # darboux3b's f and kc's U' call no abs
    sources = _compiled(monkeypatch)
    sys, s0 = _darboux3b_kc_with_b()
    integrate(sys, s0, 0.01)
    integrate(sys, s0, 0.01, method="midpoint")
    assert [src.split("(", 1)[0] for src in sources] == ["def rhs", "def dense", "def run",
                                                         "def march"]
    for src in sources:
        assert "abs(" not in src and "max(" not in src and "min(" not in src


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


def test_kernels_are_compiled_once_per_distinct_source(monkeypatch):
    sources = _compiled(monkeypatch)

    def compiles():
        return len(sources)

    def build(mu2=0.3, b=(0.2, 0.0, 0.5)):
        metric = metric_of("darboux3b")
        return SystemSpec(metric, kc_potential(metric, 1.0), mu2=mu2, b=b)

    s = PhaseState([0.9, 0.7, 0.5], [0.2, -0.3, 0.1])
    first, twin = build(), build()
    assert twin is not first
    integrate(first, s, 0.1)
    # an adaptive run compiles its RHS, its run and the dense output of its
    # dimension, no midpoint run
    assert compiles() == 3
    # a system built alike shares all three; its midpoint run is compiled once
    gradient(twin, s)
    integrate(twin, s, 0.1)
    assert compiles() == 3
    for sys in (first, twin, first):
        integrate(sys, s, 0.1, method="midpoint")
    assert compiles() == 4
    for make in (dynamics._make_rhs, dynamics._make_run, dynamics._make_march):
        assert dynamics._kernel(make, first) is dynamics._kernel(make, twin)
    # one b_i or mu2 apart, a system compiles its own RHS and runs, and
    # shares the dense output
    for other in (build(b=(0.2, 0.0, 0.51)), build(mu2=0.31)):
        integrate(other, s, 0.1)
        integrate(other, s, 0.1, method="midpoint")
        for make in (dynamics._make_rhs, dynamics._make_run, dynamics._make_march):
            assert dynamics._kernel(make, other) is not dynamics._kernel(make, first)
    assert compiles() == 10
    # and so does each free system, once, and N = 4 its own dense output
    for n in (3, 4, 4):
        integrate(SystemSpec(EUCLID, None, n=n),
                  PhaseState([1.0, 2.0] + [1.0] * (n - 2), [0.2, -0.1] + [0.1] * (n - 2)), 0.1)
    assert compiles() == 15


def test_adaptive_systems_of_one_dimension_share_one_dense_output(monkeypatch):
    # the dense output's text depends on the dimension alone: it calls the
    # system's rhs for its 3 extra stages, so two systems of N = 3 compile
    # one, and a system of N = 4 its own
    sources = _compiled(monkeypatch)
    systems = [_darboux3b_kc_with_b(), _custom_f_oscillator(),
               (SystemSpec(EUCLID, kc_potential(EUCLID, 1.0), n=4),
                PhaseState([1.0, 0.3, 0.4, 0.2], [-0.1, 0.5, 0.2, 0.1]))]
    for sys, s0 in systems:
        rec = integrate(sys, s0, 0.5, samples=11)
        assert rec.halted is None and rec.times.size == 11
    dense = [src for src in sources if src.startswith("def dense")]
    assert [src.count("= rhs(") for src in dense] == [3, 3]
    assert [src.split("\n", 1)[0].count(", yn") for src in dense] == [6, 8]
    assert dynamics._make_dense(6) is dynamics._make_dense(6)
    assert dynamics._make_dense.cache_info().currsize == 2


def test_equal_systems_generate_each_kernel_text_once(monkeypatch):
    # four runs and 100 gradient calls on systems built alike: the kernels
    # kept for the first serve the rest, so the RHS source is generated once
    # per kernel kind that inlines it -- the RHS, the adaptive run and the
    # midpoint run; the dense output calls the RHS kernel
    monkeypatch.setattr(dynamics, "_KEPT", {})
    made = []
    real = dynamics._rhs_source
    monkeypatch.setattr(dynamics, "_rhs_source", lambda sys: made.append(sys) or real(sys))
    for method in ("adaptive", "midpoint", "adaptive", "midpoint"):
        integrate(*_darboux3b_kc_with_b(), 0.1, method=method)
    for _ in range(100):
        gradient(*_darboux3b_kc_with_b())
    assert len(made) == 3


def test_a_quadrature_backed_u_prime_is_part_of_the_kernel_key():
    # kc on a metric without a closed-form U: alpha enters only through
    # potential.du, so both RHS texts are the same and only du tells them apart
    metric = MetricSpec.from_source("1/(1 + 0.2*r^2)", id="custom")
    systems = [SystemSpec(metric, kc_potential(metric, alpha), mu2=0.1, n=3)
               for alpha in (0.5, 0.7)]
    s0 = PhaseState([1.0, 0.2, 0.3], [0.1, 0.6, 0.4])
    assert dynamics._rhs_source(systems[0]) == dynamics._rhs_source(systems[1])
    for sys in systems:
        for make in (dynamics._make_rhs, dynamics._make_run, dynamics._make_march):
            assert dynamics._kernel(make, sys).__globals__["du"] == sys.potential.du
    for method in ("adaptive", "midpoint"):
        shared = [integrate(sys, s0, 0.5, method=method, samples=6) for sys in systems]
        assert not np.array_equal(shared[0].p, shared[1].p)
        for sys, rec in zip(systems, shared):
            dynamics._KEPT.clear()
            fresh = integrate(sys, s0, 0.5, method=method, samples=6)
            assert np.array_equal(np.hstack([rec.q, rec.p]), np.hstack([fresh.q, fresh.p]))
            assert rec.stats == fresh.stats


def _global_names(code):
    """The names code and the code objects nested in it load as globals:
    the co_names entries that LOAD_GLOBAL's argument indexes (shifted right
    by one since Python 3.11), read off the bytecode, as dis.get_instructions
    would at many times the cost on a kernel of thousands of instructions."""
    shift = 1 if version_info >= (3, 11) else 0
    names, ops, ext = set(), code.co_code, 0
    for k in range(0, len(ops), 2):
        op, arg = ops[k], ops[k + 1] | ext
        ext = arg << 8 if op == dis.EXTENDED_ARG else 0
        if op == dis.opmap["LOAD_GLOBAL"]:
            names.add(code.co_names[arg >> shift])
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_names(const)
    return names


def test_midpoint_steps_build_no_iterator_and_unpack_no_tuple():
    # the step loop is the only for loop: a step runs its fixed-point passes
    # in a while loop and moves its registers by plain assignments
    for setup in (_darboux3b_kc_with_b, _custom_f_oscillator):
        code = list(dis.get_instructions(dynamics._make_march(setup()[0])))
        assert sum(i.opname == "LOAD_GLOBAL" and i.argval == "range" for i in code) == 1
        loops = [k for k, i in enumerate(code) if i.opname == "FOR_ITER"]
        assert len(loops) == 1
        assert not any(i.opname == "UNPACK_SEQUENCE" for i in code[loops[0]:])


def test_kernels_read_nothing_but_their_source_and_key(monkeypatch):
    # kernels are kept by a system's value, and the dense output by its
    # dimension: a kernel that read any other per-system value than its
    # text and a quadrature U' would hand one system's value to another
    # kept alike
    sources = []
    real = dynamics._exec
    monkeypatch.setattr(dynamics, "_exec", lambda lines, *a:
                        sources.append(lines) or real(lines, *a))
    namespace = set(real(["pass"]))

    def kernels(sys):
        del sources[:]
        made = [make(sys) for make in (dynamics._make_rhs, dynamics._make_run,
                                       dynamics._make_march)]
        made.append(dynamics._make_dense.__wrapped__(2 * sys.n))  # compiled afresh
        return made, list(sources)

    def with_quadrature_u():
        metric = MetricSpec.from_source("1/(1 + 0.2*r^2)", id="custom")
        return SystemSpec(metric, kc_potential(metric, 0.8), mu2=0.3, b=(0.2, 0.0, 0.5))

    pairs = list(zip(_kernel_systems(), _kernel_systems()))
    pairs.append((with_quadrature_u(), with_quadrature_u()))
    for k, (sys, twin) in enumerate(pairs):
        made, text = kernels(sys)
        assert kernels(twin)[1] == text, sys.label
        for kernel in made:
            assert _global_names(kernel.__code__) <= namespace, sys.label
            if k == 0:  # the bytecode scan reads what dis reads
                assert _global_names(kernel.__code__) == {
                    i.argval for i in dis.get_instructions(kernel) if i.opname == "LOAD_GLOBAL"}
    assert len(pairs) == 3 * len(CATALOG) + len(NAMED_SYSTEMS) + 1


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
    kernel = dynamics._make_rhs(sys)

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


def _reference_adaptive(sys, s0, t_end, samples, log=None):
    """The adaptive run of integrate as a plain loop on _reference_rhs, at
    rtol 1e-10 and atol 1e-12: scipy's DOP853 driver as integrate states it,
    each stage and row a loop over scipy's tableau with the zero entries
    dropped, its terms summed in order, the halt rule of _plain_halt, and
    each sample a float Horner sum on the interpolant of its step.  Returns
    (times, states, stats, halted); log, if given, gets (h, err, y_new) of
    every attempt, err and y_new None where a stage raised."""
    from scipy.integrate._ivp import dop853_coefficients as tab

    rhs = _reference_rhs(sys)
    m, rtol, atol = 2 * sys.n, 1e-10, 1e-12
    nonzero = {}  # id of a tableau row -> its (index, entry) pairs with entry != 0

    def combo(row, k, j):
        if id(row) not in nonzero:
            nonzero[id(row)] = [(s, float(c)) for s, c in enumerate(row) if c != 0.0]
        (s, c), *rest = nonzero[id(row)]
        total = c * k[s][j]
        for s, c in rest:
            total += c * k[s][j]
        return total

    A = [tab.A[s, :s] for s in range(tab.N_STAGES_EXTENDED)]  # one object per row
    B, E5, E3, D = tab.B, tab.E5, tab.E3, list(tab.D)

    def stages(y, k, h, first, last):  # k[first:last] from y by h, appended to k
        for s in range(first, last):
            k.append(rhs([y[j] + combo(A[s], k, j) * h for j in range(m)]))

    def attempt(y, k, h):
        stages(y, k, h, 1, 12)
        y_new = [y[j] + h * combo(B, k, j) for j in range(m)]
        k.append(rhs(y_new))
        sc = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
        n5 = n3 = None
        for j in range(m):
            e, g = combo(E5, k, j) / sc[j], combo(E3, k, j) / sc[j]
            n5 = e * e if n5 is None else n5 + e * e
            n3 = g * g if n3 is None else n3 + g * g
        if n5 == 0.0 and n3 == 0.0:
            return 0.0, y_new
        return h * n5 / math.sqrt((n5 + 0.01 * n3) * m), y_new

    def dense(y, y_new, k, h):  # the step's 7 interpolant rows
        stages(y, k, h, 13, 16)
        d = [b - a for a, b in zip(y, y_new)]
        return [d, [h * k[0][j] - d[j] for j in range(m)],
                [2.0 * d[j] - h * (k[12][j] + k[0][j]) for j in range(m)],
                *([h * combo(row, k, j) for j in range(m)] for row in D)]

    def at(t_s, t_old, h, y_old, rows):
        x = (t_s - t_old) / h
        out = []
        for j in range(m):
            v = 0.0
            for i in range(7):
                v += rows[6 - i][j]
                v *= x if i % 2 == 0 else 1.0 - x
            out.append(v + y_old[j])
        return out

    t, y = 0.0, s0.q.tolist() + s0.p.tolist()
    f = dynamics._rhs_or_nan(lambda *v: rhs(list(v)), y)
    h_abs = dynamics._initial_step(lambda *v: rhs(list(v)), y, f, t_end, rtol, atol)
    sample_ts = np.linspace(0.0, t_end, samples).tolist()
    times, states = [0.0], [list(y)]
    next_i, steps, nfev, rejections, halted = 1, 0, 2, 0, None
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            nfev += 12
            k = [list(f)]
            try:
                err, y_new = attempt(y, k, h)
            except (ValueError, ArithmeticError):
                err, y_new = None, None
            if log is not None:
                log.append((h, err, y_new))
            if err is not None and err < 1.0:
                break
            h_abs = h * (0.2 if err is None else max(0.2, 0.9 * err ** -0.125))
            rejected = True
            rejections += 1
        else:
            halted = "step-size underflow: Required step size is less than spacing between numbers."
            if t > times[-1] + 1e-12 * max(1.0, t):
                times.append(t)
                states.append(y)
            break
        factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
        h_abs = h * (min(1.0, factor) if rejected else factor)
        t_old, y_old, t, y, f = t, y, t_new, y_new, k[12]
        steps += 1
        rows, t_hi = None, t
        halted = _plain_halt(sys, y, y_old)
        if halted is not None:
            rows, nfev = dense(y_old, y, k, h), nfev + 3
            a, c = t_old, t
            for _ in range(80):
                mid = 0.5 * (a + c)
                if _plain_halt(sys, at(mid, t_old, h, y_old, rows), y_old) is None:
                    a = mid
                else:
                    c = mid
            t_hi = a
        while next_i < samples and sample_ts[next_i] <= t_hi + 1e-12 * max(1.0, t_hi):
            if rows is None:
                rows, nfev = dense(y_old, y, k, h), nfev + 3
            times.append(sample_ts[next_i])
            states.append(at(sample_ts[next_i], t_old, h, y_old, rows))
            next_i += 1
        if halted is not None:
            if t_hi > times[-1] + 1e-12 * max(1.0, t_hi):
                times.append(t_hi)
                states.append(at(t_hi, t_old, h, y_old, rows))
            break
    return times, states, {"steps": steps, "nfev": nfev, "rejections": rejections}, halted


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


def _hexes(rows):
    return [[float(x).hex() for x in row] for row in rows]


def _reference_cases():
    """The oracle cases, and _custom_f_oscillator's U' that calls potential.du."""
    yield from _oracle_cases()
    metric = MetricSpec.from_source("1/(1 + 0.2*r^2)", id="custom")
    yield ("quadrature-u", SystemSpec(metric, oscillator_potential(metric, 0.01), n=3),
           PhaseState([0.5, 0.0, 0.0], [2.0, 0.1, 0.0]), 2.0)


@pytest.mark.parametrize("label, sys, s0, t_end",
                         [pytest.param(*case, id=case[0]) for case in _reference_cases()])
def test_adaptive_run_matches_the_reference_loop_bit_for_bit(label, sys, s0, t_end):
    # every step, rejection, halt and sample of the generated run is that of
    # the plain loop, to the bit, halts and a quadrature-backed U' included
    rec = integrate(sys, s0, t_end, samples=21)
    times, states, stats, halted = _reference_adaptive(sys, s0, t_end, 21)
    assert rec.halted == halted == _HALTS.get(label)
    assert rec.stats == stats
    assert _hexes([rec.times]) == _hexes([times])
    assert _hexes(np.hstack([rec.q, rec.p])) == _hexes(states)


def test_a_stage_outside_the_domain_rejects_the_attempt(monkeypatch):
    # the flat strip of test_halt_on_domain_exit: a stage beyond |q| = 2
    # raises the metric's DomainViolation, which rejects the attempt and
    # cuts h by 0.2; every state a finished attempt reached lies inside the
    # strip, so the run leaves it only through the bisection of a step.  The
    # RHS and run kernels, compiled afresh, call a spy for each stage out of
    # the strip, the dense output through that RHS
    calls = []
    real = dynamics._outside_domain
    monkeypatch.setattr(dynamics, "_outside_domain", lambda *a: calls.append(a[0]) or real(*a))
    monkeypatch.setattr(dynamics, "_KEPT", {})
    metric = MetricSpec.from_source("1", id="flat-strip", domain=(0.5, 2.0))
    sys = SystemSpec(metric, None, mu2=0.0, n=3)
    q0 = np.array([1.2, 0.3, 0.4])
    s0 = PhaseState(q0, 0.5 * q0 / 1.3)
    rec = integrate(sys, s0, 20.0)
    log = []
    times, states, stats, halted = _reference_adaptive(sys, s0, 20.0, 201, log)
    assert rec.halted == halted == "domain-exit"
    assert rec.stats == stats and _hexes([rec.times]) == _hexes([times])
    assert _hexes(np.hstack([rec.q, rec.p])) == _hexes(states)
    failed = [i for i, (_, err, _) in enumerate(log) if err is None]
    assert failed and failed[-1] < len(log) - 1
    # the generated run stopped each failed attempt at one stage beyond the strip
    assert len(calls) == len(failed) and min(calls) >= 2.0
    for i in failed:
        assert log[i + 1][0] == pytest.approx(0.2 * log[i][0], rel=1e-12)
    assert rec.stats["rejections"] >= len(failed)
    assert max(_radius(y[:3]) for _, err, y in log if err is not None) < 2.0
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


@pytest.mark.parametrize("t_end, step, samples, rows", [(4.0, 1e-3, 7, 8), (0.05, 0.01, 11, 6)])
def test_midpoint_rows_are_every_stride_th_step_and_the_last(t_end, step, samples, rows):
    # round(t_end/step) steps, stride = max(1, steps // (samples - 1)): 4000
    # steps at stride 666 give t = 0, six multiples of 666 h and the last;
    # 5 steps at stride 1 give t = 0 and all five
    sys, s0 = _circular_kepler()
    rec = integrate(sys, s0, t_end, method="midpoint", step=step, samples=samples)
    assert rec.halted is None and len(rec.times) == rows
    assert rec.times[-1] == pytest.approx(t_end, rel=1e-12)


@pytest.mark.parametrize("t_end, step", [(1.0e306, 1e-3), (1.0, 1e-320)])
def test_midpoint_rejects_a_step_count_that_overflows(t_end, step):
    sys, s0 = _circular_kepler()
    with pytest.raises(ValueError, match=r"t_end / step finite, got .* / "):
        integrate(sys, s0, t_end, method="midpoint", step=step)


def test_midpoint_rejects_more_steps_than_the_cap(monkeypatch):
    # 10^15 steps are finite but would run without end
    sys, s0 = _circular_kepler()
    with pytest.raises(ValueError, match=r"^need t_end / step <= 1000000000, got 1000.0 / 1e-12$"):
        integrate(sys, s0, 1000.0, method="midpoint", step=1e-12)
    # at a smaller cap: as many steps as the cap run, one more does not
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 100)
    assert integrate(sys, s0, 0.1, method="midpoint", step=1e-3).stats["steps"] == 100
    with pytest.raises(ValueError, match=r"^need t_end / step <= 100, got 0.101 / 0.001$"):
        integrate(sys, s0, 0.101, method="midpoint", step=1e-3)


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
        # step 1 adds the Euler call, and steps 1 to 5 start at most O(h^2)
        # from the root; every later step starts O(h^6) from it, about 1e-18
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
    them, or through all there are (constant, linear, quadratic, cubic,
    quartic)."""
    F = slopes[:order + 1]
    if len(F) == 1:
        return list(F[0])
    if len(F) == 2:
        return [2.0 * a - b for a, b in zip(*F)]
    if len(F) == 3:
        return [3.0 * (a - b) + c for a, b, c in zip(*F)]
    if len(F) == 4:
        return [4.0 * (a + c) - 6.0 * b - d for a, b, c, d in zip(*F)]
    return [5.0 * (a - d) + 10.0 * (c - b) + e for a, b, c, d, e in zip(*F)]


def _reference_march(sys, s0, t_end, h, order, limit=100):
    """The implicit-midpoint run of integrate as a per-step Python loop on
    _reference_rhs, at stride 1: (times, states, halted, stats, slow).  Step 1
    opens with the Euler call (no convergence test); every later step starts
    from y + h G, G extrapolated to the given order from the converged
    slopes.  A pass evaluates F = rhs((y + x)/2) and moves x to y + h F; at
    integrate's _FP_TOL = 1e-13, the step has converged once max|x_new - x|
    <= _FP_TOL (1 + max|x_new|) (a NaN never does) and stalls after limit
    passes (integrate's _MAX_FP_ITER, 100) besides the Euler call.  A
    converged state outside the halt bounds, within 1e-10 of a plane q_i = 0
    with b_i != 0 or across one halts the run, keeping the state before it;
    stats["steps"] counts the steps kept.  slow counts the passes that
    converged only relative to the scale, _FP_TOL < max|x_new - x|: those
    the generated run decides by its full sweep, not by its fast test."""
    rhs = _reference_rhs(sys)
    rmin, rmax = dynamics._halt_bounds(sys)
    n, nsteps = sys.n, round(t_end / h)
    h = t_end / nsteps
    y = s0.q.tolist() + s0.p.tolist()
    times, states, slopes = [0.0], [y], []
    nfev = fp_worst = slow = 0
    halted = None
    for kstep in range(1, nsteps + 1):
        x = list(y) if kstep == 1 else [a + h * g for a, g in zip(y, _extrapolate(slopes, order))]
        try:
            for evals in range(kstep > 1, limit + 1):
                F = rhs([0.5 * (a + b) for a, b in zip(y, x)])
                nfev += 1
                x_new = [a + h * g for a, g in zip(y, F)]
                deltas = [abs(a - b) for a, b in zip(x_new, x)]
                delta = math.nan if any(map(math.isnan, deltas)) else max(deltas)
                scale = max(abs(v) for v in x_new)
                x = x_new
                if evals and delta <= 1e-13 * (1.0 + scale):
                    slow += delta > 1e-13
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
                                   "nfev": nfev, "max_fp_iterations": fp_worst}, slow


def _digest(sys, states):
    """sha256 of the states' q, then p, then H columns as float64 bytes."""
    q = np.array([y[:sys.n] for y in states])
    p = np.array([y[sys.n:] for y in states])
    H = np.array([hamiltonian(sys, PhaseState(a, b)) for a, b in zip(q, p)])
    return hashlib.sha256(q.tobytes() + p.tobytes() + H.tobytes()).hexdigest()


@pytest.mark.parametrize("setup, nfev, fp_worst, digest", [
    (_darboux3b_kc_with_b, 903, 4,
     "a4c9f4f89666d6eabb6c8b02eb6dcfe10b0cd00e6a7f53cc48dd1439438979fc"),
    (_custom_f_oscillator, 1379, 8,
     "67aa1e3103be2bd5d98b12c2c655fbb7d2e2383383e3f6737ed74b57eb38acc4"),
    (_free_particle_at_rest, 301, 1,
     "5f4e810dc72cf1700600ebf8b51a0132fd7c7653f90b6ac1e92082cfe574dba0"),
])
def test_reference_loop_reproduces_the_linear_predictor_pins(setup, nfev, fp_worst, digest):
    # the pins of the generated run when its predictor stopped at linear
    # extrapolation (2 F_1 - F_2): the reference loop, at that order, gave
    # the same states, H and counts, so it is a sound oracle for the kernel;
    # darboux3b's, with b != 0, is re-derived from the loop alone since its
    # force's b_i/q_i^3 became b_i/(q_i q_i)/q_i, a form no linear-predictor
    # kernel had; the kernel-loop tests above now anchor the loop to the bit
    sys, s0 = setup()
    times, states, halted, stats, _ = _reference_march(sys, s0, 0.3, 1e-3, order=1)
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


@pytest.mark.parametrize("setup, t_end, limit, halted", [
    (_darboux3b_kc_with_b, 0.3, 100, None),
    (_custom_f_oscillator, 0.3, 100, None),
    (_free_particle_at_rest, 0.3, 100, None),
    (_strip_radial_escape, 2.0, 100, "domain-exit"),
    (_across_a_singular_plane, 2.0, 100, "singular-axis"),
    # the pass limit after step 1: step 194 needs a 6th pass, so at 5 passes
    # the run stalls there (193 steps kept, nfev 501, max_fp_iterations 5),
    # and at 6 it converges on exactly its last allowed pass (300 steps,
    # nfev 965, max_fp_iterations 6)
    (_custom_f_oscillator, 0.3, 5, "fixed-point iteration stalled"),
    (_custom_f_oscillator, 0.3, 6, None),
])
def test_midpoint_run_matches_the_reference_loop_bit_for_bit(monkeypatch, setup, t_end,
                                                             limit, halted):
    # the limit is baked into the kernel text, which the run generates with
    # no kernel kept
    monkeypatch.setattr(dynamics, "_MAX_FP_ITER", limit)
    monkeypatch.setattr(dynamics, "_KEPT", {})
    sys, s0 = setup()
    assert _run_against_reference(sys, s0, t_end, 1e-3, limit)[0] == halted


def _run_against_reference(sys, s0, t_end, h, limit=100):
    """Assert that the midpoint run at stride 1 is _reference_march's at
    quartic order and the given pass limit, bit for bit; return its halt and
    the reference's slow."""
    nsteps = round(t_end / h)
    rec = integrate(sys, s0, t_end, method="midpoint", step=h, samples=nsteps + 1)
    times, states, halted, stats, slow = _reference_march(sys, s0, t_end, h, order=4,
                                                          limit=limit)
    assert rec.halted == halted
    assert rec.stats == {**stats, "rejections": 0}
    assert rec.times.tolist() == times
    assert [st.q.tolist() + st.p.tolist() for st in rec.states] == states
    assert rec.series["H"].tolist() == [hamiltonian(sys, st) for st in rec.states]
    return halted, slow


def _kc_circular(alpha, q, b):
    """kc with coupling alpha on flat space from q, b_i != 0, with the
    circular speed sqrt(alpha/|q|) along (1, -1, 0)/sqrt(2)."""
    v = math.sqrt(alpha / _radius(q)) / math.sqrt(2.0)
    return (SystemSpec(EUCLID, kc_potential(EUCLID, alpha), mu2=0.0, b=b),
            PhaseState(q, [v, -v, 0.0]))


@pytest.mark.parametrize("alpha, q, b, h", [
    # |q| about 19: a pass converges up to max|x_new - x| of about 2e-12
    pytest.param(20.0, [11.0, 11.0, 11.0], (0.1, 0.2, 0.3), 0.02, id="wide-orbit"),
    # every |y_j| stays below 0.8: a pass converges up to less than 2e-13
    pytest.param(0.2, [0.4, 0.4, 0.4], (0.001, 0.002, 0.003), 0.02, id="small-orbit"),
])
def test_midpoint_passes_that_converge_relative_to_the_scale_match_the_reference(alpha, q, b, h):
    # the generated run accepts a pass at once where every |x_new - x| <=
    # _FP_TOL; a pass with _FP_TOL < max|x_new - x| <= _FP_TOL (1 + max|x_new|)
    # converges through the full sweep, and both must decide as the
    # reference does, pass for pass
    sys, s0 = _kc_circular(alpha, q, b)
    halted, slow = _run_against_reference(sys, s0, 2000 * h, h)
    assert halted is None and slow > 0


def _names(lines):
    return {node.id for node in ast.walk(ast.parse("\n".join(lines)))
            if isinstance(node, ast.Name)}


@pytest.mark.parametrize("sys, s0", [
    pytest.param(SystemSpec(EUCLID, kc_potential(EUCLID, 1.0), mu2=0.3, b=(0.05, 0.0, 0.06)),
                 PhaseState([0.6, 0.55, 0.5], [0.3, -0.4, 0.25]), id="euclidean-kc"),
    pytest.param(named_system("mic-kepler", {"mu2": 0.3, "centrifugal": [0.05, 0.08, 0.06]}),
                 PhaseState([0.61, 0.56, 0.51], [0.3, -0.41, 0.24]), id="mic-kepler"),
])
def test_flat_kernels_leave_out_f_and_match_both_reference_loops(sys, s0):
    # f prints as 1.0: the RHS text binds no fr, f2 or inv_f2 and divides by
    # r alone, which IEEE 754 makes exact, so both generated runs are still
    # the plain loops' to the bit; a curved space keeps every factor
    names, body, slope = dynamics._rhs_source(sys)
    assert not _names(body + slope) & {"fr", "f2", "inv_f2"}
    curved = SystemSpec(metric_of("darboux3b"), None, mu2=0.3, b=sys.b)
    assert {"fr", "f2", "inv_f2"} <= _names(sum(dynamics._rhs_source(curved)[1:], []))
    # k * f' stays: with p^2 overflowing, k * 0.0 is NaN, and so is -dH/dq
    y = s0.q.tolist() + [1e200, 0.0, 0.0]
    got = dynamics._make_rhs(sys)(*y)
    assert [v.hex() for v in got] == [v.hex() for v in _reference_rhs(sys)(y)]
    assert math.isnan(got[3])
    rec = integrate(sys, s0, 2.0, samples=21)
    times, states, stats, halted = _reference_adaptive(sys, s0, 2.0, 21)
    assert rec.halted is halted is None and rec.stats == stats
    assert _hexes([rec.times]) == _hexes([times])
    assert _hexes(np.hstack([rec.q, rec.p])) == _hexes(states)
    assert _run_against_reference(sys, s0, 0.5, 1e-3)[0] is None


def _flow_midpoint_seed_1(name):
    """The flow-midpoint benchmark config of one named system at seed 1, as
    its YAML prints the jittered values."""
    if name == "mic-kepler":  # kepler-eccentric
        params = {"mu2": 0.2875780044398019, "centrifugal": [
            0.054994396760410735, 0.08670640329430075, 0.0581399008124852]}
        q = [0.6141985005837859, 0.5638989327118578, 0.506990279275442]
        p = [0.2952296737048471, -0.4113236237014385, 0.24401330879677632]
    else:
        params = {"mu2": 0.04619975325422824, "centrifugal": [
            0.020954278793755502, 0.027078999382593633, 0.01841089818747353]}
        q = [0.3074797182959863, 0.2789995990003221, 0.24880363058997826]
        p = [0.305189661321589, -0.4017280718647029, 0.24414872326779524]
    return named_system(name, {"alpha": 1.0, **params}), PhaseState(q, p)


@pytest.mark.parametrize("name, per_step", [
    # 4665 and 8853 RHS calls over the 4000 steps with the cubic predictor
    ("mic-kepler", 1.01),
    ("mic-kepler-hyperbolic", 1.6),
])
def test_quartic_predictor_bounds_the_rhs_calls_per_step(name, per_step):
    # the quartic start leaves the eccentric orbit at one pass per step and
    # the hyperbolic one at well under two
    sys, s0 = _flow_midpoint_seed_1(name)
    rec = integrate(sys, s0, 4.0, method="midpoint", step=1e-3, samples=11)
    assert rec.halted is None and rec.stats["steps"] == 4000
    assert rec.stats["nfev"] <= per_step * rec.stats["steps"]


@pytest.mark.parametrize("setup, nfev, fp_worst, digest", [
    (_darboux3b_kc_with_b, 311, 4,
     "e54d04a9bd4fa14476d3800c3fd00650b3db98a3767cff96adee1a76285e8293"),
    (_custom_f_oscillator, 965, 6,
     "8127e1426331f66fb56031577378d34138d50e6dd9257edf69e485ff90d137fe"),
    (_free_particle_at_rest, 301, 1,
     "5f4e810dc72cf1700600ebf8b51a0132fd7c7653f90b6ac1e92082cfe574dba0"),
])
def test_midpoint_run_is_pinned_bit_for_bit(setup, nfev, fp_worst, digest):
    # 300 steps at stride 1: every state, every H and every count of the
    # generated midpoint run, pinned to the values of _reference_march at
    # the kernel's predictor order (quartic)
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
             "e54d04a9bd4fa14476d3800c3fd00650b3db98a3767cff96adee1a76285e8293"),
            ({"t_end": 5.0}, "891863e245d9872419c0e1f694e83dfd5b7e1f7fce0b0fc0fde569fccee6e6e9")]:
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


@pytest.mark.parametrize("samples", [201, 2])
def test_a_dense_output_that_raises_halts_the_adaptive_run(monkeypatch, samples):
    # dense's three extra rhs calls evaluate the RHS at states no attempt did;
    # an ArithmeticError there halts the run as a failing RHS halts the
    # midpoint run, keeping the state before the step: the second step, the
    # first to span a sample (t = 0.1 of 201), or, with 2 samples, the step
    # whose domain exit integrate would bisect on the interpolant
    sys, s0 = _strip_radial_escape()
    full = integrate(sys, s0, 20.0, samples=samples)

    def dense(rhs, *args):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(dynamics, "_make_dense", lambda m: dense)
    monkeypatch.setattr(dynamics, "_KEPT", {})
    rec = integrate(sys, s0, 20.0, samples=samples)
    assert rec.halted == "rhs evaluation failed: float division by zero"
    if samples == 2:
        assert full.halted == "domain-exit" and full.times.size == 2
        assert rec.stats == {**full.stats, "nfev": full.stats["nfev"] - 3}
        assert rec.times.size == 2 and 0.0 < rec.times[-1] < full.times[-1]
    else:
        assert rec.stats == {"steps": 2, "nfev": 2 + 2 * 12, "rejections": 0}
        assert rec.times.size == 2 and 0.0 < rec.times[-1] < full.times[1] == 0.1


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
    # one fixed-point pass per step: with no kernel kept, the kernel of
    # this system is generated under the patched constant
    monkeypatch.setattr(dynamics, "_MAX_FP_ITER", 1)
    monkeypatch.setattr(dynamics, "_KEPT", {})
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


@pytest.mark.parametrize("q1, nfev", [(0.598, 2), (0.595, 14)])
def test_quadrature_failure_before_the_first_step_counts_the_calls_made(
        fail_quadrature_between, q1, nfev):
    # the oscillator's U' needs U by quadrature: from |q| = 0.598 the
    # initial-step probe reaches the failing band, from 0.595 only the
    # stages of the first attempt do; nfev counts the calls made either way
    metric = MetricSpec.from_source("1/(1 + 0.2*r^2)", id="custom")
    sys = SystemSpec(metric, oscillator_potential(metric, 0.01), n=3)
    fail_quadrature_between(0.6, 1.0)
    rec = integrate(sys, PhaseState([q1, 0.0, 0.0], [2.0, 0.1, 0.0]), 1.0, samples=11)
    assert rec.halted.startswith("quadrature failed: green function on 'custom'")
    assert rec.stats == {"steps": 0, "nfev": nfev, "rejections": 0}
    assert rec.times.tolist() == [0.0]


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


def _plain_halt(sys, x, y):
    """The halt rule of a step from y to x, stated plainly: |q| outside the
    halt bounds is a domain exit; q_i within 1e-10 of 0, or of another sign
    than before, with b_i != 0 is a singular axis."""
    rmin, rmax = dynamics._halt_bounds(sys)
    if not rmin < _radius(x[:sys.n]) < rmax:
        return "domain-exit"
    for i in range(sys.n):
        if sys.b[i] != 0.0 and (abs(x[i]) < 1e-10 or x[i] * y[i] <= 0.0):
            return "singular-axis"
    return None


def _at_radius(r, z):
    """q = (x, 0, z) whose |q|, summed in order, is exactly r."""
    x0 = math.sqrt(r * r - z * z)
    for k in range(200):
        x = x0
        for _ in range(k // 2):
            x = math.nextafter(x, math.inf if k % 2 else -math.inf)
        if _radius([x, 0.0, z]) == r:
            return [x, 0.0, z]
    raise AssertionError(f"no x puts |q| at {r!r}")


def test_generated_halt_matches_the_plain_rule_at_its_edges():
    # b_2 = 0: only q_1 and q_3 have singular planes
    metric = MetricSpec.from_source("1", id="flat-strip", domain=(0.5, 2.0))
    sys = SystemSpec(metric, None, mu2=0.0, b=(0.2, 0.0, 0.5))
    halt = dynamics._make_rhs(sys).__globals__["halt"]
    rmin, rmax = dynamics._halt_bounds(sys)
    up, down, eps = math.inf, -math.inf, 1e-10
    p = [0.1, -0.2, 0.3]
    y = [1.0, 0.2, 0.3] + p
    cases = []
    for r in (rmin, rmax):
        for radius in (math.nextafter(r, down), r, math.nextafter(r, up)):
            cases.append(_at_radius(radius, 0.3) + p)
    for q1 in (eps, math.nextafter(eps, 0.0), -eps, math.nextafter(-eps, 0.0)):
        cases += [[q1, 1.0, 0.3] + p, [0.3, 1.0, q1] + p]
    cases += [
        [-0.3, 1.0, 0.3] + p, [0.3, -1.0, 0.3] + p,  # a sign change, on q_2 no halt
        [-0.0, 1.0, 0.3] + p, [0.3, 1.0, -0.0] + p, [0.3, -0.0, 0.3] + p,
        [math.nan, 1.0, 0.3] + p, [0.3, math.nan, 0.3] + p, [0.3, 1.0, 0.3] + [math.nan] * 3,
        [math.inf, 1.0, 0.3] + p, [math.nan] * 6,
    ]
    # a previous q_i of either sign, and of either signed zero
    previous = [y, [-1.0, 0.2, -0.3] + p, [-0.0, 0.2, 0.3] + p, [1.0, 0.2, 0.0] + p]
    reasons = []
    for x in cases:
        for before in previous:
            want = _plain_halt(sys, x, before)
            assert halt(x, before) == want, (x, before)
            reasons.append(want)
    # numpy rows, as the crossing bisection passes them, decide alike
    assert [halt(np.array(x), before) for x in cases for before in previous] == reasons
    assert {None, "domain-exit", "singular-axis"} <= set(reasons)
    edges = [reasons[len(previous) * k] for k in range(6)]
    assert edges == ["domain-exit", "domain-exit", None, None, "domain-exit", "domain-exit"]


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
