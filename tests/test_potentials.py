import math
from fractions import Fraction

import numpy as np
import pytest

from qmsflow import exprlang
from qmsflow.algebra import PhaseState
from qmsflow.exprlang import format_expr
from qmsflow.geometry import CATALOG, DomainViolation, MetricSpec, catalog_lookup, sample_radii
from qmsflow.potentials import (
    PotentialError,
    PotentialSpec,
    SystemSpec,
    decomposition_identities,
    green_function,
    kc_potential,
    named_system,
    oscillator_potential,
)

# default parameter values used when instantiating catalog metrics in bulk
PARAMS = {
    "darboux3b": {"k": 1.0},
    "darboux4": {"a": 2.0},
    "taub-nut": {"m": 1.0},
    "nu-fold": {"a": 1.0, "b": 1.0, "nu": 2},
    "nu-fold-a0": {"nu": 2},
}

# independently hand-written KC column (alpha = 1) for every catalog row
KC_COLUMN = {
    "euclidean": lambda r, P: -1.0 / r,
    "spherical": lambda r, P: (r * r - 1.0) / r,
    "hyperbolic": lambda r, P: -(r * r + 1.0) / r,
    "darboux1": lambda r, P: math.sqrt(math.log(r)),
    "darboux2": lambda r, P: math.sqrt(1.0 + math.log(r) ** 2),
    "darboux3a": lambda r, P: math.sqrt(1.0 + r),
    "darboux3b": lambda r, P: math.sqrt(P["k"] + r * r) / r,
    "darboux4": lambda r, P: math.sqrt(P["a"] + math.cos(math.log(r))),
    "taub-nut": lambda r, P: math.sqrt(4.0 * P["m"] / r + 1.0),
    "nu-fold": lambda r, P: math.sqrt(P["a"] * r ** (-1.0 / P["nu"]) + P["b"]),
    "nu-fold-a0": lambda r, P: -(r ** (-1.0 / P["nu"])),
}


def metric_of(mid):
    return catalog_lookup(mid, PARAMS.get(mid))


# ---------------------------------------------------------------------------
# Green function
# ---------------------------------------------------------------------------

def test_green_function_closed_forms():
    assert green_function(metric_of("euclidean"), 2.0) == -0.5
    assert green_function(metric_of("spherical"), 2.0) == pytest.approx(1.5)
    assert green_function(metric_of("hyperbolic"), 0.5) == pytest.approx(-2.5)
    with pytest.raises(DomainViolation):
        green_function(metric_of("hyperbolic"), 1.5)


def test_every_catalog_metric_carries_its_closed_form():
    for mid, entry in CATALOG.items():
        metric = catalog_lookup(mid)
        assert metric.green_expr == exprlang.parse(entry.green_source,
                                                   params=set(metric.params)), mid


def test_green_expr_is_none_off_the_catalog():
    assert MetricSpec.from_source("2/(1+r^2)").green_expr is None
    # a catalog id on another f
    assert MetricSpec.from_source("2/(1+r^2)", id="euclidean").green_expr is None


def test_green_expr_follows_the_metric_parameters():
    metric = MetricSpec.from_source("sqrt(k+r^2)", params={"k": 4.0}, id="darboux3b")
    assert metric.green_expr == exprlang.parse("sqrt(k + r^2)/r", params={"k"})
    assert green_function(metric, 2.0) == math.sqrt(8.0) / 2.0
    # without a parameter named k the catalog f does not parse: no closed form
    metric = MetricSpec.from_source("sqrt(2+r^2)", id="darboux3b")
    assert metric.green_expr is None
    assert kc_potential(metric, 1.0).provenance == "quadrature-backed"


def test_green_function_parses_the_green_source_once_per_metric(monkeypatch):
    metric = catalog_lookup("taub-nut")
    source = CATALOG["taub-nut"].green_source
    seen = []
    real = exprlang.parse

    def parse(text, *args, **kwargs):
        seen.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(exprlang, "parse", parse)
    values = [green_function(metric, r) for r in (0.5, 1.0, 2.0, 0.5)]
    kc_potential(metric, 1.0)
    oscillator_potential(metric, 1.0)
    assert seen.count(source) <= 1
    assert values[0] == values[3] == math.sqrt(9.0)


def test_green_function_quadrature_anchoring():
    # U' = (1 + r^2)/r^2 integrates to r - 1/r, anchored to vanish at r0 = 1
    metric = MetricSpec.from_source("1/(1 + r^2)", id="poincare-like")
    assert green_function(metric, 1.0) == pytest.approx(0.0, abs=1e-12)
    for r in (0.3, 0.9, 2.0, 7.5):
        assert green_function(metric, r) == pytest.approx(r - 1.0 / r, abs=1e-9)


def test_green_function_quadrature_matches_closed_form_affinely():
    # the anchored quadrature on taub-nut must be an affine image of the
    # registered closed form
    metric = metric_of("taub-nut")
    grid = sample_radii(metric.domain, 16)
    quads = np.array([green_function(metric, float(r), method="quadrature")
                      for r in grid])
    closed = np.array([math.sqrt(4.0 / r + 1.0) for r in grid])
    design = np.column_stack([closed, np.ones_like(closed)])
    coef, *_ = np.linalg.lstsq(design, quads, rcond=None)
    residual = np.max(np.abs(design @ coef - quads))
    assert residual <= 1e-8
    assert abs(coef[0]) > 1e-3  # genuinely proportional, not constant


def test_kc_potential_examples():
    assert kc_potential(metric_of("euclidean"), 1.0).u(2.0) == -0.5
    assert kc_potential(metric_of("hyperbolic"), 1.0).u(0.5) == pytest.approx(-2.5)
    p = kc_potential(catalog_lookup("nu-fold-a0", {"nu": 2}), 1.0)
    assert p.u(4.0) == pytest.approx(-0.5)  # -r^(-1/2)
    assert p.provenance == "closed-form-catalog"
    assert p.alpha == 1.0


def test_potential_builds_are_kept_per_metric_and_arguments():
    kc_potential.cache_clear()
    metric = metric_of("darboux3b")
    kc = kc_potential(metric, 0.7)
    assert kc_potential(metric, 0.7) is kc
    assert kc_potential(metric, 0.7000000000000001) is not kc
    assert oscillator_potential(metric, 0.7) is not kc
    assert kc_potential(metric_of("euclidean"), 0.7) is not kc
    # 70 couplings on one metric: the store stays bounded
    for k in range(70):
        kc_potential(metric, 1.0 + k)
    assert kc_potential.cache_info().currsize == 64


def test_oscillator_potential_examples():
    assert oscillator_potential(metric_of("euclidean"), 1.0).u(3.0) == pytest.approx(9.0)
    p = oscillator_potential(metric_of("darboux2"), 1.0)
    r = math.e
    assert p.u(r) == pytest.approx(1.0 / (1.0 + math.log(r) ** 2), rel=1e-14)
    p = oscillator_potential(metric_of("taub-nut"), 1.0)
    assert p.u(2.0) == pytest.approx(2.0 / 6.0, rel=1e-14)
    assert p.beta == 1.0


def test_oscillator_domain_restriction_on_sphere():
    # U = (r^2 - 1)/r crosses zero at r = 1, the domain midpoint: the lower
    # subinterval is kept
    p = oscillator_potential(metric_of("spherical"), 1.0)
    assert p.domain[0] == 0.0
    assert p.domain[1] == pytest.approx(1.0, rel=1e-9)
    r = 0.5
    assert p.u(r) == pytest.approx(r * r / (r * r - 1.0) ** 2, rel=1e-12)


def test_quadrature_oscillator_domain_excludes_the_anchor():
    # the quadrature-backed U is anchored to vanish at r0 = 1 exactly, and
    # the root brentq finds there may sit an ulp above r0
    p = oscillator_potential(MetricSpec.from_source("1/(1 + 0.2*r^2)"), 0.01)
    assert p.provenance == "quadrature-backed"
    lo, hi = p.domain
    assert lo == 0.0 and hi <= 1.0
    assert hi == pytest.approx(1.0, rel=1e-12)
    r = math.nextafter(hi, 0.0)
    assert math.isfinite(p.u(r)) and p.u(r) > 0.0


def test_catalog_kc_and_oscillator_columns():
    alpha, beta = 1.3, 0.7
    for mid in CATALOG:
        metric = metric_of(mid)
        P = {k: float(v) for k, v in PARAMS.get(mid, {}).items()}
        kc = kc_potential(metric, alpha)
        osc = oscillator_potential(metric, beta)
        for r in sample_radii(osc.domain, 32):
            r = float(r)
            table_u = KC_COLUMN[mid](r, P)
            assert abs(kc.u(r) - alpha * table_u) <= 1e-12 * max(1, abs(alpha * table_u)), mid
            want = beta / table_u ** 2
            assert abs(osc.u(r) - want) <= 1e-12 * max(1, abs(want)), mid


def test_potential_spec_rejects_inconsistent_derivative():
    with pytest.raises(PotentialError):
        PotentialSpec(lambda r: r * r, lambda r: 3.0 * r, "user-supplied",
                      domain=(0.1, 10.0))
    with pytest.raises(PotentialError):
        PotentialSpec(lambda r: r, lambda r: 1.0, "nonsense", domain=(0.1, 10.0))
    # an overflow, a pole and a log off its domain at the spot-check radii,
    # which run on Python floats, so that none only warns
    for source in ("exp(exp(r))", "1/(r-r)", "ln(r-2)"):
        with pytest.raises(PotentialError, match="not evaluable near r="):
            PotentialSpec.from_expr(source)


def test_user_supplied_potential_from_source():
    p = PotentialSpec.from_expr("w/(1 + r^2)", params={"w": 2.0},
                                domain=(0.0, math.inf))
    assert p.provenance == "user-supplied"
    assert p.u(1.0) == 1.0
    assert p.du(1.0) == pytest.approx(-1.0)
    assert "w" in format_expr(p.u_expr)



@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_potential_spec_rejects_a_non_finite_parameter(value):
    with pytest.raises(ValueError, match="parameter 'w'.*not finite"):
        PotentialSpec.from_expr("w/(1 + r^2)", params={"w": value})
    metric = catalog_lookup("euclidean")
    with pytest.raises(ValueError, match="not finite"):
        kc_potential(metric, value)

# ---------------------------------------------------------------------------
# named systems
# ---------------------------------------------------------------------------

def test_named_system_mic_kepler():
    sys = named_system("mic-kepler", {"alpha": 1.0, "mu2": 1.0})
    assert sys.n == 3 and sys.mu2 == 1.0 and sys.b == (0.0, 0.0, 0.0)
    assert sys.metric.f(2.7) == 1.0
    assert sys.potential.u(2.0) == -0.5


def test_named_system_mic_kepler_spherical_matches_printed_form():
    alpha, mu2 = 1.3, 0.8
    sys = named_system("mic-kepler-spherical", {"alpha": alpha, "mu2": mu2})
    rng = np.random.default_rng(7)
    for _ in range(10):
        q = rng.uniform(0.3, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
        p = rng.uniform(-2, 2, 3)
        q2 = float(q @ q)
        r = math.sqrt(q2)
        f = sys.metric.f(r)
        ours = (float(p @ p) + mu2 / q2) / (2 * f * f) + sys.potential.u(r)
        printed = (0.5 * (1 + q2) ** 2 * float(p @ p)
                   + alpha * (q2 - 1) / r + mu2 * (1 + q2) ** 2 / (2 * q2))
        assert ours == pytest.approx(printed, rel=1e-12)


def test_named_system_mic_kepler_hyperbolic_matches_printed_form():
    alpha, mu2 = 0.9, 1.1
    sys = named_system("mic-kepler-hyperbolic", {"alpha": alpha, "mu2": mu2})
    assert sys.domain == (0.0, 1.0)
    rng = np.random.default_rng(11)
    for _ in range(10):
        q = rng.uniform(0.2, 0.55, 3) * rng.choice([-1.0, 1.0], 3)
        p = rng.uniform(-2, 2, 3)
        q2 = float(q @ q)
        r = math.sqrt(q2)
        f = sys.metric.f(r)
        ours = (float(p @ p) + mu2 / q2) / (2 * f * f) + sys.potential.u(r)
        printed = (0.5 * (1 - q2) ** 2 * float(p @ p)
                   - alpha * (q2 + 1) / r + mu2 * (1 - q2) ** 2 / (2 * q2))
        assert ours == pytest.approx(printed, rel=1e-12)


def test_named_system_taub_nut_compact_form():
    mu2 = 1.0
    sys = named_system("taub-nut-system", {"m": 1.0, "mu2": mu2})
    q = np.array([1.0, 1.0, 1.0])
    p = np.array([1.0, 0.0, 0.0])
    q2, p2 = 3.0, 1.0
    r = math.sqrt(q2)
    f = sys.metric.f(r)
    ours = (p2 + mu2 / q2) / (2 * f * f) + sys.potential.u(r)
    compact = p2 / (2 * (1 + 4 / r)) + (mu2 / 32.0) * (1 + 4 / r)
    assert ours == pytest.approx(compact, rel=1e-12)
    assert sys.potential.beta == pytest.approx(mu2 / 32.0)
    assert sys.potential.gamma == pytest.approx(mu2 / 16.0)


def test_named_system_multifold_reduces_to_mic_kepler():
    mf = named_system("multifold-kepler",
                      {"nu": 1, "a": 0.0, "b": 1.0, "c": -2.0, "d": 0.0, "mu2": 1.0})
    mic = named_system("mic-kepler", {"alpha": 1.0, "mu2": 1.0})
    assert mf.potential.alpha == 1.0
    for r in (0.4, 1.0, 3.3, 9.0):
        assert mf.metric.f(r) == pytest.approx(mic.metric.f(r), rel=1e-14)
        assert mf.potential.u(r) == pytest.approx(mic.potential.u(r), rel=1e-14)
    assert mf.mu2 == mic.mu2


def test_named_system_multifold_matches_compact_hamiltonian():
    nu, a, b, c, d, mu2 = Fraction(3, 2), 1.0, 2.0, 0.3, 0.7, 1.0
    sys = named_system("multifold-kepler",
                       {"nu": nu, "a": a, "b": b, "c": c, "d": d, "mu2": mu2})
    i = 1.0 / float(nu)
    rng = np.random.default_rng(13)
    for _ in range(10):
        q = rng.uniform(0.3, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
        p = rng.uniform(-2, 2, 3)
        q2, p2 = float(q @ q), float(p @ p)
        r = math.sqrt(q2)
        f = sys.metric.f(r)
        ours = (p2 + mu2 / q2) / (2 * f * f) + sys.potential.u(r)
        compact = r ** (2 - i) / (2 * (a + b * r ** i)) * (
            p2 + mu2 / q2 + mu2 * c * r ** (i - 2) + mu2 * d * r ** (2 * i - 2))
        assert ours == pytest.approx(compact, rel=1e-10)


def test_named_system_validation():
    with pytest.raises(PotentialError):
        named_system("kepler-helper")
    with pytest.raises(PotentialError):
        named_system("mic-kepler", {"zeta": 1})
    with pytest.raises(PotentialError):
        named_system("taub-nut-system", {"m": -1.0})
    with pytest.raises(PotentialError):
        named_system("mic-kepler", {"mu2": -0.5})
    sys = named_system("multifold-kepler",
                       {"nu": "7/3", "a": 1.0, "b": 1.0, "n": 4,
                        "centrifugal": [0.1, 0.2, 0.3, 0.4]})
    assert sys.n == 4 and sys.b == (0.1, 0.2, 0.3, 0.4)


def test_system_spec_validation():
    metric = metric_of("euclidean")
    with pytest.raises(PotentialError):
        SystemSpec(metric, None, mu2=-1.0, n=3)
    with pytest.raises(PotentialError):
        SystemSpec(metric, None, n=1)
    with pytest.raises(PotentialError):
        SystemSpec(metric, None, b=[1.0, 2.0], n=3)
    with pytest.raises(PotentialError):
        SystemSpec(metric, None)
    s = SystemSpec(metric, None, b=[1.0, 2.0, 3.0])
    assert s.n == 3 and s.mu2 == 0.0


# ---------------------------------------------------------------------------
# identity report
# ---------------------------------------------------------------------------

def test_decomposition_identities_at_specified_points():
    pt = PhaseState([1.7, 0.0], [0.0, 0.0])
    out = decomposition_identities(pt, {"a": 2.0, "b": 3.0, "beta": 1.0,
                                        "gamma": 0.5, "nu": 1})
    assert out["oscillator-shift"] <= 1e-12

    pt = PhaseState([1.0, 1.0, 1.0], [1.0, 0.0, 0.0])
    out = decomposition_identities(pt, {"m": 1.0, "mu2": 1.0})
    assert out["taub-nut-forms"] <= 1e-12


def test_decomposition_identities_everywhere():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        q = rng.uniform(0.2, 3.0, n) * rng.choice([-1.0, 1.0], n)
        pt = PhaseState(q, rng.uniform(-3, 3, n))
        out = decomposition_identities(pt, {
            "nu": Fraction(3, 2), "a": rng.uniform(0.2, 2.0),
            "b": rng.uniform(0.2, 2.0), "c": rng.uniform(-1, 1),
            "d": rng.uniform(-1, 1), "mu2": rng.uniform(0, 2),
            "m": rng.uniform(0.3, 2.0), "beta": rng.uniform(-1, 1),
            "gamma": rng.uniform(-1, 1)})
        for key, residual in out.items():
            assert residual <= 1e-10, (key, residual)


def test_decomposition_identities_parameter_checks():
    pt = PhaseState([1.5, 0.5], [0.0, 0.0])
    with pytest.raises(PotentialError):
        decomposition_identities(pt, {"unknown": 1.0})
    with pytest.raises(PotentialError):
        decomposition_identities(PhaseState([1.0, 0.0], [0.0, 0.0]), {})
