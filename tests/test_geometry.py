"""Metric catalog, scalar curvature, and geodesic radial map tests."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qmsflow.geometry import (
    DomainViolation, MetricError, MetricSpec, catalog_ids,
    catalog_lookup, geodesic_radius_inverse, geodesic_radius_map,
    sample_radii, scalar_curvature,
)


def test_catalog_is_complete():
    assert sorted(catalog_ids()) == sorted([
        "euclidean", "spherical", "hyperbolic",
        "darboux1", "darboux2", "darboux3a", "darboux3b", "darboux4",
        "taub-nut", "nu-fold", "nu-fold-a0",
    ])


def test_every_catalog_factor_is_positive_on_its_domain():
    for id in catalog_ids():
        m = catalog_lookup(id)  # construction itself grid-checks f > 0
        for r in sample_radii(m.domain, 64):
            assert m.f(float(r)) > 0.0, id


def test_taub_nut_factor():
    m = catalog_lookup("taub-nut", m=1)
    assert m.domain == (0.0, math.inf)
    for r in (0.5, 1.0, 4.0):
        assert m.f(r) == pytest.approx(math.sqrt((4 + r) / r), rel=1e-15)


def test_darboux1_factor_and_domain():
    m = catalog_lookup("darboux1")
    assert m.domain == (1.0, math.inf)
    assert m.f(math.e) == pytest.approx(1 / math.e, rel=1e-15)
    with pytest.raises(DomainViolation):
        m.f(0.5)


def test_darboux4_domain_depends_on_a():
    m = catalog_lookup("darboux4", a=2)
    assert m.domain[0] == 1.0
    assert m.domain[1] == pytest.approx(math.exp(math.pi))
    # for |a| < 1 the interval shortens to where a + cos(ln r) > 0
    m2 = catalog_lookup("darboux4", a=0.5)
    assert m2.domain[1] == pytest.approx(math.exp(math.acos(-0.5)))
    with pytest.raises(MetricError):
        catalog_lookup("darboux4", a=-1.5)


def test_hyperbolic_domain():
    m = catalog_lookup("hyperbolic")
    assert m.domain == (0.0, 1.0)
    assert m.f(0.5) == pytest.approx(2 / (1 - 0.25))
    with pytest.raises(DomainViolation):
        m.f(1.5)


def test_nu_is_stored_as_rational():
    m = catalog_lookup("nu-fold", a=1, b=2, nu=1.5)
    assert m.params["nu"] == Fraction(3, 2)
    m2 = catalog_lookup("nu-fold-a0", nu="7/3")
    assert m2.params["nu"] == Fraction(7, 3)


def test_nu_fold_parameter_validation():
    with pytest.raises(MetricError):
        catalog_lookup("nu-fold", a=0, b=1, nu=2)     # a = 0 is the other id
    with pytest.raises(MetricError):
        catalog_lookup("nu-fold", a=-1, b=-2, nu=2)   # empty domain
    with pytest.raises(MetricError):
        catalog_lookup("nu-fold", a=1, b=1, nu=-2)
    # sign-dependent domains
    assert catalog_lookup("nu-fold", a=1, b=-1, nu=2).domain == (0.0, 1.0)
    assert catalog_lookup("nu-fold", a=-1, b=1, nu=2).domain == (1.0, math.inf)


def test_unknown_id_and_unknown_parameter():
    with pytest.raises(MetricError):
        catalog_lookup("bogus")
    with pytest.raises(MetricError):
        catalog_lookup("euclidean", m=3)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_construction_rejects_a_non_finite_parameter(value):
    with pytest.raises(ValueError, match="parameter 'w'.*not finite"):
        MetricSpec.from_source("1 + w*r^2", params={"w": value})


def test_construction_rejects_nonpositive_factor():
    with pytest.raises(MetricError):
        MetricSpec.from_source("ln(r)", domain=(0.1, math.inf))


def test_construction_rejects_inconsistent_derivative():
    import qmsflow.exprlang as el
    f = el.parse("r^2")
    wrong_fp = el.parse("3*r")
    with pytest.raises(MetricError):
        MetricSpec("bad", f, fp_expr=wrong_fp)


# ---------------------------------------------------------------------------
# scalar curvature
# ---------------------------------------------------------------------------

def test_curvature_flat():
    m = catalog_lookup("euclidean")
    assert scalar_curvature(m, 2.0, 3) == 0.0


def test_curvature_unit_sphere():
    m = catalog_lookup("spherical")
    for r in (0.2, 1.0, 3.7):
        assert scalar_curvature(m, r, 3) == pytest.approx(6.0, abs=1e-10)


def test_curvature_darboux3b_frozen_value():
    # f = sqrt(1+r^2): by hand, at r = 1, N = 3:
    #   f = sqrt2, f'/f = 1/2, f''/f = 1/4
    #   R = -2*(2*(1/4) + 4*(1/2) - (1/2)^2)/2 = -2.25
    m = catalog_lookup("darboux3b", k=1)
    val = scalar_curvature(m, 1.0, 3)
    assert val == pytest.approx(-2.25, rel=1e-12)
    # independent oracle: same formula with finite-difference derivatives of f
    h = 1e-5
    f = m.f(1.0)
    fp = (m.f(1 + h) - m.f(1 - h)) / (2 * h)
    fpp = (m.f(1 + h) - 2 * f + m.f(1 - h)) / h**2
    u = fp / f
    oracle = -2 * (2 * fpp / f + 4 * u / 1.0 + (3 - 4) * u * u) / f**2
    assert val == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("kappa", [1.0, -1.0])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_curvature_constant_curvature_spaces(kappa, n):
    domain = (0.0, math.inf) if kappa > 0 else (0.0, 1.0)
    m = MetricSpec.from_source("2/(1+k*r^2)", params={"k": kappa}, domain=domain)
    rs = sample_radii(m.domain, 32)
    vals = np.array([scalar_curvature(m, float(r), n) for r in rs])
    assert np.var(vals) < 1e-10
    assert np.allclose(vals, n * (n - 1) * kappa, atol=1e-9)


# ---------------------------------------------------------------------------
# geodesic radial map
# ---------------------------------------------------------------------------

def test_geodesic_map_exact_values():
    assert geodesic_radius_map(1.0, math.pi / 2) == pytest.approx(1.0, rel=1e-15)
    # small-argument limit r ~ r_hat/2
    assert geodesic_radius_map(1.0, 1e-8) == pytest.approx(5e-9, rel=1e-12)
    # analytic continuation to kappa < 0 is the hyperbolic tangent
    assert geodesic_radius_map(-1.0, 1.0) == pytest.approx(math.tanh(0.5), rel=1e-15)
    assert geodesic_radius_map(-1.0, 1.0) == pytest.approx(0.46211715726000974, rel=1e-14)


def test_geodesic_map_round_trip():
    for kappa in (1.0, -1.0, 0.5, -2.0):
        for r_hat in np.linspace(0.05, 1.4, 13):
            r = geodesic_radius_map(kappa, float(r_hat))
            assert geodesic_radius_inverse(kappa, r) == pytest.approx(float(r_hat), abs=1e-12)


def test_geodesic_map_singularities():
    with pytest.raises(ValueError):
        geodesic_radius_map(1.0, math.pi)  # tan pole
    with pytest.raises(ValueError):
        geodesic_radius_map(0.0, 1.0)
    with pytest.raises(ValueError):
        geodesic_radius_inverse(-1.0, 1.0)  # outside the unit disk


@pytest.mark.parametrize("kappa", [1.0, -1.0])
def test_geodesic_map_metric_identities(kappa):
    """With r(r_hat) and f = 2/(1+kappa r^2): f^2 (dr/dr_hat)^2 = 1 and
    f^2 r^2 = sin^2(sqrt(kappa) r_hat)/kappa (sinh form for kappa < 0)."""
    domain = (0.0, math.inf) if kappa > 0 else (0.0, 1.0)
    m = MetricSpec.from_source("2/(1+k*r^2)", params={"k": kappa}, domain=domain)
    for r_hat in np.linspace(0.05, 1.5, 32):
        r_hat = float(r_hat)
        r = geodesic_radius_map(kappa, r_hat)
        h = 1e-6
        drdrh = (geodesic_radius_map(kappa, r_hat + h) - geodesic_radius_map(kappa, r_hat - h)) / (2 * h)
        f = m.f(r)
        assert f * f * drdrh * drdrh == pytest.approx(1.0, abs=1e-9)
        if kappa > 0:
            want = math.sin(math.sqrt(kappa) * r_hat) ** 2 / kappa
        else:
            want = math.sinh(math.sqrt(-kappa) * r_hat) ** 2 / (-kappa)
        assert f * f * r * r == pytest.approx(want, abs=1e-9)
