import math

import numpy as np
import pytest

from qmsflow.algebra import (
    PhaseState,
    SingularStateError,
    angular_momentum_sq,
    casimir_right,
    poisson_bracket,
    sl2_realize,
    _towers,
)
from qmsflow.coords import (
    ChartError,
    SphericalPhaseState,
    angular_chain,
    angular_momentum_sq_spherical,
    from_cartesian,
    spherical_casimir,
    spherical_generators,
    to_cartesian,
    radial_hamiltonian,
    _e_theta,
)
from qmsflow.geometry import DomainViolation, catalog_lookup


def random_spherical(rng, n, r_range=(0.5, 2.0)):
    # canonical branch, bounded away from the chart's singular set
    theta = rng.uniform(0.2, math.pi - 0.2, n - 1)
    theta[-1] = rng.uniform(0.1, 2 * math.pi - 0.1)
    return SphericalPhaseState(
        rng.uniform(*r_range), theta, rng.uniform(-2, 2), rng.uniform(-2, 2, n - 1))


# ---------------------------------------------------------------------------
# state type and the two chart maps
# ---------------------------------------------------------------------------

def test_spherical_state_validation():
    with pytest.raises(ValueError):
        SphericalPhaseState(0.0, [0.5], 0.0, [0.0])
    with pytest.raises(ValueError):
        SphericalPhaseState(1.0, [0.5, 0.6], 0.0, [0.0])
    s = SphericalPhaseState(1.0, [-0.1, 7.0], 0.5, [1.0, 2.0])
    assert s.n == 3
    assert s.theta[0] == pytest.approx(2 * math.pi - 0.1)
    assert s.theta[1] == pytest.approx(7.0 - 2 * math.pi)


def test_to_cartesian_radial_motion():
    s = SphericalPhaseState(math.sqrt(2), [math.pi / 4], 1.0, [0.0])
    c = to_cartesian(s)
    assert c.q == pytest.approx([1.0, 1.0])
    assert c.p == pytest.approx([1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_to_cartesian_pure_angular_motion():
    s = SphericalPhaseState(1.0, [0.0], 0.0, [1.0])
    c = to_cartesian(s)
    assert c.q == pytest.approx([1.0, 0.0], abs=1e-15)
    assert c.p == pytest.approx([0.0, 1.0], abs=1e-15)


def test_from_cartesian_examples():
    s = from_cartesian(PhaseState([1, 1], [1 / math.sqrt(2), 1 / math.sqrt(2)]))
    assert s.r == pytest.approx(math.sqrt(2))
    assert s.theta[0] == pytest.approx(math.pi / 4)
    assert s.p_r == pytest.approx(1.0)
    assert s.p_theta[0] == pytest.approx(0.0, abs=1e-15)

    s = from_cartesian(PhaseState([0, 1], [0, 0]))
    assert (s.r, s.theta[0], s.p_r, s.p_theta[0]) == pytest.approx(
        (1.0, math.pi / 2, 0.0, 0.0))


def test_chart_violations():
    with pytest.raises(ChartError):
        from_cartesian(PhaseState([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]))
    with pytest.raises(ChartError):
        to_cartesian(SphericalPhaseState(1.0, [0.0, 0.5], 0.0, [0.0, 0.0]))
    # the last angle is allowed to sit on the axis
    to_cartesian(SphericalPhaseState(1.0, [0.5, 0.0], 0.0, [0.0, 1.0]))


def test_round_trip_spherical_to_cartesian_and_back():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        s = random_spherical(rng, n)
        back = from_cartesian(to_cartesian(s))
        assert back.r == pytest.approx(s.r, rel=1e-12)
        assert back.theta == pytest.approx(np.asarray(s.theta), rel=1e-12, abs=1e-12)
        assert back.p_r == pytest.approx(s.p_r, rel=1e-12, abs=1e-12)
        assert back.p_theta == pytest.approx(np.asarray(s.p_theta), rel=1e-12, abs=1e-12)


def test_round_trip_cartesian_to_spherical_and_back():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        q = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
        p = rng.uniform(-2, 2, n)
        c = to_cartesian(from_cartesian(PhaseState(q, p)))
        assert c.q == pytest.approx(q, rel=1e-12, abs=1e-12)
        assert c.p == pytest.approx(p, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# generators and integrals in spherical variables
# ---------------------------------------------------------------------------

def test_spherical_generators_monopole_free():
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = random_spherical(rng, 3)
        t, c_n = spherical_generators(s)
        lsq = angular_momentum_sq_spherical(s)
        assert t.jplus == pytest.approx(s.p_r ** 2 + lsq / s.r ** 2, rel=1e-12)
        assert c_n == pytest.approx(lsq, rel=1e-12)


def test_spherical_generators_arithmetic_example():
    # J+ = 0 + p_theta^2 + 1/cos^2 + 1/sin^2 at theta = pi/4, r = 1
    s = SphericalPhaseState(1.0, [math.pi / 4], 0.0, [1.0])
    t, c2 = spherical_generators(s, b=[1.0, 1.0])
    assert t.jplus == pytest.approx(5.0, rel=1e-14)
    assert (t.jminus, t.j3) == (1.0, 0.0)
    assert c2 == pytest.approx(5.0, rel=1e-14)


def test_spherical_generators_match_cartesian_realization():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        s = random_spherical(rng, n)
        b = rng.uniform(0.1, 2.0, n)
        t, c_n = spherical_generators(s, b)
        ref = sl2_realize(to_cartesian(s), b)
        assert t.jminus == pytest.approx(ref.jminus, rel=1e-12)
        assert t.j3 == pytest.approx(ref.j3, rel=1e-12, abs=1e-12)
        assert t.jplus == pytest.approx(ref.jplus, rel=1e-12)
        assert c_n == pytest.approx(casimir_right(n, to_cartesian(s), b), rel=1e-12)


def test_spherical_generators_fold_in_monopole():
    s = SphericalPhaseState(2.0, [0.7], 0.3, [1.2])
    bare, _ = spherical_generators(s, [0.5, 0.5])
    folded, _ = spherical_generators(s, [0.5, 0.5], mu2=3.0)
    assert folded.jplus == pytest.approx(bare.jplus + 3.0 / 4.0, rel=1e-14)


def test_spherical_casimir_small_cases():
    s = SphericalPhaseState(1.3, [0.3], 0.0, [2.5])
    assert spherical_casimir(2, s) == pytest.approx(6.25)  # C_(2) = p_theta^2

    s = SphericalPhaseState(1.0, [math.pi / 2, 0.4], 0.0, [2.0, 3.0])
    assert spherical_casimir(3, s) == pytest.approx(13.0, rel=1e-14)

    with pytest.raises(ValueError):
        spherical_casimir(1, s)
    with pytest.raises(ValueError):
        spherical_casimir(4, s)


def test_spherical_casimir_matches_cartesian():
    rng = np.random.default_rng(29)
    for _ in range(15):
        s = random_spherical(rng, 4)
        b = rng.uniform(0.1, 2.0, 4)
        c = to_cartesian(s)
        for m in (2, 3, 4):
            lhs = spherical_casimir(m, s, b)
            rhs = casimir_right(m, c, b)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_spherical_casimir_singularity():
    s = SphericalPhaseState(1.0, [math.pi / 2], 0.0, [1.0])
    spherical_casimir(2, s, [0.0, 1.0])  # b_1 = 0 on the singular axis: fine
    with pytest.raises(SingularStateError):
        spherical_casimir(2, s, [1.0, 0.0])


def test_angular_chain_arithmetic():
    s = SphericalPhaseState(1.0, [math.pi / 2, 0.4], 0.0, [2.0, 3.0])
    assert angular_chain(s) == pytest.approx([9.0, 13.0], rel=1e-14)

    s = SphericalPhaseState(1.0, [math.pi / 4], 0.0, [0.0])
    assert angular_chain(s, [1.0, 1.0]) == pytest.approx([4.0], rel=1e-14)


def test_angular_chain_matches_direct_formula():
    rng = np.random.default_rng(53)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        s = random_spherical(rng, n)
        b = rng.uniform(0.1, 2.0, n)
        chain = angular_chain(s, b)
        for m in range(2, n + 1):
            assert chain[m - 2] == pytest.approx(spherical_casimir(m, s, b), rel=1e-12)


def test_l2_agreement_between_representations():
    rng = np.random.default_rng(59)
    for _ in range(10):
        s = random_spherical(rng, 4)
        assert angular_momentum_sq_spherical(s) == pytest.approx(
            angular_momentum_sq(to_cartesian(s)), rel=1e-12)


# ---------------------------------------------------------------------------
# radial reduction
# ---------------------------------------------------------------------------

def test_radial_hamiltonian_simple_values():
    euclid = catalog_lookup("euclidean")
    # circular Kepler orbit: 1/2 - 1
    assert radial_hamiltonian(1.0, 0.0, 1.0, 0.0, euclid, lambda r: -1.0 / r) == -0.5
    # pure monopole energy at unit radius
    assert radial_hamiltonian(1.0, 0.0, 0.0, 2.0, euclid) == 1.0
    with pytest.raises(DomainViolation):
        radial_hamiltonian(0.5, 0.0, 1.0, 0.0, catalog_lookup("darboux1"), None)


def test_radial_hamiltonian_matches_full_hamiltonian():
    metric = catalog_lookup("darboux3b", {"k": 1.0})
    u = lambda r: math.sqrt(1 + r * r) / r
    mu2 = 0.7
    b = np.array([0.4, 1.1, 0.9])
    rng = np.random.default_rng(61)
    for _ in range(10):
        s = random_spherical(rng, 3)
        c = to_cartesian(s)
        q2 = float(np.dot(c.q, c.q))
        f = metric.f(math.sqrt(q2))
        full = (float(np.dot(c.p, c.p)) + mu2 / q2 + float(np.sum(b / c.q ** 2))) \
            / (2 * f * f) + u(math.sqrt(q2))
        c_n = spherical_casimir(3, s, b)
        reduced = radial_hamiltonian(s.r, s.p_r, c_n, mu2, metric, u)
        assert reduced == pytest.approx(full, rel=1e-12)


def test_monopole_enters_only_through_top_integral():
    euclid = catalog_lookup("euclidean")
    u = lambda r: -1.0 / r
    # shifting mu^2 into C_N leaves the reduced energy unchanged
    a = radial_hamiltonian(1.7, 0.3, 2.0, 1.5, euclid, u)
    b = radial_hamiltonian(1.7, 0.3, 3.5, 0.0, euclid, u)
    assert a == pytest.approx(b, rel=1e-15)
    # and the same statement through full states: match L^2 + mu^2
    x = 1.5
    s1 = SphericalPhaseState(1.7, [0.8], 0.3, [1.2])
    s2 = SphericalPhaseState(1.7, [0.8], 0.3, [math.sqrt(1.2 ** 2 + x)])
    def full(sph, mu2):
        c = to_cartesian(sph)
        q2 = float(np.dot(c.q, c.q))
        return 0.5 * (float(np.dot(c.p, c.p)) + mu2 / q2) + u(math.sqrt(q2))
    assert full(s1, x) == pytest.approx(full(s2, 0.0), rel=1e-13)


# ---------------------------------------------------------------------------
# structural properties of the chart
# ---------------------------------------------------------------------------

def test_kinetic_energy_is_chart_invariant():
    metric = catalog_lookup("darboux3b", {"k": 2.0})
    rng = np.random.default_rng(67)
    for _ in range(10):
        s = random_spherical(rng, 4)
        c = to_cartesian(s)
        f = metric.f(s.r)
        cart = float(np.dot(c.p, c.p)) / (2 * f * f)
        sph = (s.p_r ** 2 + angular_momentum_sq_spherical(s) / s.r ** 2) / (2 * f * f)
        assert cart == pytest.approx(sph, rel=1e-12)


def test_legendre_momenta_round_trip():
    # velocities -> (op) momenta -> (oq) map reproduces p = f^2 qdot
    metric = catalog_lookup("spherical")
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        s0 = random_spherical(rng, n, r_range=(0.3, 0.9))
        qdot = rng.uniform(-1, 1, n)
        c0 = to_cartesian(s0)
        r = s0.r
        f2 = metric.f(r) ** 2
        sins, coss = np.sin(s0.theta), np.cos(s0.theta)
        rdot = float(np.dot(c0.q, qdot)) / r
        p_theta = np.empty(n - 1)
        s_prod = 1.0
        for j in range(n - 1):
            e = _e_theta(r, sins, coss, j)
            theta_dot = float(np.dot(e, qdot)) / (r ** 2 * s_prod)
            p_theta[j] = f2 * r ** 2 * theta_dot * s_prod
            s_prod *= sins[j] ** 2
        s1 = SphericalPhaseState(r, s0.theta, f2 * rdot, p_theta)
        assert to_cartesian(s1).p == pytest.approx(f2 * qdot, rel=1e-12, abs=1e-12)


def test_top_integral_supplants_angular_momentum():
    # with centrifugal terms switched on, L^2 is no longer conserved but
    # C_(N) still is
    metric = catalog_lookup("darboux3b", {"k": 1.0})
    b = np.array([1.0, 2.0, 3.0])
    mu2 = 0.7

    def h(q, p):
        q2 = sum(x * x for x in q)
        f = np.array([metric.f(r) for r in np.sqrt(q2)])
        kin = (sum(y * y for y in p) + mu2 / q2
               + sum(bi / x ** 2 for bi, x in zip(b, q)))
        return kin / (2 * f * f) + np.sqrt(1 + q2) / np.sqrt(q2)

    # a column function's value at the one state s
    at = lambda fn, s: fn(list(s.q[:, None]), list(s.p[:, None]))[0]
    c_n = lambda q, p: _towers(q, p, b).right[-1]
    lsq = lambda q, p: _towers(q, p, [0.0] * 3).left[-1]

    rng = np.random.default_rng(73)
    worst_lsq = 0.0
    for _ in range(5):
        q = rng.uniform(0.5, 1.5, 3) * rng.choice([-1.0, 1.0], 3)
        s = PhaseState(q, rng.uniform(-1, 1, 3))
        val = poisson_bracket(h, c_n, s)
        assert abs(val) <= 1e-5 * (1 + abs(at(h, s)) + abs(at(c_n, s)))
        worst_lsq = max(worst_lsq, abs(poisson_bracket(h, lsq, s)))
    assert worst_lsq > 1e-3  # generically broken
