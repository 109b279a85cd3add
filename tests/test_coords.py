import math

import numpy as np
import pytest

from qmsflow.algebra import (
    PhaseState,
    SingularStateError,
    fd_gradient,
    integral_set,
    poisson_bracket,
    sl2_columns,
    _towers,
)
from qmsflow.coords import (
    ChartError,
    SphericalPhaseState,
    angular_chain,
    angular_chain_columns,
    from_cartesian,
    from_cartesian_columns,
    spherical_casimir,
    spherical_casimir_columns,
    to_cartesian,
    to_cartesian_columns,
    radial_hamiltonian,
    _e_theta,
)
from qmsflow.geometry import DomainViolation, catalog_lookup
from qmsflow.potentials import kc_potential


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
    # the column chart checks every row: theta_1 = pi at the second one
    rows = lambda *x: np.array(x)
    with pytest.raises(ChartError, match="sin\\(theta_1\\) = 0"):
        to_cartesian_columns([rows(1.0, 1.0), rows(0.5, math.pi), rows(0.5, 0.5)],
                             [rows(0.0, 0.0), rows(0.1, 0.1), rows(0.2, 0.2)])


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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_column_chart_matches_to_cartesian_row_by_row(n):
    # the stencil rows of packed chart states, q = (r, theta) and p = (p_r,
    # p_theta), as the coords canonicity check builds them: angles outside
    # [0, 2pi), a p_theta_j of zero at every other centre, and radii where
    # libm's r ** 2 and numpy's r * r differ in the last bit
    rng = np.random.default_rng(50 + n)
    radii = [r for r in rng.uniform(0.6, 2.0, 20000).tolist() if r ** 2 != r * r][:6]
    states = []
    for k, r in enumerate(radii):
        theta = rng.uniform(0.4, 1.15, n - 1) + 2.0 * math.pi * rng.integers(-1, 2, n - 1)
        p_theta = rng.uniform(-2.0, 2.0, n - 1)
        if k % 2:
            p_theta[k // 2 % (n - 1)] = 0.0
        states.append(PhaseState(np.concatenate([[r], theta]),
                                 np.concatenate([[rng.uniform(-2.0, 2.0)], p_theta])))
    seen = []
    fd_gradient(lambda q, p: seen.append((q, p)) or q[0], states)
    ((q, p),) = seen
    assert np.any(q[0] * q[0] != [x ** 2 for x in q[0].tolist()])
    columns = to_cartesian_columns(q, p)
    assert len(columns) == 2 * n
    for k, (a, b) in enumerate(zip(np.transpose(q), np.transpose(p))):
        c = to_cartesian(SphericalPhaseState(a[0], a[1:], b[0], b[1:]))
        assert [float(col[k]).hex() for col in columns] == \
            [x.hex() for x in np.concatenate([c.q, c.p])], k


# ---------------------------------------------------------------------------
# generators and integrals in spherical variables
# ---------------------------------------------------------------------------

def _generators(s, b=None):
    """(J-, J3, J+) of the Cartesian image of the spherical state s."""
    c = to_cartesian(s)
    return sl2_columns(c.q.tolist(), c.p.tolist(), b)


def test_spherical_generators_monopole_free():
    # with b = 0, J+ = p_r^2 + L^2/r^2 and C_(N) = L^2
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = random_spherical(rng, 3)
        lsq = spherical_casimir(3, s)
        assert _generators(s)[2] == pytest.approx(s.p_r ** 2 + lsq / s.r ** 2, rel=1e-12)
        assert integral_set(to_cartesian(s)).right[-1] == pytest.approx(lsq, rel=1e-12)


def test_spherical_generators_arithmetic_example():
    # J+ = 0 + p_theta^2 + 1/cos^2 + 1/sin^2 at theta = pi/4, r = 1
    s = SphericalPhaseState(1.0, [math.pi / 4], 0.0, [1.0])
    jminus, j3, jplus = _generators(s, [1.0, 1.0])
    assert jplus == pytest.approx(5.0, rel=1e-14)
    assert jminus == pytest.approx(1.0, rel=1e-15) and j3 == pytest.approx(0.0, abs=1e-15)
    assert spherical_casimir(2, s, [1.0, 1.0]) == pytest.approx(5.0, rel=1e-14)


def test_spherical_generators_match_cartesian_realization():
    # J- = r^2, J3 = r p_r and J+ = p_r^2 + C_(N)/r^2 in spherical variables
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        s = random_spherical(rng, n)
        b = rng.uniform(0.1, 2.0, n)
        jminus, j3, jplus = _generators(s, b)
        c_n = spherical_casimir(n, s, b)
        assert jminus == pytest.approx(s.r ** 2, rel=1e-12)
        assert j3 == pytest.approx(s.r * s.p_r, rel=1e-12, abs=1e-12)
        assert jplus == pytest.approx(s.p_r ** 2 + c_n / s.r ** 2, rel=1e-12)
        assert c_n == pytest.approx(integral_set(to_cartesian(s), b).right[-1], rel=1e-12)


def test_spherical_casimir_small_cases():
    s = SphericalPhaseState(1.3, [0.3], 0.0, [2.5])
    assert spherical_casimir(2, s) == pytest.approx(6.25)  # C_(2) = p_theta^2

    s = SphericalPhaseState(1.0, [math.pi / 2, 0.4], 0.0, [2.0, 3.0])
    assert spherical_casimir(3, s) == pytest.approx(13.0, rel=1e-14)

    with pytest.raises(ValueError):
        spherical_casimir(1, s)
    with pytest.raises(ValueError):
        spherical_casimir(4, s)


def _signed_zeros(rng, x):
    """x with about one entry in five replaced by 0.0 or -0.0."""
    x = x.copy()
    hit = rng.random(x.shape) < 0.2
    x[hit] = rng.choice([0.0, -0.0], int(hit.sum()))
    return x


def _hex(values) -> list:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_column_bodies_match_their_float_functions_bit_for_bit(n):
    # 400 states per dimension, one per row of the columns: each row of a
    # column body is its state's float function, to the last bit and sign
    rng = np.random.default_rng(80 + n)
    count = 400
    # Cartesian states with a zero last coordinate of either sign now and
    # then, and one last angle a hair below 0, which wraps to 2pi and then 0
    q = rng.uniform(0.1, 2.0, (count, n)) * rng.choice([-1.0, 1.0], (count, n))
    q[:, -1] = _signed_zeros(rng, q[:, -1])
    q[0, -2:] = 1.0, -1e-300
    p = _signed_zeros(rng, rng.uniform(-2.0, 2.0, (count, n)))
    columns = from_cartesian_columns(list(q.T), list(p.T))
    assert columns[n - 1][0] == 0.0
    for k in range(count):
        s = from_cartesian(PhaseState(q[k], p[k]))
        assert _hex(x[k] for x in columns) == _hex([s.r, *s.theta, s.p_r, *s.p_theta]), k

    # chart states; b has an axis that is zero throughout, whose terms are
    # skipped, and zero entries of either sign elsewhere, which add zeros
    theta = rng.uniform(0.05, 2.0 * math.pi - 0.05, (count, n - 1))
    p_theta = _signed_zeros(rng, rng.uniform(-2.0, 2.0, (count, n - 1)))
    b = _signed_zeros(rng, rng.uniform(0.1, 2.0, (count, n)))
    b[:, 0] = 0.0
    casimirs = spherical_casimir_columns(n, theta.T, p_theta.T, b.T)
    chain = angular_chain_columns(theta.T, p_theta.T, b.T)
    metric = catalog_lookup("darboux3b")
    potential = kc_potential(metric, 0.7)
    r, p_r = rng.uniform(0.6, 2.0, count), _signed_zeros(rng, rng.uniform(-2.0, 2.0, count))
    radial = radial_hamiltonian(r, p_r, casimirs[-1], 0.3, metric, potential)
    for k in range(count):
        s = SphericalPhaseState(r[k], theta[k], p_r[k], p_theta[k])
        assert _hex(c[k] for c in casimirs) == \
            _hex(spherical_casimir(m, s, b[k]) for m in range(2, n + 1)), k
        assert _hex(c[k] for c in chain) == _hex(angular_chain(s, b[k])), k
        assert radial[k].hex() == radial_hamiltonian(
            s.r, s.p_r, spherical_casimir(n, s, b[k]), 0.3, metric, potential).hex(), k


def test_column_bodies_name_the_singular_row():
    rows = lambda *x: np.array(x)
    with pytest.raises(ChartError, match=r"^q_2..q_3 all vanish: angles beyond theta_1 undefined at row 1$"):
        from_cartesian_columns([rows(1.0, 1.0, 1.0), rows(0.5, 0.0, 0.5), rows(0.5, -0.0, 0.5)],
                               [rows(0.1, 0.2, 0.3)] * 3)
    with pytest.raises(ChartError, match=r"^q_2..q_3 all vanish: angles beyond theta_1 undefined$"):
        from_cartesian(PhaseState([1.0, 0.0, 0.0], [0.1, 0.2, 0.3]))
    with pytest.raises(ChartError, match=r"^sin\(theta_1\) = 0: chart is singular here at row 2$"):
        to_cartesian_columns([rows(1.0, 1.0, 1.0), rows(0.5, 0.5, math.pi), rows(0.5, 0.5, 0.5)],
                             [rows(0.0, 0.0, 0.0), rows(0.1, 0.1, 0.1), rows(0.2, 0.2, 0.2)])
    # cos(theta_1) = 0 with b_1 != 0 at the third state
    theta, p_theta = [rows(0.3, 0.4, math.pi / 2)], [rows(1.0, 1.0, 1.0)]
    with pytest.raises(SingularStateError, match=r"^cos\(theta_1\) = 0 with b_1 != 0 at row 2$"):
        spherical_casimir_columns(2, theta, p_theta, [rows(1.0, 1.0, 1.0), rows(0.0, 0.0, 0.0)])
    with pytest.raises(SingularStateError, match=r"^cos\(theta_1\) = 0 with b_1 != 0 at row 2$"):
        angular_chain_columns(theta, p_theta, [rows(1.0, 1.0, 1.0), rows(0.0, 0.0, 0.0)])
    # sin(theta_2) = 0 with b_3 != 0 at the second state
    theta, p_theta = [rows(0.3, 0.3, 0.3), rows(0.4, 0.0, 0.4)], [rows(1.0, 1.0, 1.0)] * 2
    b = [rows(0.0, 0.0, 0.0)] * 2 + [rows(1.0, 1.0, 1.0)]
    with pytest.raises(SingularStateError, match=r"^vanishing sine product with b_3 != 0 at row 1$"):
        spherical_casimir_columns(3, theta, p_theta, b)
    with pytest.raises(SingularStateError, match=r"^sin\(theta_2\) = 0 in the angular chain at row 1$"):
        angular_chain_columns(theta, p_theta, b)


def test_spherical_casimir_matches_cartesian():
    rng = np.random.default_rng(29)
    for _ in range(15):
        s = random_spherical(rng, 4)
        b = rng.uniform(0.1, 2.0, 4)
        c = to_cartesian(s)
        for m in (2, 3, 4):
            lhs = spherical_casimir(m, s, b)
            rhs = integral_set(c, b).right[m - 2]
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
    # L^2 is C_(N) = C^(N) at b = 0, in either chart
    rng = np.random.default_rng(59)
    for _ in range(10):
        s = random_spherical(rng, 4)
        assert spherical_casimir(4, s) == pytest.approx(
            integral_set(to_cartesian(s)).left[-1], rel=1e-12)


# ---------------------------------------------------------------------------
# radial reduction
# ---------------------------------------------------------------------------

def test_radial_hamiltonian_simple_values():
    euclid = catalog_lookup("euclidean")
    # circular Kepler orbit: 1/2 - 1
    assert radial_hamiltonian(1.0, 0.0, 1.0, 0.0, euclid, kc_potential(euclid, 1.0)) == -0.5
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
        reduced = radial_hamiltonian(s.r, s.p_r, c_n, mu2, metric, kc_potential(metric, 1.0))
        assert reduced == pytest.approx(full, rel=1e-12)


def test_monopole_enters_only_through_top_integral():
    euclid = catalog_lookup("euclidean")
    kc = kc_potential(euclid, 1.0)
    u = lambda r: -1.0 / r
    # shifting mu^2 into C_N leaves the reduced energy unchanged
    a = radial_hamiltonian(1.7, 0.3, 2.0, 1.5, euclid, kc)
    b = radial_hamiltonian(1.7, 0.3, 3.5, 0.0, euclid, kc)
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
        sph = (s.p_r ** 2 + spherical_casimir(4, s) / s.r ** 2) / (2 * f * f)
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
