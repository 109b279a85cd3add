import math
from functools import partial

import numpy as np
import pytest

from qmsflow.algebra import (
    PhaseState,
    Sl2Triple,
    SingularStateError,
    angular_momentum_sq,
    casimir_left,
    casimir_right,
    fd_gradient,
    independence_rank,
    integral_set,
    poisson_bracket,
    sl2_columns,
    sl2_realize,
    so_n_generator,
    _towers,
)
from qmsflow.cli import _conserved
from qmsflow.dynamics import hamiltonian
from qmsflow.geometry import DomainViolation, catalog_lookup
from qmsflow.potentials import SystemSpec, kc_potential, oscillator_potential


def random_state(rng, n, p_scale=1.0):
    # coordinates bounded away from the axes so centrifugal terms stay finite
    q = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
    p = rng.uniform(-p_scale, p_scale, n)
    return PhaseState(q, p)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_phase_state_validation():
    with pytest.raises(ValueError):
        PhaseState(np.zeros(3), np.ones(3))          # |q| = 0
    with pytest.raises(ValueError):
        PhaseState(np.ones(3), np.ones(2))           # shape mismatch
    s = PhaseState([1.0, 2.0], [0.0, 0.0])
    assert s.n == 2 and s.radius == pytest.approx(math.sqrt(5))
    with pytest.raises(ValueError):
        s.q[0] = 7.0                                 # states are read-only


def test_sl2_triple_requires_positive_jminus():
    with pytest.raises(ValueError):
        Sl2Triple(0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# generator and integral evaluation
# ---------------------------------------------------------------------------

def test_sl2_realize_examples():
    t = sl2_realize(PhaseState([1, 1], [1, 0]), [0, 0])
    assert (t.jminus, t.j3, t.jplus) == (2.0, 1.0, 1.0)

    t = sl2_realize(PhaseState([1, 2], [3, 4]), [0, 0])
    assert (t.jminus, t.j3, t.jplus) == (5.0, 11.0, 25.0)

    # pure centrifugal contribution to J+
    t = sl2_realize(PhaseState([1, 1], [0, 0]), [2, 3])
    assert (t.jminus, t.j3, t.jplus) == (2.0, 0.0, 5.0)


def test_sl2_realize_singular_axis():
    s = PhaseState([0.0, 1.0], [1.0, 1.0])
    sl2_realize(s, [0.0, 4.0])  # b_1 = 0 on the vanishing axis: fine
    with pytest.raises(SingularStateError):
        sl2_realize(s, [1.0, 0.0])


def test_casimir_left_examples():
    s = PhaseState([1, 2], [3, 4])
    assert casimir_left(2, s, [0, 0]) == 4.0  # (1*4 - 2*3)^2

    s = PhaseState([1, 1], [0, 0])
    assert casimir_left(2, s, [1, 1]) == 4.0  # centrifugal cross terms + b-sum


def test_casimir_right_example():
    s = PhaseState([5, 1, 2], [0, 3, 1])
    assert casimir_right(2, s, [0, 0, 0]) == 25.0  # (1*1 - 2*3)^2


def test_casimir_index_bounds():
    s = PhaseState([1, 1, 1], [0, 0, 0])
    for m in (1, 4):
        with pytest.raises(ValueError):
            casimir_left(m, s)
        with pytest.raises(ValueError):
            casimir_right(m, s)


def test_top_casimirs_coincide_exactly():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        s = random_state(rng, n)
        b = rng.uniform(0.0, 2.0, n)
        assert casimir_left(n, s, b) == casimir_right(n, s, b)
        iset = integral_set(s, b)
        assert len(iset.left) == len(iset.right) == n - 1


def _casimir_by_definition(s, b, indices):
    """The pair sum over an index set I, term by term:
    sum_{i<j in I} [J_ij^2 + b_i q_j^2/q_i^2 + b_j q_i^2/q_j^2] + sum_{i in I} b_i."""
    q, p = s.q.tolist(), s.p.tolist()
    terms = [b[i] for i in indices]
    for a, i in enumerate(indices):
        for j in indices[a + 1:]:
            terms += [(q[i] * p[j] - q[j] * p[i]) ** 2,
                      b[i] * q[j] ** 2 / q[i] ** 2, b[j] * q[i] ** 2 / q[j] ** 2]
    return math.fsum(terms)


def test_towers_match_the_pair_sum_definition():
    rng = np.random.default_rng(31)
    for n in range(2, 9):
        for _ in range(10):
            s = random_state(rng, n, p_scale=2.0)
            # zero, negative and positive couplings, in random positions
            b = rng.choice([0.0, -1.0, 1.0], n) * rng.uniform(0.1, 3.0, n)
            b = b.tolist()
            iset = integral_set(s, b)
            for m in range(2, n + 1):
                left = _casimir_by_definition(s, b, list(range(m)))
                right = _casimir_by_definition(s, b, list(range(n - m, n)))
                assert iset.left[m - 2] == pytest.approx(left, rel=1e-13)
                assert iset.right[m - 2] == pytest.approx(right, rel=1e-13)
                assert casimir_left(m, s, b) == iset.left[m - 2]
                assert casimir_right(m, s, b) == iset.right[m - 2]


def test_integral_set_as_dict_names():
    s = PhaseState([1, 2, 3], [3, 2, 1])
    d = integral_set(s).as_dict()
    assert sorted(d) == ["Cl2", "Cl3", "Cr2", "Cr3"]
    assert d["Cl3"] == d["Cr3"]


def test_so_n_generator_examples():
    assert so_n_generator(0, 1, PhaseState([1, 0], [0, 1])) == 1.0
    # J_13 at q=(1,2,3), p=(3,2,1): 1*1 - 3*3
    assert so_n_generator(0, 2, PhaseState([1, 2, 3], [3, 2, 1])) == -8.0
    with pytest.raises(ValueError):
        so_n_generator(1, 1, PhaseState([1, 2], [0, 0]))
    with pytest.raises(ValueError):
        so_n_generator(0, 2, PhaseState([1, 2], [0, 0]))


def test_casimir_is_sum_of_angular_momenta_when_b_vanishes():
    # with b = 0 the integrals reduce to sums of squared J_ij over the block
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = random_state(rng, 4)
        for m in (2, 3, 4):
            total = sum(
                so_n_generator(i, j, s) ** 2
                for i in range(m) for j in range(i + 1, m)
            )
            assert casimir_left(m, s) == pytest.approx(total, rel=1e-12)
        assert angular_momentum_sq(s) == pytest.approx(casimir_left(4, s), rel=1e-12)


def test_cauchy_schwarz_for_monopole_free_triple():
    # J+ J- - J3^2 = sum_{i<j} J_ij^2 >= 0 when all b_i = 0
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        s = random_state(rng, n)
        t = sl2_realize(s)
        lsq = angular_momentum_sq(s)
        assert t.jplus * t.jminus - t.j3 ** 2 == pytest.approx(lsq, rel=1e-12, abs=1e-12)
        assert t.jplus * t.jminus - t.j3 ** 2 >= -1e-12


# ---------------------------------------------------------------------------
# numerical brackets
# ---------------------------------------------------------------------------

def test_bracket_j3_jplus_known_value():
    b = [1.0, 2.0]
    s = PhaseState([1, 1], [1, 0])
    f = lambda q, p: sl2_columns(q, p, b)[1]
    g = lambda q, p: sl2_columns(q, p, b)[2]
    # {J3, J+} = 2 J+ = 2 (1 + 1 + 2)
    assert poisson_bracket(f, g, s) == pytest.approx(8.0, abs=1e-6)


def test_bracket_jminus_jplus_known_value():
    s = PhaseState([1, 2], [3, 4])
    f = lambda q, p: sl2_columns(q, p)[0]
    g = lambda q, p: sl2_columns(q, p)[2]
    # {J-, J+} = 4 J3 = 4 * 11
    assert poisson_bracket(f, g, s) == pytest.approx(44.0, abs=1e-5)


def test_bracket_self_vanishes():
    rng = np.random.default_rng(7)
    b = [0.5, 1.5, 2.5]
    for _ in range(5):
        s = random_state(rng, 3)
        h = lambda q, p: (sl2_columns(q, p, b)[2]
                          + np.sin(np.sqrt(sl2_columns(q, p, b)[0])))
        assert abs(poisson_bracket(h, h, s)) <= 1e-9


def test_sl2_closure_at_random_states():
    # {J3,J+} = 2J+, {J3,J-} = -2J-, {J-,J+} = 4J3
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        s = random_state(rng, n)
        b = rng.uniform(0.0, 3.0, n)
        jm = lambda q, p: sl2_columns(q, p, b)[0]
        j3 = lambda q, p: sl2_columns(q, p, b)[1]
        jp = lambda q, p: sl2_columns(q, p, b)[2]
        t = sl2_realize(s, b)
        assert abs(poisson_bracket(j3, jp, s) - 2 * t.jplus) <= 1e-5 * (1 + abs(t.jplus))
        assert abs(poisson_bracket(j3, jm, s) + 2 * t.jminus) <= 1e-5 * (1 + abs(t.jminus))
        assert abs(poisson_bracket(jm, jp, s) - 4 * t.j3) <= 1e-5 * (1 + abs(t.j3))


def test_so4_bracket_relations():
    # {J_ij, J_ik} = J_jk, {J_ij, J_jk} = -J_ik, {J_ik, J_jk} = J_ij  (i<j<k)
    rng = np.random.default_rng(31)
    J = lambda i, j: (lambda q, p: q[i] * p[j] - q[j] * p[i])
    for _ in range(5):
        s = random_state(rng, 4)
        for i in range(4):
            for j in range(i + 1, 4):
                for k in range(j + 1, 4):
                    assert poisson_bracket(J(i, j), J(i, k), s) == pytest.approx(
                        so_n_generator(j, k, s), abs=1e-6)
                    assert poisson_bracket(J(i, j), J(j, k), s) == pytest.approx(
                        -so_n_generator(i, k, s), abs=1e-6)
                    assert poisson_bracket(J(i, k), J(j, k), s) == pytest.approx(
                        so_n_generator(i, j, s), abs=1e-6)


def test_left_and_right_families_internally_in_involution():
    rng = np.random.default_rng(47)
    n = 4
    for _ in range(5):
        s = random_state(rng, n)
        b = rng.uniform(0.2, 2.0, n)
        towers = integral_set(s, b)
        for side in ("left", "right"):
            values = getattr(towers, side)
            fam = [lambda q, p, k=k, side=side: getattr(_towers(q, p, b), side)[k]
                   for k in range(n - 1)]
            for a in range(len(fam)):
                for c in range(a + 1, len(fam)):
                    val = poisson_bracket(fam[a], fam[c], s)
                    scale = 1 + abs(values[a]) + abs(values[c])
                    assert abs(val) <= 1e-5 * scale


@pytest.mark.parametrize("n", [3, 4, 5])
def test_left_and_right_towers_commute_only_on_disjoint_axes(n):
    # C^(m) lives on axes 1..m and C_(k) on axes N-k+1..N: the two commute
    # when the sets are disjoint (m + k <= N) and generically not otherwise,
    # while the shared top member C^(N) = C_(N) commutes with both towers
    rng = np.random.default_rng(60 + n)
    for _ in range(20):
        s = random_state(rng, n, p_scale=2.0)
        b = rng.uniform(0.2, 2.0, n)
        towers = integral_set(s, b)
        matrix = poisson_bracket(lambda q, p: _towers(q, p, b).left,
                                 lambda q, p: _towers(q, p, b).right, s)
        for m in range(2, n + 1):
            for k in range(2, n + 1):
                left, right = towers.left[m - 2], towers.right[k - 2]
                rel = abs(matrix[m - 2, k - 2]) / (1 + abs(left) + abs(right))
                if m == n or k == n or m + k <= n:
                    assert rel <= 1e-5, (m, k, rel)
                else:
                    assert rel > 1e-4, (m, k, rel)


def test_fd_gradient_against_hand_gradient():
    # F = q1^2 p2 + p1^3 has dF/dq = (2 q1 p2, 0), dF/dp = (3 p1^2, q1^2)
    s = PhaseState([1.5, -0.5], [2.0, 0.75])
    f = lambda q, p: q[0] ** 2 * p[1] + p[0] ** 3
    gq, gp = fd_gradient(f, s)
    assert gq == pytest.approx([2 * 1.5 * 0.75, 0.0], abs=1e-8)
    assert gp == pytest.approx([3 * 4.0, 2.25], abs=1e-8)


def _tower_members(b):
    # every member of both towers, C^(2..N) then C_(2..N), as column functions
    n = len(b)
    return ([lambda q, p, k=k: _towers(q, p, b).left[k] for k in range(n - 1)]
            + [lambda q, p, k=k: _towers(q, p, b).right[k] for k in range(n - 1)])


def test_vector_fd_gradient_rows_are_the_scalar_gradients_bit_for_bit():
    rng = np.random.default_rng(58)
    for n in (2, 3, 4):
        b = rng.uniform(0.2, 2.0, n)
        members = _tower_members(b)
        vector = lambda q, p: [fn(q, p) for fn in members]
        s = random_state(rng, n, p_scale=2.0)
        gq, gp = fd_gradient(vector, s)
        assert gq.shape == gp.shape == (len(members), n)
        assert gq.flags.c_contiguous and gp.flags.c_contiguous
        for a, fn in enumerate(members):
            sq, sp = fd_gradient(fn, s)
            assert sq.shape == sp.shape == (n,)
            assert [x.hex() for x in gq[a]] == [x.hex() for x in sq]
            assert [x.hex() for x in gp[a]] == [x.hex() for x in sp]


def test_vector_poisson_bracket_is_the_matrix_of_scalar_brackets():
    rng = np.random.default_rng(59)
    n = 4
    b = rng.uniform(0.2, 2.0, n)
    members = _tower_members(b) + [
        lambda q, p, i=i, j=j: q[i] * p[j] - q[j] * p[i]
        for i in range(n) for j in range(i + 1, n)]
    vector = lambda q, p: [fn(q, p) for fn in members]
    for _ in range(3):
        s = random_state(rng, n, p_scale=2.0)
        matrix = poisson_bracket(vector, vector, s)
        assert matrix.shape == (len(members), len(members))
        for a, f in enumerate(members):
            for c, g in enumerate(members):
                assert matrix[a, c] == poisson_bracket(f, g, s)


def _fd_gradient_per_state(fn, s):
    # the stencil one state at a time: fn takes a PhaseState and returns a
    # float or a sequence of floats, and each stencil point is its own call
    x = np.concatenate([s.q, s.p])
    n = s.n
    feval = lambda vec: np.asarray(fn(PhaseState(vec[:n], vec[n:])), dtype=float)
    rows = []
    for i in range(2 * n):
        h = 1e-6 * max(1.0, abs(x[i]))
        d = np.zeros_like(x)
        d[i] = h
        coarse = (feval(x + d) - feval(x - d)) / (2 * h)
        d[i] = 0.5 * h
        fine = (feval(x + d) - feval(x - d)) / h
        rows.append((4.0 * fine - coarse) / 3.0)
    grad = np.array(rows).T
    return grad[..., :n], grad[..., n:]


def _systems(rng, n):
    for mid in ("euclidean", "darboux3b", "taub-nut"):
        metric = catalog_lookup(mid)
        for pot in (None, kc_potential(metric, 0.7), oscillator_potential(metric, 0.4)):
            yield SystemSpec(metric, pot, rng.uniform(0.0, 1.0), b=rng.uniform(-2.0, 2.0, n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batched_stencil_matches_the_per_state_loop_bit_for_bit(n):
    # reference: H and both towers through the scalar hamiltonian and
    # integral_set, one PhaseState per stencil point
    rng = np.random.default_rng(70 + n)
    hex_of = lambda a: [x.hex() for x in np.ravel(a)]
    for sys_spec in _systems(rng, n):
        s = random_state(rng, n, p_scale=2.0)
        towers = lambda st: integral_set(st, sys_spec.b)
        per_state = {
            "scalar": lambda st: hamiltonian(sys_spec, st),
            "vector": lambda st: (hamiltonian(sys_spec, st), *towers(st).left,
                                  *towers(st).right[:-1])}
        batched = {"scalar": lambda q, p: _conserved(sys_spec, q, p)[0],
                   "vector": partial(_conserved, sys_spec)}
        for kind, shape in (("scalar", (n,)), ("vector", (2 * n - 2, n))):
            gq, gp = fd_gradient(batched[kind], s)
            rq, rp = _fd_gradient_per_state(per_state[kind], s)
            assert gq.shape == gp.shape == shape
            assert gq.flags.c_contiguous and gp.flags.c_contiguous
            assert hex_of(gq) == hex_of(rq) and hex_of(gp) == hex_of(rp), (sys_spec, kind)


def test_bracket_stencil_failures_propagate():
    metric = catalog_lookup("euclidean")
    pot = kc_potential(metric, 1.0)
    # q_2 = h/2: the -h/2 stencil state of q_2 lies on that axis
    s = PhaseState([0.8, 0.6, 5e-7], [0.1, 0.2, 0.3])
    free = partial(_conserved, SystemSpec(metric, pot, 0.3, b=[1.0, 0.0, 0.0]))
    assert np.all(np.isfinite(poisson_bracket(free, free, s)))
    walled = partial(_conserved, SystemSpec(metric, pot, 0.3, b=[1.0, 0.0, 2.0]))
    with pytest.raises(SingularStateError, match="q_2 = 0 with b_2 = 2.0"):
        poisson_bracket(walled, walled, s)

    # the +h stencil state of q_0 leaves the unit ball of the hyperbolic space
    hyperbolic = partial(_conserved, SystemSpec(catalog_lookup("hyperbolic"), None, n=3))
    inside = PhaseState([1.0 - 1e-7, 0.0, 0.0], [0.1, 0.2, 0.3])
    with pytest.raises(DomainViolation):
        poisson_bracket(hyperbolic, hyperbolic, inside)

    with pytest.raises(ValueError, match="dimension 2, system expects 3"):
        poisson_bracket(free, free, PhaseState([0.8, 0.6], [0.1, 0.2]))


# ---------------------------------------------------------------------------
# functional independence
# ---------------------------------------------------------------------------

def _hamiltonian(b, mu2):
    # flat-space Kepler-type flow; enough structure for generic-rank checks
    def h(q, p):
        q2 = sum(x * x for x in q)
        kin = sum(y * y for y in p) + mu2 / q2
        for bi, qi in zip(b, q):
            if bi:
                kin = kin + bi / qi ** 2
        return 0.5 * kin - 1.0 / np.sqrt(q2)
    return h


def test_independence_rank_n3():
    rng = np.random.default_rng(99)
    b = [1.0, 2.0, 3.0]
    h = _hamiltonian(b, mu2=1.0)
    fns = lambda q, p: (h(q, p), *_towers(q, p, b).left, _towers(q, p, b).right[0])
    for _ in range(20):
        s = random_state(rng, 3)
        assert independence_rank(fns, s) == 4


def test_independence_rank_duplicate_function():
    rng = np.random.default_rng(13)
    b = [1.0, 2.0, 3.0]
    h = _hamiltonian(b, mu2=1.0)
    c2 = lambda q, p: _towers(q, p, b).left[0]
    s = random_state(rng, 3)
    assert independence_rank(lambda q, p: (h(q, p), c2(q, p)), s) == 2
    assert independence_rank(lambda q, p: (h(q, p), c2(q, p), c2(q, p)), s) == 2


def test_independence_rank_n2():
    rng = np.random.default_rng(321)
    b = [0.5, 1.5]
    h = _hamiltonian(b, mu2=0.25)
    fns = lambda q, p: (h(q, p), _towers(q, p, b).left[0])
    for _ in range(10):
        s = random_state(rng, 2)
        assert independence_rank(fns, s) == 2
