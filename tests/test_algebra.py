import math
from functools import partial
from itertools import combinations

import numpy as np
import pytest

from qmsflow.algebra import (
    PhaseState,
    SingularStateError,
    fd_gradient,
    independence_rank,
    integral_set,
    poisson_bracket,
    sl2_columns,
    so_n_columns,
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


# ---------------------------------------------------------------------------
# generator and integral evaluation
# ---------------------------------------------------------------------------

def test_sl2_realize_examples():
    # the realization (J-, J3, J+) = (q^2, q.p, p^2 + sum b_i/q_i^2)
    assert sl2_columns([1.0, 1.0], [1.0, 0.0], [0, 0]) == (2.0, 1.0, 1.0)
    assert sl2_columns([1.0, 2.0], [3.0, 4.0], [0, 0]) == (5.0, 11.0, 25.0)
    # pure centrifugal contribution to J+
    assert sl2_columns([1.0, 1.0], [0.0, 0.0], [2, 3]) == (2.0, 0.0, 5.0)


def test_sl2_realize_singular_axis():
    q, p = [0.0, 1.0], [1.0, 1.0]
    sl2_columns(q, p, [0.0, 4.0])  # b_1 = 0 on the vanishing axis: fine
    with pytest.raises(SingularStateError):
        sl2_columns(q, p, [1.0, 0.0])


def test_casimir_left_examples():
    s = PhaseState([1, 2], [3, 4])
    assert integral_set(s, [0, 0]).left[0] == 4.0  # C^(2) = (1*4 - 2*3)^2

    s = PhaseState([1, 1], [0, 0])
    assert integral_set(s, [1, 1]).left[0] == 4.0  # centrifugal cross terms + b-sum


def test_casimir_right_example():
    s = PhaseState([5, 1, 2], [0, 3, 1])
    assert integral_set(s, [0, 0, 0]).right[0] == 25.0  # C_(2) = (1*1 - 2*3)^2


def test_top_casimirs_coincide_exactly():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        iset = integral_set(random_state(rng, n), rng.uniform(0.0, 2.0, n))
        assert iset.left[-1] == iset.right[-1]
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


def test_integral_set_as_dict_names():
    s = PhaseState([1, 2, 3], [3, 2, 1])
    d = integral_set(s).as_dict()
    assert sorted(d) == ["Cl2", "Cl3", "Cr2", "Cr3"]
    assert d["Cl3"] == d["Cr3"]


def test_so_n_generator_examples():
    # J_ij in combinations order: J_12 at q=(1,0), p=(0,1)
    assert so_n_columns([1.0, 0.0], [0.0, 1.0]) == [1.0]
    # J_12, J_13, J_23 at q=(1,2,3), p=(3,2,1), J_13 = 1*1 - 3*3
    assert so_n_columns([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == [-4.0, -8.0, -4.0]
    q, p = [np.array([1.0, 0.0]), np.array([2.0, 1.0])], [np.array([3.0, 1.0]), np.array([4.0, 1.0])]
    assert [list(c) for c in so_n_columns(q, p)] == [[-2.0, -1.0]]


def test_casimir_is_sum_of_angular_momenta_when_b_vanishes():
    # with b = 0 the integrals reduce to sums of squared J_ij over the block
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = random_state(rng, 4)
        left = integral_set(s).left
        for m in (2, 3, 4):
            total = sum(j * j for j in so_n_columns(s.q[:m].tolist(), s.p[:m].tolist()))
            assert left[m - 2] == pytest.approx(total, rel=1e-12)


def test_cauchy_schwarz_for_monopole_free_triple():
    # J+ J- - J3^2 = sum_{i<j} J_ij^2 = L^2 >= 0 when all b_i = 0
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        s = random_state(rng, n)
        jminus, j3, jplus = sl2_columns(s.q.tolist(), s.p.tolist())
        lsq = integral_set(s).left[-1]
        assert jplus * jminus - j3 ** 2 == pytest.approx(lsq, rel=1e-12, abs=1e-12)
        assert jplus * jminus - j3 ** 2 >= -1e-12


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
        t_jminus, t_j3, t_jplus = sl2_columns(s.q.tolist(), s.p.tolist(), b)
        assert abs(poisson_bracket(j3, jp, s) - 2 * t_jplus) <= 1e-5 * (1 + abs(t_jplus))
        assert abs(poisson_bracket(j3, jm, s) + 2 * t_jminus) <= 1e-5 * (1 + abs(t_jminus))
        assert abs(poisson_bracket(jm, jp, s) - 4 * t_j3) <= 1e-5 * (1 + abs(t_j3))


def test_so4_bracket_relations():
    # {J_ij, J_ik} = J_jk, {J_ij, J_jk} = -J_ik, {J_ik, J_jk} = J_ij  (i<j<k)
    rng = np.random.default_rng(31)
    row = {pair: a for a, pair in enumerate(combinations(range(4), 2))}
    J = lambda i, j: (lambda q, p: so_n_columns(q, p)[row[i, j]])
    for _ in range(5):
        s = random_state(rng, 4)
        v = so_n_columns(s.q.tolist(), s.p.tolist())
        for i, j, k in combinations(range(4), 3):
            assert poisson_bracket(J(i, j), J(i, k), s) == pytest.approx(v[row[j, k]], abs=1e-6)
            assert poisson_bracket(J(i, j), J(j, k), s) == pytest.approx(-v[row[i, k]], abs=1e-6)
            assert poisson_bracket(J(i, k), J(j, k), s) == pytest.approx(v[row[i, j]], abs=1e-6)


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
    # q_3 = h/2: the -h/2 stencil state of q_3 lies on that axis
    s = PhaseState([0.8, 0.6, 5e-7], [0.1, 0.2, 0.3])
    free = partial(_conserved, SystemSpec(metric, pot, 0.3, b=[1.0, 0.0, 0.0]))
    assert np.all(np.isfinite(poisson_bracket(free, free, s)))
    walled = partial(_conserved, SystemSpec(metric, pot, 0.3, b=[1.0, 0.0, 2.0]))
    with pytest.raises(SingularStateError, match="q_3 = 0 with b_3 = 2.0"):
        poisson_bracket(walled, walled, s)

    # the +h stencil state of q_0 leaves the unit ball of the hyperbolic space
    hyperbolic = partial(_conserved, SystemSpec(catalog_lookup("hyperbolic"), None, n=3))
    inside = PhaseState([1.0 - 1e-7, 0.0, 0.0], [0.1, 0.2, 0.3])
    with pytest.raises(DomainViolation):
        poisson_bracket(hyperbolic, hyperbolic, inside)

    with pytest.raises(ValueError, match="dimension 2, system expects 3"):
        poisson_bracket(free, free, PhaseState([0.8, 0.6], [0.1, 0.2]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stacked_engine_matches_the_per_state_calls_bit_for_bit(n):
    # one stencil call over S states against S calls of one state each, for
    # scalar, vector and mixed column functions and for per-state b
    rng = np.random.default_rng(80 + n)
    hex_of = lambda a: [x.hex() for x in np.ravel(a)]
    metric = catalog_lookup("darboux3b")
    sys_spec = SystemSpec(metric, kc_potential(metric, 0.7), 0.4,
                          b=rng.uniform(-2.0, 2.0, n))
    states = [random_state(rng, n, p_scale=2.0) for _ in range(7)]
    vector = partial(_conserved, sys_spec)
    scalar = lambda q, p: _conserved(sys_spec, q, p)[0]
    for fn in (scalar, vector):
        gq, gp = fd_gradient(fn, states)
        assert gq.shape == gp.shape == (7, *fd_gradient(fn, states[0])[0].shape)
        assert gq.flags.c_contiguous and gp.flags.c_contiguous
        for k, s in enumerate(states):
            sq, sp = fd_gradient(fn, s)
            assert hex_of(gq[k]) == hex_of(sq) and hex_of(gp[k]) == hex_of(sp)
    for f, g in ((scalar, scalar), (vector, vector), (scalar, vector), (vector, scalar)):
        stacked = poisson_bracket(f, g, states)
        assert stacked.shape[0] == 7
        for k, s in enumerate(states):
            assert hex_of(stacked[k]) == hex_of(poisson_bracket(f, g, s))
    ranks = independence_rank(vector, states)
    assert ranks.tolist() == [independence_rank(vector, s) for s in states]
    assert ranks.tolist() == [2 * n - 2] * 7

    # per-state b reaches sl2_columns as columns, repeated over each state's
    # 8N stencil rows
    b = rng.uniform(-3.0, 3.0, (7, n))
    gens = lambda q, p: sl2_columns(q, p, np.repeat(b, 8 * n, axis=0).T)
    stacked = poisson_bracket(gens, gens, states)
    assert stacked.shape == (7, 3, 3)
    for k, s in enumerate(states):
        one = lambda q, p: sl2_columns(q, p, b[k])
        assert hex_of(stacked[k]) == hex_of(poisson_bracket(one, one, s))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_array_of_states_matches_the_list_of_phase_states_bit_for_bit(n):
    # an (S, 2N) array of rows (q, p) is the same S states as a list of
    # PhaseStates, strided views included (a transposed block of columns)
    rng = np.random.default_rng(40 + n)
    hex_of = lambda a: [x.hex() for x in np.ravel(a)]
    metric = catalog_lookup("taub-nut")
    sys_spec = SystemSpec(metric, oscillator_potential(metric, 0.4), 0.3,
                          b=rng.uniform(0.5, 2.0, n))
    states = [random_state(rng, n, p_scale=2.0) for _ in range(6)]
    rows = np.array([np.concatenate([s.q, s.p]) for s in states])
    vector = partial(_conserved, sys_spec)
    scalar = lambda q, p: _conserved(sys_spec, q, p)[0]
    for x in (rows, np.ascontiguousarray(rows.T).T):
        for fn in (scalar, vector):
            assert all(hex_of(a) == hex_of(b)
                       for a, b in zip(fd_gradient(fn, x), fd_gradient(fn, states)))
            assert hex_of(poisson_bracket(fn, vector, x)) == \
                hex_of(poisson_bracket(fn, vector, states))
        assert independence_rank(vector, x).tolist() == \
            independence_rank(vector, states).tolist()


def test_stacked_stencil_failures_propagate():
    metric = catalog_lookup("euclidean")
    pot = kc_potential(metric, 1.0)
    clear = PhaseState([0.8, 0.6, 0.5], [0.1, 0.2, 0.3])
    # q_3 = h/2: the -h/2 stencil state of q_3 lies on that axis
    on_axis = PhaseState([0.8, 0.6, 5e-7], [0.1, 0.2, 0.3])
    walled = partial(_conserved, SystemSpec(metric, pot, 0.3, b=[1.0, 0.0, 2.0]))
    assert np.all(np.isfinite(poisson_bracket(walled, walled, [clear, clear])))
    with pytest.raises(SingularStateError, match="q_3 = 0 with b_3 = 2.0"):
        poisson_bracket(walled, walled, [clear, on_axis, clear])
    with pytest.raises(SingularStateError, match="q_3 = 0 with b_3 = 2.0"):
        independence_rank(walled, [clear, on_axis])
    b = np.array([[1.0, 0.0, 0.5], [1.0, 0.0, 2.5]])
    gens = lambda q, p: sl2_columns(q, p, np.repeat(b, 24, axis=0).T)
    with pytest.raises(SingularStateError, match="q_3 = 0 with b_3 = 2.5"):
        fd_gradient(gens, [clear, on_axis])

    # the +h stencil state of q_0 leaves the unit ball of the hyperbolic space
    hyperbolic = partial(_conserved, SystemSpec(catalog_lookup("hyperbolic"), None, n=3))
    inside = PhaseState([1.0 - 1e-7, 0.0, 0.0], [0.1, 0.2, 0.3])
    clear_of_edge = PhaseState([0.5, 0.1, 0.1], [0.1, 0.2, 0.3])
    with pytest.raises(DomainViolation):
        poisson_bracket(hyperbolic, hyperbolic, [clear_of_edge, inside])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_conserved_with_per_row_mu2_and_b_matches_one_system_per_state(n):
    # the involution suite stacks states that each carry their own mu2 and
    # b; every row must be what a SystemSpec of that state gives, and so
    # must every bracket of the stacked stencil
    rng = np.random.default_rng(90 + n)
    hex_of = lambda a: [x.hex() for x in np.ravel(a)]
    metric = catalog_lookup("darboux3b")
    pot = oscillator_potential(metric, 0.4)
    mu2, b = rng.uniform(0.0, 1.0, 5), rng.uniform(-2.0, 2.0, (5, n))
    states = [random_state(rng, n, p_scale=2.0) for _ in range(5)]
    carrier = SystemSpec(metric, pot, n=n)
    singles = [partial(_conserved, SystemSpec(metric, pot, mu2[k], b=b[k])) for k in range(5)]
    q, p = list(np.array([s.q for s in states]).T), list(np.array([s.p for s in states]).T)
    stacked = np.array(_conserved(carrier, q, p, mu2, b.T))
    for k, s in enumerate(states):
        one = np.array(singles[k](list(s.q[:, None]), list(s.p[:, None])))
        assert hex_of(stacked[:, k]) == hex_of(one[:, 0])

    rows = lambda x, q: np.repeat(x, len(q[0]) // len(x), axis=0)
    per_row = lambda q, p: _conserved(carrier, q, p, rows(mu2, q), rows(b, q).T)
    m = poisson_bracket(per_row, per_row, states)
    for k, s in enumerate(states):
        assert hex_of(m[k]) == hex_of(poisson_bracket(singles[k], singles[k], s))


def test_a_zero_entry_in_a_b_column_matches_the_float_path():
    # b_0 is zero at rows 0 and 2 only, where q_0 != 0: the column path adds
    # exact zeros there, the float path skips the term; no warning either way
    metric = catalog_lookup("euclidean")
    pot = kc_potential(metric, 1.0)
    b = np.array([[0.0, 0.5, 1.0], [1.5, 0.2, 0.0], [0.0, 0.3, 0.7]])
    mu2 = np.array([0.0, 0.4, 0.2])
    q = np.array([[0.7, -0.6, 0.9], [0.8, 0.5, -1.1], [-1.2, 0.4, 0.6]])
    p = np.array([[0.1, 0.2, -0.3], [0.0, -0.5, 0.4], [0.3, 0.3, 0.1]])
    stacked = np.array(_conserved(SystemSpec(metric, pot, n=3), list(q.T), list(p.T), mu2, b.T))
    gens = np.array(sl2_columns(list(q.T), list(p.T), b.T))
    for k in range(3):
        sys_k = SystemSpec(metric, pot, mu2[k], b=b[k])
        one = _conserved(sys_k, list(q[k][:, None]), list(p[k][:, None]))
        assert [float(x).hex() for x in stacked[:, k]] == [float(x[0]).hex() for x in one]
        assert [float(x).hex() for x in gens[:, k]] == \
            [float(x).hex() for x in sl2_columns(q[k].tolist(), p[k].tolist(), b[k])]


def test_conserved_names_the_first_row_out_of_the_domain():
    hyperbolic = SystemSpec(catalog_lookup("hyperbolic"), None, n=3)
    # |q| = 0.5, 1.25, 0.75, 1.5 row by row: the domain is the unit ball
    q = np.array([[0.3, 0.4, 0.0], [0.75, 1.0, 0.0], [0.45, 0.6, 0.0], [0.9, 1.2, 0.0]])
    with pytest.raises(DomainViolation) as err:
        _conserved(hyperbolic, list(q.T), list(np.zeros((3, 4))))
    assert str(err.value) == "|q| = 1.25 outside the system domain (0, 1)"


def test_sl2_columns_and_towers_take_symbolic_b():
    # the one shipped body serves exact oracles too: symbols pass unchecked
    sympy = pytest.importorskip("sympy")
    n = 3
    q, p, b = (list(sympy.symbols(f"{c}1:{n + 1}")) for c in "qpb")
    jminus, j3, jplus = sl2_columns(q, p, b)
    assert sympy.expand(jminus - sum(x ** 2 for x in q)) == 0
    assert sympy.expand(j3 - sum(x * y for x, y in zip(q, p))) == 0
    assert sympy.cancel(jplus - sum(y ** 2 for y in p)
                        - sum(bi / x ** 2 for bi, x in zip(b, q))) == 0

    def pair_sum(axes):
        return sum((q[i] * p[j] - q[j] * p[i]) ** 2 + b[i] * q[j] ** 2 / q[i] ** 2
                   + b[j] * q[i] ** 2 / q[j] ** 2
                   for i, j in combinations(axes, 2)) + sum(b[i] for i in axes)

    towers = _towers(q, p, b)
    for m in range(2, n + 1):
        assert sympy.cancel(towers.left[m - 2] - pair_sum(range(m))) == 0
        assert sympy.cancel(towers.right[m - 2] - pair_sum(range(n - m, n))) == 0


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
