"""Acceptance gate: the nine package-level criteria, one verdict line each.

Every test prints a single ``[acceptance N] name: PASS/FAIL (details)`` line
so the whole gate can be read at a glance with ``pytest -s``.  Criteria 1, 2,
3, 5, 6 and 7 run the ``qmsflow verify`` suites, so each of those checks has
one loop, the one users run.
"""

import math
import time

import numpy as np

from qmsflow.algebra import (
    PhaseState,
    integral_set,
    poisson_bracket,
    sl2_columns,
    _towers,
)
from qmsflow.cli import (
    _conserved,
    _suite_brackets,
    _suite_coords,
    _suite_green,
    _suite_identities,
    _suite_independence,
    _suite_involution,
)
from qmsflow.coords import from_cartesian
from qmsflow.dynamics import conservation_report, hamiltonian, integrate
from qmsflow.geometry import (
    CATALOG,
    MetricSpec,
    catalog_lookup,
    sample_radii,
    scalar_curvature,
)
from qmsflow.potentials import (
    SystemSpec,
    green_function,
    kc_potential,
    named_system,
    oscillator_potential,
)


def _verdict(index: int, name: str, ok: bool, detail: str) -> None:
    line = f"[acceptance {index}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _check(report: dict, name: str) -> dict:
    return next(c for c in report["checks"] if c["check"] == name)


def _random_state(rng, n: int) -> PhaseState:
    q = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], size=n)
    return PhaseState(q, rng.uniform(-2.0, 2.0, n))


# -- 1: the three coalgebra generators close the sl(2, R) brackets -----------

def test_acceptance_1_sl2_closure():
    start = time.perf_counter()
    reports = [_suite_brackets(n, 101, None) for n in (2, 3, 4, 6)]
    elapsed = time.perf_counter() - start
    worst = max(_check(r, "sl2-closure")["max_residual"] for r in reports)
    ok = all(r["pass"] for r in reports) and elapsed < 5.0
    _verdict(1, "sl2-closure N in {2,3,4,6}", ok,
             f"worst rel {worst:.2e} <= 1e-5, {elapsed:.1f}s < 5s")


# -- 2: both integral families are in involution with H and within themselves

def test_acceptance_2_involution():
    start = time.perf_counter()
    reports = [_suite_involution(4, seed, None) for seed in range(9)]
    elapsed = time.perf_counter() - start
    worst = max(c["max_residual"] for r in reports for c in r["checks"])
    ok = all(r["pass"] for r in reports) and elapsed < 30.0
    _verdict(2, "involution N=4, 9 system combos x 6 states x 9 seeds", ok,
             f"worst rel {worst:.2e} <= 1e-5, {elapsed:.1f}s < 30s")


# -- 3: H with the universal integrals is functionally independent -----------

def test_acceptance_3_functional_independence():
    report = _suite_independence(3, 103, None)
    full = _check(report, "jacobian-rank")["full_rank_states"]
    _verdict(3, "rank {H, C^(2), C^(3), C_(2)} = 4 (N=3)", report["pass"],
             f"full rank at {full}/20 states >= 19/20")


# -- 4: named systems conserve everything along the flow ---------------------

def test_acceptance_4_conservation_along_flow():
    cases = [
        ("mic-kepler", {"alpha": 1.0, "mu2": 1.0},
         PhaseState([1.0, 0.3, 0.4], [-0.1, 0.5, 0.2])),
        ("mic-kepler-spherical", {"alpha": 2.0, "mu2": 0.5},
         PhaseState([0.4, 0.0, 0.0], [0.0, 0.8, 0.0])),
        ("mic-kepler-hyperbolic", {"alpha": 2.0, "mu2": 0.5},
         PhaseState([0.4, 0.0, 0.0], [0.0, 0.8, 0.0])),
        ("taub-nut-system", {"m": 1.0, "mu2": 1.0},
         PhaseState([0.8, 0.6, 0.5], [0.2, -0.1, 0.3])),
        ("multifold-kepler", {"nu": 1.5, "a": 1.0, "b": 1.0, "c": 0.3,
                              "d": 0.7, "mu2": 0.5},
         PhaseState([1.0, 0.3, 0.4], [-0.1, 0.4, 0.2])),
    ]
    start = time.perf_counter()
    worst, worst_id = 0.0, ""
    for sid, params, s0 in cases:
        rec = integrate(named_system(sid, params), s0, 20.0)
        assert rec.halted is None, (sid, rec.halted)
        drift = max(v["drift"]
                    for v in conservation_report(rec)["quantities"].values())
        if drift > worst:
            worst, worst_id = drift, sid
    # circular Kepler orbit: period exactly 2 pi
    metric = catalog_lookup("euclidean")
    sys_spec = SystemSpec(metric, kc_potential(metric, 1.0), 0.0, n=3)
    s0 = PhaseState([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    rec = integrate(sys_spec, s0, 2.0 * math.pi)
    ret = max(float(np.abs(rec.q[-1] - s0.q).max()),
              float(np.abs(rec.p[-1] - s0.p).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and ret <= 1e-8 and elapsed < 60.0
    _verdict(4, "conservation over t_end=20, 5 named systems", ok,
             f"worst drift {worst:.2e} ({worst_id}) <= 1e-7, period return "
             f"{ret:.2e} <= 1e-8, {elapsed:.1f}s < 60s")


# -- 5: spherical chart machinery ---------------------------------------------

def test_acceptance_5_coordinate_machinery():
    details = []
    ok = True
    for n in (2, 3, 4):
        report = _suite_coords(n, 42, None)
        ok = ok and report["pass"]
        worst = max(c["max_residual"] for c in report["checks"])
        details.append(f"N={n} worst {worst:.1e}")
    _verdict(5, "canonicity/round-trip/casimir/chain/radial", ok,
             "; ".join(details) + " at tolerances 1e-6/1e-12/1e-10/1e-12/1e-12")


# -- 6: green functions and the intrinsic potentials --------------------------

def test_acceptance_6_green_functions_and_potentials():
    report = _suite_green(3, 42, None)
    harmonic = _check(report, "harmonicity")
    affine = _check(report, "quadrature-affine-match")
    # the KC and oscillator constructors against independently evaluated
    # closed forms, 32 points per catalog row
    worst = 0.0
    for mid in CATALOG:
        metric = catalog_lookup(mid)
        kc = kc_potential(metric, 1.3)
        osc = oscillator_potential(metric, 0.7)
        for r in sample_radii(metric.domain, 32):
            u = green_function(metric, float(r))
            worst = max(worst, abs(kc.u(float(r)) - 1.3 * u)
                        / (1.0 + abs(1.3 * u)))
        for r in sample_radii(osc.domain, 32):
            u = green_function(metric, float(r))
            expected = 0.7 / (u * u)
            worst = max(worst, abs(osc.u(float(r)) - expected)
                        / (1.0 + abs(expected)))
    ok = harmonic["pass"] and affine["pass"] and worst <= 1e-12
    _verdict(6, "harmonicity/quadrature-affine/constructor columns", ok,
             f"harmonicity {harmonic['max_residual']:.1e} <= 1e-7, affine "
             f"{affine['max_residual']:.1e} <= 1e-8, columns {worst:.1e} "
             f"<= 1e-12")


# -- 7: decomposition identities ----------------------------------------------

def test_acceptance_7_decomposition_identities():
    check = _check(_suite_identities(3, 107, None), "decomposition-identities")
    ok = check["pass"] and check["points"] >= 5 * 20
    _verdict(7, "multifold/oscillator-shift/reduction identities", ok,
             f"{check['points'] // 20} identities x 20 points, worst "
             f"{check['max_residual']:.1e} <= 1e-10")


# -- 8: centrifugal terms break rotational symmetry, coalgebra survives -------

def _jplus_lsq_bracket_closed_form(sph, b) -> float:
    """Closed form of the bracket of J+ with the total squared angular
    momentum: differentiating the angular centrifugal part W of C_(N) gives

        (4/r^2) sum_m (p_theta_m / S_m) [ b_m tan(theta_m) / (cos^2 theta_m S_m)
            - cot(theta_m) ( sum_{j>m} b_j / (cos^2 theta_j S_j) + b_N / S_N ) ]

    with S_m the product of sin^2 theta_k for k < m.
    """
    n = len(b)
    theta, p_theta = sph.theta, sph.p_theta
    s_prod = np.ones(n)
    for j in range(1, n):
        s_prod[j] = s_prod[j - 1] * math.sin(theta[j - 1]) ** 2
    total = 0.0
    for m in range(n - 1):
        tail = sum(b[j] / (math.cos(theta[j]) ** 2 * s_prod[j])
                   for j in range(m + 1, n - 1))
        tail += b[n - 1] / s_prod[n - 1]
        term = (b[m] * math.tan(theta[m])
                / (math.cos(theta[m]) ** 2 * s_prod[m])
                - tail / math.tan(theta[m]))
        total += (p_theta[m] / s_prod[m]) * term
    return 4.0 / sph.r ** 2 * total


def test_acceptance_8_symmetry_breaking_signature():
    metric = catalog_lookup("darboux3b")
    potential = kc_potential(metric, 0.7)

    # with b = 0 the total angular momentum is conserved along the flow
    free_b = SystemSpec(metric, potential, 0.4, n=3)
    rec = integrate(free_b, PhaseState([1.0, 0.3, 0.4], [0.3, -0.4, 0.5]),
                    20.0)
    lsq = np.array([integral_set(s).left[-1] for s in rec.states])
    lsq_drift = float(np.abs(lsq - lsq[0]).max() / (1.0 + abs(lsq[0])))

    # documented state with every b_i nonzero: L^2 is visibly not conserved
    # while the top right-family integral still is
    b = (0.8, 0.5, 0.3)
    broken = SystemSpec(metric, potential, 0.4, b=b)
    state = PhaseState([1.0, 0.7, 0.6], [0.3, -0.4, 0.5])
    h_fun = lambda q, p: _conserved(broken, q, p)[0]
    lsq_fun = lambda q, p: _towers(q, p, [0.0] * len(q)).left[-1]
    lsq_bracket = abs(poisson_bracket(h_fun, lsq_fun, state))
    top = lambda q, p: _towers(q, p, b).right[-1]
    cn_bracket = abs(poisson_bracket(h_fun, top, state)) / (
        1.0 + abs(hamiltonian(broken, state))
        + abs(integral_set(state, b).right[-1]))

    # the bracket of J+ with L^2 matches its closed form
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(20):
        s = _random_state(rng, 3)
        rb = rng.uniform(0.3, 2.0, 3)
        jp = lambda q, p: sl2_columns(q, p, rb)[2]
        numeric = poisson_bracket(jp, lsq_fun, s)
        closed = _jplus_lsq_bracket_closed_form(from_cartesian(s), rb)
        worst = max(worst, abs(numeric - closed) / (1.0 + abs(closed)))

    ok = (lsq_drift <= 1e-7 and lsq_bracket > 1e-3 and cn_bracket <= 1e-5
          and worst <= 1e-5)
    _verdict(8, "symmetry breaking by centrifugal terms", ok,
             f"b=0 L^2 drift {lsq_drift:.1e} <= 1e-7; {{H,L^2}} = "
             f"{lsq_bracket:.3f} > 1e-3 while {{H,C_(N)}} {cn_bracket:.1e} "
             f"<= 1e-5; {{J+,L^2}} closed form worst {worst:.1e} <= 1e-5")


# -- 9: scalar curvature of the conformal metric ------------------------------

def test_acceptance_9_scalar_curvature():
    flat = MetricSpec.from_source("1", id="flat")
    worst_flat = max(abs(scalar_curvature(flat, float(r), n))
                     for n in (2, 3, 4, 6)
                     for r in sample_radii(flat.domain, 32))
    worst_rel = 0.0
    for kappa, source, domain in ((1.0, "2/(1 + r^2)", (0.0, math.inf)),
                                  (-1.0, "2/(1 - r^2)", (0.0, 1.0))):
        metric = MetricSpec.from_source(source, id="const-curv", domain=domain)
        for n in (2, 3, 4, 6):
            expected = n * (n - 1) * kappa
            for r in sample_radii(metric.domain, 32):
                err = abs(scalar_curvature(metric, float(r), n) - expected)
                worst_rel = max(worst_rel, err / (1.0 + abs(expected)))
    ok = worst_flat <= 1e-9 and worst_rel <= 1e-9
    _verdict(9, "curvature: 0 for f=1, N(N-1)kappa for stereographic f", ok,
             f"flat worst {worst_flat:.1e} <= 1e-9, constant-curvature worst "
             f"rel {worst_rel:.1e} <= 1e-9")
