import math

import numpy as np
import pytest

from qmsflow import dynamics
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
    DomainViolation,
    MetricSpec,
    catalog_ids,
    catalog_lookup,
    sample_radii,
)
from qmsflow.potentials import (
    NAMED_SYSTEMS,
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
    for mid in catalog_ids():
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
            assert [v.hex() for v in new(y)] == [v.hex() for v in ref(y)], (sys, y)
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
            rhs(y)
        assert str(got.value) == str(want.value)


def test_kernels_are_generated_once_per_system(monkeypatch):
    made = []
    for name in ("_make_rhs", "_make_solve"):
        real = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name,
                            lambda sys, name=name, real=real: made.append(name) or real(sys))
    sys = SystemSpec(EUCLID, kc_potential(EUCLID, 1.0), n=3)
    s = PhaseState([1.0, 2.0, 2.0], [0.2, -0.1, 0.4])
    for _ in range(3):
        gradient(sys, s)
    integrate(sys, s, 0.1)
    assert made == ["_make_rhs"]  # an adaptive run compiles no midpoint solve
    for _ in range(2):
        integrate(sys, s, 0.1, method="midpoint")
    assert made == ["_make_rhs", "_make_solve"]


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def test_kepler_circular_orbit_returns_after_one_period():
    sys = SystemSpec(EUCLID, kc_potential(EUCLID, 1.0), n=3)
    s0 = PhaseState([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    rec = integrate(sys, s0, 2.0 * math.pi)
    assert rec.halted is None
    assert rec.times[-1] == pytest.approx(2.0 * math.pi, rel=1e-15)
    end = rec.final_state
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
    mid = fwd.final_state
    back = integrate(sys, PhaseState(mid.q, -mid.p), 10.0)
    assert back.halted is None
    assert np.max(np.abs(back.final_state.q - s0.q)) <= 1e-6
    assert np.max(np.abs(back.final_state.p + s0.p)) <= 1e-6


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
    assert np.max(np.abs(ada.final_state.q - mid.final_state.q)) <= 1e-5
    assert np.max(np.abs(ada.final_state.p - mid.final_state.p)) <= 1e-5


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
    h, fp_tol, nsteps = 1e-3, 1e-13, 1000
    rec = integrate(sys, s0, nsteps * h, method="midpoint", step=h,
                    fp_tol=fp_tol, samples=nsteps + 1)
    assert rec.halted is None and len(rec.states) == nsteps + 1
    for a, b in zip(rec.states[:-1], rec.states[1:]):
        mid = PhaseState(0.5 * (a.q + b.q), 0.5 * (a.p + b.p))
        dh_dq, dh_dp = gradient(sys, mid)
        residual = max(np.max(np.abs(b.q - a.q - h * dh_dp)),
                       np.max(np.abs(b.p - a.p + h * dh_dq)))
        assert residual <= fp_tol * (1.0 + max(np.max(np.abs(b.q)), np.max(np.abs(b.p))))
    if setup is _circular_kepler:
        # step 1 adds the Euler call, and steps 1 and 2 start O(h^2) from
        # the root; every later step starts O(h^3) from it and takes three
        assert rec.stats["nfev"] <= 3 * rec.stats["steps"] + 3


# ---------------------------------------------------------------------------
# conservation audit
# ---------------------------------------------------------------------------


def test_free_particle_report_is_exact():
    sys = SystemSpec(EUCLID, None, mu2=0.0, n=2)
    rec = integrate(sys, PhaseState([0.5, 1.0], [0.7, 0.1]), 5.0)
    report = conservation_report(rec, tol=1e-10)
    assert report["pass"] is True
    assert report["halted"] is None
    for entry in report["quantities"].values():
        assert entry["drift"] <= 1e-12
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
    assert rec.final_state.radius == pytest.approx(2.0, abs=1e-6)
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
    assert rec.final_state.radius < 2.0
    assert rec.final_state.radius == pytest.approx(2.0, abs=1e-3)


def test_midpoint_halt_on_singular_axis():
    # a nearly free particle (b_1 = 1e-30) heads for the q_1 = 0 plane at
    # unit speed; the third step of 1e-3 from q_1 = 3e-3 lands within the
    # 1e-10 axis guard, and the state after step 2 is kept
    sys = SystemSpec(EUCLID, None, mu2=0.0, b=(1e-30, 0.0, 0.0))
    s0 = PhaseState([3e-3, 0.6, 0.8], [-1.0, 0.0, 0.0])
    rec = integrate(sys, s0, 1.0, method="midpoint", step=1e-3)
    assert rec.halted == "singular-axis"
    assert rec.times[-1] == pytest.approx(2e-3, rel=1e-12)
    assert rec.final_state.q[0] == pytest.approx(1e-3, rel=1e-9)


def _kepler_midpoint_stall():
    sys = SystemSpec(EUCLID, kc_potential(EUCLID, 1.0), mu2=0.0, n=3)
    s0 = PhaseState([1.0, 0.3, 0.4], [-0.1, 0.5, 0.2])
    return sys, s0, {"max_fp_iter": 1}


def _cap_outward_kick():
    # f = sqrt(2 - r) -> 0 at the edge, so qdot = p/f^2 is large near it:
    # the first midpoint stage from |q| = 1.9 lands beyond r = 2
    metric = MetricSpec.from_source("sqrt(2 - r)", id="cap", domain=(0.0, 2.0))
    sys = SystemSpec(metric, None, mu2=0.0, n=3)
    s0 = PhaseState([1.9, 0.0, 0.0], [1.0, 0.0, 0.0])
    return sys, s0, {"step": 0.05}


def _strip_outward_kick():
    # f = 1 is finite beyond the strip, so only the domain check stops the
    # first midpoint stage from |q| = 1.99 at r = 2.015
    metric = MetricSpec.from_source("1", id="flat-strip", domain=(0.5, 2.0))
    sys = SystemSpec(metric, None, mu2=0.0, n=3)
    s0 = PhaseState([1.99, 0.0, 0.0], [1.0, 0.0, 0.0])
    return sys, s0, {"step": 0.05}


def _cap_late_failure():
    # a gentler kick than _cap_outward_kick: the Euler call and the first
    # fixed-point call stay inside the cap, the second lands beyond r = 2
    sys, s0, _ = _cap_outward_kick()
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
def test_midpoint_halts_in_the_first_step(setup, reason):
    sys, s0, options = setup()
    rec = integrate(sys, s0, 1.0, method="midpoint", **options)
    assert rec.halted.startswith(reason)
    assert list(rec.times) == [0.0]
    assert rec.stats["steps"] == 0
    assert rec.stats["nfev"] == _FIRST_STEP_NFEV[setup]
    assert rec.stats["max_fp_iterations"] == 0
    np.testing.assert_array_equal(rec.final_state.q, s0.q)
    assert conservation_report(rec)["halted"] == rec.halted


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
    assert 2 <= rec.times.size < 101
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
    assert rec.final_state.radius < metric.domain[1]


def test_halt_near_centrifugal_axis():
    # attractive b_1 < 0 pulls q_1 onto the singular axis in finite time;
    # p_1 diverges like 1/q_1 on the way down, so the step size underflows
    # at |q_1| ~ 1e-8 -- before an accepted step can land below the 1e-10
    # axis guard.  Either reason is a singular-set halt.
    sys = SystemSpec(EUCLID, None, mu2=0.0, b=(-0.5, 0.0, 0.0))
    s0 = PhaseState([1.0, 0.8, 0.6], [-0.6, 0.0, 0.0])
    rec = integrate(sys, s0, 5.0)
    assert rec.halted == "singular-axis" or rec.halted.startswith("step-size underflow")
    assert abs(rec.final_state.q[0]) < 1e-6
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
    assert rec.final_state.radius == pytest.approx(math.sqrt(2.0))
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
        with pytest.raises(SingularStateError, match="q_1 = 0 with b_1 = 0.5"):
            call()
    # one state per row, as integrate checks its samples: the first row
    # with a hit decides, not the lowest axis index
    rows = np.array([[0.0, 1.0, 1.0], [1.0, 2.0, 0.0], [1.0, 0.0, 1.0]])
    with pytest.raises(SingularStateError, match="q_2 = 0 with b_2 = 0.3"):
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
    with pytest.raises(ValueError):
        integrate(sys, s0, 1.0, method="midpoint", step=0.0)
