"""End-to-end tests of the command-line interface."""

import functools
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import qmsflow
from qmsflow import algebra, cli, coords, dynamics, geometry, potentials
from qmsflow.cli import ConfigError, VERIFY_SUITES, build_config, main
from qmsflow.geometry import CATALOG

KEPLER_YAML = """\
space:
  id: euclidean
potential:
  kc: {alpha: 1.0}
initial:
  cartesian:
    q: [1.0, 0.0, 0.0]
    p: [0.0, 1.0, 0.0]
integrator:
  method: adaptive
  rtol: 1.0e-12
  atol: 1.0e-14
t_end: 6.283185307179586
samples: 41
"""

MIC_KEPLER_YAML = """\
potential:
  named-system:
    id: mic-kepler
    mu2: 0.1
    centrifugal: [0.02, 0.03, 0.01]
initial:
  cartesian:
    q: [1.0, 0.3, 0.4]
    p: [-0.1, 0.5, 0.2]
t_end: 20.0
"""

STRIP_YAML = """\
space:
  f: "1"
  id: flat-strip
  domain: [0.5, 2.0]
potential: none
initial:
  cartesian:
    q: [1.2, 0.3, 0.4]
    p: [0.46153846153846156, 0.11538461538461539, 0.15384615384615385]
t_end: 5.0
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def base_config(**overrides):
    data = {
        "space": {"id": "euclidean"},
        "potential": "none",
        "initial": {"cartesian": {"q": [1.0, 0.2, 0.3],
                                  "p": [0.1, -0.2, 0.4]}},
        "t_end": 1.0,
    }
    data.update(overrides)
    return data


# -- catalog ----------------------------------------------------------------

def test_catalog_list_prints_all_space_ids(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == 0
    assert out.splitlines() == list(CATALOG)
    assert len(CATALOG) == 11


def test_catalog_show_prints_formulas(capsys):
    code, out, _ = run_cli(capsys, "catalog", "show", "taub-nut")
    assert code == 0
    assert "sqrt(4*m/r + 1)" in out
    assert "alpha" in out and "beta" in out
    assert "mu2 / (2 f(r)^2 r^2)" in out
    assert "b_i / (2 f(r)^2 q_i^2)" in out
    assert "domain: (0, inf)" in out
    assert "m = 1" in out


def test_catalog_show_every_space_mentions_its_green_form(capsys):
    for mid in CATALOG:
        code, out, _ = run_cli(capsys, "catalog", "show", mid)
        assert code == 0
        assert f"space: {mid}" in out
        assert "green function" in out and "domain" in out


def test_catalog_show_unknown_id_is_a_config_error(capsys):
    code, out, err = run_cli(capsys, "catalog", "show", "bogus")
    assert code == 2
    assert "unknown space id" in err


# -- configuration ----------------------------------------------------------

def test_config_unknown_keys_rejected_at_every_level():
    with pytest.raises(ConfigError, match="unknown key"):
        build_config(base_config(extra=1))
    with pytest.raises(ConfigError, match="unknown key"):
        build_config(base_config(space={"id": "euclidean", "junk": 2}))
    with pytest.raises(ConfigError, match="unknown key"):
        build_config(base_config(integrator={"method": "adaptive",
                                             "stepsize": 0.1}))
    with pytest.raises(ConfigError, match="unknown key"):
        cfg = base_config()
        cfg["initial"] = {"cartesian": {"q": [1, 0], "p": [0, 1], "v": [1, 1]}}
        build_config(cfg)


def test_config_requires_exactly_one_potential_clause():
    with pytest.raises(ConfigError, match="exactly one clause"):
        build_config(base_config(potential={"kc": {"alpha": 1.0},
                                            "oscillator": {"beta": 1.0}}))
    with pytest.raises(ConfigError, match="missing required key 'potential'"):
        data = base_config()
        del data["potential"]
        build_config(data)
    with pytest.raises(ConfigError, match="unknown kind"):
        build_config(base_config(potential={"coulomb": {"alpha": 1.0}}))
    assert build_config(base_config(potential="none")).system.potential is None


def test_config_potential_clauses_build_the_right_objects():
    cfg = build_config(base_config(potential={"kc": {"alpha": 2.0}}))
    assert cfg.system.potential.alpha == 2.0
    cfg = build_config(base_config(potential={"oscillator": {"beta": 0.5}}))
    assert cfg.system.potential.beta == 0.5
    cfg = build_config(base_config(
        potential={"shifted-oscillator": {"beta": 0.5, "gamma": 0.3}}))
    assert cfg.system.potential.gamma == 0.3
    cfg = build_config(base_config(
        potential={"custom": {"u": "w*r^2", "params": {"w": 0.25}}}))
    assert cfg.system.potential.u(2.0) == pytest.approx(1.0)


def test_config_dimension_consistency_checks():
    with pytest.raises(ConfigError, match="inconsistent dimensions"):
        build_config(base_config(b=[0.1, 0.2]))
    with pytest.raises(ConfigError, match="inconsistent dimensions"):
        build_config(base_config(dimension=4))
    cfg = build_config(base_config(dimension=3, b=[0.1, 0.2, 0.3]))
    assert cfg.system.n == 3 and cfg.system.b == (0.1, 0.2, 0.3)


def test_config_named_system_replaces_space_and_couplings():
    data = {"potential": {"named-system": {"id": "taub-nut-system", "m": 1.0}},
            "initial": {"cartesian": {"q": [0.8, 0.6, 0.5],
                                      "p": [0.2, -0.1, 0.3]}},
            "t_end": 1.0}
    cfg = build_config(data)
    assert cfg.system.label == "taub-nut-system"
    assert cfg.system.metric.f(1.0) == pytest.approx(math.sqrt(5.0))
    with pytest.raises(ConfigError, match="remove the 'space' key"):
        build_config({**data, "space": {"id": "euclidean"}})
    with pytest.raises(ConfigError, match="remove the 'b' key"):
        build_config({**data, "b": [0.0, 0.0, 0.0]})


def test_readme_yaml_examples_build():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = [yaml.safe_load(block.split("```")[0]) for block in
              readme.read_text(encoding="utf-8").split("```yaml\n")[1:]]
    assert len(blocks) == 2
    config, named = blocks
    cfg = build_config(config)
    assert cfg.system.metric.id == "darboux3b" and cfg.system.n == 3
    # the named-system block stands in for the space and its couplings
    for key in ("space", "mu2", "b", "potential"):
        del config[key]
    cfg = build_config({**config, **named})
    assert cfg.system.label == "mic-kepler"
    assert (cfg.system.potential.alpha, cfg.system.mu2) == (2.0, 0.5)


def test_config_rejects_singular_initial_state():
    # a centrifugal axis crossing at t = 0 is a configuration error
    with pytest.raises(ConfigError, match="initial state invalid"):
        cfg = base_config(b=[0.5, 0.0, 0.0])
        cfg["initial"] = {"cartesian": {"q": [0.0, 1.0, 1.0],
                                        "p": [0.1, 0.2, 0.3]}}
        build_config(cfg)
    with pytest.raises(ConfigError, match="initial state invalid"):
        build_config(base_config(space={"id": "hyperbolic"}))  # |q| > 1


def test_config_accepts_dotless_exponent_strings():
    # PyYAML reads 1e-12 (no dot) as a string; the loader must coerce it
    cfg = build_config(base_config(integrator={"rtol": "1e-12"}))
    assert cfg.rtol == 1e-12


def test_config_spherical_initial_state():
    from qmsflow.coords import SphericalPhaseState, to_cartesian
    data = base_config()
    data["initial"] = {"spherical": {"r": 1.5, "theta": [0.7, 1.1],
                                     "p_r": 0.4, "p_theta": [0.2, -0.3]}}
    cfg = build_config(data)
    expected = to_cartesian(SphericalPhaseState(1.5, [0.7, 1.1], 0.4,
                                                [0.2, -0.3]))
    assert np.allclose(cfg.initial.q, expected.q, atol=1e-15)
    assert np.allclose(cfg.initial.p, expected.p, atol=1e-15)
    with pytest.raises(ConfigError, match="exactly one of"):
        both = base_config()
        both["initial"]["spherical"] = data["initial"]["spherical"]
        build_config(both)


def test_config_validates_scalar_ranges():
    with pytest.raises(ConfigError, match="t_end"):
        build_config(base_config(t_end=0.0))
    with pytest.raises(ConfigError, match="samples"):
        build_config(base_config(samples=1))
    with pytest.raises(ConfigError, match="seed"):
        build_config(base_config(seed=-1))
    with pytest.raises(ConfigError, match="method"):
        build_config(base_config(integrator={"method": "rk4"}))
    with pytest.raises(ConfigError, match="must be a number"):
        build_config(base_config(mu2="lots"))


NONFINITE_CASES = [
    ("space:\n  f: 1 + w*r^2\n  params: {w: .inf}\n", "space.params.w"),
    ("space:\n  f: '1'\n  domain: [.inf, .inf]\n", "space.domain[0]"),
    ("space: {id: euclidean}\nmu2: .inf\n", "mu2"),
    ("space: {id: euclidean}\nb: [.nan, 0.0, 0.0]\n", "b[0]"),
    ("space: {id: euclidean}\npotential: {kc: {alpha: -.inf}}\n",
     "potential.kc.alpha"),
    ("space: {id: euclidean}\nt_end: .inf\n", "t_end"),
    ("space: {id: euclidean}\n"
     "initial: {cartesian: {q: [1.0, 0.2, 0.3], p: [.inf, 0.1, 0.2]}}\n",
     "initial.cartesian.p[0]"),
]


@pytest.mark.parametrize("text, key", NONFINITE_CASES,
                         ids=[key for _, key in NONFINITE_CASES])
def test_config_rejects_non_finite_numbers(text, key, tmp_path, capsys):
    defaults = {"potential": "potential: none\n",
                "initial": "initial: {cartesian: {q: [1.0, 0.2, 0.3], "
                           "p: [0.1, -0.2, 0.4]}}\n",
                "t_end": "t_end: 1.0\n"}
    for top, line in defaults.items():
        if f"{top}:" not in text:
            text += line
    config = tmp_path / "config.yaml"
    config.write_text(text)
    code, _, err = run_cli(capsys, "verify", "identities",
                           "--config", str(config))
    assert code == 2
    assert f"config error: {key} must be finite" in err


def test_config_accepts_an_unbounded_domain(tmp_path):
    from qmsflow.cli import load_config
    config = tmp_path / "config.yaml"
    config.write_text("space: {f: '1', domain: [0.5, .inf]}\n"
                      "potential: none\n"
                      "initial: {cartesian: {q: [1.0, 0.2, 0.3], "
                      "p: [0.1, -0.2, 0.4]}}\n"
                      "t_end: 1.0\n")
    assert load_config(str(config)).system.metric.domain == (0.5, math.inf)


def test_catalog_id_on_a_custom_f_gets_the_quadrature_green_function():
    from qmsflow.geometry import catalog_lookup
    from qmsflow.potentials import green_function, kc_potential
    cfg = build_config(base_config(
        space={"f": "2/(1+r^2)", "id": "euclidean"},
        potential={"kc": {"alpha": 1}}))
    pot, metric = cfg.system.potential, cfg.system.metric
    assert pot.provenance == "quadrature-backed"
    # U' = 1/(r^2 f) = (1 + r^2)/(2 r^2), so U(3) - U(2) = 7/12
    assert pot.u(3.0) - pot.u(2.0) == pytest.approx(7.0 / 12.0, rel=1e-9)
    for r0, r1 in ((0.5, 1.0), (1.0, 4.0)):
        quad = (green_function(metric, r1, method="quadrature")
                - green_function(metric, r0, method="quadrature"))
        assert pot.u(r1) - pot.u(r0) == pytest.approx(quad, rel=1e-9)
    # catalog spaces, and their own f under their own id, keep the closed form
    for mid in CATALOG:
        assert kc_potential(catalog_lookup(mid), 1.0).provenance \
            == "closed-form-catalog"
    cfg = build_config(base_config(space={"f": "2/(1 + r^2)", "id": "spherical"},
                                   potential={"kc": {"alpha": 1}}))
    assert cfg.system.potential.provenance == "closed-form-catalog"


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        from qmsflow.cli import load_config
        load_config(str(tmp_path / "missing.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("space: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        from qmsflow.cli import load_config
        load_config(str(bad))


# -- simulate ---------------------------------------------------------------

def test_simulate_circular_kepler_returns_after_one_period(tmp_path, capsys):
    config = tmp_path / "kepler.yaml"
    config.write_text(KEPLER_YAML)
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(capsys, "simulate", "--config", str(config),
                         "--out", str(out_dir))
    assert code == 0
    lines = (out_dir / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,q1,q2,q3,p1,p2,p3,H,Cl2,Cl3,Cr2"
    assert len(lines) == 42
    data = np.loadtxt(str(out_dir / "trajectory.csv"), delimiter=",",
                      skiprows=1)
    first, last = data[0], data[-1]
    assert np.abs(last[1:7] - first[1:7]).max() <= 1e-8  # q and p return
    energy = data[:, 7]
    assert np.abs(energy - energy[0]).max() <= 1e-11
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["conservation"]["pass"] is True
    assert summary["dimension"] == 3


def test_simulate_writes_17_significant_digits(tmp_path, capsys):
    config = tmp_path / "kepler.yaml"
    config.write_text(KEPLER_YAML)
    out_dir = tmp_path / "run"
    run_cli(capsys, "simulate", "--config", str(config), "--out", str(out_dir))
    lines = (out_dir / "trajectory.csv").read_text().splitlines()
    cell = lines[-1].split(",")[0]  # final time stamp, an irrational value
    assert cell == "%.17g" % 6.283185307179586
    assert float(cell) == 6.283185307179586


def test_simulate_named_system_conserves_everything(tmp_path, capsys):
    config = tmp_path / "mic.yaml"
    config.write_text(MIC_KEPLER_YAML)
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(capsys, "simulate", "--config", str(config),
                         "--out", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["system"] == "mic-kepler"
    drifts = [v["drift"]
              for v in summary["conservation"]["quantities"].values()]
    assert max(drifts) <= 1e-8


def test_simulate_singular_axis_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    config.write_text(
        "space: {id: euclidean}\n"
        "potential: none\n"
        "b: [0.5, 0.0, 0.0]\n"
        "initial:\n"
        "  cartesian: {q: [0.0, 1.0, 1.0], p: [0.1, 0.2, 0.3]}\n"
        "t_end: 1.0\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(config))
    assert code == 2
    assert "config error" in err


def test_simulate_quadrature_failure_is_a_config_error(tmp_path, capsys):
    # f has a near-zero at r = 2, so the quadrature-backed green function of
    # this custom space diverges while the kc potential is built
    config = tmp_path / "divergent.yaml"
    config.write_text(
        "space: {f: \"1e-12 + (r-2)^2\"}\n"
        "potential: {kc: {alpha: 1.0}}\n"
        "initial:\n"
        "  cartesian: {q: [1.0, 0.3, 0.4], p: [-0.1, 0.5, 0.2]}\n"
        "t_end: 1.0\n")
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                           "--out", str(out_dir))
    assert code == 2
    assert err.startswith("config error: potential.kc: green function on")
    assert not (out_dir / "trajectory.csv").exists()


QUADRATURE_YAML = """\
space: {f: "1/(1 + 0.2*r^2)"}
potential: {kc: {alpha: 1.0}}
initial:
  cartesian: {q: [%s, 0.0, 0.0], p: [2.0, 0.1, 0.0]}
t_end: 1.0
samples: 101
"""


def test_simulate_quadrature_failure_at_the_initial_state(
        tmp_path, capsys, fail_quadrature_between):
    fail_quadrature_between(0.6, 1.0)
    config = tmp_path / "run.yaml"
    config.write_text(QUADRATURE_YAML % "0.7")
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                           "--out", str(out_dir))
    assert code == 2
    assert err.startswith("config error: initial state invalid: green function")
    assert not (out_dir / "trajectory.csv").exists()


def test_simulate_oscillator_at_its_anchor_is_a_config_error(tmp_path, capsys):
    # the quadrature-backed U vanishes at its anchor r0 = 1, where the
    # oscillator beta/U^2 is singular: r0 lies outside the potential's domain
    config = tmp_path / "run.yaml"
    config.write_text(QUADRATURE_YAML.replace("kc: {alpha: 1.0}",
                                              "oscillator: {beta: 0.01}") % "1.0")
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                           "--out", str(out_dir))
    assert code == 2
    assert err.startswith("config error: initial state invalid: |q| = 1 outside")
    assert not (out_dir / "trajectory.csv").exists()


@pytest.mark.parametrize("potential, q0, expected", [
    # U overflows at the radii its derivative is spot-checked at
    ('{u: "exp(exp(r))"}', 1.0, "potential.custom: potential (user-supplied): not evaluable"),
    # U is fine at the spot checks but overflows at the initial |q| = 6.65
    ('{u: "exp(exp(r))", domain: [0.0, 6.7]}', 6.65, "initial state invalid: "),
    # U divides by zero everywhere
    ('{u: "1/(r-r)"}', 1.0, "potential.custom: potential (user-supplied): not evaluable"),
], ids=["overflow-at-spot-check", "overflow-at-initial-state", "pole-everywhere"])
def test_simulate_custom_potential_arithmetic_error_is_a_config_error(
        tmp_path, capsys, potential, q0, expected):
    config = tmp_path / "run.yaml"
    config.write_text(
        "space: {id: euclidean}\n"
        f"potential: {{custom: {potential}}}\n"
        "initial:\n"
        f"  cartesian: {{q: [{q0}, 0.0, 0.0], p: [0.0, 0.5, 0.0]}}\n"
        "t_end: 1.0\n")
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                           "--out", str(out_dir))
    assert code == 2
    assert err.startswith(f"config error: {expected}"), err
    assert not (out_dir / "trajectory.csv").exists()


def test_simulate_overflowing_initial_slope_halts_with_partial_output(tmp_path, capsys):
    # U' overflows the slope norm of the initial-step estimate (H itself is
    # finite), which then takes a zero first step, as scipy's does; the step
    # cannot grow from there, so the run halts at t = 0 with the initial row
    config = tmp_path / "run.yaml"
    config.write_text(
        "space: {id: euclidean}\n"
        'potential: {custom: {u: "exp(exp(r))", domain: [0.0, 6.7]}}\n'
        "initial:\n"
        "  cartesian: {q: [6.3, 0.0, 0.0], p: [0.0, 0.5, 0.0]}\n"
        "t_end: 1.0\n")
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                           "--out", str(out_dir))
    assert code == 3
    assert "integration halted: step-size underflow" in err
    data = np.loadtxt(str(out_dir / "trajectory.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    assert data.shape[0] == 1
    assert data[0, :7].tolist() == [0.0, 6.3, 0.0, 0.0, 0.0, 0.5, 0.0]
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["conservation"]["halted"].startswith("step-size underflow")
    assert summary["conservation"]["samples"] == 1


def test_simulate_quadrature_failure_in_the_audit_flushes_partial_output(
        tmp_path, capsys, fail_quadrature_between):
    fail_quadrature_between(0.6, 1.0)
    config = tmp_path / "run.yaml"
    config.write_text(QUADRATURE_YAML % "0.5")
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                           "--out", str(out_dir))
    assert code == 3
    assert "integration halted: quadrature failed: green function" in err
    data = np.loadtxt(str(out_dir / "trajectory.csv"), delimiter=",",
                      skiprows=1)
    assert 2 <= data.shape[0] < 101
    assert np.all(np.linalg.norm(data[:, 1:4], axis=1) < 0.6)
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["conservation"]["halted"].startswith("quadrature failed:")
    assert summary["conservation"]["samples"] == data.shape[0]


def test_simulate_domain_exit_flushes_partial_output(tmp_path, capsys):
    config = tmp_path / "strip.yaml"
    config.write_text(STRIP_YAML)
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                           "--out", str(out_dir))
    assert code == 3
    assert "halted" in err
    data = np.loadtxt(str(out_dir / "trajectory.csv"), delimiter=",",
                      skiprows=1)
    assert data.shape[0] >= 2
    final_radius = math.hypot(*data[-1][1:4])
    assert final_radius == pytest.approx(2.0, abs=1e-6)
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["conservation"]["halted"] == "domain-exit"


def test_simulate_midpoint_axis_halt_flushes_partial_output(tmp_path, capsys):
    # the midpoint run of test_midpoint_halt_on_singular_axis through the CLI:
    # the third step lands within the axis guard of q_1 = 0
    config = tmp_path / "axis.yaml"
    config.write_text(
        "space: {id: euclidean}\n"
        "potential: none\n"
        "b: [1.0e-30, 0.0, 0.0]\n"
        "initial:\n"
        "  cartesian: {q: [3.0e-3, 0.6, 0.8], p: [-1.0, 0.0, 0.0]}\n"
        "integrator: {method: midpoint, step: 1.0e-3}\n"
        "t_end: 1.0\n")
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                           "--out", str(out_dir))
    assert code == 3
    assert "integration halted: singular-axis" in err
    data = np.loadtxt(str(out_dir / "trajectory.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    assert data[-1][0] == pytest.approx(2e-3, rel=1e-12)
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["conservation"]["halted"] == "singular-axis"
    # the steps kept, not the third one that was discarded
    assert summary["conservation"]["stats"]["steps"] == 2


def test_simulate_fixed_point_stall_flushes_partial_output(
        tmp_path, capsys, monkeypatch):
    # the run of tests/test_dynamics.py::_kepler_midpoint_stall through the
    # CLI: one fixed-point pass per step never converges, so step 1 stalls
    # and only the initial state is written
    monkeypatch.setattr(cli, "integrate",
                        functools.partial(dynamics.integrate, max_fp_iter=1))
    config = tmp_path / "stall.yaml"
    config.write_text(
        "space: {id: euclidean}\n"
        "potential:\n"
        "  kc: {alpha: 1.0}\n"
        "mu2: 0.0\n"
        "initial:\n"
        "  cartesian: {q: [1.0, 0.3, 0.4], p: [-0.1, 0.5, 0.2]}\n"
        "integrator: {method: midpoint}\n"
        "t_end: 1.0\n")
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                           "--out", str(out_dir))
    assert code == 3
    assert "integration halted: fixed-point iteration stalled" in err
    data = np.loadtxt(str(out_dir / "trajectory.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    assert data.shape[0] == 1 and data[0][0] == 0.0
    conservation = json.loads((out_dir / "summary.json").read_text())["conservation"]
    assert conservation["halted"] == "fixed-point iteration stalled"
    assert conservation["stats"]["steps"] == 0


def test_simulate_adaptive_axis_halt_flushes_partial_output(tmp_path, capsys):
    # the adaptive run of test_halt_near_centrifugal_axis through the CLI:
    # attractive b_1 < 0 pulls q_1 onto the singular axis before t_end
    config = tmp_path / "axis.yaml"
    config.write_text(
        "space: {id: euclidean}\n"
        "potential: none\n"
        "b: [-0.5, 0.0, 0.0]\n"
        "initial:\n"
        "  cartesian: {q: [1.0, 0.8, 0.6], p: [-0.6, 0.0, 0.0]}\n"
        "t_end: 5.0\n")
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                           "--out", str(out_dir))
    assert code == 3
    assert "integration halted:" in err
    halted = json.loads((out_dir / "summary.json").read_text())[
        "conservation"]["halted"]
    assert halted == "singular-axis" or halted.startswith("step-size underflow")
    data = np.loadtxt(str(out_dir / "trajectory.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    assert 2 <= data.shape[0] < 201
    assert data[-1][0] < 5.0
    assert abs(data[-1][1]) < 1e-6


def test_simulate_summary_is_byte_deterministic(tmp_path, capsys):
    config = tmp_path / "kepler.yaml"
    config.write_text(KEPLER_YAML.replace("6.283185307179586", "1.0"))
    texts = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, _, _ = run_cli(capsys, "simulate", "--config", str(config),
                             "--out", str(out_dir))
        assert code == 0
        texts.append((out_dir / "summary.json").read_bytes()
                     + (out_dir / "trajectory.csv").read_bytes())
    assert texts[0] == texts[1]


def test_simulate_out_naming_a_file_is_a_config_error(tmp_path, capsys, monkeypatch):
    # the output directory is made before integrating; a regular file in
    # its place is a configuration error (exit 2), and nothing is written
    config = tmp_path / "kepler.yaml"
    config.write_text(KEPLER_YAML)
    (tmp_path / "afile").write_text("keep\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "integrate", None)  # never reached
    code, out, err = run_cli(capsys, "simulate", "--config", str(config), "--out", "afile")
    assert code == 2
    assert out == ""
    assert err.startswith("config error: cannot write 'afile'")
    assert (tmp_path / "afile").read_text() == "keep\n"
    assert sorted(os.listdir(tmp_path)) == ["afile", "kepler.yaml"]


def test_simulate_unwritable_output_file_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "kepler.yaml"
    config.write_text(KEPLER_YAML.replace("6.283185307179586", "0.5"))
    (tmp_path / "run" / "summary.json").mkdir(parents=True)
    code, out, err = run_cli(capsys, "simulate", "--config", str(config),
                             "--out", str(tmp_path / "run"))
    assert code == 2
    assert out == ""
    assert "config error: cannot write" in err and "summary.json" in err


def test_simulate_midpoint_method_from_config(tmp_path, capsys):
    config = tmp_path / "mid.yaml"
    config.write_text(
        "space: {id: euclidean}\n"
        "potential: {kc: {alpha: 1.0}}\n"
        "initial:\n"
        "  cartesian: {q: [1.0, 0.0, 0.0], p: [0.0, 1.0, 0.0]}\n"
        "integrator: {method: midpoint, step: 1.0e-3}\n"
        "t_end: 2.0\n"
        "samples: 21\n")
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(capsys, "simulate", "--config", str(config),
                         "--out", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["conservation"]["method"] == "midpoint"
    assert summary["conservation"]["pass"] is True


# -- verify -----------------------------------------------------------------

@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_suites_pass_with_default_settings(suite, capsys):
    code, out, _ = run_cli(capsys, "verify", suite)
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == suite
    assert report["pass"] is True
    assert report["seed"] == 42
    assert len(report["checks"]) >= 1
    for check in report["checks"]:
        assert check["pass"] is True
        assert check["points"] > 0
        assert check["max_residual"] <= check["tolerance"]


def test_verify_at_n2_lists_only_checks_with_points(tmp_path, capsys):
    # at N = 2 there are no index triples for so(n) closure and each tower
    # has one member, so those checks have nothing to check and are left out
    config = tmp_path / "n2.yaml"
    config.write_text("space: {id: euclidean}\npotential: none\n"
                      "initial: {cartesian: {q: [1.0, 0.2], p: [0.1, -0.2]}}\n"
                      "t_end: 1.0\nseed: 1\n")
    listed = {}
    for suite in VERIFY_SUITES:
        code, out, _ = run_cli(capsys, "verify", suite, "--config", str(config))
        report = json.loads(out)
        assert code == 0 and report["dimension"] == 2
        assert report["checks"], suite
        for check in report["checks"]:
            assert check["points"] > 0, (suite, check["check"])
        listed[suite] = [check["check"] for check in report["checks"]]
    assert listed["brackets"] == ["sl2-closure"]
    assert listed["involution"] == ["hamiltonian-vs-integrals"]


# sha256 over the JSON reports of seeds 1..4, each recorded on the code
# before a change it guards: brackets, independence and involution before
# the suites pushed all their sampled states through one stencil call,
# coords and green before the column chart and the kept potential builds
REPORT_PINS = {
    ("brackets", 2): "bdbc631f8605bd6d2212414e0e9e388cd92f581cab7e39df4a597542f692300f",
    ("brackets", 3): "b307918e9abff0cdb62dd11dcc41b07a41a53743720f4c1277f68e27854b6ed2",
    ("brackets", 4): "9363c0dc7e3446101ed1ddb0c478584f201d5bd0b14c4ca21ea330dbb180168f",
    ("brackets", 5): "3ed3e328749cdd38388af9482c4b5d40981987d1ad38843e76784f178fa42ec2",
    ("independence", 2): "7199158a79681803f7010463969f91ba09df9b49691459fe13f0bb916fc7b18f",
    ("independence", 3): "ece5d0fe21152e76361785d211f0a2959063ccfa07d02767542b46afcc93be19",
    ("independence", 4): "0ecd12546e98cab240cd39667691ca7dfef24f592fb1fd739d121aa2eddbf218",
    ("independence", 5): "8224d49910716c6d3ab9031b91de3dbf91497509f06109ada4d1c476eb6b3603",
    ("involution", 2): "85777bc0873700e123959903a883f6fa0f49a27dad846d876a1c49b979b71c90",
    ("involution", 3): "fa0cf7e1a9f91abf1db3a772633014ce536d69e9219bb69f507986227ecce138",
    ("involution", 4): "9aff38c056558c1dd6f454a2889d1ddd8b410d7301b10385531ecfdd76f511af",
    ("involution", 5): "5c85247d3eb09d7d8e7573e2a4940434f28cc4cb1667b7a0d7494e847ed19139",
    ("coords", 2): "7e669c393dd7ce7d35837041f9273d875a407f29901c893f0d8ba3d921c17774",
    ("coords", 3): "88caa1ac9696675305d282d83d78daac26de8666036366a5d1524c053281937a",
    ("coords", 4): "78a5b9b47536558f2a9ee9cd9adb668a81c4231c442e437297a9fbb7fee4eb53",
    ("coords", 5): "6d52b43c849f3ea5f589d40e2654da7a2d3f06cad48265a4a561c317d79270c5",
    ("green", 3): "e49feb8180f5b10cd6acd25eff5a06070c734f4ee4265d14f79d11ba28530d18",
}


@pytest.mark.parametrize("suite, n", sorted(REPORT_PINS))
def test_verify_reports_are_pinned(suite, n):
    digest = hashlib.sha256()
    for seed in range(1, 5):
        digest.update(cli._dump_json(cli._SUITE_RUNNERS[suite](n, seed, None)).encode())
    assert digest.hexdigest() == REPORT_PINS[suite, n]


def test_reports_do_not_depend_on_kept_metric_builds(monkeypatch):
    # the green and involution suites look their spaces and potentials up
    # again on every call: fresh builds and kept ones give the same reports
    monkeypatch.setattr(geometry, "_BUILT", {})
    for build in (potentials.kc_potential, potentials.oscillator_potential):
        build.cache_clear()
    fresh = [cli._dump_json(cli._SUITE_RUNNERS[s](3, 2, None)) for s in ("green", "involution")]
    assert geometry._BUILT and potentials.oscillator_potential.cache_info().currsize
    kept = [cli._dump_json(cli._SUITE_RUNNERS[s](3, 2, None)) for s in ("green", "involution")]
    assert kept == fresh


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 2 ** 63 + 5])
def test_random_state_signs_draw_as_generator_choice(seed):
    # _SIGNS[integers(0, 2)] is the draw Generator.choice makes: the same
    # signs, and the stream goes on at the same place
    ours, theirs = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
    for n in (1, 2, 3, 6):
        for _ in range(20):
            assert cli._SIGNS[ours.integers(0, 2, size=n)].tolist() == \
                theirs.choice([-1.0, 1.0], size=n).tolist()
            assert ours.uniform() == theirs.uniform()


def _state_dump(rng) -> str:
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=np.ndarray.tolist)


def _old_state(rng, n):
    # the per-state draw of the suites before one raw block per stream
    q = rng.uniform(0.5, 1.5, n) * cli._SIGNS[rng.integers(0, 2, size=n)]
    return [*q, *rng.uniform(-2.0, 2.0, n)]


# per stream: the layout of _draw_rows, the old loop's draws for one row,
# and the suite's rows from the segments _draw_rows gives
DRAW_LAYOUTS = {
    "brackets-sl2": (lambda n: [n, -n, n, n],
                     lambda rng, n: [*_old_state(rng, n), *rng.uniform(-3.0, 3.0, n)],
                     lambda m, s, p, b: np.hstack([cli._states(m, s, p), -3.0 + 6.0 * b])),
    "states": (lambda n: [n, -n, n], _old_state, cli._states),
    "involution": (lambda n: [1, n, n, -n, n],
                   lambda rng, n: [rng.uniform(0.0, 1.0), *rng.uniform(-2.0, 2.0, n),
                                   *_old_state(rng, n)],
                   lambda mu2, b, *x: np.hstack([mu2, -2.0 + 4.0 * b, cli._states(*x)])),
    "coords-round-trip": (lambda n: [2 * n, n, -n, n],
                          lambda rng, n: [*rng.random(2 * n), *_old_state(rng, n)],
                          lambda u, *x: np.hstack([u, cli._states(*x)])),
}


@pytest.mark.parametrize("layout", sorted(DRAW_LAYOUTS))
@pytest.mark.parametrize("seed", [1, 2, 3, 7, 2 ** 63 + 5])
def test_draw_rows_gives_the_old_per_state_draws(seed, layout):
    # one raw block gives the rows the per-state loops gave, bit for bit,
    # and leaves the stream where they left it; an odd N leaves a kept half
    # to the next row and to the next call
    sizes, old_row, rows = DRAW_LAYOUTS[layout]
    ours, theirs = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
    for n in range(1, 7):
        for count in (1, 2, 7, 100):
            got = rows(*cli._draw_rows(ours, count, sizes(n)))
            want = [old_row(theirs, n) for _ in range(count)]
            assert [x.hex() for x in got.ravel()] == [float(x).hex() for x in np.ravel(want)]
            assert _state_dump(ours) == _state_dump(theirs)


@pytest.mark.parametrize("seed", [1, 7, 2 ** 63 + 5])
@pytest.mark.parametrize("sizes", [[3, -1, -2], [-3, -2], [-1, 2, -3, 1], [4], [-5], [2, -1, 1, -1]])
def test_draw_rows_is_random_and_integers_row_by_row(seed, sizes):
    # the generic contract: segment k > 0 is rng.random(k), k < 0 is
    # rng.integers(0, 2, size=-k), row after row, also from a stream that
    # holds a half before the call (held) and with two sign segments in a row
    for held in (0, 1):
        ours, theirs = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
        if held:
            ours.integers(0, 2), theirs.integers(0, 2)
        assert ours.bit_generator.state["has_uint32"] == held
        for count in (1, 2, 7, 100):
            got = cli._draw_rows(ours, count, sizes)
            want = [[theirs.random(k) if k > 0 else theirs.integers(0, 2, size=-k) for k in sizes]
                    for _ in range(count)]
            for a, segment in enumerate(got):
                assert segment.shape == (count, abs(sizes[a]))
                assert [x.hex() for x in segment.ravel()] == \
                    [float(x).hex() for row in want for x in row[a]]
            assert _state_dump(ours) == _state_dump(theirs)
        assert ours.integers(0, 2, size=5).tolist() == theirs.integers(0, 2, size=5).tolist()
        assert ours.random() == theirs.random()


class _CountedDraws:
    """A Generator, or its bit generator, that notes each method called."""

    def __init__(self, target, calls):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_calls", calls)

    def __getattr__(self, name):
        value = getattr(self._target, name)
        if name == "bit_generator":
            return _CountedDraws(value, self._calls)
        if not callable(value):
            return value

        def counted(*args, **kwargs):
            self._calls.append(name)
            return value(*args, **kwargs)
        return counted

    def __setattr__(self, name, value):
        setattr(self._target, name, value)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_each_verify_stream_makes_one_draw_call(monkeypatch, n):
    # every stream of brackets, involution, independence and coords is drawn
    # in one call (independence draws its b first), and the counted streams
    # give the same reports
    real, streams = cli._spawn, []

    def spawn(seed, count):
        rngs = [_CountedDraws(rng, []) for rng in real(seed, count)]
        streams.extend(rng._calls for rng in rngs)
        return rngs

    plain = {s: cli._dump_json(cli._SUITE_RUNNERS[s](n, 3, None)) for s in
             ("brackets", "involution", "independence", "coords")}
    monkeypatch.setattr(cli, "_spawn", spawn)
    calls = {}
    for suite in plain:
        streams.clear()
        assert cli._dump_json(cli._SUITE_RUNNERS[suite](n, 3, None)) == plain[suite]
        calls[suite] = [list(c) for c in streams]
    assert calls == {"brackets": [["random_raw"]] * 2,
                     "involution": [["random_raw"]],
                     "independence": [["uniform", "random_raw"]],
                     "coords": [["random"], ["random_raw"], ["random"], ["random"], ["random"]]}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_involution_makes_one_stencil_call_and_coords_no_per_state_call(monkeypatch, n):
    # involution puts all nine (metric, potential) groups through one
    # stencil call and one centre-value call; the coords checks go through
    # the column bodies, none through a per-state chart function
    calls = {"fd_gradient": 0, "_at": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    def per_state(*args):
        raise AssertionError("per-state call")

    monkeypatch.setattr(algebra, "fd_gradient", counted("fd_gradient", algebra.fd_gradient))
    monkeypatch.setattr(cli, "_at", counted("_at", cli._at))
    cli._suite_involution(n, 1, None)
    assert calls == {"fd_gradient": 1, "_at": 1}
    for name in ("to_cartesian", "from_cartesian", "spherical_casimir", "angular_chain",
                 "integral_set"):
        monkeypatch.setattr(cli, name, per_state)
    for name in ("to_cartesian", "from_cartesian", "spherical_casimir", "angular_chain"):
        monkeypatch.setattr(coords, name, per_state)
    assert cli._suite_coords(n, 1, None)["pass"]
    assert calls["fd_gradient"] == 2  # the canonicity check


@pytest.mark.parametrize("seed", [1, 2, 2 ** 63 + 5])
def test_charts_draw_as_per_point_uniform_calls(seed):
    # one block of random() draws gives the chart points and b that
    # per-point uniform calls give, bit for bit, and leaves the stream at
    # the same place
    ours, theirs = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
    for n in (2, 3, 4, 6):
        for b in ((), (0.3, 1.5), (0.0, 1.0)):
            x = cli._charts(ours.random((20, 3 * n if b else 2 * n)), n, b)
            for k in range(20):
                theta = theirs.uniform(0.4, 1.15, n - 1)
                r, p_r = theirs.uniform(0.6, 2.0), theirs.uniform(-2.0, 2.0)
                want = [r, *theta, p_r, *theirs.uniform(-2.0, 2.0, n - 1)]
                want += theirs.uniform(*b, n).tolist() if b else []
                assert x[:, k].tolist() == want
            assert ours.uniform() == theirs.uniform()


def test_verify_reports_are_byte_deterministic(tmp_path, capsys):
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, out, _ = run_cli(capsys, "verify", "brackets", "--seed", "7",
                               "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "verify-brackets.json").read_text() == out
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_verify_out_naming_a_file_is_a_config_error(tmp_path, capsys, monkeypatch):
    # checked before the suite runs: exit 2, no report on stdout
    (tmp_path / "afile").write_text("keep\n")
    monkeypatch.setitem(cli._SUITE_RUNNERS, "brackets", None)  # never reached
    code, out, err = run_cli(capsys, "verify", "brackets", "--out", str(tmp_path / "afile"))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: cannot write")
    assert (tmp_path / "afile").read_text() == "keep\n"


def test_verify_unwritable_report_prints_nothing(tmp_path, capsys):
    (tmp_path / "verify-green.json").mkdir()
    code, out, err = run_cli(capsys, "verify", "green", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "config error: cannot write" in err and "verify-green.json" in err


def test_verify_seed_changes_the_sampled_points(capsys):
    _, out1, _ = run_cli(capsys, "verify", "brackets", "--seed", "1")
    _, out2, _ = run_cli(capsys, "verify", "brackets", "--seed", "2")
    assert out1 != out2
    assert json.loads(out1)["seed"] == 1


def test_verify_impossible_tolerance_fails_with_exit_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "brackets", "--tol", "1e-18")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan"])
def test_verify_rejects_a_non_finite_tolerance(tol, capsys):
    code, out, err = run_cli(capsys, "verify", "brackets", f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert "config error: tol must be" in err


def test_verify_nan_residual_fails_its_check(monkeypatch, capsys):
    import qmsflow.cli as cli
    real = cli._conserved

    def nan_c2(*args):
        values = real(*args)    # H, C^(2), ...
        values[1] = np.full_like(values[1], math.nan)
        return values

    monkeypatch.setattr(cli, "_conserved", nan_c2)
    code, out, _ = run_cli(capsys, "verify", "involution")
    assert code == 1
    assert '"pass": false' in out
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert checks["integrals-in-involution"]["pass"] is False
    assert math.isnan(checks["integrals-in-involution"]["max_residual"])


def test_verify_dimension_and_seed_come_from_config(tmp_path, capsys):
    config = tmp_path / "four.yaml"
    config.write_text(
        "space: {id: euclidean}\n"
        "potential: none\n"
        "initial:\n"
        "  cartesian: {q: [1.0, 0.2, 0.3, 0.4], p: [0.1, -0.2, 0.4, 0.0]}\n"
        "t_end: 1.0\n"
        "seed: 5\n")
    code, out, _ = run_cli(capsys, "verify", "brackets",
                           "--config", str(config))
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 4
    assert report["seed"] == 5
    # an explicit --seed wins over the config seed
    code, out, _ = run_cli(capsys, "verify", "brackets",
                           "--config", str(config), "--seed", "9")
    assert json.loads(out)["seed"] == 9


# -- command-line plumbing ---------------------------------------------------

def test_usage_errors_exit_with_code_2(capsys):
    assert run_cli(capsys, )[0] == 2
    assert run_cli(capsys, "verify", "frobnicate")[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "simulate")[0] == 2  # missing --config


def _env_for_code_under_test():
    """The caller's environment with PYTHONPATH led by the tested package."""
    env = dict(os.environ)
    src = str(Path(qmsflow.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _console_script_target():
    """The ``module:attr`` target of ``qmsflow`` in ``[project.scripts]``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        scripts = tomllib.load(handle).get("project", {}).get("scripts", {})
    assert "qmsflow" in scripts, "pyproject.toml declares no qmsflow script"
    return scripts["qmsflow"]


def _write_console_script(directory, target):
    """Write the wrapper an installer generates for a console script."""
    module, _, attr = target.partition(":")
    script = directory / "qmsflow"
    script.write_text(f"#!{sys.executable}\n"
                      "import sys\n"
                      f"from {module} import {attr}\n"
                      f"sys.exit({attr}())\n")
    script.chmod(0o755)
    return script


def test_module_and_console_entry_points(tmp_path):
    env = _env_for_code_under_test()
    result = subprocess.run([sys.executable, "-m", "qmsflow.cli",
                             "catalog", "list"], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert len(result.stdout.splitlines()) == 11

    # the declared console script, run by name as an install would run it
    wrapper = _write_console_script(tmp_path, _console_script_target())
    assert shutil.which("qmsflow", path=str(tmp_path)) == str(wrapper)
    wrapper_env = dict(env, PATH=os.pathsep.join(
        filter(None, [str(tmp_path), env.get("PATH")])))
    commands = [(["qmsflow"], wrapper_env)]
    # an installed qmsflow, wherever one is on PATH
    installed = shutil.which("qmsflow")
    if installed is not None:
        commands.append(([installed], env))
    for command, command_env in commands:
        result = subprocess.run(command + ["catalog", "show", "euclidean"],
                                env=command_env, capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, (command, result.stderr)
        assert "green function" in result.stdout
