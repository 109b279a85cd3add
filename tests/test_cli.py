"""End-to-end tests of the command-line interface."""

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

    def nan_c2(sys_spec, q, p):
        values = real(sys_spec, q, p)    # H, C^(2), ...
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
