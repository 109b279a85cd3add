"""End-to-end tests of the command-line interface."""

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

DARBOUX3B_MIDPOINT_YAML = """\
space:
  id: darboux3b
potential:
  kc: {alpha: -1.0}
mu2: 0.3
b: [0.05, 0.0, 0.06]
initial:
  cartesian:
    q: [0.6, 0.55, 0.5]
    p: [0.3, -0.4, 0.25]
integrator:
  method: midpoint
  step: 1.0e-3
t_end: 1.0
samples: 51
"""

TAUB_NUT_N8_YAML = """\
dimension: 8
space:
  id: taub-nut
potential:
  oscillator: {beta: 0.5}
mu2: 0.3
b: [0.02, 0.03, 0.025, 0.015, 0.035, 0.02, 0.03, 0.025]
initial:
  cartesian:
    q: [0.5, -0.45, 0.4, 0.42, -0.38, 0.35, 0.44, -0.41]
    p: [0.1, 0.05, -0.08, 0.07, 0.02, -0.06, 0.09, 0.03]
t_end: 10.0
samples: 41
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
    # on the euclidean space the Green function is U = -1/r
    radii = (0.5, 1.0, 2.0)
    cfg = build_config(base_config(potential={"kc": {"alpha": 2.0}}))
    assert [cfg.system.potential.u(r) for r in radii] == [-4.0, -2.0, -1.0]
    cfg = build_config(base_config(potential={"oscillator": {"beta": 0.5}}))
    assert [cfg.system.potential.u(r) for r in radii] == [0.125, 0.5, 2.0]
    cfg = build_config(base_config(
        potential={"shifted-oscillator": {"beta": 0.5, "gamma": 0.3}}))
    assert [cfg.system.potential.u(r) for r in radii] == pytest.approx([0.425, 0.8, 2.3],
                                                                      rel=1e-15)
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


def _readme_yaml_blocks() -> list:
    readme = Path(__file__).resolve().parent.parent / "README.md"
    return [block.split("```")[0] for block in
            readme.read_text(encoding="utf-8").split("```yaml\n")[1:]]


def test_readme_yaml_examples_build():
    blocks = [yaml.safe_load(block) for block in _readme_yaml_blocks()]
    assert len(blocks) == 2
    config, named = blocks
    cfg = build_config(config)
    assert cfg.system.metric.id == "darboux3b" and cfg.system.n == 3
    # the named-system block stands in for the space and its couplings
    for key in ("space", "mu2", "b", "potential"):
        del config[key]
    cfg = build_config({**config, **named})
    assert cfg.system.label == "mic-kepler"
    # U = -alpha/r with alpha = 2.0
    assert [cfg.system.potential.u(r) for r in (0.5, 4.0)] == [-4.0, -0.5]
    assert cfg.system.mu2 == 0.5


def test_config_rejects_singular_initial_state():
    # a centrifugal axis crossing at t = 0 is a configuration error
    with pytest.raises(ConfigError, match="initial state invalid"):
        cfg = base_config(b=[0.5, 0.0, 0.0])
        cfg["initial"] = {"cartesian": {"q": [0.0, 1.0, 1.0],
                                        "p": [0.1, 0.2, 0.3]}}
        build_config(cfg)
    with pytest.raises(ConfigError, match="initial state invalid"):
        build_config(base_config(space={"id": "hyperbolic"}))  # |q| > 1


def test_simulate_names_the_axis_of_a_singular_initial_state(tmp_path, capsys):
    # axes count from 1, as in the trajectory.csv header q1..qN
    config = tmp_path / "run.yaml"
    config.write_text("space: {id: euclidean}\n"
                      "potential: none\n"
                      "b: [0.0, 0.5, 0.0]\n"
                      "initial:\n"
                      "  cartesian: {q: [1.0, 0.0, 0.4], p: [0.1, 0.2, 0.3]}\n"
                      "t_end: 1.0\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                           "--out", str(tmp_path / "run"))
    assert code == 2
    assert err == "config error: initial state invalid: q_2 = 0 with b_2 = 0.5 != 0\n"


def test_simulate_rejects_disjoint_space_and_potential_domains(tmp_path, capsys):
    # the hyperbolic space lives on (0, 1), the potential on (2, 3): the
    # system is at fault, not the initial state
    config = tmp_path / "run.yaml"
    config.write_text("space: {id: hyperbolic}\n"
                      "potential: {custom: {u: \"r\", domain: [2.0, 3.0]}}\n"
                      "initial:\n"
                      "  cartesian: {q: [0.5, 0.0, 0.0], p: [0.0, 0.5, 0.0]}\n"
                      "t_end: 1.0\n")
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                           "--out", str(out_dir))
    assert code == 2
    assert err == "config error: metric and potential domains do not overlap\n"
    assert not out_dir.exists()


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
    assert pot.u_expr is None  # backed by quadrature
    # U' = 1/(r^2 f) = (1 + r^2)/(2 r^2), so U(3) - U(2) = 7/12
    assert pot.u(3.0) - pot.u(2.0) == pytest.approx(7.0 / 12.0, rel=1e-9)
    for r0, r1 in ((0.5, 1.0), (1.0, 4.0)):
        quad = (green_function(metric, r1, method="quadrature")
                - green_function(metric, r0, method="quadrature"))
        assert pot.u(r1) - pot.u(r0) == pytest.approx(quad, rel=1e-9)
    # catalog spaces, and their own f under their own id, keep the closed form
    for mid in CATALOG:
        metric = catalog_lookup(mid)
        assert metric.green_expr is not None
        assert kc_potential(metric, 1.0).u_expr == metric.green_expr
    cfg = build_config(base_config(space={"f": "2/(1 + r^2)", "id": "spherical"},
                                   potential={"kc": {"alpha": 1}}))
    assert cfg.system.metric.green_expr is not None
    assert cfg.system.potential.u_expr == cfg.system.metric.green_expr


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
    ('{u: "exp(exp(r))"}', 1.0, "potential.custom: potential: not evaluable"),
    # U is fine at the spot checks but overflows at the initial |q| = 6.65
    ('{u: "exp(exp(r))", domain: [0.0, 6.7]}', 6.65, "initial state invalid: "),
    # U divides by zero everywhere
    ('{u: "1/(r-r)"}', 1.0, "potential.custom: potential: not evaluable"),
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
    # and only the initial state is written (the config builds a new
    # system, so its kernel is generated under the patched constant)
    monkeypatch.setattr(dynamics, "_MAX_FP_ITER", 1)
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


# sha256 of trajectory.csv and summary.json: the adaptive runs of the README
# config and of a domain exit, recorded before the integrator's tolerances
# became constants (the scipy oracle checks them only to 1e-9), an N = 8
# run with every b_i != 0, recorded before the kernels shared subexpressions,
# and, recorded before samples were queued and the CSV written in blocks of
# rows, the N = 8 run with 601 samples in a few steps and the domain exit
# with 841 samples before its halt
@pytest.mark.parametrize("config, code, csv_digest, json_digest", [
    (lambda: _readme_yaml_blocks()[0], 0,
     "880d2a9a0b244ba4bb03d118543ed6e9f7a3045bfd3f73be65ed40b2f29076ea",
     "588ed4429164e9b481f5d0e99043d9e5058c7e6bbbdce5dbc1ff8547fa5726e7"),
    (lambda: STRIP_YAML, 3,
     "f2ca6cd2035532e8e855f4d725addab17d8c15b3cd0b4cec2e0a287b97dab430",
     "aa0bb14779dcad1f448e16f396ab78590d9267f2a0db4f1e20926cb1d79bf3f0"),
    (lambda: TAUB_NUT_N8_YAML, 0,
     "2b84bcc570cf1e6b789ab74bfadaf18e68333fef5a99c19cd375f30d4943a3c6",
     "10e5ba0ee1220bd96b95308cdc365334c9b5117a5247b4938e31084701c65121"),
    (lambda: TAUB_NUT_N8_YAML.replace("t_end: 10.0\nsamples: 41", "t_end: 0.5\nsamples: 601"), 0,
     "d63597e387f378849b52ea35d3f1b64ca049cb9331e054c649385ce675f413b7",
     "9463e3679a0e9f97773b174287679a58b5b271fcfd1686293620c521bd36b000"),
    (lambda: STRIP_YAML + "samples: 3001\n", 3,
     "bcf6c79f2f66e67e5daae9bfee8cae4f725698b6c468fd5193b9129678b50578",
     "1c51601c6d26f5551e05de2098fd60cc4dc9a931239ff91346437d2fa706bb5a"),
], ids=["readme", "domain-exit", "taub-nut-n8", "taub-nut-n8-dense", "domain-exit-dense"])
def test_adaptive_simulate_outputs_are_pinned(tmp_path, capsys, config, code,
                                              csv_digest, json_digest):
    path = tmp_path / "run.yaml"
    path.write_text(config())
    out_dir = tmp_path / "run"
    assert run_cli(capsys, "simulate", "--config", str(path), "--out", str(out_dir))[0] == code
    assert hashlib.sha256((out_dir / "trajectory.csv").read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256((out_dir / "summary.json").read_bytes()).hexdigest() == json_digest


def test_midpoint_simulate_output_is_pinned(tmp_path, capsys):
    # darboux3b with kc and b != 0 at step 1e-3, recorded before the kernels
    # shared subexpressions
    path = tmp_path / "run.yaml"
    path.write_text(DARBOUX3B_MIDPOINT_YAML)
    out_dir = tmp_path / "run"
    assert run_cli(capsys, "simulate", "--config", str(path), "--out", str(out_dir))[0] == 0
    assert hashlib.sha256((out_dir / "trajectory.csv").read_bytes()).hexdigest() == \
        "ccc2cec4f97466d94856e59c20987720758121d759bf3a54af4184768ee8982d"
    assert hashlib.sha256((out_dir / "summary.json").read_bytes()).hexdigest() == \
        "04ef1b15a9f20b72eb8d930addc866a7aeebddd1b1a716244a057346f53afad6"


def test_midpoint_simulate_output_of_every_step_is_pinned(tmp_path, capsys):
    # the same run sampled at all 1000 steps, more samples than one column
    # pass takes, recorded before samples were queued
    path = tmp_path / "run.yaml"
    path.write_text(DARBOUX3B_MIDPOINT_YAML.replace("samples: 51", "samples: 1001"))
    out_dir = tmp_path / "run"
    assert run_cli(capsys, "simulate", "--config", str(path), "--out", str(out_dir))[0] == 0
    assert hashlib.sha256((out_dir / "trajectory.csv").read_bytes()).hexdigest() == \
        "88b12e3f85692bee42c8e8b95d50bacbed23b76177903cabed7d12044cc343f8"
    assert hashlib.sha256((out_dir / "summary.json").read_bytes()).hexdigest() == \
        "fb7d7c615f87905ed4eb91a7aa6d4efa5dcae231021de6dbf0b280185e967ac2"


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
# before a change it guards: independence before the suites pushed all
# their sampled states through one stencil call, green before the column
# chart and the kept potential builds, identities before the integrator's
# tolerances became constants; brackets, involution and coords when each
# of their streams became one plain Generator.random block, which moved
# their sampled states
REPORT_PINS = {
    ("brackets", 2): "d51c9801570b46fffe6468b9755b31086ab64b7b45672b6ae2ce2dcceacbf411",
    ("brackets", 3): "6028887d9d8373e02e103432d1b04d25b769a562e00b96a28b141b59305eb17f",
    ("brackets", 4): "b69ec1421f70348647632450adae59b6df472e43a8ea819c47e11d2c0509d386",
    ("brackets", 5): "8410c9ae20122cada8e019f4ea92f2abcea2a9bc169ee707ef45cb7b110c2364",
    ("independence", 2): "7199158a79681803f7010463969f91ba09df9b49691459fe13f0bb916fc7b18f",
    ("independence", 3): "ece5d0fe21152e76361785d211f0a2959063ccfa07d02767542b46afcc93be19",
    ("independence", 4): "0ecd12546e98cab240cd39667691ca7dfef24f592fb1fd739d121aa2eddbf218",
    ("independence", 5): "8224d49910716c6d3ab9031b91de3dbf91497509f06109ada4d1c476eb6b3603",
    ("involution", 2): "754f57fa32ff2488abc1fb3229f962459142fb6b43d3df44d11a892e23ab837b",
    ("involution", 3): "b0d6e5bd613fc7ff71b1e99334753377b16dfe596d160576b2ddb384fd63693f",
    ("involution", 4): "7fac89639be1ba92edd747999abba5c90f52ce3071cbf963cbd5080d82da3768",
    ("involution", 5): "2c0fe8fa4b657d03e35ea5740ef2072bcc2991bd0f26fac9b531232257d14154",
    ("coords", 2): "5dee78b6287230515ab6215942482cf87e790c8a5bab2f14faf766c2a23f18db",
    ("coords", 3): "17679f03bbacde547b760b651ba01edb10e0cff141504ef24e38291e28bd5d67",
    ("coords", 4): "8059283bc30d30bc6277d10f7cfc972bb2147fbf2ecd7cdde4910a0b04fd05e1",
    ("coords", 5): "b058b4cd64873dc19d597d53e323cfaed231ff3f65e13a3edfd8640cb4744775",
    ("green", 3): "e49feb8180f5b10cd6acd25eff5a06070c734f4ee4265d14f79d11ba28530d18",
    ("identities", 2): "bf99680d4eeb1d863eb67f43ea3311dc85be50a138cd35ab2532bbd4ae0cc325",
    ("identities", 3): "6d8d86b38718c62f585d474b433f3ba28cfbc18e4c5f6e58c384e8410e33946e",
    ("identities", 4): "fc51babda31bbaa728a8020d67fddb0db011fd478a677c938b366adaefa887c8",
    ("identities", 5): "fff9fa0864d442d084b17cee1c6f0c3f1874d6284c6111e5253bed51a0dcdd25",
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


@pytest.mark.parametrize("seed", [1, 7, 2 ** 63 + 5])
def test_states_draw_from_one_random_block(seed):
    # each row of an (S, 3N) random block is one state: columns 0..N-1 give
    # |q_i| = 0.5 + u, columns N..2N-1 the signs of q (negative exactly below
    # 0.5), and columns 2N..3N-1 give p_i = -2 + 4u
    rng = np.random.Generator(np.random.Philox(seed))
    for n in (1, 2, 3, 6):
        u = rng.random((50, 3 * n))
        x = cli._states(u)
        assert x.shape == (50, 2 * n)
        q, p = x[:, :n], x[:, n:]
        assert np.all((0.5 <= abs(q)) & (abs(q) < 1.5))
        np.testing.assert_array_equal(abs(q), 0.5 + u[:, :n])
        np.testing.assert_array_equal(q < 0, u[:, n:2 * n] < 0.5)
        np.testing.assert_array_equal(p, -2.0 + 4.0 * u[:, 2 * n:])
    below = np.nextafter(0.5, 0.0)
    assert cli._states(np.array([[0.0, 0.5, 0.25], [0.25, below, 0.75]])).tolist() == \
        [[0.5, -1.0], [-0.75, 1.0]]


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 2 ** 63 + 5])
def test_random_state_signs_draw_as_generator_choice(seed):
    # the sign rule of _states is the draw Generator.choice makes with
    # p = (0.5, 0.5), one random() per sign: a block gives, bit for bit, the
    # states of per-state uniform and choice calls, and the stream goes on at
    # the same place
    ours, theirs = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
    for n in (1, 2, 3, 6):
        for count in (1, 7, 20):
            got = cli._states(ours.random((count, 3 * n)))
            want = [[*theirs.uniform(0.5, 1.5, n) * theirs.choice([-1.0, 1.0], n, p=[0.5, 0.5]),
                     *theirs.uniform(-2.0, 2.0, n)] for _ in range(count)]
            assert [x.hex() for x in got.ravel()] == [float(x).hex() for x in np.ravel(want)]
            assert ours.uniform() == theirs.uniform()


class _CountedDraws:
    """A Generator that notes each method called."""

    def __init__(self, target, calls):
        self._target, self._calls = target, calls

    def __getattr__(self, name):
        value = getattr(self._target, name)
        if not callable(value):
            return value

        def counted(*args, **kwargs):
            self._calls.append(name)
            return value(*args, **kwargs)
        return counted


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
    assert calls == {"brackets": [["random"]] * 2,
                     "involution": [["random"]],
                     "independence": [["uniform", "random"]],
                     "coords": [["random"]] * 5}


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


@pytest.mark.parametrize("counts", [[1], [1, 1, 1, 1], [40], [3, 1, 17, 1, 60]])
def test_batched_interpolant_equals_per_sample_horner_sums(counts):
    # integrate evaluates the queued samples of many steps on their stacked
    # interpolant rows at once: each state is, bit for bit, the Horner sum
    # of scipy's Dop853DenseOutput in Python floats for its own step
    rng = np.random.Generator(np.random.Philox(5))
    m = 6
    rows = rng.normal(size=(len(counts), 7, m)) * 10.0 ** rng.integers(-8, 3, (len(counts), 7, 1))
    rows[0, 3, 0] = rows[-1, 0, 1] = -0.0
    y_old = rng.normal(size=(len(counts), m))
    t_old = np.cumsum(rng.random(len(counts)))
    h = rng.random(len(counts)) + 0.1
    k = np.repeat(np.arange(len(counts)), counts)
    t = t_old[k] + h[k] * np.concatenate([np.sort(rng.random(c)) for c in counts])
    t[0] = t_old[0]  # a sample at the step's start: x = 0
    x = ((t - t_old[k]) / h[k])[:, None]
    got = dynamics._interpolate(rows[k][:, ::-1], x, y_old[k])
    for j, step in enumerate(k.tolist()):
        xj = (t[j].item() - t_old[step].item()) / h[step].item()
        want = []
        for c in range(m):
            y = 0.0
            for i, row in enumerate(rows[step][::-1].tolist()):
                y = (y + row[c]) * (xj if i % 2 == 0 else 1.0 - xj)
            want.append(y + y_old[step, c].item())
        assert [v.hex() for v in got[j].tolist()] == [v.hex() for v in want]
        one = dynamics._interpolate(rows[step][::-1], x[j:j + 1], y_old[step])
        assert one.tobytes() == got[j:j + 1].tobytes()


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
