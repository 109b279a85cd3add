"""Seeded inputs for the four benchmark workloads, and the checks on every op.

A workload is a fixed list of case templates.  The seed jitters each
template's initial state, centrifugal coefficients b and monopole mu2 by a few
per cent, so every seed gives different inputs of the same cost; the program
sees only the YAML configs and verify command lines written from them.

A *round* runs every op of the workload once, in order.  Each list has an odd
number of ops, so that with whole rounds the median latency falls inside one
op's cluster of timings instead of between two clusters.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

import yaml

# Drift limits: the conservation_report default for adaptive runs, and the
# bound of test_implicit_midpoint_energy_drift_is_bounded_not_secular for the
# fixed-step midpoint rule.
ADAPTIVE_DRIFT_LIMIT = 1e-7
MIDPOINT_DRIFT_LIMIT = 1e-5

# latency_tail_s is, per workload, the highest of p99, p90 and p75 that leaves
# at least 10 ops beyond it when a 28 s run makes its fewest ops (a slow phase
# of the shared 2-core host): flow-adaptive makes 140 to 200 ops, so p90;
# flow-midpoint 75 to 125, simulate-dense 70 to 100 and verify 45 to 65, so
# p75.
TAIL_PERCENTILE = {"flow-adaptive": 90, "simulate-dense": 75,
                   "flow-midpoint": 75, "verify": 75}


@dataclass
class Op:
    """One call of the CLI and what its output must satisfy."""

    label: str
    argv: list
    kind: str                      # "simulate" or "verify"
    n: int
    samples: int = 0               # simulate: rows expected in trajectory.csv
    drift_limit: float = 0.0       # simulate: worst allowed drift
    outdir: str = ""               # simulate: where the CLI writes
    suite: str = ""                # verify
    seed: int = 0                  # verify


def _jitter(rng: random.Random, values, rel: float) -> list:
    return [float(v) * (1.0 + rel * rng.uniform(-1.0, 1.0)) for v in values]


def _system(space=None, potential=None, mu2=0.3, b=None, named=None):
    """The system part of a config: either a space with a potential clause,
    or a named system (which fixes its own space and potential)."""
    if named is not None:
        return {"named": named}
    return {"space": space, "potential": potential, "mu2": mu2, "b": b}


def _config(rng, system, q, p, t_end, samples, method="adaptive"):
    n = len(q)
    cfg = {"dimension": n}
    if "named" in system:
        named = dict(system["named"])
        named["mu2"] = _jitter(rng, [named["mu2"]], 0.1)[0]
        named["centrifugal"] = _jitter(rng, named["centrifugal"], 0.1)
        cfg["potential"] = {"named-system": named}
    else:
        cfg["space"] = system["space"]
        cfg["potential"] = system["potential"]
        cfg["mu2"] = _jitter(rng, [system["mu2"]], 0.1)[0]
        if system["b"] is not None:
            cfg["b"] = _jitter(rng, system["b"], 0.1)
    cfg["initial"] = {"cartesian": {"q": _jitter(rng, q, 0.03),
                                    "p": _jitter(rng, p, 0.03)}}
    cfg["integrator"] = ({"method": "midpoint", "step": 1e-3}
                         if method == "midpoint" else {"method": "adaptive"})
    cfg["t_end"] = t_end
    cfg["samples"] = samples
    return cfg


_B3 = [0.05, 0.08, 0.06]
_Q3 = [0.6, 0.55, 0.5]
_P3 = [0.3, -0.4, 0.25]
_P3_SLOW = [0.1, -0.15, 0.1]


def _flow_adaptive(rng):
    """N = 3, 21 samples over many orbital periods: the RHS does the work.
    Five named systems, catalog spaces with kc and oscillator potentials, and
    one custom f string; every case has mu2 != 0 and b != 0.

    t_end sizes every case but taub-nut-system to 0.14 to 0.18 s at the
    reference speed of speed.py (taub-nut-system takes about 0.05 s whatever
    its t_end: its orbit escapes and the steps grow).  With the cases alike,
    the median and the tail are taken over a crowd of about 150 ops instead
    of over the few runs of one case."""
    def named(id_, **params):
        return _system(named={"id": id_, "mu2": 0.3, "centrifugal": _B3,
                              **params})

    cases = [
        ("mic-kepler", named("mic-kepler", alpha=1.0), _Q3, _P3, 27.0),
        ("mic-kepler-spherical", named("mic-kepler-spherical", alpha=1.0),
         _Q3, _P3_SLOW, 5.0),
        ("mic-kepler-hyperbolic",
         _system(named={"id": "mic-kepler-hyperbolic", "alpha": 1.0,
                        "mu2": 0.05, "centrifugal": [0.02, 0.03, 0.02]}),
         [0.3, 0.28, 0.25], _P3, 6.3),
        ("taub-nut-system", named("taub-nut-system", m=1.0), _Q3, _P3_SLOW,
         60.0),
        ("multifold-kepler", named("multifold-kepler", nu=2, a=1.0, b=1.0,
                                   c=-0.5, d=4.0), _Q3, _P3_SLOW, 190.0),
        ("darboux3b-kc", _system({"id": "darboux3b"}, {"kc": {"alpha": -1.0}},
                                 b=_B3), _Q3, _P3, 54.0),
        ("taub-nut-oscillator",
         _system({"id": "taub-nut"}, {"oscillator": {"beta": 0.5}}, b=_B3),
         _Q3, _P3, 106.0),
        ("spherical-kc", _system({"id": "spherical"}, {"kc": {"alpha": 1.0}},
                                 b=_B3), _Q3, _P3_SLOW, 7.0),
        ("euclidean-oscillator",
         _system({"id": "euclidean"}, {"oscillator": {"beta": 1.0}}, b=_B3),
         _Q3, _P3, 11.6),
        ("darboux3a-kc", _system({"id": "darboux3a"}, {"kc": {"alpha": -1.0}},
                                 b=_B3), _Q3, _P3, 51.0),
        ("custom-f", _system({"f": "1/(1 + 0.2*r^2)"},
                             {"custom": {"u": "-1/r + 0.05*r^2"}}, b=_B3),
         _Q3, _P3, 11.0),
    ]
    return [(label, _config(rng, system, q, p, t_end, 21))
            for label, system, q, p, t_end in cases]


def _simulate_dense(rng):
    """N = 6 and N = 8, every b_i != 0, 301 samples over a short t_end, so
    samples far outnumber steps (3 to 6): the per-sample audit and the output
    do the work."""
    q8 = [0.5, -0.45, 0.4, 0.42, -0.38, 0.35, 0.44, -0.41]
    p8 = [0.1, 0.05, -0.08, 0.07, 0.02, -0.06, 0.09, 0.03]
    b8 = [0.02, 0.03, 0.025, 0.015, 0.035, 0.02, 0.03, 0.025]
    cases = [
        ("darboux3b-kc-n8", _system({"id": "darboux3b"},
                                    {"kc": {"alpha": -1.0}}, b=b8), 8),
        ("mic-kepler-n8", _system(named={"id": "mic-kepler", "alpha": 1.0,
                                         "mu2": 0.3, "centrifugal": b8}), 8),
        ("taub-nut-oscillator-n6",
         _system({"id": "taub-nut"}, {"oscillator": {"beta": 0.5}},
                 b=b8[:6]), 6),
        ("euclidean-kc-n6", _system({"id": "euclidean"},
                                    {"kc": {"alpha": 1.0}}, b=b8[:6]), 6),
        ("taub-nut-system-n6",
         _system(named={"id": "taub-nut-system", "m": 1.0, "mu2": 0.3,
                        "centrifugal": b8[:6]}), 6),
    ]
    return [(label, _config(rng, system, q8[:n], p8[:n], 0.5, 301))
            for label, system, n in cases]


def _flow_midpoint(rng):
    """N = 3, implicit midpoint with step 1e-3 and 11 samples: only this path
    runs the scalar RHS and the fixed-point loop."""
    # circular Kepler at r = 1: |p|^2 + mu2 = alpha r, p orthogonal to q; b = 0
    # because any circle crosses every coordinate plane
    q_circ = [0.6, 0.6, math.sqrt(1.0 - 0.72)]
    speed = math.sqrt(1.0 - 0.01)
    p_circ = [-speed / math.sqrt(2.0), speed / math.sqrt(2.0), 0.0]
    cases = [
        ("kepler-circular", _system({"id": "euclidean"},
                                    {"kc": {"alpha": 1.0}}, mu2=0.01),
         q_circ, p_circ),
        ("kepler-eccentric", _system(named={"id": "mic-kepler", "alpha": 1.0,
                                            "mu2": 0.3, "centrifugal": _B3}),
         _Q3, _P3),
        ("taub-nut-oscillator",
         _system({"id": "taub-nut"}, {"oscillator": {"beta": 0.5}}, b=_B3),
         _Q3, _P3),
        ("darboux3b-kc", _system({"id": "darboux3b"}, {"kc": {"alpha": -1.0}},
                                 b=_B3), _Q3, _P3),
        ("mic-kepler-hyperbolic",
         _system(named={"id": "mic-kepler-hyperbolic", "alpha": 1.0,
                        "mu2": 0.05, "centrifugal": [0.02, 0.03, 0.02]}),
         [0.3, 0.28, 0.25], _P3),
    ]
    return [(label, _config(rng, system, q, p, 4.0, 11, method="midpoint"))
            for label, system, q, p in cases]


_FLOW_CASES = {
    "flow-adaptive": _flow_adaptive,
    "simulate-dense": _simulate_dense,
    "flow-midpoint": _flow_midpoint,
}

VERIFY_SUITES = ("brackets", "involution", "independence", "coords",
                 "identities", "green")


def _verify_config(rng, n: int) -> dict:
    """A small valid config whose only job is to set the dimension."""
    q = [rng.uniform(0.5, 1.5) for _ in range(n)]
    p = [rng.uniform(-0.5, 0.5) for _ in range(n)]
    return {"space": {"id": "euclidean"}, "potential": "none",
            "initial": {"cartesian": {"q": q, "p": p}}, "t_end": 1.0}


WORKLOADS = ("flow-adaptive", "simulate-dense", "flow-midpoint", "verify")


def make_ops(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's configs under workdir and return one round of ops.

    The same (workload, seed) always gives the same configs and seeds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(known: {', '.join(WORKLOADS)})")
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    ops = []
    if workload == "verify":
        for n in (3, 4):
            path = os.path.join(workdir, f"verify-n{n}.yaml")
            write_yaml(path, _verify_config(rng, n))
            for suite in VERIFY_SUITES:
                # the green suite ignores the dimension (it sweeps the whole
                # catalog), so it runs once per round; this also keeps the
                # op count odd
                if suite == "green" and n != 3:
                    continue
                op_seed = rng.getrandbits(63)
                ops.append(Op(f"{suite}-n{n}",
                              ["verify", suite, "--config", path,
                               "--seed", str(op_seed)],
                              "verify", n, suite=suite, seed=op_seed))
        return ops
    for label, cfg in _FLOW_CASES[workload](rng):
        path = os.path.join(workdir, f"{label}.yaml")
        outdir = os.path.join(workdir, f"out-{label}")
        write_yaml(path, cfg)
        midpoint = cfg["integrator"]["method"] == "midpoint"
        ops.append(Op(label, ["simulate", "--config", path, "--out", outdir],
                      "simulate", cfg["dimension"], samples=cfg["samples"],
                      drift_limit=(MIDPOINT_DRIFT_LIMIT if midpoint
                                   else ADAPTIVE_DRIFT_LIMIT),
                      outdir=outdir))
    return ops


def write_yaml(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(data, handle, sort_keys=False)


def config_paths(ops: list) -> list:
    """The distinct config files a round of ops reads."""
    return sorted({op.argv[op.argv.index("--config") + 1] for op in ops})


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------

def trajectory_columns(n: int) -> list:
    """The trajectory.csv header the README documents."""
    return (["t"] + [f"q{i}" for i in range(1, n + 1)]
            + [f"p{i}" for i in range(1, n + 1)] + ["H"]
            + [f"Cl{m}" for m in range(2, n + 1)]
            + [f"Cr{m}" for m in range(2, n)])


def check_op(op: Op, code: int, stdout: str) -> str | None:
    """None when the op's output is correct, otherwise why it is not."""
    if code != 0:
        return f"exit code {code}"
    if op.kind == "verify":
        return _check_verify(op, stdout)
    return _check_simulate(op)


def _check_verify(op: Op, stdout: str) -> str | None:
    report = json.loads(stdout)
    if report.get("suite") != op.suite:
        return f"suite {report.get('suite')!r} != {op.suite!r}"
    if report.get("seed") != op.seed or report.get("dimension") != op.n:
        return (f"seed/dimension {report.get('seed')}/{report.get('dimension')}"
                f" != {op.seed}/{op.n}")
    if report.get("pass") is not True:
        return "report pass is not true"
    for check in report["checks"]:
        if not check["max_residual"] <= check["tolerance"]:
            return (f"{check['check']}: residual {check['max_residual']} > "
                    f"tolerance {check['tolerance']}")
    return None


def _check_simulate(op: Op) -> str | None:
    header = ",".join(trajectory_columns(op.n))
    width = len(trajectory_columns(op.n))
    with open(os.path.join(op.outdir, "trajectory.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        return "trajectory.csv header differs"
    if len(lines) - 1 != op.samples:
        return f"trajectory.csv has {len(lines) - 1} rows, expected {op.samples}"
    if any(line.count(",") != width - 1 for line in lines[1:]):
        return "trajectory.csv row with the wrong number of fields"
    with open(os.path.join(op.outdir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    cons = summary["conservation"]
    if cons["halted"] is not None:
        return f"halted: {cons['halted']}"
    worst = max(q["drift"] for q in cons["quantities"].values())
    if not worst <= op.drift_limit:
        return f"drift {worst:.3g} > {op.drift_limit:g}"
    return None
