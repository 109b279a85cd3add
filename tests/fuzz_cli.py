"""Seeded fuzzing of the qmsflow command line against its exit-code contract.

Each case is one `simulate` or `verify` command on a mutated config and
mutated options, run in process through `qmsflow.cli.main`.  A case passes
when

* the run returns (no exception escapes, so no traceback is printed) with
  an exit code that README's "Exit codes" allows: 0, 2 or 3 for simulate,
  0, 1 or 2 for verify;
* exit 2 prints exactly one line, which starts with "config error: ";
* simulate exits 0 and 3 write trajectory.csv and summary.json, with as
  many rows as the summary's sample count.

A RuntimeWarning is an error here, as in the tests: it means a numpy column
computed an inf or NaN where float arithmetic would have raised.

The generator keeps every case small: a base config has N = 2 or 3,
t_end <= 2, at most 60 samples and, for the midpoint rule, at most 200
steps, and no mutation draws a larger t_end or sample count or a step that
gives more steps without being rejected.  Huge values go to couplings that
cannot make an orbit oscillate faster (mu2, b, q, p, tolerances, space
parameters, custom f), never to alpha, beta or gamma, because the adaptive
run has no step cap and a well 1e300 deep would take about 1e150 steps.

    python tests/fuzz_cli.py --cases 2000 --seed 1

runs the longer fuzz outside Tier-1 and prints its case count, and each
failing case's command, config and output.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import math
import os
import random
import sys
import tempfile
import traceback
import warnings

import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from qmsflow.cli import VERIFY_SUITES, main  # noqa: E402

_SPACES = {  # catalog id -> (params or None, radius of the initial state)
    "euclidean": (None, 1.0), "spherical": (None, 0.7), "hyperbolic": (None, 0.5),
    "darboux1": (None, 1.5), "darboux2": (None, 1.3), "darboux3a": (None, 0.8),
    "darboux3b": ({"k": 1.0}, 0.8), "darboux4": ({"a": 2.0}, 3.0),
    "taub-nut": ({"m": 1.0}, 0.9), "nu-fold": ({"a": 1.0, "b": 1.0, "nu": 2}, 0.9),
    "nu-fold-a0": ({"nu": 2}, 0.9),
}
_CUSTOM_F = ["1/(1 + 0.2*r^2)", "r^2/(r^2 + 1)", "1 + 1e200*r^2", "1/(1 + 1e200*r^2)",
             "2 + abs(r - 0.02077113925966455)", "sqrt(1e300 + r)", "exp(1e3*r)", "ln(r)"]
_CUSTOM_U = ["-1/r", "r^2", "1e300/r", "1e-300*r^2", "1/(r - 0.5)", "ln(r)", "1e200*exp(-r)",
             "sqrt(r - 2)"]
_NAMED = ["mic-kepler", "mic-kepler-spherical", "mic-kepler-hyperbolic", "taub-nut-system",
          "multifold-kepler"]
# a few shared couplings, so that most cases reuse a compiled kernel
_MU2 = [0.0, 0.3]
_B = [None, [0.05, 0.0, 0.06], [0.0, 0.02, 0.0]]

_BAD = ["abc", None, True, [], {}, [1, 2]]
_HUGE = [1e300, -1e300, 1e200]
_EDGE = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, -1.0, "1e-3"]
_POOLS = {
    "number": _BAD + _HUGE + _EDGE,
    "strength": _BAD + _EDGE + [1e6, -1e6],          # alpha, beta, gamma
    "t_end": _BAD + [math.nan, math.inf, 0.0, -1.0, 1e-300, 0.5, "1"],
    "step": _BAD + [math.nan, math.inf, 0.0, -1e-3, 1e-300, 1e300, 5.0],
    "int": _BAD + [0, 1, -1, 2.5, "3", 6],  # samples, dimension, n, nu
    "seed": _BAD + [0, -1, 2.5, "3", 2 ** 64 - 1, 2 ** 64],
}


def _vector(rng, n, scale):
    return [round(rng.uniform(-scale, scale), 6) for _ in range(n)]


def _initial(rng, n, r0):
    q = [rng.uniform(0.4, 1.0) * rng.choice((-1.0, 1.0)) for _ in range(n)]
    norm = math.sqrt(sum(x * x for x in q))
    q = [round(r0 * x / norm, 6) for x in q]
    p = _vector(rng, n, 0.5)
    if rng.random() < 0.15:
        theta = [round(rng.uniform(0.3, 2.8), 6) for _ in range(n - 1)]
        return {"spherical": {"r": r0, "theta": theta, "p_r": p[0], "p_theta": p[1:]}}
    return {"cartesian": {"q": q, "p": p}}


def base_config(rng):
    """A valid simulate config of a small run, before mutation."""
    n = rng.choice((2, 3))
    cfg = {"dimension": n}
    kind = rng.random()
    if kind < 0.2:
        name = rng.choice(_NAMED)
        clause = {"id": name, "mu2": rng.choice(_MU2)}
        if rng.random() < 0.5:
            clause["centrifugal"] = [0.05, 0.02, 0.06][:n]
        if name.startswith("mic-kepler"):
            clause["alpha"] = 1.0
        cfg["potential"] = {"named-system": clause}
        r0 = 0.6
    else:
        if kind < 0.75:
            mid = rng.choice(sorted(_SPACES))
            params, r0 = _SPACES[mid]
            cfg["space"] = {"id": mid} if params is None else {"id": mid, "params": dict(params)}
        else:
            cfg["space"] = {"f": rng.choice(_CUSTOM_F)}
            if rng.random() < 0.3:
                cfg["space"]["domain"] = [0.5, 3.0]
            r0 = 1.0
        cfg["potential"] = rng.choice([
            "none", {"kc": {"alpha": rng.choice((1.0, -0.5, 2.0))}},
            {"oscillator": {"beta": rng.choice((0.5, 1.0))}},
            {"shifted-oscillator": {"beta": 0.5, "gamma": 0.3}},
            {"custom": {"u": rng.choice(_CUSTOM_U)}}])
        cfg["mu2"] = rng.choice(_MU2)
        b = rng.choice(_B)
        if b is not None:
            cfg["b"] = b[:n]
    cfg["initial"] = _initial(rng, n, r0)
    method = "midpoint" if rng.random() < 0.3 else "adaptive"
    t_end = rng.choice((0.1, 0.5, 1.0, 2.0))
    integ = {"method": method}
    if method == "midpoint":
        integ["step"] = rng.choice((0.01, 0.02, 0.05))
    else:
        integ["rtol"] = rng.choice((1e-10, 1e-6, 1e-3, 0.1, 0.3, 0.5))
        integ["atol"] = rng.choice((1e-12, 1e-8))
    cfg["integrator"] = integ
    cfg["t_end"] = t_end
    cfg["samples"] = rng.choice((2, 5, 21, 60))
    return cfg


def _pool(key):
    if key in ("alpha", "beta", "gamma"):
        return _POOLS["strength"]
    if key in ("t_end", "step", "seed"):
        return _POOLS[key]
    if key in ("samples", "dimension", "n", "nu"):
        return _POOLS["int"]
    return _POOLS["number"]


def _slots(node, path=()):
    """(path, key) of every entry of the nested dicts and lists of node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _slots(value, path + (key,))


def mutate(rng, cfg):
    """cfg with one to three entries replaced, dropped or added."""
    cfg = copy.deepcopy(cfg)
    for _ in range(rng.choice((1, 1, 2, 3))):
        slots = list(_slots(cfg))
        path, key = rng.choice(slots)
        parent = cfg
        for step in path:
            parent = parent[step]
        name = key if isinstance(key, str) else (path[-1] if path else "")
        roll = rng.random()
        if roll < 0.08 and isinstance(parent, dict):
            del parent[key]
            continue
        if roll < 0.12 and isinstance(parent, dict):
            key, pool = "unknown_key", [1.0]
        elif name in ("f", "u"):
            pool = _CUSTOM_F if name == "f" else _CUSTOM_U + _BAD
        elif name == "method":
            pool = ["adaptive", "midpoint", "rk4", None, 3]
        elif name == "id":
            pool = sorted(_SPACES) + _NAMED + ["nowhere", 7]
        else:
            pool = _pool(name)
        parent[key] = copy.deepcopy(rng.choice(pool))  # a pool's own [] or {} stays empty
    return cfg


def make_case(rng):
    """(argv, config or None): one command with its config, mutated."""
    if rng.random() < 0.3:
        argv = ["verify", rng.choice(VERIFY_SUITES)]
        cfg = None
        if rng.random() < 0.7:
            cfg = base_config(rng)
            cfg["seed"] = rng.randrange(2 ** 32)
            if rng.random() < 0.7:
                cfg = mutate(rng, cfg)
        if rng.random() < 0.4:
            argv.append(f"--seed={rng.choice([-1, 0, 7, 2 ** 64 - 1, 2 ** 64])}")
        if rng.random() < 0.4:
            argv.append("--tol=" + rng.choice(["nan", "inf", "-inf", "0", "-1", "1e300", "1e-300",
                                               "1e-3"]))
        return argv, cfg
    cfg = base_config(rng)
    if rng.random() < 0.6:
        cfg = mutate(rng, cfg)
    return ["simulate"], cfg


def run_case(argv, cfg, workdir):
    """Run one case in process; return its exit code (None if it raised)
    and a description of each breach of the contract."""
    os.makedirs(workdir)
    argv = list(argv)
    if cfg is not None:
        path = os.path.join(workdir, "run.yaml")
        with open(path, "w", encoding="utf-8") as handle:
            yaml.safe_dump(cfg, handle, sort_keys=False)
        argv += ["--config", path]
    out_dir = os.path.join(workdir, "out")
    argv += ["--out", out_dir]
    out, err = io.StringIO(), io.StringIO()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
    except Exception as exc:  # a traceback: the breach this gate looks for
        return None, [f"raised {type(exc).__name__}: {exc}\n{traceback.format_exc()}"]
    problems = []
    allowed = (0, 2, 3) if argv[0] == "simulate" else (0, 1, 2)
    if code not in allowed:
        problems.append(f"exit {code}, not one of {allowed}")
    if "Traceback" in err.getvalue():
        problems.append("a traceback on stderr")
    if code == 2:
        lines = err.getvalue().splitlines()
        if len(lines) != 1 or not lines[0].startswith("config error: "):
            problems.append(f"exit 2 printed {err.getvalue()!r}")
    if argv[0] == "simulate" and code in (0, 3):
        csv_path, json_path = (os.path.join(out_dir, name)
                               for name in ("trajectory.csv", "summary.json"))
        if not (os.path.isfile(csv_path) and os.path.isfile(json_path)):
            problems.append(f"exit {code} without both output files")
        else:
            with open(csv_path, encoding="utf-8") as handle:
                rows = sum(1 for _ in handle) - 1
            with open(json_path, encoding="utf-8") as handle:
                samples = json.load(handle)["conservation"]["samples"]
            if rows != samples:
                problems.append(f"{rows} csv rows against {samples} samples in the summary")
    return code, [f"{p}\nstdout: {out.getvalue()!r}\nstderr: {err.getvalue()!r}"
                  for p in problems]


def fuzz(seed, cases, workdir):
    """Run cases seeded cases under workdir; return (codes, failures): the
    count of cases per "command exit-code", and (index, argv, cfg, problems)
    per failing case."""
    rng = random.Random(f"qmsflow-fuzz:{seed}")
    codes, failures = {}, []
    for k in range(cases):
        argv, cfg = make_case(rng)
        code, problems = run_case(argv, cfg, os.path.join(workdir, f"case{k}"))
        key = f"{argv[0]} {code}"
        codes[key] = codes.get(key, 0) + 1
        if problems:
            failures.append((k, argv, cfg, problems))
    return codes, failures


def _main(args=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)
    opts = parser.parse_args(args)
    with tempfile.TemporaryDirectory() as workdir:
        codes, failures = fuzz(opts.seed, opts.cases, workdir)
    for k, argv, cfg, problems in failures:
        print(f"case {k}: {' '.join(argv)}\nconfig: {json.dumps(cfg)}")
        for problem in problems:
            print("  " + problem.replace("\n", "\n  "))
    print(f"{opts.cases} cases (seed {opts.seed}): {len(failures)} failed; "
          f"exit codes {dict(sorted(codes.items()))}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(_main())
