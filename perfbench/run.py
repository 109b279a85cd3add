"""qmsflow benchmark: seeded simulate/verify workloads through the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload flow-adaptive --seed 1 --seconds 28 --trace 0

The workload's ops call ``qmsflow.cli.main`` in this process, one after the
other (a closed loop with one client).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for every metric.
"""

import os
import sys
import time

T_START = time.perf_counter()
# one process, one thread: pin the BLAS pools before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH_DIR))
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_program():
    """Import qmsflow from the checkout's own src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "qmsflow" / "cli.py").is_file():
        raise SystemExit(f"perfbench: {src / 'qmsflow'} not found; run from "
                         "a checkout of the repository")
    sys.path.insert(0, str(src))
    from qmsflow import algebra, cli, dynamics, exprlang, geometry, potentials
    if Path(cli.__file__).resolve().parent != src / "qmsflow":
        raise SystemExit(f"perfbench: imported qmsflow from {cli.__file__}, "
                         f"not from {src}")
    return {"cli": cli, "dynamics": dynamics, "algebra": algebra,
            "exprlang": exprlang, "geometry": geometry,
            "potentials": potentials}


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {"seed": seed, "commit": _git_commit(), "python":
            platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_import_seconds() -> float:
    """Import time of qmsflow.cli in a fresh interpreter, scaled to the
    reference speed by the kernel timed before and after it."""
    code = ("import time; t = time.perf_counter(); import qmsflow.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    before = speed.kernel_seconds()
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True,
                           timeout=120)
    return speed.scale(float(child.stdout), before, speed.kernel_seconds())


def setup(cli, workload: str, seed: int, workdir: str):
    """Generate the inputs and build every distinct system once through
    load_config; repeated SETUP_REPEATS times, the median of the scaled
    times is reported."""
    times = []
    before = speed.kernel_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workloads.make_ops(workload, seed, workdir)
        for path in workloads.config_paths(ops):
            cli.load_config(path)
        wall = time.perf_counter() - t0
        after = speed.kernel_seconds()
        times.append(speed.scale(wall, before, after))
        before = after
    return ops, statistics.median(times)


def run_round(cli, ops, tracer=None) -> list:
    """Run every op once; returns (op, scaled latency in s, wall latency in
    s, error or None).  The speed kernel runs between ops, outside their
    timing, and each op is scaled by the kernel times on either side."""
    gc.collect()
    results = []
    before = speed.kernel_seconds()
    for op in ops:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                if tracer is None:
                    code = cli.main(op.argv)
                else:
                    code = tracer.op(op.kind, cli.main, op.argv)
                wall = time.perf_counter() - t0
            error = workloads.check_op(op, code, out.getvalue())
        except Exception as exc:  # a failed op is counted, never fatal
            wall, error = None, f"{type(exc).__name__}: {exc}"
        after = speed.kernel_seconds()
        latency = None if wall is None else speed.scale(wall, before, after)
        results.append((op, latency, wall, error))
        before = after
    return results


def hd_quantile(values, prob: float) -> float:
    """Harrell-Davis estimate of the prob-quantile: the mean of the order
    statistics weighted by a Beta(prob (n+1), (1-prob) (n+1)) density."""
    import numpy as np
    from scipy.special import betainc
    n = len(values)
    weights = np.diff(betainc(prob * (n + 1), (1.0 - prob) * (n + 1),
                              np.arange(n + 1) / n))
    return float(np.dot(weights, sorted(values)))


def end_to_end(results, setup_s, tail_percentile) -> dict:
    latencies = [lat for _, lat, _, err in results if err is None]
    timed = sum(lat for _, lat, _, _ in results if lat is not None)
    passed = len(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Harrell-Davis quantiles: a Beta-weighted mean of all order statistics,
    # so that a percentile falling between two cases' clusters of timings
    # does not rest on the one or two ops at the edge of a cluster.  With
    # fewer than two ops passed the run has failed anyway.
    p50, tail = ((hd_quantile(latencies, 0.5),
                  hd_quantile(latencies, tail_percentile / 100))
                 if passed > 1 else (0.0, 0.0))
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (p50, "s"),
        "latency_tail_s": (tail, "s"),
        "ops_per_s": (passed / timed if timed else 0.0, "1/s"),
        "ok_frac": (passed / len(results), "ratio"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def run_untraced(cli, ops, seconds):
    """Whole rounds until the next one would overrun the time budget."""
    results = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        results += run_round(cli, ops)
        used = time.perf_counter() - t0
        if used + (time.perf_counter() - start) > seconds:
            return results


def run_traced(modules, ops, seconds, workload):
    """Alternate untraced and traced rounds, then replay; returns the
    results of every round and the per-layer metrics."""
    cli = modules["cli"]
    tracer = tracing.Tracer()
    results, untraced_walls, traced_walls, rounds = [], [], [], []
    first_trajectories = None
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        plain = run_round(cli, ops)
        first_span, first_traj = len(tracer.spans), len(tracer.trajectories)
        with tracer.installed(modules):
            traced = run_round(cli, ops, tracer)
        if first_trajectories is None:
            first_trajectories = tracer.trajectories[first_traj:]
        rounds.append(tracing.round_metrics(
            tracer, first_span, first_traj, _written_bytes(ops)))
        untraced_walls.append(sum(lat or 0.0 for _, lat, _, _ in plain))
        traced_walls.append(sum(lat or 0.0 for _, lat, _, _ in traced))
        results += plain + traced
        used = time.perf_counter() - t0
        if used + (time.perf_counter() - start) > seconds:
            break
    layer = {name: statistics.median_low(r[name] for r in rounds)
             for name in rounds[0]}
    layer.update(tracing.replay(first_trajectories, modules))
    plain_wall = statistics.median(untraced_walls)
    layer["trace.overhead_frac"] = ((statistics.median(traced_walls)
                                     - plain_wall) / plain_wall
                                    if plain_wall else 0.0)
    tracing.write_spans(tracer, BENCH_DIR / ".work" / f"spans-{workload}.tsv")
    metrics = {name: (layer[name], unit)
               for name, unit in tracing.PER_LAYER_UNITS.items()}
    return results, metrics


def _written_bytes(ops) -> int:
    """Bytes of the output files the round's simulate ops left behind."""
    paths = [os.path.join(op.outdir, name) for op in ops
             if op.kind == "simulate"
             for name in ("trajectory.csv", "summary.json")]
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = import_program()
    own_import_s = time.perf_counter() - T_START
    cli = modules["cli"]
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(workloads.WORKLOADS)})")

    workdir = str(BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}")
    # the process's own import is scaled by the kernel right after it
    speed.warm_up()
    after_import = speed.kernel_seconds()
    own_import_s = speed.scale(own_import_s, after_import, after_import)
    try:
        ops, build_s = setup(cli, args.workload, args.seed, workdir)
        if args.trace:
            results, metrics = run_traced(modules, ops, args.seconds,
                                          args.workload)
        else:
            # three imports, one of them after the timed rounds, so that
            # the median does not rest on a single phase of machine load
            imports = [own_import_s, child_import_seconds()]
            results = run_untraced(cli, ops, args.seconds)
            imports.append(child_import_seconds())
            metrics = end_to_end(results,
                                 statistics.median(imports) + build_s,
                                 workloads.TAIL_PERCENTILE[args.workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(op.label, err) for op, _, _, err in results
                if err is not None]
    walls = [wall for _, _, wall, err in results if err is None]
    for label, err in failures[:10]:
        print(f"perfbench: {label} failed: {err}", file=sys.stderr)
    report = {"workload": args.workload, "trace": args.trace,
              "ops_per_round": len(ops), "attempted": len(results),
              "failed_frac": len(failures) / len(results),
              "tail_percentile": workloads.TAIL_PERCENTILE[args.workload],
              "wall_p50_s": statistics.median(walls) if walls else None,
              "reference_kernel_s": speed.REFERENCE_S,
              "environment": environment(args.seed)}
    print(json.dumps(report))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
