"""Self-test of the benchmark harness (not of qmsflow).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  * a smoke-sized run of every workload prints every end-to-end metric of
    BENCHMARK.json, with its unit, and finds no failed op;
  * two traced smoke runs with the same seed give identical exact counts and
    print every per-layer metric with its unit;
  * forced failures (a verify op with a tolerance no residual meets, an
    orbit that leaves the domain, a missing config) are counted as failed
    ops without stopping the run;
  * without the program's sources the benchmark exits non-zero and prints
    no result.
Exits 0 when every check passes.  Takes about two minutes on 2 cores.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(result, declared):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"metrics differ: {sorted(set(got) ^ set(want))}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)


def check_smoke_runs():
    for workload in workloads.WORKLOADS:
        result = result_of(bench(workload, 11, 0))
        expect_metrics(result, SPEC["end_to_end"])
        assert result["correct"] and result["failed"] == 0, result
        assert set(result) == {"correct", "attempted", "failed", "metrics"}


def check_traced_counts_repeat():
    for workload in workloads.WORKLOADS:
        first, second = (result_of(bench(workload, 12, 1)) for _ in range(2))
        expect_metrics(first, SPEC["per_layer"])
        for name in tracing.EXACT_COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            assert a == b, f"{workload}: {name} {a} != {b}"


def check_forced_failures():
    import run
    modules = run.import_program()
    workdir = str(BENCH_DIR / ".work" / f"selftest-{os.getpid()}")
    try:
        ops = workloads.make_ops("flow-midpoint", 13, workdir)
        bad_tol = workloads.make_ops("verify", 13, workdir)[0]
        bad_tol.argv += ["--tol", "1e-300"]
        exit_path = os.path.join(workdir, "domain-exit.yaml")
        workloads.write_yaml(exit_path, {
            "space": {"f": "1", "domain": [0.0, 2.0]}, "potential": "none",
            "initial": {"cartesian": {"q": [1.0, 0.5, 0.5],
                                      "p": [1.0, 0.2, 0.2]}},
            "t_end": 5.0, "samples": 11})
        domain_exit = workloads.Op(
            "domain-exit", ["simulate", "--config", exit_path, "--out",
                            os.path.join(workdir, "out-exit")],
            "simulate", 3, samples=11, drift_limit=1e-7,
            outdir=os.path.join(workdir, "out-exit"))
        missing = workloads.Op(
            "missing-config", ["simulate", "--config",
                               os.path.join(workdir, "absent.yaml"),
                               "--out", os.path.join(workdir, "out-absent")],
            "simulate", 3, samples=11, drift_limit=1e-7,
            outdir=os.path.join(workdir, "out-absent"))
        results = run.run_round(modules["cli"],
                                ops + [bad_tol, domain_exit, missing])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [op.label for op, _, _, err in results if err is not None]
    assert failed == [bad_tol.label, "domain-exit", "missing-config"], failed
    assert "exit code 1" in results[-3][3], results[-3]
    assert "exit code 3" in results[-2][3], results[-2]
    metrics = run.end_to_end(results, 1.0, 90)
    assert metrics["ok_frac"][0] == len(ops) / (len(ops) + 3), metrics


def check_no_sources_fails():
    bare = BENCH_DIR / ".work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("flow-adaptive", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.returncode
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    checks = [check_smoke_runs, check_traced_counts_repeat,
              check_forced_failures, check_no_sources_fails]
    failed = 0
    for check in checks:
        try:
            check()
            print(f"PASS {check.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
