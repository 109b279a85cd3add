"""Per-layer spans and the replay probe for the traced benchmark run.

Spans are recorded at module boundaries from outside the program: for the
traced rounds only, each public function is replaced, at the name its caller
looks it up by, with a wrapper that records (name, start, end, parent, op).
The originals are put back afterwards, so untraced rounds run the program
unchanged.  A call nested inside a span of the same name is not recorded
again, so every ``*_s`` figure is the inclusive time of the outermost calls.

Calls that take about a microsecond (compiled callables, ``MetricSpec.f``,
``PotentialSpec.du``) would cost more to wrap than to run; the replay probe
times them directly on the states the traced trajectories visited.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import defaultdict
from time import perf_counter

# (module attribute, span name) for functions the callee module looks up in
# its own globals; "cli.x" means the name x inside qmsflow.cli, and so on.
_FUNCTION_SPANS = [
    ("exprlang.parse", "exprlang.parse"),
    ("geometry.differentiate", "exprlang.differentiate"),
    ("potentials.differentiate", "exprlang.differentiate"),
    ("geometry.compile_expr", "exprlang.compile"),
    ("potentials.compile_expr", "exprlang.compile"),
    ("cli.catalog_lookup", "geometry.metric_build"),
    ("potentials.catalog_lookup", "geometry.metric_build"),
    ("cli.kc_potential", "potentials.build"),
    ("cli.oscillator_potential", "potentials.build"),
    ("cli.named_system", "potentials.build"),
    ("cli.fd_gradient", "algebra.fd_gradient"),
    ("algebra.fd_gradient", "algebra.fd_gradient"),
    ("cli.poisson_bracket", "algebra.poisson_bracket"),
    ("cli.independence_rank", "algebra.independence_rank"),
    ("cli.integral_set", "algebra.integral_set"),
    ("cli.to_cartesian", "coords.chart"),
    ("cli.from_cartesian", "coords.chart"),
    ("cli.spherical_casimir", "coords.chart"),
    ("cli.angular_chain", "coords.chart"),
    ("cli.radial_hamiltonian", "coords.chart"),
    ("dynamics.hamiltonian", "dynamics.hamiltonian"),
    ("dynamics.integral_set", "dynamics.integral_set"),
    ("cli.conservation_report", "dynamics.report"),
    ("cli.load_config", "cli.load_config"),
]
_CLASSMETHOD_SPANS = [
    ("geometry", "MetricSpec", "from_source", "geometry.metric_build"),
    ("potentials", "PotentialSpec", "from_expr", "potentials.build"),
]

SUITES = ("brackets", "involution", "independence", "coords", "identities",
          "green")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "exprlang.parse_s": "s", "exprlang.parse_calls": "count",
    "exprlang.differentiate_s": "s", "exprlang.differentiate_calls": "count",
    "exprlang.compile_s": "s", "exprlang.compile_calls": "count",
    "exprlang.call_us": "us",
    "geometry.metric_build_s": "s", "geometry.metric_build_calls": "count",
    "geometry.f_checked_us": "us",
    "potentials.build_s": "s", "potentials.build_calls": "count",
    "potentials.du_us": "us",
    "potentials.quadrature_s": "s", "potentials.quadrature_calls": "count",
    "algebra.integral_set_us": "us", "algebra.integral_set_calls": "count",
    "algebra.fd_gradient_s": "s", "algebra.fd_gradient_calls": "count",
    "algebra.poisson_bracket_calls": "count",
    "algebra.independence_rank_s": "s",
    "coords.chart_s": "s", "coords.chart_calls": "count",
    "dynamics.integrate_s": "s", "dynamics.steps": "count",
    "dynamics.rhs_calls": "count", "dynamics.samples": "count",
    "dynamics.accept_ratio": "ratio", "dynamics.fp_iters_per_step": "count",
    "dynamics.step_us": "us", "dynamics.rhs_us": "us",
    "dynamics.gradient_us": "us",
    "dynamics.audit_s": "s", "dynamics.audit_us_per_sample": "us",
    "dynamics.report_s": "s", "dynamics.max_drift": "ratio",
    "cli.load_config_s": "s", "cli.write_s": "s", "cli.write_bytes": "B",
    **{f"cli.suite_s.{suite}": "s" for suite in SUITES},
    "trace.overhead_frac": "ratio",
}

# counts that must repeat exactly for the same seed
EXACT_COUNTS = tuple(name for name, unit in PER_LAYER_UNITS.items()
                     if unit == "count" and name != "dynamics.fp_iters_per_step")


class Tracer:
    """Records spans while installed; spans and trajectories stay in memory
    until the run ends."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id]
        self.trajectories = []  # (system, TrajectoryRecord)
        self.op_id = -1
        self._stack = []
        self._active = defaultdict(int)

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        if self._active[name]:
            return fn(*args, **kwargs)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._active[name] += 1
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self._active[name] -= 1

    def op(self, kind, fn, *args):
        """Run one benchmark op as the root span of a new op id."""
        self.op_id += 1
        return self.call(f"op.{kind}", fn, *args)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Install every wrapper; modules maps short names to qmsflow modules."""
        cli = modules["cli"]
        saved = []           # (owner, attribute, original)
        runners = dict(cli._SUITE_RUNNERS)
        try:
            for target, name in _FUNCTION_SPANS:
                mod, attr = target.split(".")
                owner = modules[mod]
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
            for mod, cls_name, attr, name in _CLASSMETHOD_SPANS:
                cls = getattr(modules[mod], cls_name)
                saved.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr,
                        classmethod(self._wrap(name, cls.__dict__[attr].__func__)))
            for attr, wrapper in (("integrate", self._integrate_wrapper),
                                  ("green_function", self._green_wrapper)):
                saved.append((cli, attr, getattr(cli, attr)))
                setattr(cli, attr, wrapper(getattr(cli, attr)))
            for suite, runner in runners.items():
                cli._SUITE_RUNNERS[suite] = self._wrap(f"cli.suite.{suite}",
                                                       runner)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            cli._SUITE_RUNNERS.update(runners)

    def _integrate_wrapper(self, integrate):
        def traced(system, *args, **kwargs):
            record = self.call("dynamics.integrate", integrate, system,
                               *args, **kwargs)
            self.trajectories.append((system, record))
            return record
        return traced

    def _green_wrapper(self, green_function):
        def traced(metric, r, method="auto"):
            if method == "quadrature":
                return self.call("potentials.quadrature", green_function,
                                 metric, r, method=method)
            return green_function(metric, r, method=method)
        return traced


def round_metrics(tracer: Tracer, first_span: int, first_traj: int,
                  write_bytes: int) -> dict:
    """Per-layer figures of one traced round: sums over its spans, counts
    and integrator statistics of its trajectories."""
    spans = tracer.spans[first_span:]
    total = defaultdict(float)
    calls = defaultdict(int)
    for name, t0, t1, _, _ in spans:
        total[name] += t1 - t0
        calls[name] += 1
    # cli.write_s: simulate op time not spent loading, integrating or
    # reporting (argument parsing, output directory, CSV and JSON writing)
    write = total["op.simulate"]
    for name, t0, t1, parent, _ in spans:
        if (parent >= 0 and tracer.spans[parent][0] == "op.simulate"
                and name in ("cli.load_config", "dynamics.integrate",
                             "dynamics.report")):
            write -= t1 - t0

    steps = rhs = rejections = samples = 0
    mid_steps = mid_rhs = 0
    max_drift = 0.0
    for _, rec in tracer.trajectories[first_traj:]:
        steps += rec.stats["steps"]
        rhs += rec.stats["nfev"]
        rejections += rec.stats["rejections"]
        samples += rec.times.size
        max_drift = max(max_drift, max(rec.drift.values()))
        if rec.method == "midpoint":
            mid_steps += rec.stats["steps"]
            mid_rhs += rec.stats["nfev"]

    audit = total["dynamics.hamiltonian"] + total["dynamics.integral_set"]
    stepping = total["dynamics.integrate"] - audit
    out = {
        "exprlang.parse_s": total["exprlang.parse"],
        "exprlang.parse_calls": calls["exprlang.parse"],
        "exprlang.differentiate_s": total["exprlang.differentiate"],
        "exprlang.differentiate_calls": calls["exprlang.differentiate"],
        "exprlang.compile_s": total["exprlang.compile"],
        "exprlang.compile_calls": calls["exprlang.compile"],
        "geometry.metric_build_s": total["geometry.metric_build"],
        "geometry.metric_build_calls": calls["geometry.metric_build"],
        "potentials.build_s": total["potentials.build"],
        "potentials.build_calls": calls["potentials.build"],
        "potentials.quadrature_s": total["potentials.quadrature"],
        "potentials.quadrature_calls": calls["potentials.quadrature"],
        "algebra.integral_set_calls": (calls["algebra.integral_set"]
                                       + calls["dynamics.integral_set"]),
        "algebra.fd_gradient_s": total["algebra.fd_gradient"],
        "algebra.fd_gradient_calls": calls["algebra.fd_gradient"],
        "algebra.poisson_bracket_calls": calls["algebra.poisson_bracket"],
        "algebra.independence_rank_s": total["algebra.independence_rank"],
        "coords.chart_s": total["coords.chart"],
        "coords.chart_calls": calls["coords.chart"],
        "dynamics.integrate_s": total["dynamics.integrate"],
        "dynamics.steps": steps,
        "dynamics.rhs_calls": rhs,
        "dynamics.samples": samples,
        "dynamics.accept_ratio": (steps / (steps + rejections)
                                  if steps else 0.0),
        "dynamics.fp_iters_per_step": (mid_rhs / mid_steps - 1.0
                                       if mid_steps else 0.0),
        "dynamics.step_us": stepping / steps * 1e6 if steps else 0.0,
        "dynamics.rhs_us": stepping / rhs * 1e6 if rhs else 0.0,
        "dynamics.audit_s": audit,
        "dynamics.audit_us_per_sample": (audit / samples * 1e6
                                         if samples else 0.0),
        "dynamics.report_s": total["dynamics.report"],
        "dynamics.max_drift": max_drift,
        "cli.load_config_s": total["cli.load_config"],
        "cli.write_s": write,
        "cli.write_bytes": write_bytes,
    }
    for suite in SUITES:
        out[f"cli.suite_s.{suite}"] = total[f"cli.suite.{suite}"]
    return out


def replay(trajectories, modules: dict, max_states: int = 256,
           passes: int = 5) -> dict:
    """Time the sub-microsecond layers by direct calls on recorded states.

    Takes at most max_states states, spread evenly over the trajectories of
    one traced round, and reports the median over passes of the mean time
    per call in microseconds.  Layers with nothing to replay report 0."""
    dynamics, algebra = modules["dynamics"], modules["algebra"]
    points = [(system, state) for system, rec in trajectories
              for state in rec.states]
    stride = max(1, -(-len(points) // max_states))
    points = points[::stride]
    with_potential = [(s, st) for s, st in points if s.potential is not None]

    def per_call_us(loop, count):
        if not count:
            return 0.0
        times = []
        for _ in range(passes):
            t0 = perf_counter()
            loop()
            times.append((perf_counter() - t0) / count * 1e6)
        return statistics.median(times)

    compiled = [(*s.metric.compiled()[:2], st.radius) for s, st in points]
    checked = [(s.metric, st.radius) for s, st in points]
    du = [(s.potential, st.radius) for s, st in with_potential]

    def call_compiled():
        for f, fp, r in compiled:
            f(r)
            fp(r)

    def call_checked():
        for metric, r in checked:
            metric.f(r)

    def call_du():
        for potential, r in du:
            potential.du(r)

    def call_gradient():
        for system, state in points:
            dynamics.gradient(system, state)

    def call_integral_set():
        for system, state in points:
            algebra.integral_set(state, system.b)

    return {
        "exprlang.call_us": per_call_us(call_compiled, 2 * len(compiled)),
        "geometry.f_checked_us": per_call_us(call_checked, len(checked)),
        "potentials.du_us": per_call_us(call_du, len(du)),
        "dynamics.gradient_us": per_call_us(call_gradient, len(points)),
        "algebra.integral_set_us": per_call_us(call_integral_set, len(points)),
    }


def write_spans(tracer: Tracer, path: str) -> None:
    """All recorded spans as tab-separated text, times in microseconds from
    the first span."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("op\tname\tparent\tstart_us\tend_us\n")
        for name, t0, t1, parent, op_id in tracer.spans:
            handle.write(f"{op_id}\t{name}\t{parent}\t"
                         f"{(t0 - origin) * 1e6:.1f}\t{(t1 - origin) * 1e6:.1f}\n")
