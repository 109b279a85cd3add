"""Command-line interface: catalog inspection, simulation, verification.

Commands
--------
``catalog list``
    All built-in space ids, one per line.
``catalog show ID``
    Warp factor, domain, parameters, green function and the derived
    potential/monopole/centrifugal formulas for one space.
``simulate --config PATH [--out DIR]``
    Integrate the configured system.  Writes ``trajectory.csv`` (time,
    coordinates, momenta, energy and the universal integrals, 17 significant
    digits per value) and ``summary.json`` (conservation drifts) into the
    output directory.
``verify SUITE [--config PATH] [--seed U64] [--tol FLOAT] [--out DIR]``
    Run one of the self-verification suites (brackets, involution,
    independence, coords, identities, green) and print a JSON report.

Exit codes: 0 success, 1 verification failure, 2 configuration error
(including bad command lines and invalid initial states), 3 integration
failure (the partial trajectory and summary are still written).

Configuration files are YAML; unknown keys anywhere in the file are errors.
All randomness in the verify suites derives from the single seed through
per-check spawned streams of a counter-based generator (Philox), so reports
are byte-identical across runs given the same config and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations

import numpy as np
import yaml

from .algebra import (
    PhaseState,
    SingularStateError,
    _check_b,
    _towers,
    independence_rank,
    poisson_bracket,
    sl2_columns,
    so_n_columns,
)
from .algebra import fd_gradient  # noqa: F401  (perfbench/tracing.py wraps it by this name)
from .algebra import integral_set  # noqa: F401  (perfbench/tracing.py wraps it by this name)
from .coords import (
    ChartError,
    SphericalPhaseState,
    angular_chain_columns,
    from_cartesian_columns,
    radial_hamiltonian,
    spherical_casimir_columns,
    to_cartesian,
    to_cartesian_columns,
)
from .coords import angular_chain  # noqa: F401  (perfbench/tracing.py wraps it by this name)
from .coords import from_cartesian  # noqa: F401  (perfbench/tracing.py wraps it by this name)
from .coords import spherical_casimir  # noqa: F401  (perfbench/tracing.py wraps it by this name)
from .dynamics import _audit, _check_domain, conservation_report, hamiltonian, integrate
from .exprlang import ExprError
from .geometry import (
    CATALOG,
    DomainViolation,
    MetricError,
    MetricSpec,
    catalog_lookup,
    sample_radii,
)
from .potentials import (
    PotentialError,
    PotentialSpec,
    QuadratureError,
    SystemSpec,
    decomposition_identities,
    green_function,
    kc_potential,
    named_system,
    oscillator_potential,
)

__all__ = ["ConfigError", "RunConfig", "build_config", "load_config", "main",
           "VERIFY_SUITES"]

VERIFY_SUITES = ("brackets", "involution", "independence", "coords",
                 "identities", "green")


class ConfigError(ValueError):
    """A configuration file or command line is malformed or inconsistent."""


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------

_MISSING = object()


class _Section:
    """Mapping view that tracks consumed keys; leftovers are errors."""

    def __init__(self, node, where: str):
        if node is None:
            node = {}
        if not isinstance(node, dict):
            raise ConfigError(f"{where} must be a mapping, got {node!r}")
        self._data = dict(node)
        self.where = where

    def has(self, key: str) -> bool:
        return key in self._data

    def take(self, key: str, default=_MISSING):
        if key in self._data:
            return self._data.pop(key)
        if default is _MISSING:
            raise ConfigError(f"{self.where}: missing required key '{key}'")
        return default

    def rest(self) -> dict:
        out, self._data = self._data, {}
        return out

    def close(self) -> None:
        if self._data:
            names = ", ".join(sorted(map(str, self._data)))
            raise ConfigError(f"{self.where}: unknown key(s): {names}")


def _as_float(value, where: str) -> float:
    # PyYAML resolves dot-less exponent literals such as 1e-10 as strings
    # (the YAML 1.1 float pattern requires a dot), so numeric strings count.
    number = None
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except ValueError:
            pass
    if number is None:
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


def _as_int(value, where: str) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            pass
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _as_vector(value, where: str, length: int | None = None) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    vec = [_as_float(v, f"{where}[{i}]") for i, v in enumerate(value)]
    if length is not None and len(vec) != length:
        raise ConfigError(f"{where} must have length {length}, got {len(vec)}")
    return vec


def _param_map(node, where: str) -> dict:
    """Parameter bindings; integers stay exact (some, like nu, are used as
    rationals), everything else becomes a float."""
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping, got {node!r}")
    out = {}
    for key, value in node.items():
        name = _as_str(key, where)
        if isinstance(value, int) and not isinstance(value, bool):
            out[name] = value
        else:
            out[name] = _as_float(value, f"{where}.{name}")
    return out


def _as_domain(node, where: str) -> tuple[float, float]:
    # an upper end of .inf leaves the domain unbounded; no other number in a
    # config may be infinite
    if (isinstance(node, (list, tuple)) and len(node) == 2
            and node[1] == math.inf):
        lo, hi = _as_float(node[0], f"{where}[0]"), math.inf
    else:
        lo, hi = _as_vector(node, where, length=2)
    if not lo < hi:
        raise ConfigError(f"{where} must satisfy lo < hi, got ({lo}, {hi})")
    return lo, hi


def _build_metric(node) -> MetricSpec:
    sec = _Section(node, "space")
    if sec.has("id") and not sec.has("f"):
        mid = _as_str(sec.take("id"), "space.id")
        params = _param_map(sec.take("params", None), "space.params")
        sec.close()
        try:
            return catalog_lookup(mid, params)
        except MetricError as exc:
            raise ConfigError(str(exc)) from exc
    source = _as_str(sec.take("f"), "space.f")
    mid = _as_str(sec.take("id", "custom"), "space.id")
    params = _param_map(sec.take("params", None), "space.params")
    domain = (0.0, math.inf)
    if sec.has("domain"):
        domain = _as_domain(sec.take("domain"), "space.domain")
    sec.close()
    try:
        return MetricSpec.from_source(source, params=params, domain=domain,
                                      id=mid)
    except (ExprError, MetricError, ValueError) as exc:
        raise ConfigError(f"space.f: {exc}") from exc


_POTENTIAL_KINDS = ("kc", "oscillator", "shifted-oscillator", "custom",
                    "named-system")


def _potential_clause(node):
    """Split the potential entry into (kind, section); kind 'none' has no
    section.  Exactly one clause must be present."""
    if node is None or node == "none":
        return "none", None
    if isinstance(node, str):
        raise ConfigError(
            f"potential: unknown kind {node!r} (use 'none' or one of: "
            + ", ".join(_POTENTIAL_KINDS) + ")")
    if not isinstance(node, dict) or len(node) != 1:
        raise ConfigError(
            "potential must be 'none' or a mapping with exactly one clause")
    kind, body = next(iter(node.items()))
    if kind not in _POTENTIAL_KINDS:
        raise ConfigError(
            f"potential: unknown kind {kind!r} (use 'none' or one of: "
            + ", ".join(_POTENTIAL_KINDS) + ")")
    return kind, _Section(body, f"potential.{kind}")


def _build_potential(kind: str, clause, metric: MetricSpec):
    if kind == "none":
        return None
    try:
        if kind == "kc":
            alpha = _as_float(clause.take("alpha"), "potential.kc.alpha")
            clause.close()
            return kc_potential(metric, alpha)
        if kind == "oscillator":
            beta = _as_float(clause.take("beta"), "potential.oscillator.beta")
            clause.close()
            return oscillator_potential(metric, beta)
        if kind == "shifted-oscillator":
            beta = _as_float(clause.take("beta"),
                             "potential.shifted-oscillator.beta")
            gamma = _as_float(clause.take("gamma"),
                              "potential.shifted-oscillator.gamma")
            clause.close()
            return oscillator_potential(metric, beta, gamma)
        # custom
        source = _as_str(clause.take("u"), "potential.custom.u")
        params = _param_map(clause.take("params", None),
                            "potential.custom.params")
        domain = (0.0, math.inf)
        if clause.has("domain"):
            domain = _as_domain(clause.take("domain"),
                                "potential.custom.domain")
        clause.close()
        return PotentialSpec.from_expr(source, params=params, domain=domain)
    except (ExprError, PotentialError, QuadratureError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"potential.{kind}: {exc}") from exc


def _build_initial(node) -> PhaseState:
    sec = _Section(node, "initial")
    if sec.has("cartesian") == sec.has("spherical"):
        raise ConfigError(
            "initial must contain exactly one of 'cartesian' or 'spherical'")
    if sec.has("cartesian"):
        cart = _Section(sec.take("cartesian"), "initial.cartesian")
        q = _as_vector(cart.take("q"), "initial.cartesian.q")
        p = _as_vector(cart.take("p"), "initial.cartesian.p", length=len(q))
        cart.close()
        sec.close()
        try:
            return PhaseState(q, p)
        except ValueError as exc:
            raise ConfigError(f"initial.cartesian: {exc}") from exc
    sph = _Section(sec.take("spherical"), "initial.spherical")
    r = _as_float(sph.take("r"), "initial.spherical.r")
    theta = _as_vector(sph.take("theta"), "initial.spherical.theta")
    p_r = _as_float(sph.take("p_r"), "initial.spherical.p_r")
    p_theta = _as_vector(sph.take("p_theta"), "initial.spherical.p_theta",
                         length=len(theta))
    sph.close()
    sec.close()
    try:
        return to_cartesian(SphericalPhaseState(r, theta, p_r, p_theta))
    except (ChartError, ValueError) as exc:
        raise ConfigError(f"initial.spherical: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run: system, initial state, integrator settings."""

    system: SystemSpec
    initial: PhaseState
    t_end: float
    method: str = "adaptive"
    rtol: float = 1e-10
    atol: float = 1e-12
    step: float = 1e-3
    samples: int = 201
    seed: int = 42
    outdir: str | None = None


def build_config(data) -> RunConfig:
    """Validate a parsed configuration mapping and assemble the run."""
    top = _Section(data, "config")
    dimension = top.take("dimension", None)
    space_node = top.take("space", None)
    potential_node = top.take("potential")
    mu2_node = top.take("mu2", None)
    b_node = top.take("b", None)
    initial_node = top.take("initial")
    integ_node = top.take("integrator", None)
    t_end = _as_float(top.take("t_end"), "t_end")
    samples = _as_int(top.take("samples", 201), "samples")
    seed = _as_int(top.take("seed", 42), "seed")
    output_node = top.take("output", None)
    top.close()

    if dimension is not None:
        dimension = _as_int(dimension, "dimension")
    state0 = _build_initial(initial_node)

    kind, clause = _potential_clause(potential_node)
    if kind == "named-system":
        for key, value in (("space", space_node), ("mu2", mu2_node),
                           ("b", b_node)):
            if value is not None:
                raise ConfigError(
                    f"potential.named-system defines the whole system; "
                    f"remove the '{key}' key")
        sid = _as_str(clause.take("id"), "potential.named-system.id")
        params = {}
        for key, value in clause.rest().items():
            name = _as_str(key, "potential.named-system")
            where = f"potential.named-system.{name}"
            if name == "centrifugal":
                params[name] = _as_vector(value, where)
            elif name == "n":
                params[name] = _as_int(value, where)
            elif isinstance(value, int) and not isinstance(value, bool):
                params[name] = value
            else:
                params[name] = _as_float(value, where)
        if dimension is not None:
            if "n" in params and params["n"] != dimension:
                raise ConfigError(
                    f"dimension = {dimension} conflicts with "
                    f"potential.named-system.n = {params['n']}")
            params["n"] = dimension
        try:
            system = named_system(sid, params)
        except PotentialError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        if space_node is None:
            raise ConfigError("config: missing required key 'space'")
        metric = _build_metric(space_node)
        potential = _build_potential(kind, clause, metric)
        mu2 = 0.0 if mu2_node is None else _as_float(mu2_node, "mu2")
        b = None if b_node is None else _as_vector(b_node, "b")
        sizes = {"initial state": state0.n}
        if dimension is not None:
            sizes["dimension"] = dimension
        if b is not None:
            sizes["b"] = len(b)
        if len(set(sizes.values())) > 1:
            detail = ", ".join(f"{k}: {v}" for k, v in sizes.items())
            raise ConfigError(f"inconsistent dimensions ({detail})")
        try:
            system = SystemSpec(metric, potential, mu2, b=b, n=state0.n)
        except PotentialError as exc:
            raise ConfigError(str(exc)) from exc

    if system.n != state0.n:
        raise ConfigError(f"initial state has dimension {state0.n} but the "
                          f"system has dimension {system.n}")

    integ = _Section(integ_node, "integrator")
    method = _as_str(integ.take("method", "adaptive"), "integrator.method")
    if method not in ("adaptive", "midpoint"):
        raise ConfigError(
            f"integrator.method must be 'adaptive' or 'midpoint', "
            f"got {method!r}")
    rtol = _as_float(integ.take("rtol", 1e-10), "integrator.rtol")
    atol = _as_float(integ.take("atol", 1e-12), "integrator.atol")
    step = _as_float(integ.take("step", 1e-3), "integrator.step")
    integ.close()
    for name, value in (("integrator.rtol", rtol), ("integrator.atol", atol),
                        ("integrator.step", step), ("t_end", t_end)):
        if not value > 0.0:
            raise ConfigError(f"{name} must be positive, got {value}")
    if samples < 2:
        raise ConfigError(f"samples must be >= 2, got {samples}")
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(
            f"seed must fit in an unsigned 64-bit integer, got {seed}")

    out = _Section(output_node, "output")
    outdir = out.take("directory", None)
    if outdir is not None:
        outdir = _as_str(outdir, "output.directory")
    out.close()

    # the initial state must be valid for the system (inside the metric and
    # potential domains, off every centrifugal axis)
    try:
        hamiltonian(system, state0)
    except (DomainViolation, QuadratureError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"initial state invalid: {exc}") from exc

    return RunConfig(system, state0, t_end, method=method, rtol=rtol,
                     atol=atol, step=step, samples=samples, seed=seed,
                     outdir=outdir)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path!r}: {exc}") from exc
    if data is None:
        raise ConfigError(f"config {path!r} is empty")
    return build_config(data)


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------

def _json_default(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True,
                      default=_json_default) + "\n"


def _trajectory_columns(n: int) -> list:
    return (["t"]
            + [f"q{i}" for i in range(1, n + 1)]
            + [f"p{i}" for i in range(1, n + 1)]
            + ["H"]
            + [f"Cl{m}" for m in range(2, n + 1)]
            + [f"Cr{m}" for m in range(2, n)])


def _make_outdir(path: str) -> None:
    """Create the output directory, before any computation; a path that
    cannot be one is a configuration error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


@contextmanager
def _output(path: str):
    """path opened for writing; failing to open or write it is a
    configuration error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


def _write_trajectory_csv(path: str, record, n: int) -> None:
    names = _trajectory_columns(n)
    table = np.column_stack([record.times, record.q, record.p,
                             *(record.series[name] for name in names[1 + 2 * n:])])
    row = ",".join(["%.17g"] * len(names)) + "\n"
    with _output(path) as handle:
        handle.write(",".join(names) + "\n")
        handle.writelines(row % tuple(values) for values in table.tolist())


# --------------------------------------------------------------------------
# verification suites
# --------------------------------------------------------------------------

def _spawn(seed: int, count: int) -> list:
    """One independent Philox stream per check: adding a check never shifts
    the draws of the others, and reports stay reproducible bit for bit."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.Philox(child)) for child in children]


def _draw_rows(rng, count: int, sizes) -> list:
    """count rows drawn from rng as one random_raw block, one (count, |k|)
    array per entry k of sizes, row by row: for k > 0 the floats
    rng.random(k) gives, for k < 0 the bits rng.integers(0, 2, size=-k)
    gives, bit for bit, and the stream left where those calls leave it.

    Philox's random() takes one 64-bit word, (word >> 11) * 2**-53;
    integers(0, 2) takes one 32-bit half, low half first, the high one kept
    for the next bit (in bit_generator.state as has_uint32 and uinteger,
    across rows and calls), and for a range of 2 Lemire's method gives that
    half's top bit."""
    sizes = np.asarray(sizes)
    bit = np.tile(np.repeat(sizes < 0, np.abs(sizes)), count)
    bg = rng.bit_generator
    state = bg.state
    held = state["has_uint32"]
    # g = 1, 3, 5, ... takes a new word's low half, g = 2, 4, ... the high
    # half of the word before; g = 0 is the half held at the start
    g = np.arange(bit.sum()) + 1 - held
    high = g % 2 == 0
    fetch = ~bit
    fetch[bit] = ~high
    word = np.cumsum(fetch)  # index into words, led by the held half
    words = np.concatenate([[np.uint64(state["uinteger"]) << np.uint64(32)],
                            bg.random_raw(int(word[-1]))])
    at = word[bit]
    at[high] = np.concatenate([[0], at[:-1]])[high]
    values = np.empty(len(bit))
    values[~bit] = (words[word[~bit]] >> np.uint64(11)) * 2.0 ** -53
    values[bit] = (words[at] >> np.where(high, 63, 31).astype(np.uint64)) & np.uint64(1)
    state = bg.state
    state["has_uint32"] = int(len(g) + held) % 2
    if np.any(~high):
        state["uinteger"] = int(words[at[~high][-1]] >> np.uint64(32))
    bg.state = state
    edges = np.cumsum(np.abs(sizes))
    return np.split(values.reshape(count, edges[-1]), edges[:-1], axis=1)


_SIGNS = np.array([-1.0, 1.0])


def _states(magnitude, signs, p) -> np.ndarray:
    """(S, 2N) states, rows (q, p), from the draws of _draw_rows(rng, S,
    [N, -N, N]): rng.uniform(0.5, 1.5, N) times _SIGNS[rng.integers(0, 2,
    size=N)] for q, bounded away from zero so that finite-difference stencils
    never straddle a centrifugal axis, and rng.uniform(-2.0, 2.0, N) for p."""
    return np.hstack([(0.5 + magnitude) * _SIGNS[signs.astype(int)], -2.0 + 4.0 * p])


def _charts(u: np.ndarray, n: int, b: tuple = ()) -> np.ndarray:
    """Chart points (r, theta, p_r, p_theta), sin and cos of the angles away
    from zero, with N values of b in [lo, hi) if b = (lo, hi), as 2N (+ N)
    columns from the rows of u, rng.random draws: bit for bit the per-point
    rng.uniform calls for theta, r, p_r, p_theta, b, each lo + (hi - lo) u."""
    lo, hi = np.repeat([(0.4, 1.15), (0.6, 2.0), (-2.0, 2.0), b or (0.0, 0.0)],
                       [n - 1, 1, n, n if b else 0], axis=0).T
    x = (lo + (hi - lo) * u).T
    return x[[n - 1, *range(n - 1), *range(n, len(x))]]  # r first


def _check_entry(name: str, residuals, tol: float) -> dict:
    # np.max propagates NaN, so a residual that is not a number fails
    worst = float(np.max(residuals, initial=0.0))
    return {"check": name, "points": len(residuals), "max_residual": worst,
            "tolerance": float(tol), "pass": bool(worst <= tol)}


def _report(suite: str, seed: int, n: int, checks: list) -> dict:
    # a check with no points (no index triples at N = 2, say) checked nothing
    checks = [c for c in checks if c["points"]]
    return {"suite": suite, "seed": int(seed), "dimension": int(n),
            "checks": checks, "pass": all(c["pass"] for c in checks)}


def _at(fn, x: np.ndarray) -> np.ndarray:
    """The values of the column function fn at the (S, 2N) states x, rows
    (q, p), state first."""
    n = x.shape[1] // 2
    return np.asarray(fn(list(x.T[:n]), list(x.T[n:])), dtype=float).T


def _per_row(x, q) -> np.ndarray:
    """Per-state values x repeated over each state's rows of the columns q."""
    return np.repeat(x, len(q[0]) // len(x), axis=0)


def _conserved(systems, q, p, mu2=None, b=None) -> list:
    """H, C^(2)..C^(N) from the left family and C_(2)..C_(N-1) from the
    right one (the top right member coincides with the top left one), as
    columns over the states in the N columns q and p, for one SystemSpec or
    a list of them, each owning an equal block of rows in order: its domain
    is checked once, then its f and U run row by row (u = 0.0 where it has no
    U and another has).  mu2 and b are the first system's, or columns."""
    systems = [systems] if isinstance(systems, SystemSpec) else systems
    if len(q) != systems[0].n:
        raise ValueError(f"state has dimension {len(q)}, system expects {systems[0].n}")
    r = np.sqrt(sum(x * x for x in q))
    fr, u = [], []
    for sys_spec, block in zip(systems, np.split(r, len(systems))):
        lo, hi = sys_spec.domain
        for x in block[~((lo < block) & (block < hi))][:1].tolist():  # the first row out
            _check_domain(sys_spec, x)
        f, pot, rows = sys_spec.metric.compiled()[0], sys_spec.potential, block.tolist()
        fr += [f(x) for x in rows]
        u += [0.0] * len(rows) if pot is None else [pot.u(x) for x in rows]
    u = np.array(u) if any(x.potential is not None for x in systems) else None
    series = _audit(np.transpose(q), np.transpose(p), r, np.array(fr), u,
                    systems[0].mu2 if mu2 is None else mu2, systems[0].b if b is None else b)
    return list(series.values())[:-1]


def _suite_brackets(n: int, seed: int, tol: float | None) -> dict:
    tol = 1e-5 if tol is None else tol
    rng_sl2, rng_son = _spawn(seed, 2)
    *state, b = _draw_rows(rng_sl2, 100, [n, -n, n, n])
    states, b = _states(*state), -3.0 + 6.0 * b
    # rows 0, 1, 2 are J-, J3, J+; each state's rows (its 8N stencil rows
    # or its centre row) come together, so its b repeats over them
    gens = lambda q, p: sl2_columns(q, p, _per_row(b, q).T)
    jminus, j3, jplus = _at(gens, states).T
    m = poisson_bracket(gens, gens, states)
    residuals = np.stack([abs(m[:, 1, 2] - 2.0 * jplus) / (1.0 + abs(jplus)),
                          abs(m[:, 1, 0] + 2.0 * jminus) / (1.0 + abs(jminus)),
                          abs(m[:, 0, 2] - 4.0 * j3) / (1.0 + abs(j3))], axis=1)
    checks = [_check_entry("sl2-closure", residuals.ravel(), tol)]

    row = {pair: a for a, pair in enumerate(combinations(range(n), 2))}
    states = _states(*_draw_rows(rng_son, 20, [n, -n, n]))
    m = poisson_bracket(so_n_columns, so_n_columns, states)
    v = _at(so_n_columns, states)
    ij, ik, jk = np.array([(row[i, j], row[i, k], row[j, k])
                           for i, j, k in combinations(range(n), 3)], dtype=int).reshape(-1, 3).T
    residuals = np.stack([abs(m[:, ij, ik] - v[:, jk]) / (1.0 + abs(v[:, jk])),
                          abs(m[:, ij, jk] + v[:, ik]) / (1.0 + abs(v[:, ik])),
                          abs(m[:, ik, jk] - v[:, ij]) / (1.0 + abs(v[:, ij]))], axis=-1)
    checks.append(_check_entry("so-n-closure", residuals.ravel(), tol))
    return _report("brackets", seed, n, checks)


def _suite_involution(n: int, seed: int, tol: float | None) -> dict:
    tol = 1e-5 if tol is None else tol
    (rng,) = _spawn(seed, 1)
    systems = []
    for mid in ("euclidean", "darboux3b", "taub-nut"):
        metric = catalog_lookup(mid)
        systems += [SystemSpec(metric, pot, n=n) for pot in
                    (None, kc_potential(metric, 0.7), oscillator_potential(metric, 0.4))]
    # six states per system, drawn system by system, each with its own mu2
    # and b, which come per row; all 54 go through one centre-value call and
    # one stencil call, each system giving f, U and the domain of its block
    mu2, b, *state = _draw_rows(rng, 6 * len(systems), [1, n, n, -n, n])
    mu2, b, states = mu2[:, 0], -2.0 + 4.0 * b, _states(*state)
    conserved = lambda q, p: _conserved(systems, q, p, _per_row(mu2, q), _per_row(b, q).T)
    size = np.abs(_at(conserved, states))
    m = poisson_bracket(conserved, conserved, states)
    rel = np.abs(m) / (1.0 + size[:, :, None] + size[:, None, :])
    # rows 1..N-1 hold the left family (N - 1 integrals), the rest the right
    # one (N - 2); each is involutive on its own, but the two do not commute
    (i, j), (k, h) = np.triu_indices(n - 1, 1), np.triu_indices(n - 2, 1)
    res_c = np.concatenate([rel[:, 1:n, 1:n][:, i, j].ravel(), rel[:, n:, n:][:, k, h].ravel()])
    checks = [_check_entry("hamiltonian-vs-integrals", rel[:, 0, 1:].ravel(), tol),
              _check_entry("integrals-in-involution", res_c, tol)]
    return _report("involution", seed, n, checks)


def _suite_independence(n: int, seed: int, tol: float | None) -> dict:
    # tolerance here is the allowed fraction of rank-deficient sample states
    tol = 0.05 if tol is None else tol
    (rng,) = _spawn(seed, 1)
    metric = catalog_lookup("euclidean")
    sys_spec = SystemSpec(metric, kc_potential(metric, 1.0), 0.3,
                          b=rng.uniform(0.5, 2.5, n))
    expected, trials = 2 * n - 2, 20
    states = _states(*_draw_rows(rng, trials, [n, -n, n]))
    full = int(np.sum(independence_rank(partial(_conserved, sys_spec), states)
                      >= expected))
    # every state carries the deficient fraction, so points counts states
    entry = _check_entry("jacobian-rank", [(trials - full) / trials] * trials,
                         tol)
    entry["expected_rank"] = expected
    entry["full_rank_states"] = full
    return _report("independence", seed, n, [entry])


def _suite_coords(n: int, seed: int, tol: float | None) -> dict:
    rngs = _spawn(seed, 5)
    checks = []

    # each chart point a state row (r, theta, p_r, p_theta), taken as
    # q = (r, theta) and p = (p_r, p_theta), so that poisson_bracket works
    # in the chart; rows 0..N-1 of each bracket matrix are the Cartesian q,
    # rows N..2N-1 the p
    chart = _charts(rngs[0].random((6, 2 * n)), n).T
    m = poisson_bracket(to_cartesian_columns, to_cartesian_columns, chart)
    i, j = np.triu_indices(n, 1)
    residuals = np.concatenate([np.abs(m[:, :n, n:] - np.eye(n)).ravel(),
                                np.abs(m[:, :n, :n][:, i, j]).ravel(),
                                np.abs(m[:, n:, n:][:, i, j]).ravel()])
    checks.append(_check_entry("canonicity", residuals,
                               1e-6 if tol is None else tol))

    # each check below draws its states first, in the order of one loop over
    # them, then makes one pass over their columns
    u, *state = _draw_rows(rngs[1], 20, [2 * n, n, -n, n])
    chart, cart = _charts(u, n), _states(*state).T
    x = to_cartesian_columns(list(chart[:n]), list(chart[n:]))
    y = from_cartesian_columns(list(cart[:n]), list(cart[n:]))
    residuals = [np.abs(np.array(from_cartesian_columns(x[:n], x[n:])) - chart),
                 np.abs(np.array(to_cartesian_columns(y[:n], y[n:])) - cart)]
    checks.append(_check_entry("round-trip", np.concatenate(np.max(residuals, axis=1)),
                               1e-12 if tol is None else tol))

    chart, b = np.split(_charts(rngs[2].random((20, 3 * n)), n, (0.3, 1.5)), [2 * n])
    x = to_cartesian_columns(list(chart[:n]), list(chart[n:]))
    _check_b(np.transpose(x[:n]), b)
    right = np.array(_towers(x[:n], x[n:], list(b)).right)
    sph = np.array(spherical_casimir_columns(n, chart[1:n], chart[n + 1:], b))
    checks.append(_check_entry("casimir-match", (abs(sph - right) / (1.0 + abs(right))).ravel(),
                               1e-10 if tol is None else tol))

    chart, b = np.split(_charts(rngs[3].random((20, 3 * n)), n, (0.3, 1.5)), [2 * n])
    chain = np.array(angular_chain_columns(chart[1:n], chart[n + 1:], b))
    sph = np.array(spherical_casimir_columns(n, chart[1:n], chart[n + 1:], b))
    checks.append(_check_entry("chain-consistency", (abs(chain - sph) / (1.0 + abs(sph))).ravel(),
                               1e-12 if tol is None else tol))

    metric = catalog_lookup("darboux3b")
    potential = kc_potential(metric, 0.7)
    chart, b = np.split(_charts(rngs[4].random((20, 3 * n)), n, (0.0, 1.0)), [2 * n])
    c_n = spherical_casimir_columns(n, chart[1:n], chart[n + 1:], b)[-1]
    reduced = radial_hamiltonian(chart[0], chart[n], c_n, 0.3, metric, potential)
    x = to_cartesian_columns(list(chart[:n]), list(chart[n:]))
    full = _conserved(SystemSpec(metric, potential, 0.3, n=n), x[:n], x[n:], b=b)[0]
    checks.append(_check_entry("radial-reduction", abs(reduced - full) / (1.0 + abs(full)),
                               1e-12 if tol is None else tol))
    return _report("coords", seed, n, checks)


def _suite_identities(n: int, seed: int, tol: float | None) -> dict:
    tol = 1e-10 if tol is None else tol
    (rng,) = _spawn(seed, 1)
    residuals = []
    for _ in range(20):
        # |q| = 1 is excluded by construction (one identity divides by ln r)
        if rng.random() < 0.5:
            r = rng.uniform(0.3, 0.9)
        else:
            r = rng.uniform(1.1, 3.0)
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        point = PhaseState(r * direction, rng.uniform(-2.0, 2.0, n))
        out = decomposition_identities(point, {
            "nu": float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0])),
            "a": rng.uniform(0.5, 2.0), "b": rng.uniform(0.5, 2.0),
            "c": rng.uniform(-1.0, 1.0), "d": rng.uniform(-1.0, 1.0),
            "m": rng.uniform(0.5, 2.0), "mu2": rng.uniform(0.0, 2.0),
            "beta": rng.uniform(-1.0, 1.0), "gamma": rng.uniform(-1.0, 1.0)})
        residuals.extend(out.values())
    return _report("identities", seed, n,
                   [_check_entry("decomposition-identities", residuals, tol)])


def _suite_green(n: int, seed: int, tol: float | None) -> dict:
    tol_h = 1e-7 if tol is None else tol
    tol_a = 1e-8 if tol is None else tol
    res_h, res_a = [], []
    for mid in CATALOG:
        metric = catalog_lookup(mid)
        potential = kc_potential(metric, 1.0)
        lo, hi = metric.domain

        def flux(r):
            return r * r * metric.f(r) * potential.du(r)

        # the radial laplacian prefactor 1/(r^2 f^3) grows without bound at
        # domain extremes, so the absolute bound is checked on [0.1, 10]
        window = (max(lo, 0.1), min(hi, 10.0))
        for r in sample_radii(window, 32):
            r = float(r)
            # r^2 f U' is constant for a harmonic U, so a wide step costs no
            # truncation and keeps the finite-difference rounding noise small
            h = 1e-4 * max(1.0, r)
            coarse = (flux(r + h) - flux(r - h)) / (2.0 * h)
            fine = (flux(r + 0.5 * h) - flux(r - 0.5 * h)) / h
            lap = ((4.0 * fine - coarse) / 3.0) / (r * r * metric.f(r) ** 3)
            res_h.append(abs(lap))

        fit_window = (max(lo, 0.2), min(hi, 5.0))
        radii = [float(r) for r in sample_radii(fit_window, 16)]
        closed = np.array([green_function(metric, r) for r in radii])
        quad = np.array([green_function(metric, r, method="quadrature")
                         for r in radii])
        design = np.column_stack([closed, np.ones_like(closed)])
        coef, *_ = np.linalg.lstsq(design, quad, rcond=None)
        res_a.extend(np.abs(design @ coef - quad))
    checks = [_check_entry("harmonicity", res_h, tol_h),
              _check_entry("quadrature-affine-match", res_a, tol_a)]
    return _report("green", seed, n, checks)


_SUITE_RUNNERS = {
    "brackets": _suite_brackets,
    "involution": _suite_involution,
    "independence": _suite_independence,
    "coords": _suite_coords,
    "identities": _suite_identities,
    "green": _suite_green,
}


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _format_bound(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:g}"


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for mid in CATALOG:
            print(mid)
        return 0
    mid = args.id
    if mid not in CATALOG:
        print(f"error: unknown space id {mid!r} (known: "
              + ", ".join(CATALOG) + ")", file=sys.stderr)
        return 2
    entry = CATALOG[mid]
    metric = catalog_lookup(mid)
    lo, hi = metric.domain
    form = entry.green_source
    print(f"space: {mid}")
    print(f"  {entry.description}")
    print(f"  f(r) = {entry.f_source}")
    line = f"  domain: ({_format_bound(lo)}, {_format_bound(hi)})"
    if entry.domain_note:
        line += f"  [{entry.domain_note}]"
    print(line)
    if entry.defaults:
        pairs = ", ".join(f"{k} = {v}" for k, v in entry.defaults.items())
        print(f"  parameters (defaults): {pairs}")
    print(f"  green function: U(r) = {form}")
    print(f"  kc potential: alpha * ({form})")
    print(f"  oscillator potential: beta / ({form})^2")
    print("  monopole term: mu2 / (2 f(r)^2 r^2)")
    print("  centrifugal terms: b_i / (2 f(r)^2 q_i^2)")
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    outdir = args.out if args.out is not None else (cfg.outdir or ".")
    _make_outdir(outdir)
    record = integrate(cfg.system, cfg.initial, cfg.t_end, method=cfg.method,
                       rtol=cfg.rtol, atol=cfg.atol, samples=cfg.samples,
                       step=cfg.step)
    csv_path = os.path.join(outdir, "trajectory.csv")
    _write_trajectory_csv(csv_path, record, cfg.system.n)
    summary = {
        "system": cfg.system.label,
        "dimension": cfg.system.n,
        "mu2": cfg.system.mu2,
        "b": list(cfg.system.b),
        "t_end_requested": cfg.t_end,
        "trajectory": os.path.basename(csv_path),
        "conservation": conservation_report(record),
    }
    json_path = os.path.join(outdir, "summary.json")
    with _output(json_path) as handle:
        handle.write(_dump_json(summary))
    if record.halted is not None:
        print(f"integration halted: {record.halted}", file=sys.stderr)
        print(f"partial output written to {csv_path} and {json_path}",
              file=sys.stderr)
        return 3
    print(f"wrote {csv_path} and {json_path} ({len(record.times)} samples, "
          f"t_final = {record.times[-1]:g})")
    return 0


def _cmd_verify(args) -> int:
    dimension, seed = 3, 42
    if args.config is not None:
        cfg = load_config(args.config)
        dimension, seed = cfg.system.n, cfg.seed
    if args.seed is not None:
        if not 0 <= args.seed < 2 ** 64:
            raise ConfigError(
                f"seed must fit in an unsigned 64-bit integer, got {args.seed}")
        seed = args.seed
    if args.tol is not None and not 0.0 < args.tol < math.inf:
        raise ConfigError(f"tol must be positive and finite, got {args.tol}")
    if args.out is not None:
        _make_outdir(args.out)
    report = _SUITE_RUNNERS[args.suite](dimension, seed, args.tol)
    text = _dump_json(report)
    # the file first, so that a report that cannot be written prints nothing
    if args.out is not None:
        with _output(os.path.join(args.out, f"verify-{args.suite}.json")) as handle:
            handle.write(text)
    sys.stdout.write(text)
    return 0 if report["pass"] else 1


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept: it depends on
    nothing that changes between calls of main."""
    parser = argparse.ArgumentParser(
        prog="qmsflow",
        description="Superintegrable radial systems on curved spaces: "
                    "catalog, simulation, verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="inspect the built-in space catalog")
    cat_sub = cat.add_subparsers(dest="action", required=True)
    cat_sub.add_parser("list", help="print all space ids")
    show = cat_sub.add_parser("show", help="print formulas for one space")
    show.add_argument("id", help="catalog space id")
    cat.set_defaults(func=_cmd_catalog)

    sim = sub.add_parser("simulate", help="integrate a configured system")
    sim.add_argument("--config", required=True, help="YAML configuration file")
    sim.add_argument("--out", default=None,
                     help="output directory (default: config output.directory "
                          "or the current directory)")
    sim.set_defaults(func=_cmd_simulate)

    ver = sub.add_parser("verify", help="run a self-verification suite")
    ver.add_argument("suite", choices=VERIFY_SUITES)
    ver.add_argument("--config", default=None,
                     help="optional YAML config (sets dimension and seed)")
    ver.add_argument("--seed", type=int, default=None,
                     help="override the random seed")
    ver.add_argument("--tol", type=float, default=None,
                     help="override every check tolerance in the suite")
    ver.add_argument("--out", default=None,
                     help="also write the JSON report into this directory")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, MetricError, PotentialError, ChartError, ExprError,
            SingularStateError, DomainViolation) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
