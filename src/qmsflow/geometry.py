"""Spherically symmetric metrics ds^2 = f(r)^2 (dr^2 + r^2 dOmega^2).

A space is identified by its conformal factor f(r) > 0 on an open radial
domain.  This module holds the MetricSpec record (f with exact first and
second derivatives), the built-in catalog of named spaces, and the scalar
curvature of the conformally flat metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, NoReturn

import numpy as np

from . import exprlang
from .exprlang import Expr, ExprError, compile_expr, differentiate

__all__ = [
    "MetricSpec", "MetricError", "DomainViolation", "SpaceCatalogEntry",
    "CATALOG", "catalog_lookup", "scalar_curvature", "sample_radii",
]


class MetricError(ValueError):
    """Bad metric construction: empty domain, non-positive f, or derivative
    expressions inconsistent with f."""


class DomainViolation(ValueError):
    """Radius outside the metric's open domain."""


_MARGIN = 1e-3
_BUILT: dict = {}   # MetricSpec.from_source's key -> MetricSpec, <= 64


def _outside_domain(r: float, lo: float, hi: float, id: str) -> NoReturn:
    """The DomainViolation of MetricSpec.check_domain and generated kernels."""
    raise DomainViolation(f"r = {r} outside domain ({lo}, {hi}) of metric '{id}'")


def sample_radii(domain: tuple[float, float], n: int = 64) -> np.ndarray:
    """n sample radii strictly inside an open interval.

    Bounded intervals are sampled uniformly with a relative end margin of
    _MARGIN = 1e-3; intervals unbounded above are sampled geometrically over
    three decades anchored just inside the lower end (lo * (1 + _MARGIN)).
    """
    lo, hi = domain
    if math.isinf(hi):
        start = 1e-2 if lo == 0.0 else lo * (1.0 + _MARGIN)
        stop = max(1e3, 1e3 * start)
        return np.geomspace(start, stop, n)
    width = hi - lo
    if width <= 0:
        raise MetricError(f"empty domain ({lo}, {hi})")
    return np.linspace(lo + _MARGIN * width, hi - _MARGIN * width, n)


class MetricSpec:
    """Conformal factor f(r) with derivatives and validity domain.

    Immutable after construction.  f' and f'' are derived from f with
    exprlang.differentiate.  Construction verifies f > 0 on a 64-point grid
    over the domain and spot-checks f' and f'' against central finite
    differences of f at 8 points (relative tolerance 1e-6).
    """

    def __init__(self, id: str, f_expr: Expr, params: Mapping | None = None,
                 domain: tuple[float, float] = (0.0, math.inf)):
        self.id = id
        self.f_expr = f_expr
        self.fp_expr = differentiate(f_expr)
        self.fpp_expr = differentiate(self.fp_expr)
        self.params = dict(params or {})
        lo, hi = float(domain[0]), float(domain[1])
        if not (lo >= 0.0 and hi > lo):
            raise MetricError(f"invalid domain ({lo}, {hi})")
        self.domain = (lo, hi)
        binds = {k: float(v) for k, v in self.params.items()}
        self._f = compile_expr(f_expr, binds)
        self._fp = compile_expr(self.fp_expr, binds)
        self._fpp = compile_expr(self.fpp_expr, binds)
        self._validate()

    @classmethod
    def from_source(cls, source: str, params: Mapping | None = None,
                    domain: tuple[float, float] = (0.0, math.inf),
                    id: str = "custom") -> "MetricSpec":
        """The metric of f given as source text.  A MetricSpec is immutable,
        so builds are kept by value: source, reprs of the sorted parameters
        and of the domain, and id."""
        key = (source, repr(sorted((params or {}).items())), repr(domain), id)
        if key not in _BUILT:
            if len(_BUILT) >= 64:
                _BUILT.clear()
            _BUILT[key] = cls(id, exprlang.parse(source, params=set(params or {})),
                              params=params, domain=domain)
        return _BUILT[key]

    # -- evaluation ---------------------------------------------------------

    def check_domain(self, r: float) -> None:
        lo, hi = self.domain
        if not (lo < r < hi):
            _outside_domain(r, lo, hi, self.id)

    def f(self, r: float) -> float:
        self.check_domain(r)
        return self._f(r)

    def compiled(self) -> tuple[Callable, Callable, Callable]:
        """Raw (f, f', f'') callables without the domain check, for hot loops
        whose driver enforces the domain itself."""
        return self._f, self._fp, self._fpp

    @cached_property
    def green_expr(self) -> Expr | None:
        """The catalog's closed-form Green function U(r), parsed once, or None:
        a catalog id counts only while f is the f its entry parses to under
        this metric's parameter names (any other f gets the quadrature)."""
        entry = CATALOG.get(self.id)
        if entry is None:
            return None
        names = set(self.params)
        try:
            if exprlang.parse(entry.f_source, params=names) != self.f_expr:
                return None
        except ExprError:
            return None
        return exprlang.parse(entry.green_source, params=names)

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"MetricSpec({self.id!r}, f={self.f_expr}, params=({ps}), domain={self.domain})"

    # -- construction checks --------------------------------------------------

    def _validate(self) -> None:
        def checked(name, fn):  # fn, whose errors of arithmetic or math are MetricErrors
            def call(r):
                try:
                    return fn(r)
                except (ValueError, ArithmeticError) as exc:
                    raise MetricError(
                        f"metric '{self.id}': {name}({r}) not evaluable: {exc}") from None
            return call

        f, fp, fpp = checked("f", self._f), checked("f'", self._fp), checked("f''", self._fpp)
        grid = sample_radii(self.domain, 64)
        for r in grid:
            v = f(float(r))
            if not (math.isfinite(v) and v > 0.0):
                raise MetricError(f"metric '{self.id}': f({r}) = {v} is not positive")
        # derivative consistency, central differences at 8 interior points
        for r in grid[4:60:8]:
            r = float(r)
            h = 1e-6 * max(1.0, r)
            if r - h <= self.domain[0] or r + h >= self.domain[1]:
                continue
            fd1 = (f(r + h) - f(r - h)) / (2 * h)
            sym1 = fp(r)
            if abs(fd1 - sym1) > 1e-6 * max(1.0, abs(sym1), abs(f(r))):
                raise MetricError(
                    f"metric '{self.id}': f' inconsistent with f at r={r}: "
                    f"fd={fd1}, symbolic={sym1}")
            fd2 = (fp(r + h) - fp(r - h)) / (2 * h)
            sym2 = fpp(r)
            if abs(fd2 - sym2) > 1e-6 * max(1.0, abs(sym2), abs(sym1)):
                raise MetricError(
                    f"metric '{self.id}': f'' inconsistent with f' at r={r}: "
                    f"fd={fd2}, symbolic={sym2}")


# ---------------------------------------------------------------------------
# scalar curvature
# ---------------------------------------------------------------------------

def scalar_curvature(metric: MetricSpec, r: float, n: int) -> float:
    """Scalar curvature of ds^2 = f(r)^2 dq^2 in dimension n >= 2 at radius r.

    For a conformally flat metric,

        R = -(n-1) * [ 2 f''/f + 2(n-1) f'/(r f) + (n-4) (f'/f)^2 ] / f^2 ,

    which reduces to 0 for f == 1 and to the constant n(n-1)*kappa for
    f = 2/(1+kappa r^2): the paper's statement that the sphere and the
    hyperbolic space are the constant-curvature members of the family.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    metric.check_domain(r)
    f = metric._f(r)
    fp = metric._fp(r)
    fpp = metric._fpp(r)
    u = fp / f
    return -(n - 1) * (2.0 * fpp / f + 2.0 * (n - 1) * u / r + (n - 4) * u * u) / (f * f)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceCatalogEntry:
    """A named space: f and its Green function U = int dr/(r^2 f), as sources."""

    id: str
    description: str
    f_source: str
    green_source: str
    defaults: Mapping[str, object]
    domain_note: str


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, float):
        # rational parameter supplied as a float: snap to a small denominator
        out = Fraction(v).limit_denominator(1_000_000)
        if v and not out:
            raise MetricError(f"cannot interpret {v!r} as a rational number: "
                              f"it rounds to 0 at denominators up to 10^6")
        return out
    raise MetricError(f"cannot interpret {v!r} as a rational number")


CATALOG: dict[str, SpaceCatalogEntry] = {}


def _entry(id, *fields):
    CATALOG[id] = SpaceCatalogEntry(id, *fields)


_entry("euclidean", "Flat Euclidean space", "1", "-1/r", {}, "r > 0")
_entry("spherical", "Sphere of curvature +1 in stereographic radial coordinate",
       "2/(1+r^2)", "(r^2 - 1)/r", {}, "r > 0")
_entry("hyperbolic", "Hyperbolic space of curvature -1 (Poincare ball)",
       "2/(1-r^2)", "-(r^2 + 1)/r", {}, "0 < r < 1")
_entry("darboux1", "Darboux space of type I", "sqrt(ln(r))/r", "sqrt(ln(r))", {},
       "r > 1 (f real and positive)")
_entry("darboux2", "Darboux space of type II", "sqrt(1+ln(r)^2)/(r*abs(ln(r)))",
       "sqrt(1 + ln(r)^2)", {}, "r > 1 (outer branch; the metric is also defined on 0 < r < 1)")
_entry("darboux3a", "Darboux space of type IIIa", "sqrt(1+r)/r^2", "sqrt(1 + r)", {}, "r > 0")
_entry("darboux3b", "Darboux space of type IIIb", "sqrt(k+r^2)", "sqrt(k + r^2)/r", {"k": 1.0},
       "r > 0 for k >= 0; r > sqrt(-k) for k < 0")
_entry("darboux4", "Darboux space of type IV",
       "sqrt(a+cos(ln(r)))/(r*abs(sin(ln(r))))", "sqrt(a + cos(ln(r)))", {"a": 2.0},
       "principal interval 0 < ln r < pi, shortened so that a + cos(ln r) > 0; needs a > -1")
_entry("taub-nut", "Taub-NUT space", "sqrt((4*m+r)/r)", "sqrt(4*m/r + 1)", {"m": 1.0},
       "r > 0, m > 0")
_entry("nu-fold", "nu-fold Kepler space with a != 0", "sqrt(a+b*r^(1/nu))*r^(1/(2*nu)-1)",
       "sqrt(a*r^(-(1/nu)) + b)", {"a": 1.0, "b": 1.0, "nu": Fraction(2)},
       "interval where a + b r^(1/nu) > 0; nu rational > 0")
_entry("nu-fold-a0", "nu-fold Kepler space with a = 0",
       "r^(1/nu-1)", "-r^(-(1/nu))", {"nu": Fraction(2)}, "r > 0; nu rational > 0")


def _darboux4_domain(a: float) -> tuple[float, float]:
    if a <= -1.0:
        raise MetricError(f"darboux4: empty domain, a = {a} must exceed -1")
    if a >= 1.0:
        upper = math.pi
    else:
        upper = math.acos(-a)  # a + cos(x) > 0 on (0, upper)
    return (1.0, math.exp(upper))


def _nu_fold_domain(a: float, b: float, nu: Fraction) -> tuple[float, float]:
    if a > 0 and b >= 0:
        return (0.0, math.inf)
    if not (a > 0 > b or a < 0 < b):
        raise MetricError(f"nu-fold: empty domain for a = {a}, b = {b}")
    try:
        bound = float((-a / b) ** float(nu))
    except OverflowError:
        raise MetricError(f"nu-fold: the domain bound (-a/b)^nu = ({-a / b!r})^{nu} overflows "
                          f"for a = {a}, b = {b}") from None
    return (0.0, bound) if a > 0 else (bound, math.inf)


def catalog_lookup(id: str, params: Mapping | None = None) -> MetricSpec:
    """The MetricSpec for a catalog id.

    Missing parameters take the entry's defaults.  Unknown ids and
    out-of-range parameters raise MetricError.  The build itself is
    MetricSpec.from_source's, kept by value there.
    """
    if id not in CATALOG:
        raise MetricError(f"unknown space id '{id}' (known: {', '.join(CATALOG)})")
    entry = CATALOG[id]
    values = {**entry.defaults, **(params or {})}
    unknown = set(values) - set(entry.defaults)
    if unknown:
        raise MetricError(f"space '{id}' takes no parameter(s) {sorted(unknown)}")

    if "nu" in values:
        nu = _as_fraction(values["nu"])
        if nu <= 0:
            raise MetricError(f"space '{id}': nu must be positive, got {nu}")
        values["nu"] = nu

    domain = (0.0, math.inf)
    if id == "hyperbolic":
        domain = (0.0, 1.0)
    elif id in ("darboux1", "darboux2"):
        domain = (1.0, math.inf)
    elif id == "darboux3b":
        k = float(values["k"])
        domain = (0.0, math.inf) if k >= 0 else (math.sqrt(-k), math.inf)
    elif id == "darboux4":
        domain = _darboux4_domain(float(values["a"]))
    elif id == "taub-nut":
        if float(values["m"]) <= 0:
            raise MetricError(f"taub-nut: m must be positive, got {values['m']}")
    elif id == "nu-fold":
        if float(values["a"]) == 0.0:
            raise MetricError("nu-fold requires a != 0; use 'nu-fold-a0' for a = 0")
        domain = _nu_fold_domain(float(values["a"]), float(values["b"]), values["nu"])

    return MetricSpec.from_source(entry.f_source, params=values, domain=domain, id=id)
