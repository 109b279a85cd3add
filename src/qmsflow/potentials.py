"""Central potentials on spherically symmetric metrics.

A potential is U(r), U'(r) and the interval where U is defined (PotentialSpec).
The radial Green function

    U(r) = int^r dr' / (r'^2 f(r')),

defined up to affine constants, gives the two distinguished choices on any of
these spaces: the intrinsic Kepler-Coulomb potential alpha*U and the intrinsic
oscillator beta/U^2.  Catalog metrics carry closed forms (MetricSpec.green_expr,
constants absorbed); everything else falls back to adaptive quadrature
anchored at U(r0) = 0, r0 the domain midpoint.  The two conventions differ by
an affine map, which alpha, beta and the oscillator's shift absorb.

Also here: assembled named systems (MIC-Kepler flat/curved, Taub-NUT,
multifold Kepler) and numerical checks of the algebraic identities that the
multifold family satisfies when constants are shuffled between its terms.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from . import exprlang
from .exprlang import (BinOp, Const, Expr, Pow, Var, compile_expr, differentiate,
                       format_expr)
from .geometry import MetricSpec, _as_fraction, catalog_lookup, sample_radii

__all__ = [
    "PotentialError", "QuadratureError", "PotentialSpec", "SystemSpec",
    "green_function", "kc_potential",
    "oscillator_potential", "named_system", "decomposition_identities",
    "NAMED_SYSTEMS",
]


class PotentialError(ValueError):
    pass


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


_FD_POINTS = 8


def _metric_bindings(metric: MetricSpec) -> dict:
    return {k: float(v) for k, v in metric.params.items()}


def _anchor(domain) -> float:
    """Normalization point r0: arithmetic midpoint of a bounded domain,
    geometric midpoint (log-space) of an unbounded one."""
    lo, hi = domain
    if math.isfinite(hi):
        return 0.5 * (lo + hi)
    return 1.0 if lo == 0.0 else lo * math.e


def _fd_consistency(u: Callable, du: Callable, domain):
    # finite-difference spot check, one Richardson level, at _FD_POINTS = 8 radii,
    # on Python floats, so that a pole or an overflow raises instead of warning
    grid = sample_radii(domain, 4 * _FD_POINTS + 1)
    for r in grid[2:-2:4][:_FD_POINTS].tolist():
        h = 1e-6 * max(1.0, abs(r))
        try:
            coarse = (u(r + h) - u(r - h)) / (2 * h)
            fine = (u(r + 0.5 * h) - u(r - 0.5 * h)) / h
            ref = du(r)
        except (ValueError, ArithmeticError) as exc:
            raise PotentialError(f"potential: not evaluable near r={r}: {exc}") from None
        fd = (4.0 * fine - coarse) / 3.0
        if not abs(fd - ref) <= 1e-6 * max(1.0, abs(ref)):
            raise PotentialError(
                f"potential: derivative inconsistent with value at r={r}: "
                f"finite difference {fd!r} vs declared {ref!r}")


class PotentialSpec:
    """A central potential U(r), its derivative U'(r) and the interval of r
    it is defined on: all that the Hamiltonian takes from a potential.

    `u` and `du` are the callables themselves, on floats.  A U built from an
    expression keeps u_expr and du_expr, and `params` binds their parameters;
    the generated Hamiltonian kernels then inline du_expr instead of calling
    du.  u_expr is None for a U backed by quadrature.
    """

    def __init__(self, u: Callable, du: Callable, u_expr: Expr | None = None,
                 du_expr: Expr | None = None, params: Mapping | None = None,
                 domain=(0.0, math.inf)):
        lo, hi = float(domain[0]), float(domain[1])
        if not (lo >= 0.0 and lo < hi):
            raise PotentialError(f"invalid potential domain ({lo}, {hi})")
        self.u = u
        self.du = du
        self.u_expr = u_expr
        self.du_expr = du_expr
        self.params = dict(params or {})
        self.domain = (lo, hi)
        _fd_consistency(u, du, self.domain)

    @classmethod
    def from_expr(cls, expr, params: Mapping | None = None,
                  domain=(0.0, math.inf)) -> "PotentialSpec":
        """Build from an expression tree or source string; the derivative is
        obtained symbolically."""
        binds = {k: float(v) for k, v in (params or {}).items()}
        if isinstance(expr, str):
            expr = exprlang.parse(expr, params=set(binds))
        dexpr = differentiate(expr)
        return cls(compile_expr(expr, binds), compile_expr(dexpr, binds),
                   u_expr=expr, du_expr=dexpr, params=binds, domain=domain)

    def __repr__(self):
        body = format_expr(self.u_expr) if self.u_expr is not None else "<numeric>"
        return f"PotentialSpec({body}, domain={self.domain})"


# ---------------------------------------------------------------------------
# Green function
# ---------------------------------------------------------------------------

def _quad_green(metric: MetricSpec, r: float, r0: float) -> float:
    from scipy.integrate import quad  # scipy loads only where quadrature runs

    f = metric.compiled()[0]
    out = quad(lambda t: 1.0 / (t * t * f(t)), r0, r,
               epsabs=1e-10, epsrel=1e-11, limit=2000, full_output=1)
    if len(out) > 3:
        raise QuadratureError(f"green function on '{metric.id}' at r={r}: {out[3]}")
    return float(out[0])


def green_function(metric: MetricSpec, r: float, method: str = "auto") -> float:
    """U(r) for the given metric.

    method="auto" returns the catalog's closed form verbatim when the metric
    has one (MetricSpec.green_expr), otherwise (or with method="quadrature")
    an adaptive-quadrature value anchored at U(r0) = 0, r0 = _anchor(domain).
    """
    metric.check_domain(r)
    if method not in ("auto", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto" and metric.green_expr is not None:
        return kc_potential(metric, 1.0).u(r)   # the kept build of the closed form
    return _quad_green(metric, r, _anchor(metric.domain))


# ---------------------------------------------------------------------------
# KC and oscillator constructors
# ---------------------------------------------------------------------------

def _quadrature_pair(metric: MetricSpec):
    """(U, U') by quadrature: U anchored at U(r0) = 0, U' = 1/(r^2 f)."""
    r0 = _anchor(metric.domain)
    f = metric.compiled()[0]
    return (lambda r: _quad_green(metric, r, r0)), (lambda r: 1.0 / (r * r * f(r)))


# a PotentialSpec is not changed once built, so builds are kept, as in catalog_lookup
@functools.lru_cache(maxsize=64)
def kc_potential(metric: MetricSpec, alpha: float) -> PotentialSpec:
    """Intrinsic Kepler-Coulomb potential alpha * U(r)."""
    expr = metric.green_expr
    alpha = float(alpha)
    if expr is not None:
        out = BinOp("*", Const(alpha), expr) if alpha != 1.0 else expr
        return PotentialSpec.from_expr(out, params=metric.params, domain=metric.domain)
    u, du = _quadrature_pair(metric)
    return PotentialSpec(lambda r: alpha * u(r), lambda r: alpha * du(r),
                         domain=metric.domain)


def _positive_subdomain(u: Callable, domain, label: str):
    """Restrict to the zero-free subinterval of U containing the domain
    midpoint; when a crossing sits at the midpoint take the lower
    subinterval, ending no later than the midpoint itself (a quadrature-backed
    U vanishes exactly there, while brentq may place the root an ulp above)."""
    from scipy.optimize import brentq

    grid = sample_radii(domain, 257)
    vals = np.array([u(float(r)) for r in grid])
    if np.max(np.abs(vals)) < 1e-14:
        raise PotentialError(f"{label}: U vanishes identically on {domain}")
    crossings = []
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            crossings.append(float(grid[i]))
        elif a * b < 0.0:
            crossings.append(float(brentq(u, float(grid[i]), float(grid[i + 1]),
                                          xtol=1e-14, rtol=8.9e-16)))
    if vals[-1] == 0.0:
        crossings.append(float(grid[-1]))
    if not crossings:
        return domain
    mid = _anchor(domain)
    edges = [domain[0]] + sorted(set(crossings)) + [domain[1]]
    for k in range(len(edges) - 1):
        lo, hi = edges[k], edges[k + 1]
        if abs(hi - mid) <= 1e-12 * max(1.0, abs(mid)):
            return (lo, min(hi, mid))  # crossing at the midpoint: lower side wins
        if lo < mid < hi:
            return (lo, hi)
    raise PotentialError(f"{label}: empty subdomain around midpoint {mid}")


@functools.lru_cache(maxsize=64)
def oscillator_potential(metric: MetricSpec, beta: float, gamma: float = 0.0) -> PotentialSpec:
    """Intrinsic oscillator beta / U(r)^2 (+ optional shift).

    Zero crossings of U split the metric domain; the potential's domain is
    the subinterval containing the metric domain's midpoint.
    """
    expr = metric.green_expr
    beta, gamma = float(beta), float(gamma)
    if expr is not None:
        u = compile_expr(expr, _metric_bindings(metric))
    else:
        u, du = _quadrature_pair(metric)
    sub = _positive_subdomain(u, metric.domain, f"oscillator on '{metric.id}'")
    if expr is not None:
        out = BinOp("/", Const(beta), Pow(expr, Const(2.0)))
        if gamma != 0.0:
            out = BinOp("+", out, Const(gamma))
        return PotentialSpec.from_expr(out, params=metric.params, domain=sub)
    return PotentialSpec(lambda r: beta / u(r) ** 2 + gamma,
                         lambda r: -2.0 * beta * du(r) / u(r) ** 3, domain=sub)


# ---------------------------------------------------------------------------
# assembled systems
# ---------------------------------------------------------------------------

class SystemSpec:
    """A complete system: metric, central potential, monopole strength mu2,
    and N centrifugal coefficients b."""

    def __init__(self, metric: MetricSpec, potential: PotentialSpec | None,
                 mu2: float = 0.0, b=None, n: int | None = None, label: str = ""):
        if n is None:
            if b is None:
                raise PotentialError("give either the dimension n or the vector b")
            n = len(b)
        n = int(n)
        if n < 2:
            raise PotentialError(f"dimension must be >= 2, got {n}")
        mu2 = float(mu2)
        if mu2 < 0.0:
            raise PotentialError(f"monopole strength mu2 must be >= 0, got {mu2}")
        b = tuple(0.0 for _ in range(n)) if b is None else tuple(float(x) for x in b)
        if len(b) != n:
            raise PotentialError(f"b has length {len(b)}, expected {n}")
        self.metric = metric
        self.potential = potential
        self.mu2 = mu2
        self.b = b
        self.n = n
        self.label = label or metric.id
        lo, hi = metric.domain
        if potential is not None:
            lo, hi = max(lo, potential.domain[0]), min(hi, potential.domain[1])
        if not lo < hi:
            raise PotentialError("metric and potential domains do not overlap")
        self.domain = (lo, hi)

    def __repr__(self):
        return (f"SystemSpec({self.label!r}, n={self.n}, mu2={self.mu2}, "
                f"b={self.b}, metric={self.metric.id!r})")


def _multifold_potential_expr(nu: Fraction, a: float, b: float, c: float,
                              d: float, mu2: float) -> Expr:
    """The two non-monopole potential terms of the expanded multifold
    Hamiltonian:  mu2*d/(2(a r^{-1/nu} + b)) + mu2*c/(2(a + b r^{1/nu}))."""
    i = float(Fraction(1) / nu)
    terms = []
    if mu2 * d != 0.0:
        if a == 0.0:
            terms.append(Const(mu2 * d / (2.0 * b)))
        else:
            den = BinOp("+", BinOp("*", Const(a), Pow(Var(), Const(-i))), Const(b))
            terms.append(BinOp("/", Const(mu2 * d / 2.0), den))
    if mu2 * c != 0.0:
        den = BinOp("+", Const(a), BinOp("*", Const(b), Pow(Var(), Const(i))))
        terms.append(BinOp("/", Const(mu2 * c / 2.0), den))
    if not terms:
        return Const(0.0)
    out = terms[0]
    for t in terms[1:]:
        out = BinOp("+", out, t)
    return out


def _multifold_metric(nu: Fraction, a: float, b: float) -> MetricSpec:
    if a != 0.0:
        return catalog_lookup("nu-fold", {"a": a, "b": b, "nu": nu})
    if b == 1.0:
        return catalog_lookup("nu-fold-a0", {"nu": nu})
    if b <= 0.0:
        raise PotentialError("multifold metric with a = 0 needs b > 0")
    # a = 0, b != 1: f = sqrt(b) * r^(1/nu - 1)
    return MetricSpec.from_source("sqrt(b)*r^(1/nu - 1)",
                                  params={"b": b, "nu": float(nu)},
                                  id=f"multifold(a=0,b={b},nu={nu})")


def _build_multifold(nu, a, b, c, d, mu2, n, centrifugal, label) -> SystemSpec:
    nu = _as_fraction(nu)
    if nu <= 0:
        raise PotentialError(f"nu must be a positive rational, got {nu}")
    a, b, c, d = float(a), float(b), float(c), float(d)
    metric = _multifold_metric(nu, a, b)
    u_expr = _multifold_potential_expr(nu, a, b, c, d, float(mu2))
    pot = PotentialSpec.from_expr(u_expr, domain=metric.domain)
    return SystemSpec(metric, pot, mu2=mu2, b=centrifugal, n=n, label=label)


def _mic_kepler_family(which: str, alpha: float, mu2: float, n, centrifugal) -> SystemSpec:
    alpha = float(alpha)
    if which == "flat":
        metric = catalog_lookup("euclidean")
        u_src = "-alpha/r" if alpha != 0.0 else "0"
        label = "mic-kepler"
    elif which == "spherical":
        metric = MetricSpec.from_source("1/(1 + r^2)", id="mic-kepler-spherical")
        u_src = "alpha*(r^2 - 1)/r"
        label = "mic-kepler-spherical"
    else:
        metric = MetricSpec.from_source("1/(1 - r^2)", domain=(0.0, 1.0),
                                        id="mic-kepler-hyperbolic")
        u_src = "-alpha*(r^2 + 1)/r"
        label = "mic-kepler-hyperbolic"
    pot = PotentialSpec.from_expr(u_src, params={"alpha": alpha}, domain=metric.domain)
    return SystemSpec(metric, pot, mu2=mu2, b=centrifugal, n=n, label=label)


NAMED_SYSTEMS = ("mic-kepler", "mic-kepler-spherical", "mic-kepler-hyperbolic",
                 "taub-nut-system", "multifold-kepler")

_NAMED_PARAMS = {
    "mic-kepler": {"alpha", "mu2", "n", "centrifugal"},
    "mic-kepler-spherical": {"alpha", "mu2", "n", "centrifugal"},
    "mic-kepler-hyperbolic": {"alpha", "mu2", "n", "centrifugal"},
    "taub-nut-system": {"m", "mu2", "n", "centrifugal"},
    "multifold-kepler": {"nu", "a", "b", "c", "d", "mu2", "n", "centrifugal"},
}


def named_system(id: str, params: Mapping | None = None) -> SystemSpec:
    """Assemble one of the named composite systems.

    Defaults: alpha=1, mu2=1, m=1, nu=1, a=1, b=1, c=0, d=0, n=3, no
    centrifugal terms.  `centrifugal` may be a length-n list of b_i
    coefficients (the construction preserves all conserved integrals).
    """
    if id not in NAMED_SYSTEMS:
        raise PotentialError(
            f"unknown system {id!r}; known: {', '.join(NAMED_SYSTEMS)}")
    params = dict(params or {})
    unknown = set(params) - _NAMED_PARAMS[id]
    if unknown:
        raise PotentialError(f"{id}: unknown parameters {sorted(unknown)}")
    mu2 = float(params.pop("mu2", 1.0))
    n = int(params.pop("n", 3))
    centrifugal = params.pop("centrifugal", None)

    if id in ("mic-kepler", "mic-kepler-spherical", "mic-kepler-hyperbolic"):
        alpha = float(params.pop("alpha", 1.0))
        which = {"mic-kepler": "flat", "mic-kepler-spherical": "spherical",
                 "mic-kepler-hyperbolic": "hyperbolic"}[id]
        return _mic_kepler_family(which, alpha, mu2, n, centrifugal)

    if id == "taub-nut-system":
        m = float(params.pop("m", 1.0))
        if not m > 0.0:
            raise PotentialError(f"taub-nut-system needs m > 0, got {m}")
        return _build_multifold(1, 4.0 * m, 1.0, 1.0 / (2.0 * m),
                                1.0 / (16.0 * m * m), mu2, n, centrifugal,
                                label="taub-nut-system")

    return _build_multifold(params.pop("nu", 1), params.pop("a", 1.0),
                            params.pop("b", 1.0), params.pop("c", 0.0),
                            params.pop("d", 0.0), mu2, n, centrifugal,
                            label="multifold-kepler")


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

_IDENTITY_DEFAULTS = {"nu": Fraction(3, 2), "a": 1.0, "b": 1.0, "c": 0.3,
                      "d": 0.7, "mu2": 1.0, "m": 1.0, "beta": 1.0, "gamma": 0.5}


def _multifold_compact(r2, p2, i, a, b, c, d, mu2) -> float:
    """Single-fraction multifold Hamiltonian (all four terms under one
    kinetic prefactor)."""
    r = math.sqrt(r2)
    return r ** (2.0 - i) / (2.0 * (a + b * r ** i)) * (
        p2 + mu2 / r2 + mu2 * c * r ** (i - 2.0) + mu2 * d * r ** (2.0 * i - 2.0))


def _multifold_expanded(r2, p2, i, a, b, c, d, mu2) -> float:
    """Expanded multifold Hamiltonian: kinetic + oscillator-type + monopole
    + shifted-oscillator terms."""
    r = math.sqrt(r2)
    return (r ** (2.0 - i) * p2 / (2.0 * (a + b * r ** i))
            + mu2 * d / (2.0 * (a * r ** (-i) + b))
            + mu2 / (2.0 * r ** i * (a + b * r ** i))
            + mu2 * c / (2.0 * (a + b * r ** i)))


def decomposition_identities(point, params: Mapping | None = None) -> dict:
    """Residuals of the constant-shuffling identities of the multifold family
    and the Darboux oscillator shifts, all evaluated at |q|, p^2 of `point`.

    Every residual is <= 1e-10 at any valid phase point; r = 1 is excluded
    (the Darboux II shift divides by ln r).
    """
    P = dict(_IDENTITY_DEFAULTS)
    extra = set(params or {}) - set(P)
    if extra:
        raise PotentialError(f"unknown identity parameters {sorted(extra)}")
    P.update(params or {})
    nu = _as_fraction(P["nu"])
    i = float(Fraction(1) / nu)
    a, b, c, d = (float(P[k]) for k in "abcd")
    mu2, m = float(P["mu2"]), float(P["m"])
    beta, gamma = float(P["beta"]), float(P["gamma"])
    if not m > 0.0:
        raise PotentialError(f"m must be positive, got {m}")

    q = np.asarray(point.q, dtype=float)
    p = np.asarray(point.p, dtype=float)
    r2 = float(np.dot(q, q))
    p2 = float(np.dot(p, p))
    r = math.sqrt(r2)

    out = {}
    out["multifold-expansion"] = abs(
        _multifold_compact(r2, p2, i, a, b, c, d, mu2)
        - _multifold_expanded(r2, p2, i, a, b, c, d, mu2))

    # oscillator + constant reshuffle (a != 0 multifold family)
    lhs = beta / (a * r ** (-i) + b) + gamma
    rhs = (beta + b * gamma) / (a * r ** (-i) + b) + a * gamma / (a + b * r ** i)
    out["oscillator-shift"] = abs(lhs - rhs)

    # a = 0, b = 1 reduction to kinetic + KC + monopole + constant
    reduced = (0.5 * r ** (2.0 - 2.0 * i) * p2 + mu2 * c / (2.0 * r ** i)
               + mu2 / (2.0 * r ** (2.0 * i)) + mu2 * d / 2.0)
    out["multifold-reduction"] = abs(
        _multifold_expanded(r2, p2, i, 0.0, 1.0, c, d, mu2) - reduced)

    # Taub-NUT: four-term form vs compact two-term form
    line1 = (r * p2 / (2.0 * (4.0 * m + r))
             + mu2 * r / (16.0 * m * m) / (2.0 * (4.0 * m + r))
             + mu2 / (2.0 * r * (4.0 * m + r))
             + mu2 / (4.0 * m) / (4.0 * m + r))
    line2 = p2 / (2.0 * (1.0 + 4.0 * m / r)) \
        + mu2 / (2.0 * (4.0 * m) ** 2) * (1.0 + 4.0 * m / r)
    out["taub-nut-forms"] = abs(line1 - line2)

    # Darboux II / IIIa oscillator shifts in the variable u = ln r
    u = math.log(r)
    if u == 0.0:
        raise PotentialError("identities undefined at |q| = 1 (ln r = 0)")
    out["darboux2-shift"] = abs(
        beta / (1.0 + u * u) + gamma
        - ((beta + gamma) / (1.0 + u * u) + gamma / (1.0 + u ** -2.0)))
    out["darboux3a-shift"] = abs(
        beta / (1.0 + math.exp(u)) + gamma
        - ((beta + gamma) / (1.0 + math.exp(u)) + gamma / (1.0 + math.exp(-u))))
    return out
