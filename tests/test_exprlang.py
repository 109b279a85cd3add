"""Tests for the expression language: parsing, differentiation, compiled
evaluation against an independent oracle, printing round-trips, and the
finite-difference derivative property."""

import math

import numpy as np
import pytest

from qmsflow.exprlang import (
    BinOp, Call, Const, ExprError, ExprSyntaxError, Neg,
    NonConstantExponentError, Param, Pow, UnknownIdentifierError, Var,
    compile_expr, differentiate, format_expr, parse, to_python_block,
)
from qmsflow.geometry import CATALOG, catalog_lookup, sample_radii
from qmsflow.potentials import NAMED_SYSTEMS, kc_potential, named_system, oscillator_potential


def evaluate(e, r, bindings=None):
    """e at r through its compiled callable, the package's one evaluator."""
    return compile_expr(e, bindings)(r)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_metric_factor():
    e = parse("2/(1+r^2)")
    assert evaluate(e, 1.0) == pytest.approx(1.0, abs=0)  # 2/2
    assert evaluate(e, 2.0) == pytest.approx(0.4)


def test_parse_with_parameter():
    e = parse("sqrt(k+r^2)", params={"k"})
    assert evaluate(e, 2.0, {"k": 5.0}) == 3.0


def test_parse_truncated_input_reports_offset():
    with pytest.raises(ExprSyntaxError) as ei:
        parse("ln(")
    assert ei.value.offset == 3


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as ei:
        parse("2*zeta")
    assert ei.value.offset == 2
    assert ei.value.name == "zeta"


def test_parse_nonconstant_exponent_rejected():
    with pytest.raises(NonConstantExponentError):
        parse("r^r")
    with pytest.raises(NonConstantExponentError):
        parse("2^(1+r)")
    # parameters in the exponent are allowed
    e = parse("r^(1/nu)", params={"nu"})
    assert evaluate(e, 8.0, {"nu": 3.0}) == 2.0


def test_precedence_and_associativity():
    assert evaluate(parse("2-3-4"), 1.0) == -5.0
    assert evaluate(parse("2/4/2"), 1.0) == 0.25
    assert evaluate(parse("1+2*3"), 1.0) == 7.0
    # ^ binds tighter than unary minus and is right-associative
    assert evaluate(parse("-r^2"), 3.0) == -9.0
    assert evaluate(parse("2^3^2"), 1.0) == 512.0
    assert evaluate(parse("r^-2"), 2.0) == 0.25


def test_parse_garbage():
    with pytest.raises(ExprSyntaxError):
        parse("1 + + 2 )")
    with pytest.raises(ExprSyntaxError):
        parse("(1+2")
    with pytest.raises(ExprSyntaxError):
        parse("")


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def test_evaluate_ln():
    # ln is math.log, whose ValueError off its domain the spec builders map
    e = parse("ln(r)")
    assert evaluate(e, 1.0) == 0.0
    with pytest.raises(ValueError):
        evaluate(e, 0.0)


def test_unbound_parameter():
    with pytest.raises(ExprError, match="unbound parameter 'k'"):
        compile_expr(parse("k*r", params={"k"}))


# ---------------------------------------------------------------------------
# differentiation: frozen oracles
# ---------------------------------------------------------------------------

def test_derivative_power_rule():
    d = differentiate(parse("r^2"))
    for r in (0.5, 1.0, 3.25):
        assert evaluate(d, r) == pytest.approx(2 * r, rel=1e-15)


def test_derivative_ln():
    d = differentiate(parse("ln(r)"))
    for r in (0.5, 2.0, 7.5):
        assert evaluate(d, r) == pytest.approx(1 / r, rel=1e-15)


def test_derivative_quotient():
    # d/dr 2/(1+r^2) = -4r/(1+r^2)^2
    d = differentiate(parse("2/(1+r^2)"))
    for r in (0.25, 1.0, 2.0):
        assert evaluate(d, r) == pytest.approx(-4 * r / (1 + r * r) ** 2, rel=1e-14)


def test_derivative_table():
    cases = [
        ("sin(r)", lambda r: math.cos(r)),
        ("cos(r)", lambda r: -math.sin(r)),
        ("tan(r)", lambda r: 1 / math.cos(r) ** 2),
        ("exp(2*r)", lambda r: 2 * math.exp(2 * r)),
        ("sqrt(r)", lambda r: 0.5 / math.sqrt(r)),
        ("abs(r)", lambda r: 1.0),
        ("r^(3/2)", lambda r: 1.5 * math.sqrt(r)),
    ]
    for src, want in cases:
        d = differentiate(parse(src))
        for r in (0.3, 1.1, 2.7):
            assert evaluate(d, r) == pytest.approx(want(r), rel=1e-13), src


def test_second_derivative_of_catalog_factor():
    # f = sqrt(ln(r))/r on r > 1; f'' checked against a hand value at r = e
    f = parse("sqrt(ln(r))/r")
    fpp = differentiate(differentiate(f))
    r = math.e
    # hand derivation: f = (ln r)^(1/2) r^-1,
    # f' = r^-2 ((1/2)(ln r)^(-1/2) - (ln r)^(1/2))
    # f'' = r^-3 (2(ln r)^(1/2) - (3/2)(ln r)^(-1/2) - (1/4)(ln r)^(-3/2))
    want = (2 * 1 - 1.5 - 0.25) / r**3
    assert evaluate(fpp, r) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# random-tree properties
# ---------------------------------------------------------------------------

_PARAMS = {"k": 1.3, "nu": 1.5}


def _random_expr(rng, depth):
    """Random tree of depth <= 6, biased toward evaluable shapes: arguments of
    ln/sqrt and fractional powers are wrapped in abs(.)+shift."""
    if depth == 0 or rng.random() < 0.25:
        u = rng.random()
        if u < 0.5:
            return Var()
        if u < 0.8:
            return Const(round(float(rng.uniform(0.3, 2.5)), 3))
        return Param(rng.choice(list(_PARAMS)))
    u = rng.random()
    child = lambda: _random_expr(rng, depth - 1)
    if u < 0.55:
        op = rng.choice(["+", "-", "*"])
        return BinOp(op, child(), child())
    if u < 0.65:
        # keep the denominator away from zero
        return BinOp("/", child(), BinOp("+", Call("abs", child()), Const(0.5)))
    if u < 0.85:
        fn = rng.choice(["sin", "cos", "exp", "ln", "sqrt", "abs", "tan"])
        arg = child()
        if fn in ("ln", "sqrt"):
            arg = BinOp("+", Call("abs", arg), Const(0.7))
        if fn == "exp":
            # tame the magnitude
            arg = BinOp("/", arg, BinOp("+", Call("abs", arg), Const(2.0)))
        return Call(fn, arg)
    expo = rng.choice([Const(2.0), Const(3.0), Const(-1.0), Const(-2.0), Const(0.5), Const(1.5)])
    base = child()
    if expo.value not in (2.0, 3.0):
        base = BinOp("+", Call("abs", base), Const(0.4))
    return Pow(base, expo)


def test_fd_derivative_property():
    """1000 random trees: symbolic derivative matches central differences."""
    rng = np.random.default_rng(20240817)
    checked = 0
    while checked < 1000:
        e = _random_expr(rng, int(rng.integers(1, 7)))
        d = differentiate(e)
        r = float(rng.uniform(0.2, 3.0))
        h = 1e-6 * max(1.0, abs(r))
        try:
            v0 = evaluate(e, r, _PARAMS)
            sym = evaluate(d, r, _PARAMS)
            fd = (evaluate(e, r + h, _PARAMS) - evaluate(e, r - h, _PARAMS)) / (2 * h)
        except (ValueError, ArithmeticError):
            continue
        if not (math.isfinite(v0) and math.isfinite(sym) and math.isfinite(fd)):
            continue
        if max(abs(v0), abs(sym)) > 1e3:
            continue  # keep FD truncation/roundoff below the tolerance
        assert abs(fd - sym) <= 1e-6 * max(1.0, abs(sym)), format_expr(e)
        checked += 1


def test_print_parse_round_trip():
    rng = np.random.default_rng(7)
    done = 0
    while done < 100:
        e = _random_expr(rng, int(rng.integers(1, 7)))
        src = format_expr(e)
        e2 = parse(src, params=_PARAMS)
        r = float(rng.uniform(0.2, 3.0))
        try:
            a = evaluate(e, r, _PARAMS)
        except (ValueError, ArithmeticError):
            continue
        if not math.isfinite(a) or abs(a) > 1e12:
            continue
        b = evaluate(e2, r, _PARAMS)
        assert abs(a - b) <= 1e-15 * max(1.0, abs(a)), src
        done += 1


def _catalog_exprs():
    """(label, tree, bindings, window): f, f', f'' and the Green function of
    every catalog space at its defaults, on [max(lo, 0.2), min(hi, 5)]."""
    for mid in CATALOG:
        metric = catalog_lookup(mid)
        binds = {k: float(v) for k, v in metric.params.items()}
        window = (max(metric.domain[0], 0.2), min(metric.domain[1], 5.0))
        for label, e in (("f", metric.f_expr), ("f'", metric.fp_expr),
                         ("f''", metric.fpp_expr), ("U", metric.green_expr)):
            yield f"{mid} {label}", e, binds, window


def test_compile_expr_matches_an_independent_oracle():
    # the printed tree, read by sympy and evaluated by mpmath at 30 digits
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations
    mpmath = pytest.importorskip("mpmath")
    r = sympy.Symbol("r", positive=True)
    names = {"r": r, "ln": sympy.log, "abs": sympy.Abs}
    points = 0
    with mpmath.workdps(30):
        for label, e, binds, window in _catalog_exprs():
            ref = parse_expr(format_expr(e), local_dict={**names, **binds},
                             transformations=standard_transformations + (convert_xor,))
            oracle = sympy.lambdify(r, ref, "mpmath")
            got = compile_expr(e, binds)
            for x in sample_radii(window, 16).tolist():
                want = oracle(mpmath.mpf(x))
                assert abs(got(x) - want) / (1 + abs(want)) <= 1e-13, (label, x)
                points += 1
    assert points == 11 * 4 * 16


def test_rational_catalog_derivatives_are_within_a_few_ulp_of_sympy():
    # f' and U' of the rational spaces, with their squares as products,
    # against sympy's own derivative of the catalog source at 40 digits, at
    # seeded radii where no subtraction cancels (1 - r^2 >= 0.75 on the
    # hyperbolic ball, |U| >= 1/2 for the oscillator's 1/U^2).  Each value
    # takes 4 to 12 correctly rounded operations; the worst of 4000 radii
    # per case was 3.3 ulp for f' and kc U' and 6.6 ulp for the oscillator's
    # U', the pow forms the same within 0.6 ulp
    sympy = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    r = sympy.Symbol("r")
    rng = np.random.default_rng(2026)
    checked = 0
    with mpmath.workdps(40):
        for mid, top in (("euclidean", 100.0), ("spherical", 100.0), ("hyperbolic", 0.5)):
            metric, entry = catalog_lookup(mid), CATALOG[mid]
            f, green = (sympy.sympify(src.replace("^", "**"), locals={"r": r})
                        for src in (entry.f_source, entry.green_source))
            alpha, beta = sympy.Rational(0.7), sympy.Rational(0.4)
            cases = [(sympy.lambdify(r, sympy.diff(e, r), "mpmath"), got, ulps, e)
                     for e, got, ulps in ((f, metric.compiled()[1], 4),
                                          (alpha * green, kc_potential(metric, 0.7).du, 4),
                                          (beta / green ** 2,
                                           oscillator_potential(metric, 0.4).du, 8))]
            size = sympy.lambdify(r, green)
            for x in np.exp(rng.uniform(math.log(0.01), math.log(top), 64)).tolist():
                for want, got, ulps, e in cases:
                    if ulps == 8 and abs(size(x)) < 0.5:
                        continue
                    exact = want(mpmath.mpf(x))
                    assert abs(got(x) - exact) <= ulps * math.ulp(float(exact)), (mid, e, x)
                    checked += 1
    assert checked >= 3 * 64 * 2


def test_derivative_of_derivative_stays_in_grammar():
    e = parse("sqrt(a+cos(ln(r)))/(r*abs(sin(ln(r))))", params={"a"})
    d2 = differentiate(differentiate(e))
    # evaluable and re-parseable
    v = evaluate(d2, 2.0, {"a": 2.0})
    assert math.isfinite(v)
    again = parse(format_expr(d2), params={"a"})
    assert evaluate(again, 2.0, {"a": 2.0}) == pytest.approx(v, rel=1e-12)


# ---------------------------------------------------------------------------
# optimized generation against the plain translation
# ---------------------------------------------------------------------------

def _plain(e, binds):
    """The plain translation of e, one Python operation per node, with no
    folding, identities or sharing."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return "r"
    if isinstance(e, Param):
        return repr(float(binds[e.name]))
    if isinstance(e, Neg):
        return f"(-{_plain(e.arg, binds)})"
    if isinstance(e, BinOp):
        return f"({_plain(e.left, binds)} {e.op} {_plain(e.right, binds)})"
    if isinstance(e, Pow):
        if isinstance(e.exponent, Const) and float(e.exponent.value).is_integer() \
                and abs(e.exponent.value) <= 64:
            return f"({_plain(e.base, binds)} ** {int(e.exponent.value)})"
        return f"math.pow({_plain(e.base, binds)}, {_plain(e.exponent, binds)})"
    fn = {"ln": "math.log", "abs": "abs"}.get(e.fn, f"math.{e.fn}")
    return f"{fn}({_plain(e.arg, binds)})"


def _outcomes(texts, radii):
    """Per radius, the hex of every text's value evaluated in order in one
    function, as an inlining kernel does, or the exception it raised."""
    env = {"math": math, "abs": abs}
    names = [f"v{i}" for i in range(len(texts))]
    exec("def run(r):\n" + "".join(f"    {v} = {t}\n" for v, t in zip(names, texts))
         + f"    return {', '.join(names)},", env)
    out = []
    for r in radii:
        try:
            out.append([v.hex() for v in env["run"](r)])
        except (ValueError, ArithmeticError) as exc:
            out.append((type(exc), str(exc)))
    return out


def _expression_sets():
    """(label, [(expr, bindings), ...], domain): f, f' and f'' of every
    catalog space, its kc and oscillator U and U' where they are closed
    forms, and f, f', U' of every named system, in the order the RHS
    evaluates them."""
    for mid in CATALOG:
        metric = catalog_lookup(mid)
        yield mid, [(e, metric.params) for e in (metric.f_expr, metric.fp_expr,
                                                 metric.fpp_expr)], metric.domain
        for kind, pot in (("kc", kc_potential(metric, 0.7)),
                          ("oscillator", oscillator_potential(metric, 0.4))):
            if pot.du_expr is not None:
                yield f"{mid} {kind}", [(pot.u_expr, pot.params),
                                        (pot.du_expr, pot.params)], metric.domain
    for name in NAMED_SYSTEMS:
        sys = named_system(name)
        metric, pot = sys.metric, sys.potential
        yield name, [(metric.f_expr, metric.params), (metric.fp_expr, metric.params),
                     (pot.du_expr, pot.params)], sys.domain


def test_optimized_texts_evaluate_like_the_plain_translation_bit_for_bit():
    # one block over all of a set's expressions, and each compiled alone,
    # against the plain text of each node: the same float, or the same
    # exception, at 64 radii
    compared = 0
    for label, items, domain in _expression_sets():
        radii = sample_radii(domain, 64).tolist()
        want = _outcomes([_plain(e, binds) for e, binds in items], radii)
        assert _outcomes(to_python_block(items), radii) == want, label
        for k, (e, binds) in enumerate(items):
            alone = _outcomes([_plain(e, binds)], radii)
            assert _outcomes(to_python_block([(e, binds)]), radii) == alone, (label, k)
            got = compile_expr(e, binds)
            assert [[got(r).hex()] for r, v in zip(radii, alone) if isinstance(v, list)] \
                == [v for v in alone if isinstance(v, list)], (label, k)
        compared += 1
    assert compared >= len(CATALOG) + len(NAMED_SYSTEMS)


def test_block_folds_drops_identities_and_shares_repeats():
    e = parse("sqrt(k + r^2)*1 + -(-r) + r^1/1 + 2*3 + 1*sqrt(k + r^2) + sqrt(k)",
              params={"k"})
    assert to_python_block([(e, {"k": 4.0})]) == [
        "((((((c0 := math.sqrt((4.0 + (r ** 2)))) + r) + r) + 6.0) + c0) + 2.0)"]
    # sharing spans the texts: the first text evaluates, the later ones read
    f, fp = parse("sqrt(1 + r^2)"), differentiate(parse("sqrt(1 + r^2)"))
    assert to_python_block([(f, {}), (fp, {})]) == [
        "(c0 := math.sqrt((1.0 + (r ** 2))))", "((2.0 * r) / (2.0 * c0))"]
    # a literal subtree that raises or overflows stays, to do so at run time
    assert to_python_block([(parse("r + 1/0 + exp(1000) + 10^400 + 1e308*10"), {})]) == [
        "((((r + (1.0 / 0.0)) + math.exp(1000.0)) + math.pow(10.0, 400.0)) + (1e+308 * 10.0))"]
    # a subexpression read only inside one shared node is not shared itself
    assert to_python_block([(parse("ln(r*r) + ln(r*r)"), {})]) == [
        "((c0 := math.log((r * r))) + c0)"]


@pytest.mark.parametrize("source, params, folded", [
    ("r^(1/nu)", {"nu": 1.0}, "r"),
    ("r^(1/nu - 1)", {"nu": 1.0}, "1.0"),
    ("r^0", {}, "1.0"),
    ("2^(nu - 1) * r", {"nu": 1.0}, "r"),
    # a base other than r or a literal may raise, so its power stays
    ("ln(r)^0", {}, "(math.log(r) ** 0)"),
    ("(r - 1)^(nu - 1)", {"nu": 1.0}, "math.pow((r - 1.0), 0.0)"),
])
def test_powers_of_a_literal_0_or_1_fold_bit_for_bit(source, params, folded):
    # the nu-fold spaces at nu = 1 print r^1 and r^0 through exponents that
    # are parameters: the folded text has the plain translation's value, or
    # its exception, at random r, at +-0, +-inf and NaN
    e = parse(source, params=set(params))
    assert to_python_block([(e, params)]) == [folded]
    rng = np.random.default_rng(3)
    radii = rng.uniform(-10.0, 10.0, 64).tolist() + [0.0, -0.0, math.inf, -math.inf, math.nan]
    assert _outcomes([folded], radii) == _outcomes([_plain(e, params)], radii)


def test_block_rejects_a_non_finite_parameter():
    with pytest.raises(ExprError, match="parameter 'k' = inf is not finite"):
        to_python_block([(parse("k*r", params={"k"}), {"k": math.inf})])
    with pytest.raises(ExprError, match="unbound parameter 'k'"):
        to_python_block([(parse("r"), {}), (parse("k*r", params={"k"}), {})])
