"""Single-variable expression language for metric factors and central potentials.

Expressions are functions of one positive variable ``r`` plus named constants
(parameters).  They appear in config files as strings like ``"2/(1+r^2)"`` or
``"sqrt(k+r^2)"`` and are parsed into immutable trees that support exact
symbolic differentiation, printing, and compilation to fast plain-Python
callables, which are the one way an expression is evaluated.

Grammar (precedence from loosest to tightest):

    expr   := term   (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

``+ - * /`` are left-associative; ``^`` is right-associative and binds
tighter than unary minus (so ``-r^2`` is ``-(r^2)``).  Exponents must not
contain ``r`` (parameters are fine, e.g. ``r^(1/nu)``), which keeps
differentiation closed over the grammar: d/dr u^c = c*u^(c-1)*u'.

Functions: sin, cos, tan, exp, ln, sqrt, abs.
"""

from __future__ import annotations

import contextlib
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

__all__ = [
    "Expr", "Const", "Var", "Param", "Neg", "BinOp", "Pow", "Call",
    "ExprError", "ExprSyntaxError", "UnknownIdentifierError",
    "NonConstantExponentError",
    "parse", "differentiate", "format_expr", "compile_expr",
    "to_python_block", "contains_var",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")

VAR_NAME = "r"


class ExprError(ValueError):
    """Base class for every error raised by this module."""


class ExprSyntaxError(ExprError):
    """Malformed source text; ``offset`` is the 0-based character position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}'", offset)
        self.name = name


class NonConstantExponentError(ExprSyntaxError):
    def __init__(self, offset: int):
        super().__init__("exponent of '^' must not contain the variable r", offset)


# --------------------------------------------------------------------------
# tree nodes
# --------------------------------------------------------------------------

class Expr:
    """Immutable expression tree node. Safe to share across threads."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_expr(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float

    __slots__ = ("value",)


@dataclass(frozen=True)
class Var(Expr):
    """The single free variable r."""

    __slots__ = ()


@dataclass(frozen=True)
class Param(Expr):
    name: str

    __slots__ = ("name",)


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    __slots__ = ("arg",)


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr

    __slots__ = ("op", "left", "right")


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Expr  # r-free by construction

    __slots__ = ("base", "exponent")


@dataclass(frozen=True)
class Call(Expr):
    fn: str  # one of FUNCTIONS
    arg: Expr

    __slots__ = ("fn", "arg")


def contains_var(e: Expr) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, (Const, Param)):
        return False
    if isinstance(e, Neg):
        return contains_var(e.arg)
    if isinstance(e, BinOp):
        return contains_var(e.left) or contains_var(e.right)
    if isinstance(e, Pow):
        return contains_var(e.base) or contains_var(e.exponent)
    if isinstance(e, Call):
        return contains_var(e.arg)
    raise TypeError(f"not an Expr node: {e!r}")


# --------------------------------------------------------------------------
# lexer / parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^()]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            # skip leading whitespace before reporting
            stripped = pos
            while stripped < len(source) and source[stripped].isspace():
                stripped += 1
            if stripped >= len(source):
                break
            raise ExprSyntaxError(f"unexpected character {source[stripped]!r}", stripped)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    tokens.append(("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, params: Iterable[str]):
        self.source = source
        self.params = frozenset(params)
        if VAR_NAME in self.params:
            raise ExprError(f"'{VAR_NAME}' is the variable and cannot be a parameter")
        bad = self.params.intersection(FUNCTIONS)
        if bad:
            raise ExprError(f"parameter names shadow functions: {sorted(bad)}")
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym: str):
        kind, text, off = self.peek()
        if kind != "sym" or text != sym:
            raise ExprSyntaxError(f"expected '{sym}'", off)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, off = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected {text!r}", off)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "sym" and text in "+-":
                self.advance()
                e = BinOp(text, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "sym" and text in "*/":
                self.advance()
                e = BinOp(text, e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "sym" and text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, off = self.peek()
        if kind == "sym" and text == "^":
            self.advance()
            expo = self.factor()  # right-associative; allows -2 and nested ^
            if contains_var(expo):
                raise NonConstantExponentError(off)
            return Pow(base, expo)
        return base

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect_sym("(")
                arg = self.expr()
                self.expect_sym(")")
                return Call(text, arg)
            if text == VAR_NAME:
                return Var()
            if text in self.params:
                return Param(text)
            raise UnknownIdentifierError(text, off)
        if kind == "sym" and text == "(":
            e = self.expr()
            self.expect_sym(")")
            return e
        raise ExprSyntaxError("expected a number, name, or '('", off)


def parse(source: str, params: Iterable[str] = ()) -> Expr:
    """Parse *source* into an Expr over r and the declared parameter names.

    Raises ExprSyntaxError (with character offset), UnknownIdentifierError,
    or NonConstantExponentError.
    """
    return _Parser(source, params).parse()


# --------------------------------------------------------------------------
# differentiation
# --------------------------------------------------------------------------

def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Const) and e.value == v


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return Neg(b)
    return BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    return BinOp("/", a, b)


def _square(a: Expr) -> Expr:
    """a * a on the one node a."""
    return _mul(a, a)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def differentiate(e: Expr) -> Expr:
    """Exact symbolic d/dr.

    The result stays inside the grammar (differentiation is closed).  Only
    constant folding and trivial 0/1 eliminations are applied; the contract
    is correctness, not minimality.  Every square the rules make -- the
    quotient rule's v^2, the power rule's u^(3-1) and tan's cos(u)^2 -- is
    the product v * v of one shared node, so that to_python_block evaluates
    v once and squares it with one correctly rounded multiply instead of a
    libm pow; a square beyond the float range is inf, where x ** 2 raised
    OverflowError.
    """
    if isinstance(e, (Const, Param)):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0)
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg))
    if isinstance(e, BinOp):
        da, db = differentiate(e.left), differentiate(e.right)
        if e.op == "+":
            return _add(da, db)
        if e.op == "-":
            return _sub(da, db)
        if e.op == "*":
            return _add(_mul(da, e.right), _mul(e.left, db))
        # quotient rule
        num = _sub(_mul(da, e.right), _mul(e.left, db))
        return _div(num, _square(e.right))
    if isinstance(e, Pow):
        # exponent is r-free: d/dr u^c = c * u^(c-1) * u'
        du = differentiate(e.base)
        cm1 = _sub(e.exponent, Const(1.0))
        power = _square(e.base) if _is_const(cm1, 2.0) else Pow(e.base, cm1)
        return _mul(_mul(e.exponent, power), du)
    if isinstance(e, Call):
        u, du = e.arg, differentiate(e.arg)
        if e.fn == "sin":
            return _mul(Call("cos", u), du)
        if e.fn == "cos":
            return _neg(_mul(Call("sin", u), du))
        if e.fn == "tan":
            return _div(du, _square(Call("cos", u)))
        if e.fn == "exp":
            return _mul(Call("exp", u), du)
        if e.fn == "ln":
            return _div(du, u)
        if e.fn == "sqrt":
            return _div(du, _mul(Const(2.0), Call("sqrt", u)))
        if e.fn == "abs":
            # d|u|/dr = sign(u) u'; valid away from u = 0
            return _mul(_div(u, Call("abs", u)), du)
    raise TypeError(f"not an Expr node: {e!r}")


# --------------------------------------------------------------------------
# printing
# --------------------------------------------------------------------------

# precedence levels for parenthesization
_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC_ADD if e.op in "+-" else _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_UNARY
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Const) and e.value < 0:
        return _PREC_UNARY  # prints with a leading minus
    return _PREC_ATOM


def format_expr(e: Expr) -> str:
    """Render to source text that re-parses to an equivalent expression."""
    if isinstance(e, Const):
        v = e.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(e, Var):
        return VAR_NAME
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Neg):
        inner = format_expr(e.arg)
        if _prec(e.arg) < _PREC_UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        lp, rp = _prec(e.left), _prec(e.right)
        mine = _prec(e)
        left = format_expr(e.left)
        right = format_expr(e.right)
        if lp < mine:
            left = f"({left})"
        # left-associative: the right operand needs parens at equal precedence
        # for - and /, and always when looser
        if rp < mine or (rp == mine and e.op in "-/") or (e.op in "*/" and isinstance(e.right, Neg)):
            right = f"({right})"
        elif e.op in "+-" and isinstance(e.right, Neg):
            right = f"({right})"
        return f"{left} {e.op} {right}"
    if isinstance(e, Pow):
        base = format_expr(e.base)
        if _prec(e.base) < _PREC_ATOM:
            base = f"({base})"
        expo = format_expr(e.exponent)
        if _prec(e.exponent) < _PREC_ATOM:
            expo = f"({expo})"
        return f"{base}^{expo}"
    if isinstance(e, Call):
        return f"{e.fn}({format_expr(e.arg)})"
    raise TypeError(f"not an Expr node: {e!r}")


# --------------------------------------------------------------------------
# compilation
# --------------------------------------------------------------------------

def compile_expr(e: Expr, bindings: Mapping[str, float] | None = None) -> Callable[[float], float]:
    """Compile to a plain-Python callable r -> value with parameters baked in.

    This is the hot path for integrators and quadrature: no tree walking, no
    domain checks beyond what the arithmetic and math functions raise
    themselves (ValueError on e.g. log of a non-positive number, or an
    ArithmeticError), which the spec builders map to their own errors.
    """
    src = "lambda r: " + to_python_block([(e, bindings or {})])[0]
    env = {"math": math, "abs": abs, "__builtins__": {}}
    return eval(compile(src, "<expr>", "eval"), env)


_FORMS = {"+": ("({} + {})", operator.add), "-": ("({} - {})", operator.sub),
          "*": ("({} * {})", operator.mul), "/": ("({} / {})", operator.truediv),
          "neg": ("(-{})", operator.neg), "ln": ("math.log({})", math.log), "abs": ("abs({})", abs),
          **{fn: (f"math.{fn}({{}})", getattr(math, fn)) for fn in FUNCTIONS if fn in dir(math)}}


def to_python_block(items: Iterable[tuple[Expr, Mapping[str, float]]]) -> list[str]:
    """Python source in r of each (expression, bindings) item, parameters
    baked in as float literals, for code that binds r, math and abs and
    evaluates the texts in order.  A non-finite constant or parameter raises
    ExprError.  Only rewrites that IEEE 754 makes exact, so values and
    exceptions are bit for bit those of the plain translation: a literal
    subtree is folded by the same float operation (unless that raises or
    overflows); x*1, 1*x, x/1, -(-x) and x^e with e a literal 1 are x;
    r^e and c^e with e a literal 0 and c a literal are 1.0; and a non-literal
    subexpression that occurs more than once, in one text or across them,
    is evaluated where it first occurs, as (cN := ...), and read as cN."""
    nodes = {}  # text of each non-literal node -> times it was produced

    def lit(v):
        return f"({v!r})" if math.copysign(1.0, v) < 0.0 else repr(v)

    def make(fmt, fn, texts, values):
        if None not in values:
            with contextlib.suppress(ArithmeticError, ValueError):
                if math.isfinite(v := fn(*values)):
                    return lit(v), v
        text = fmt.format(*texts)
        nodes[text] = nodes.get(text, 0) + 1
        return text, None

    def translate(e, binds, memo):
        """(text, value) of e: value is the float of a literal, else None."""
        key, kind = id(e), type(e)
        out = memo.get(key)
        if out is not None:
            if out[0] in nodes:
                nodes[out[0]] += 1
            return out
        if kind is BinOp:
            (ta, va), (tb, vb) = translate(e.left, binds, memo), translate(e.right, binds, memo)
            if va == 1.0 and e.op == "*" or vb == 1.0 and e.op in "*/":  # 1*x, x*1, x/1
                out = (tb, vb) if va == 1.0 and e.op == "*" else (ta, va)
            else:
                out = make(*_FORMS[e.op], (ta, tb), (va, vb))
        elif kind is Var:
            return VAR_NAME, None
        elif kind is Const or kind is Param:
            if kind is Param and e.name not in binds:
                raise ExprError(f"unbound parameter '{e.name}' at compile time")
            v = float(e.value if kind is Const else binds[e.name])
            if not math.isfinite(v):
                what = "constant" if kind is Const else f"parameter '{e.name}' ="
                raise ExprError(f"{what} {v} is not finite")
            out = lit(v), v
        elif kind is Pow:
            tb, vb = translate(e.base, binds, memo)
            te, ve = translate(e.exponent, binds, memo)
            if ve == 1.0:
                out = tb, vb
            elif ve == 0.0 and (vb is not None or type(e.base) is Var):
                out = "1.0", 1.0  # x ** 0 is 1.0 for every float x, and r or a literal raises nothing
            elif type(e.exponent) is Const and ve.is_integer() and abs(ve) <= 64:
                out = make(f"({{}} ** {int(ve)})", lambda x: x ** int(ve), (tb,), (vb,))
            else:
                out = make("math.pow({}, {})", math.pow, (tb, te), (vb, ve))
        elif kind is Neg and type(e.arg) is Neg:
            out = translate(e.arg.arg, binds, memo)
        elif kind is Call or kind is Neg:
            t, v = translate(e.arg, binds, memo)
            out = make(*_FORMS[e.fn if kind is Call else "neg"], (t,), (v,))
        else:
            raise TypeError(f"not an Expr node: {e!r}")
        memo[key] = out
        return out

    memos = {}  # id(bindings) -> {id(expr): (text, value)}
    code = "\n".join(translate(e, binds, memos.setdefault(id(binds), {}))[0]
                     for e, binds in items)
    # a node's text starts with "(" or a function name and balances its
    # parentheses, so it occurs in a text only as that node; outer nodes go
    # first, so that one read only inside one shared node stays unshared
    for text in sorted((t for t, n in nodes.items() if n > 1), key=len, reverse=True):
        head, _, tail = code.partition(text)
        if text in tail:
            name = f"c{code.count(' := ')}"
            code = f"{head}({name} := {text}){tail.replace(text, name)}"
    return code.split("\n")
