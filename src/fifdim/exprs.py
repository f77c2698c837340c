"""Closed-form expression language for scale and displacement functions.

Expressions are written in a tiny grammar over the domain coordinates
``x1 .. xm``::

    expr    := factor (binop factor)*
    binop   := "+" | "-" | "*" | "/"  (the two-operand entries of OPS but
               "^", by their precedence, "+ -" below "*"; "/" binds like "*")
    factor  := "-" factor | power
    power   := atom ("^" number)?
    atom    := number | var | func "(" expr ")" | "(" expr ")"
    func    := "sin" | "cos"  (the "name({})" entries of OPS)
    var     := "x" digits
    number  := (digits ("." digits?)? | "." digits)
               (("e" | "E") ("+" | "-")? digits)?

Digits and the letters of names are ASCII; whitespace may stand between
any two tokens.  The tree has three node types, ``Const``, ``Var`` and
``Op``; ``OPS`` is the one list of operators (``+ - * neg sin cos ^``):
``Op`` evaluates and prints by it, and the parser takes its binary
operators and functions from it.  A power ``Op("^", (base, Const(a)))``
has a strictly positive literal exponent and evaluates as ``|base|**a``,
so every expression is continuous on the domain.  Division is only
allowed by a constant sub-expression with a finite value and reciprocal,
and is folded into a multiplication at parse time.  Brackets and trees
nest at most ``MAX_DEPTH`` deep, well inside Python's recursion limit.
Shape facts (constancy, per-axis affinity/concavity/convexity, Hoelder
data) are user declarations that get audited numerically, not proven
symbolically.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Op",
    "OPS",
    "MAX_DEPTH",
    "SHAPES",
    "ShapeFacts",
    "ExprError",
    "ExprSyntaxError",
    "parse_expr",
    "eval_expr",
    "abs_brackets",
    "audit_shape",
    "holder_seminorm_estimate",
    "affine_expr",
    "multilinear_expr",
]


class ExprError(ValueError):
    """Invalid expression (bad exponent, missing Hoelder facts, ...)."""


class ExprSyntaxError(ExprError):
    """Syntax error; carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# --------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    """Base class for AST nodes.  Nodes are immutable and hashable; ``args``
    holds a node's operand nodes, ``depth`` counts the nodes on the longest
    path from the node to a leaf (set once, as each node is made)."""

    depth = 1

    def ev(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at points ``x`` of shape (..., m); returns a fresh array
        of shape (...)."""
        return _full(self._ev(x), x)

    def _ev(self, x: np.ndarray) -> np.ndarray | float:
        """``ev``, but constants joined by ``+ - * neg`` stay a Python
        float, which broadcasts exactly as its array would."""
        raise NotImplementedError

    def _str(self) -> tuple[str, int]:
        """Return (text, precedence): 0 sum, 1 product, 2 power, 3 atom."""
        raise NotImplementedError

    def max_axis(self) -> int:
        return max((a.max_axis() for a in self.args), default=0)

    def __str__(self) -> str:
        return self._str()[0]


def _full(value: np.ndarray | float, x: np.ndarray) -> np.ndarray:
    """A node's value as an array of shape x.shape[:-1]; the ``full``
    entries of OPS take their first operand so, as numpy's scalar and SIMD
    paths round differently."""
    return np.full(x.shape[:-1], value) if isinstance(value, float) else value


def _paren(child: Expr, min_prec: int) -> str:
    text, prec = child._str()
    return f"({text})" if prec < min_prec else text


class OpSpec(NamedTuple):
    apply: Callable[..., np.ndarray]  # the operands' values -> the node's
    template: str  # one "{}" per operand; an operator takes one or two
    prec: int
    operand_prec: tuple[int, ...]  # an operand below this is parenthesised
    full: bool = False  # the first operand is an array (``_full``)


# The one list of operators; its two-operand entries but "^" are the parser's
# binary operators, its "name({})" templates its functions.  Arithmetic uses
# Python's operators and abs, not the ufuncs, so numpy can write the result
# into a temporary operand, not a new array (a power raises |base| in place).
# A power's base below an atom or a power is parenthesised: '^' does not chain.
OPS = {
    "+": OpSpec(operator.add, "{} + {}", 0, (0, 1)),
    "-": OpSpec(operator.sub, "{} - {}", 0, (0, 1)),
    "*": OpSpec(operator.mul, "{}*{}", 1, (1, 2)),
    "neg": OpSpec(operator.neg, "-{}", 1, (2,)),
    "sin": OpSpec(np.sin, "sin({})", 3, (0,), True),
    "cos": OpSpec(np.cos, "cos({})", 3, (0,), True),
    "^": OpSpec(lambda b, p: operator.ipow(abs(b), p), "{}^{}", 2, (3, 0), True),
}
_FUNCTIONS = {op for op, spec in OPS.items() if spec.template == op + "({})"}


@dataclass(frozen=True)
class Const(Expr):
    value: float
    args = ()

    def _ev(self, x):
        return float(self.value)

    def _str(self):
        v = float(self.value)
        if v < 0:
            return f"-{abs(v)!r}", 1
        return repr(v), 3


@dataclass(frozen=True)
class Var(Expr):
    axis: int  # 1-based
    args = ()

    def ev(self, x):
        return self._ev(x).copy()

    def _ev(self, x):
        return x[..., self.axis - 1]  # a view of x

    def _str(self):
        return f"x{self.axis}", 3

    def max_axis(self):
        return self.axis


@dataclass(frozen=True)
class Op(Expr):
    """An operator of ``OPS`` applied to its operand nodes; the exponent of
    a ``^`` is a ``Const`` > 0, and stays a scalar in ``ev``."""

    op: str
    args: tuple[Expr, ...]

    def __post_init__(self):
        if self.op not in OPS or len(self.args) != len(OPS[self.op].operand_prec):
            raise ExprError(f"no operator {self.op!r} of {len(self.args)} operands")
        if self.op == "^" and not (isinstance(p := self.args[1], Const) and p.value > 0):
            raise ExprError(f"power exponent must be > 0, got {p}")
        object.__setattr__(self, "depth", 1 + max(a.depth for a in self.args))

    def _ev(self, x):
        # by arity: a list of the operand values would cost a frame per node,
        # and a bound operand value is never a temporary numpy writes into
        spec, args = OPS[self.op], self.args
        if len(args) == 2:
            if spec.full:
                return spec.apply(_full(args[0]._ev(x), x), args[1]._ev(x))
            return spec.apply(args[0]._ev(x), args[1]._ev(x))
        a = args[0]._ev(x)
        return spec.apply(_full(a, x) if spec.full else a)

    def _str(self):
        spec = OPS[self.op]
        text = spec.template.format(*map(_paren, self.args, spec.operand_prec))
        return text, spec.prec


# --------------------------------------------------------------------------
# Parser


# One token per match, whitespace between tokens skipped: a number (checked
# against _NUMBER), a name, an operator or a bad character.  Digits and
# letters are ASCII; whitespace is Unicode, as ``str.isspace``.
_TOKEN = re.compile(r"(?P<num>[0-9.]+(?:[eE][+-]?[0-9]+)?)"
                    r"|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^()])|(?P<bad>\S)")
_NUMBER = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# the two-operand entries of OPS but "^" by precedence; "/" binds like "*"
_BINARY = {op: spec.prec for op, spec in OPS.items()
           if len(spec.operand_prec) == 2 and op != "^"}
_BINARY["/"] = _BINARY["*"]
# the most brackets open at once, and the most nodes on a path of a tree
MAX_DEPTH = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, val, off = match.lastgroup, match.group(), match.start()
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {val!r}", off)
        if kind == "num" and not (_NUMBER.fullmatch(val)
                                  and math.isfinite(float(val))):
            raise ExprSyntaxError(f"malformed or overflowing number {val!r}", off)
        tokens.append((kind, val, off))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nest = 0  # brackets open

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}, got {val!r}", off)

    def parse(self) -> Expr:
        e = self.binary()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", off)
        return e

    def binary(self, min_prec: int = 0) -> Expr:
        """Factors joined by the operators of _BINARY that bind at least as
        tightly as ``min_prec``, left to right; a divisor is folded."""
        e = self.factor()
        while (prec := _BINARY.get(self.peek()[1], -1)) >= min_prec:
            _, op, off = self.next()
            rhs = self.binary(prec + 1)
            if op == "/":
                c = _const_value(rhs)
                if c is None:
                    raise ExprSyntaxError("division only by a constant", off)
                if c == 0:
                    raise ExprSyntaxError("division by zero", off)
                if not (math.isfinite(c) and math.isfinite(1.0 / c)):
                    raise ExprSyntaxError(
                        "divisor or its reciprocal is not finite", off)
                op, rhs = "*", Const(1.0 / c)
            e = Op(op, (e, rhs))
            _check_depth(e.depth, off)
        return e

    def factor(self) -> Expr:
        """A power after minus signs, read in a loop, not by recursion."""
        signs = []
        while self.peek()[:2] == ("op", "-"):
            signs.append(self.next()[2])
        start = self.peek()[2]
        e = self.power()
        _check_depth(e.depth, start)
        for off in reversed(signs):
            e = Op("neg", (e,))
            _check_depth(e.depth, off)
        return e

    def power(self) -> Expr:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            k2, v2, off2 = self.next()
            if k2 != "num":
                raise ExprSyntaxError("exponent must be a number literal", off2)
            exp = float(v2)
            if exp <= 0:
                raise ExprSyntaxError("exponent must be > 0", off2)
            return Op("^", (base, Const(exp)))
        return base

    def atom(self) -> Expr:
        kind, val, off = self.next()
        if kind == "num":
            return Const(float(val))
        if kind == "name":
            if val in _FUNCTIONS:
                self.expect_op("(")
                return Op(val, (self.bracketed(off),))
            if val.startswith("x") and val[1:].isdigit():
                axis = int(val[1:])
                if axis < 1:
                    raise ExprSyntaxError("variable index starts at 1", off)
                return Var(axis)
            raise ExprSyntaxError(f"unknown name {val!r}", off)
        if kind == "op" and val == "(":
            return self.bracketed(off)
        raise ExprSyntaxError(f"unexpected token {val!r}", off)

    def bracketed(self, off: int) -> Expr:
        """What stands between a "(" (or its function's name) at ``off``
        and its ")"."""
        self.nest += 1
        _check_depth(self.nest, off)
        e = self.binary()
        self.expect_op(")")
        self.nest -= 1
        return e


def _check_depth(depth: int, off: int) -> None:
    """Reject brackets or a tree nested deeper than ``MAX_DEPTH``."""
    if depth > MAX_DEPTH:
        raise ExprSyntaxError("expression nested too deeply", off)


def _const_value(e: Expr) -> float | None:
    """Value of a variable-free expression, else None; an overflow gives
    inf or nan without a warning, for the caller to judge."""
    if e.max_axis() > 0:
        return None
    with np.errstate(all="ignore"):
        return float(e.ev(np.zeros((1,))))


def parse_expr(text: str) -> Expr:
    """Parse an expression string into an AST."""
    return _Parser(text).parse()


def eval_expr(e: Expr, x) -> np.ndarray | float:
    """Evaluate ``e`` at point(s) ``x`` of shape (..., m)."""
    x = np.asarray(x, dtype=float)
    out = e.ev(x)
    return float(out) if x.ndim == 1 else out


# --------------------------------------------------------------------------
# Shape facts


# Each declarable shape with the sign its midpoint gap
# e((a + b) / 2) - (e(a) + e(b)) / 2 must have (0: the gap vanishes); the
# non-collinearity flavors of ``dimension.FLAVORS`` follow this table.
SHAPES = (("affine", 0), ("concave", 1), ("convex", -1))


@dataclass(frozen=True)
class ShapeFacts:
    """User-declared structural facts about an expression.

    ``affine_in``/``concave_in``/``convex_in`` are 1-based axis index sets.
    An axis declared affine is automatically both concave and convex.
    ``holder_exponent``/``holder_constant`` supply the rigor slack for
    sup/inf brackets of non-constant expressions.
    """

    is_constant: bool = False
    constant_value: float | None = None
    affine_in: frozenset[int] = frozenset()
    concave_in: frozenset[int] = frozenset()
    convex_in: frozenset[int] = frozenset()
    holder_exponent: float | None = None
    holder_constant: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "affine_in", frozenset(self.affine_in))
        for name in ("concave_in", "convex_in"):  # both hold affine_in
            object.__setattr__(
                self, name, frozenset(getattr(self, name)) | self.affine_in)
        if self.holder_exponent is not None and not (0 < self.holder_exponent <= 1):
            raise ExprError("holder exponent must lie in (0, 1]")


def normalize_facts(e: Expr, facts: ShapeFacts | None, m: int) -> ShapeFacts:
    """Fill in auto-detectable facts (variable-free constancy); a constant
    expression is affine in every axis of the m-dim domain."""
    facts = facts or ShapeFacts()
    c = _const_value(e)
    if c is not None:
        facts = ShapeFacts(
            is_constant=True,
            constant_value=c,
            holder_exponent=facts.holder_exponent or 1.0,
            holder_constant=0.0,
        )
    if not facts.is_constant:
        return facts
    allax = frozenset(range(1, m + 1))
    return replace(facts, affine_in=allax, concave_in=allax, convex_in=allax)


# --------------------------------------------------------------------------
# Brackets and audits


def _slack(e: Expr, facts: ShapeFacts | None, mesh_diam: float) -> float:
    if _const_value(e) is not None or (facts is not None and facts.is_constant):
        return 0.0
    if facts is None or facts.holder_exponent is None or facts.holder_constant is None:
        raise ExprError(
            "holder facts (eta, H) required to bracket a non-constant expression"
        )
    return facts.holder_constant * mesh_diam ** facts.holder_exponent


def abs_brackets(e: Expr, pts: np.ndarray, mesh_diam: float,
                 facts: ShapeFacts | None = None):
    """Brackets [lo, hi] of sup |e| and of inf |e| over a region, from one
    evaluation of |e| on its sample points ``pts`` (mesh ``mesh_diam``):
    the grid max is the sup's lo, the grid min the inf's hi, and the
    other ends add the declared slack H * mesh_diam**eta."""
    vals = e.ev(pts)
    vals = np.abs(vals, out=vals)
    slack = _slack(e, facts, mesh_diam)
    top, bot = float(np.max(vals)), float(np.min(vals))
    return (top, top + slack), (max(0.0, bot - slack), bot)


@dataclass(frozen=True)
class ShapeViolation:
    fact: str  # "constant" | "affine" | "concave" | "convex"
    axis: int  # 0 for the constancy fact
    point: tuple[float, ...]
    deviation: float

    def __str__(self):
        where = f"axis {self.axis}" if self.axis else "globally"
        return (
            f"declared {self.fact} {where} violated near {self.point} "
            f"by {self.deviation:.3e}"
        )


def audit_shape(
    e: Expr,
    facts: ShapeFacts,
    region,
    samples: int = 64,
    tol: float = 1e-9,
) -> list[ShapeViolation]:
    """Numerically test declared shape facts on sampled midpoint triples.

    An empty result is evidence of correctness, not proof; a non-empty
    result is a hard misdeclaration.
    """
    if samples < 3:
        raise ExprError("samples must be >= 3")
    rng = np.random.default_rng(12345)
    lo, hi = region.bounding_box()
    m = lo.shape[0]
    out: list[ShapeViolation] = []

    if facts.is_constant:
        pts = region.sample_points(6)
        vals = e.ev(pts)
        spread = float(np.max(vals) - np.min(vals))
        if spread > tol:
            worst = pts[int(np.argmax(np.abs(vals - vals[0])))]
            out.append(ShapeViolation("constant", 0, tuple(worst), spread))

    def axis_triples(r):
        # endpoints varying only in axis r, other coordinates shared
        base = rng.uniform(lo, hi, size=(samples, m))
        a, b = base.copy(), base.copy()
        ta = rng.uniform(lo[r - 1], hi[r - 1], size=samples)
        tb = rng.uniform(lo[r - 1], hi[r - 1], size=samples)
        a[:, r - 1] = np.minimum(ta, tb)
        b[:, r - 1] = np.maximum(ta, tb)
        # deterministic extreme segment as well
        a[0], b[0] = base[0].copy(), base[0].copy()
        a[0, r - 1], b[0, r - 1] = lo[r - 1], hi[r - 1]
        mid = 0.5 * (a + b)
        return a, b, mid

    for fact, sign in SHAPES:
        for r in sorted(getattr(facts, f"{fact}_in")):
            a, b, mid = axis_triples(r)
            gap = e.ev(mid) - 0.5 * (e.ev(a) + e.ev(b))
            bad = sign * gap < -tol if sign else np.abs(gap) > tol
            if np.any(bad):
                j = int(np.argmax(np.abs(gap) * bad))
                out.append(ShapeViolation(fact, r, tuple(mid[j]), float(abs(gap[j]))))
    return out


def holder_seminorm_estimate(
    e: Expr, eta: float, region, pairs: int = 4000
) -> float:
    """Lower estimate of the Hoelder-eta seminorm by pair sampling.

    Mixes random pairs, near-diagonal pairs and corner-anchored pairs so
    that suprema attained in the x' -> x or x' -> boundary limits are seen.
    """
    if not (0 < eta <= 1):
        raise ExprError("eta must lie in (0, 1]")
    rng = np.random.default_rng(98765)
    lo, hi = region.bounding_box()
    m = lo.shape[0]
    xs = [rng.uniform(lo, hi, size=(pairs, m))]
    ys = [rng.uniform(lo, hi, size=(pairs, m))]
    # near-diagonal
    base = rng.uniform(lo, hi, size=(pairs, m))
    step = (hi - lo) * rng.uniform(1e-8, 1e-3, size=(pairs, 1))
    xs.append(base)
    ys.append(np.clip(base + step, lo, hi))
    # corner anchored
    grid = region.sample_points(6)
    for c in (lo, hi):
        xs.append(np.broadcast_to(c, grid.shape).copy())
        ys.append(grid)
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    d = np.linalg.norm(x - y, axis=-1)
    keep = d > 0
    x, y, d = x[keep], y[keep], d[keep]
    ratios = np.abs(e.ev(x) - e.ev(y)) / d**eta
    return float(np.max(ratios)) if ratios.size else 0.0


# --------------------------------------------------------------------------
# Constructors used by the displacement solver


def multilinear_expr(coeffs: dict[frozenset, float], origin=None) -> Expr:
    """Build sum_J e_J * prod_{j in J} (x_j - o_j) as an AST, with x_j
    alone where o_j = 0 (``origin`` o, zero by default)."""
    items = sorted(coeffs.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    e: Expr | None = None
    for axes, c in items:
        t: Expr = Const(float(c))
        for a in sorted(axes):
            o = 0.0 if origin is None else float(origin[a - 1])
            t = Op("*", (t, Op("-", (Var(a), Const(o))) if o else Var(a)))
        e = t if e is None else Op("+", (e, t))
    return e if e is not None else Const(0.0)


def affine_expr(intercept: float, slopes: dict[int, float]) -> Expr:
    """Build intercept + sum_r slopes[r] * x_r as an AST."""
    coeffs = {frozenset({r}): float(c) for r, c in slopes.items()}
    return multilinear_expr({frozenset(): float(intercept), **coeffs})
