"""Expression language: parsing, printing, brackets, shape audits."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import get_model
from fifdim.domains import Box, Triangle, gasket_domain, vertex_set
from fifdim.exprs import (
    MAX_DEPTH,
    OPS,
    Const,
    Expr,
    ExprError,
    ExprSyntaxError,
    Op,
    ShapeFacts,
    Var,
    abs_brackets,
    affine_expr,
    audit_shape,
    eval_expr,
    holder_seminorm_estimate,
    multilinear_expr,
    normalize_facts,
    parse_expr,
)

UNIT = Box((0.0,), (1.0,))
SQUARE = Box((0.0, 0.0), (1.0, 1.0))


def test_parse_basic_arithmetic():
    e = parse_expr("1/2 - x1^2/6")
    assert eval_expr(e, np.array([0.0])) == pytest.approx(0.5)
    assert eval_expr(e, np.array([1.0])) == pytest.approx(0.5 - 1 / 6)


def test_parse_sin_quarter():
    # [DERIVED] sin(1)/4 = 0.21036774620197414 (mpmath-style oracle: math.sin)
    e = parse_expr("sin(x1)/4")
    assert eval_expr(e, np.array([1.0])) == pytest.approx(
        0.21036774620197414, abs=1e-15
    )


def test_parse_power_is_abs_power():
    e = parse_expr("x1^0.8")
    assert eval_expr(e, np.array([-0.5])) == pytest.approx(0.5**0.8)


def test_power_entry_is_abs_power_bitwise():
    # |base| raised in place, with numpy's fast paths for 2, 0.5 and -1
    b = np.random.default_rng(3).normal(size=100_000) * 3
    for p in (0.8, 2.0, 0.5, 3.0, -1.0):
        assert OPS["^"].apply(b, p).tobytes() == (abs(b) ** p).tobytes()


@pytest.mark.parametrize("text, arrays", [
    ("sin(x1)^2", 2), ("(x1*0.5 + 0.1)^0.8", 2), ("x1^0.8*0.5", 1)])
def test_power_makes_no_array_past_its_base(text, arrays):
    # the tracemalloc peak of ev in arrays of the 200,000 points: a power
    # writes |base| into one new array, raises it there, and what follows
    # writes into that
    x = np.linspace(0.1, 0.9, 200_000)[:, None]
    e = parse_expr(text)
    tracemalloc.start()
    try:
        e.ev(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert round(peak / x.nbytes) == arrays


def test_parse_precedence_and_unary_minus():
    e = parse_expr("-x1 + 2*x1^2")
    assert eval_expr(e, np.array([3.0])) == pytest.approx(-3 + 18)
    # the binary operators bind by their precedence, left to right
    for text, value in (("1 - 2 - 3", -4.0), ("8/2/2", 2.0), ("-2^2 + 1", -3.0),
                        ("1 + 2*3 - 4/2", 5.0), ("2*(1 + 2)*-1", -6.0)):
        assert eval_expr(parse_expr(text), np.zeros(1)) == value


def test_division_by_expression_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("1/x1")


def test_division_by_zero_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1/0")


@pytest.mark.parametrize("text", [
    "x1/(1e200*1e200)", "x1/1e200^2", "x1/1e-310", "x1/(0*(1e200*1e200))"],
    ids=["divisor-inf", "divisor-power-inf", "reciprocal-inf", "divisor-nan"])
def test_divisor_and_its_reciprocal_must_be_finite(text):
    # these folded to x1*0.0 (one with a RuntimeWarning), x1*inf, x1*nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExprSyntaxError) as ei:
            parse_expr(text)
    assert str(ei.value) == "divisor or its reciprocal is not finite (at offset 2)"


# (text, offset): where the bracket, sign or operator past MAX_DEPTH stands
DEEP = [
    ("(" * 250 + "x1" + ")" * 250, MAX_DEPTH),
    ("-" * 1000 + "x1", 1000 - MAX_DEPTH),
    (" + ".join(["x1/10000"] * 1000), 11 * (MAX_DEPTH - 1) - 2),
    ("sin(" * 200 + "x1" + ")" * 200, 4 * MAX_DEPTH),
]


@pytest.mark.parametrize("text, offset", DEEP,
                         ids=["parentheses", "minus-signs", "sum", "sin"])
def test_deep_expressions_rejected_at_the_depth_limit(text, offset):
    # the first three ended in a RecursionError (the sum only in max_axis)
    with pytest.raises(ExprSyntaxError) as ei:
        parse_expr(text)
    assert str(ei.value) == f"expression nested too deeply (at offset {offset})"


@pytest.mark.parametrize("text", [
    "(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH,
    "-" * (MAX_DEPTH - 1) + "x1",
    " + ".join(["x1"] * MAX_DEPTH),
    "sin(" * (MAX_DEPTH - 1) + "x1" + ")" * (MAX_DEPTH - 1),
], ids=["parentheses", "minus-signs", "sum", "sin"])
def test_expressions_at_the_depth_limit_parse_print_and_parse_again(text):
    e = parse_expr(text)
    assert e.depth <= MAX_DEPTH and parse_expr(str(e)) == e
    assert e.ev(np.full((3, 1), 0.5)).shape == (3,)


def test_nonpositive_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1^-1")
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1^0")


def test_power_exponent_is_a_positive_const():
    for exponent in (Const(0.0), Const(-1.0), Var(1)):
        with pytest.raises(ExprError) as ei:
            Op("^", (Var(1), exponent))
        assert str(ei.value) == f"power exponent must be > 0, got {exponent}"
    assert Op("^", (Var(1), Const(0.5))) == parse_expr("x1^0.5")


def test_power_does_not_chain():
    with pytest.raises(ExprSyntaxError) as ei:
        parse_expr("x1^2^3")
    assert str(ei.value) == "trailing input '^' (at offset 4)"
    assert ei.value.offset == 4


# (text, printed, depth): a power's base is parenthesised below an atom and
# when it is a power itself; the printed text parses to the same tree
PRINTED = [
    ("x1^0.8/2", "x1^0.8*0.5", 3),
    ("1/2 - x1^2/6", "1.0*0.5 - x1^2.0*0.16666666666666666", 4),
    ("-x1^2", "-x1^2.0", 3),
    ("(x1^2)^3", "(x1^2.0)^3.0", 3),
    ("sin(x1)^2", "sin(x1)^2.0", 3),
    ("(-x1)^0.5", "(-x1)^0.5", 3),
    ("(x1*x2)^2", "(x1*x2)^2.0", 3),
    ("(x1+1)^2", "(x1 + 1.0)^2.0", 3),
    ("2^0.5*x1", "2.0^0.5*x1", 3),
    ("-(2.5)^2", "-2.5^2.0", 3),
    ("(-2.5)^2", "(-2.5)^2.0", 3),
]


@pytest.mark.parametrize("text, printed, depth", PRINTED,
                         ids=[t for t, _, _ in PRINTED])
def test_printed_text_and_depth(text, printed, depth):
    e = parse_expr(text)
    assert (str(e), e.depth) == (printed, depth)
    assert parse_expr(printed) == e


# every s_i, then every q_i, of each bundled config's model as printed,
# with its depth (the declared ones parsed, the solved ones built); the
# text parses to a tree that prints the same
MODEL_EXPRS = {
    "example5_case1_one": [
        ("1.0*0.25", 2),
        ("1.0*0.5", 2),
        ("3.0*0.25", 2),
        ("x1^0.8*0.5", 3),
        ("1.0*0.5 - x1^2.0*0.16666666666666666", 4),
        ("1.0*0.3333333333333333 - x1*0.3333333333333333", 3),
    ],
    "example5_case1_sin": [
        ("sin(x1)*0.25", 3),
        ("1.0*0.5", 2),
        ("3.0*0.25", 2),
        ("x1^0.8*0.5", 3),
        ("1.0*0.5 - x1^2.0*0.16666666666666666", 4),
        ("1.0*0.3333333333333333 - x1*0.3333333333333333", 3),
    ],
    "example5_case2": [
        ("1.0*0.25", 2),
        ("1.0*0.5", 2),
        ("3.0*0.25", 2),
        ("x1^0.8*0.5", 3),
        ("1.0*0.5 - x1^2.0*0.16666666666666666", 4),
        ("1.0*0.3333333333333333 - x1*0.3333333333333333", 3),
    ],
    "sg_exact": [
        ("4.0*0.2", 2),
        ("4.0*0.2", 2),
        ("4.0*0.2", 2),
        ("0.19999999999999996 + -0.19999999999999996*x1"
         " + -0.11547005383792514*x2", 4),
        ("-0.8 + 0.8*x1 + 0.46188021535170065*x2", 4),
        ("-0.8 + 0.8*x1 + 0.46188021535170065*x2", 4),
    ],
    "degenerate_interval": [
        ("0.0", 1),
        ("0.0", 1),
        ("0.0", 1),
        ("0.0 + 0.5*x1", 3),
        ("0.5 + 0.0*x1", 3),
        ("0.5 + -0.5*x1", 3),
    ],
    "degenerate_cube": [
        ("0.0", 1),
        ("0.0", 1),
        ("0.0", 1),
        ("0.0", 1),
        ("0.0 + 0.5*x1 + 0.0*x2 + -0.25*x1*x2", 5),
        ("0.0 + 0.5*x1 + 0.0*x2 + -0.25*x1*x2", 5),
        ("0.0 + 0.5*x1 + 0.0*x2 + -0.25*x1*x2", 5),
        ("0.0 + 0.5*x1 + 0.0*x2 + -0.25*x1*x2", 5),
    ],
}


@pytest.mark.parametrize("name", list(MODEL_EXPRS))
def test_model_expressions_print_and_parse_back(name):
    model = get_model(name)
    maps = [e for e, _ in model.s + model.q]
    assert [(str(e), e.depth) for e in maps] == MODEL_EXPRS[name]
    assert [str(parse_expr(str(e))) for e in maps] == [str(e) for e in maps]


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as ei:
        parse_expr("x1 + @")
    assert ei.value.offset == 5


@pytest.mark.parametrize("text, offset, message", [
    (".e3", 0, "malformed or overflowing number '.e3'"),
    ("2*.e-5", 2, "malformed or overflowing number '.e-5'"),
    ("x1\u00b2", 2, "unexpected character '\u00b2'"),
    ("\u00b2", 0, "unexpected character '\u00b2'"),
    ("\u0663", 0, "unexpected character '\u0663'"),
    ("x\u0661", 1, "unexpected character '\u0661'"),
], ids=["dot-exponent", "dot-exponent-operand", "superscript-after-x1",
        "superscript", "arabic-indic-digit", "arabic-indic-axis"])
def test_numbers_and_names_are_ascii(text, offset, message):
    # the first four raised a bare ValueError; Arabic-Indic 3 read as 3.0
    # and x with an Arabic-Indic 1 as x1
    with pytest.raises(ExprSyntaxError) as ei:
        parse_expr(text)
    assert ei.value.offset == offset
    assert str(ei.value) == f"{message} (at offset {offset})"


def test_number_forms_of_the_grammar():
    for text, value in (("1.", 1.0), ("1.5e2", 150.0), (".5E-1", 0.05),
                        ("3e+0", 3.0), ("\u00a02\t", 2.0)):
        assert parse_expr(text) == Const(value)


_TEXT = st.lists(st.sampled_from(["x1", "x2", "sin", "cos", "(", ")", "+", "-",
                                  "*", "/", "^", ".", "e", "1", "0.5", " "])
                 | st.characters(max_codepoint=127)
                 | st.sampled_from(["\u00b2", "\u0663", "\u00e9", "\u00a0"]),
                 max_size=12).map("".join)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_TEXT)
@example(".e3")
@example("x1\u00b2")
def test_parse_expr_returns_an_expr_or_raises_expr_error(text):
    try:
        e = parse_expr(text)
    except ExprError:
        return
    assert isinstance(e, Expr)


def test_unknown_name_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("tan(x1)")


def test_str_round_trip_simple():
    for text in ["x1", "sin(x1)", "1/2 - x1^2/6", "x1*x2 + x2", "-(x1 + x2)"]:
        e = parse_expr(text)
        again = parse_expr(str(e))
        pts = np.random.default_rng(0).uniform(0, 1, size=(64, 2))
        assert np.allclose(e.ev(pts), again.ev(pts), atol=1e-14)


# the operators of OPS with node operands; a power is drawn on its own
_NOT_POWER = sorted(set(OPS) - {"^"})


@st.composite
def exprs(draw, depth=0):
    if depth > 3:
        choice = draw(st.integers(0, 1))
    else:
        choice = draw(st.integers(0, 5))
    if choice == 0:
        return Const(draw(st.floats(-4, 4, allow_nan=False, width=32)))
    if choice == 1:
        return Var(draw(st.integers(1, 2)))
    if choice in (2, 3, 4):
        op = draw(st.sampled_from(_NOT_POWER))
        arity = len(OPS[op].operand_prec)
        return Op(op, tuple(draw(exprs(depth=depth + 1)) for _ in range(arity)))
    return Op("^", (draw(exprs(depth=depth + 1)),
                    Const(draw(st.sampled_from([0.5, 1.0, 2.0])))))


@pytest.mark.parametrize("op", sorted(OPS))
def test_every_operator_prints_parses_and_evaluates_as_its_table_entry(op):
    spec = OPS[op]
    e = Op(op, tuple(Var(r) for r in range(1, len(spec.operand_prec) + 1))
           if op != "^" else (Var(1), Const(0.8)))  # a literal exponent
    again = parse_expr(str(e))
    assert again == e
    pts = np.random.default_rng(2).uniform(-3, 3, size=(64, 2))
    want = spec.apply(*(a._ev(pts) for a in e.args))
    assert again.ev(pts).tobytes() == want.tobytes()


def test_op_rejects_unknown_operator_and_wrong_arity():
    for op, args in (("tan", (Var(1),)), ("+", (Var(1),)), ("neg", ())):
        with pytest.raises(ExprError):
            Op(op, args)


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_print_parse_round_trip_property(e):
    text = str(e)
    again = parse_expr(text)
    pts = np.random.default_rng(1).uniform(-1, 1, size=(16, 2))
    va, vb = e.ev(pts), again.ev(pts)
    assert np.allclose(va, vb, rtol=1e-12, atol=1e-12, equal_nan=True)


@st.composite
def constant_heavy_exprs(draw, depth=0):
    """Trees whose leaves are mostly constants, so all-constant subtrees
    are common, also under sin, cos and ^."""
    choice = draw(st.integers(0, 2 if depth > 3 else 5))
    if choice in (0, 1):
        return Const(draw(st.floats(-4, 4, allow_nan=False, width=32)))
    if choice == 2:
        return Var(draw(st.integers(1, 2)))
    if choice in (3, 4):
        op = draw(st.sampled_from(_NOT_POWER))
        arity = len(OPS[op].operand_prec)
        return Op(op, tuple(draw(constant_heavy_exprs(depth=depth + 1))
                            for _ in range(arity)))
    return Op("^", (draw(constant_heavy_exprs(depth=depth + 1)),
                    Const(draw(st.sampled_from([0.8, 1.0, 2.0])))))


def _filled_ev(e, x):
    """Reference evaluation in which every Const is an np.full array, but
    a power's exponent."""
    if isinstance(e, Const):
        return np.full(x.shape[:-1], float(e.value))
    if isinstance(e, Var):
        return x[..., e.axis - 1].copy()
    if e.op == "^":
        return np.abs(_filled_ev(e.args[0], x)) ** e.args[1].value
    return OPS[e.op].apply(*(_filled_ev(a, x) for a in e.args))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(constant_heavy_exprs(), st.sampled_from([(33, 2), (3, 5, 2)]))
@example(Const(0.7), (33, 2))
@example(Var(2), (33, 2))
@example(Op("sin", (Op("*", (Const(0.3), Const(2.5))),)), (33, 2))
@example(Op("cos", (Op("neg", (Const(1.1),)),)), (3, 5, 2))
# |0.5 - 1.2|^0.8 and |-1.1|^0.8 round differently as Python floats
@example(Op("^", (Op("-", (Const(0.5), Const(1.2))), Const(0.8))), (33, 2))
@example(Op("*", (Var(1), Op("^", (Op("neg", (Const(1.1),)), Const(0.8))))),
         (3, 5, 2))
@example(Op("+", (Op("*", (Const(0.25), Var(1))), Const(1 / 3))), (33, 2))
def test_ev_is_a_fresh_array_bitwise_equal_to_filled_constants(e, shape):
    x = np.random.default_rng(3).uniform(-2, 2, size=shape)
    got = e.ev(x)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == shape[:-1]
    assert got.base is None and not np.shares_memory(got, x)
    assert got.tobytes() == _filled_ev(e, x).tobytes()


def _brackets(e, region, depth, facts=None):
    """The (sup |e|, inf |e|) brackets of a build, on the region's grid."""
    return abs_brackets(e, region.sample_points(depth),
                        region.mesh_diameter(depth), facts)


def test_sup_norm_constant_exact():
    lo, hi = _brackets(parse_expr("3/4"), UNIT, 8)[0]
    assert lo == hi == pytest.approx(0.75)


def test_sup_norm_bracket_contains_true_sup():
    facts = ShapeFacts(holder_exponent=1.0, holder_constant=0.25)
    lo, hi = _brackets(parse_expr("sin(x1)/4"), UNIT, 10, facts)[0]
    true = math.sin(1.0) / 4
    assert lo <= true <= hi
    assert hi - lo < 1e-3


def test_inf_abs_bracket():
    facts = ShapeFacts(holder_exponent=1.0, holder_constant=0.25)
    lo, hi = _brackets(parse_expr("sin(x1)/4"), UNIT, 10, facts)[1]
    assert lo == 0.0  # sin(0)/4 = 0 attained at the boundary
    assert hi <= 1e-6


def test_gasket_brackets_sample_K_not_its_holes():
    # d peaks at the centroid, inside the central hole; on K (and V_12) its
    # sup is 11/12 and the inf of 1 - d is 1/12, at the hole's edge midpoints
    c = math.sqrt(3) / 6
    tri = Triangle(((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)))
    d = parse_expr(f"1 - 4*((x1 - 1/2)^2 + (x2 - {c!r})^2)")
    facts = ShapeFacts(holder_exponent=1.0, holder_constant=5.0)
    v12 = vertex_set(gasket_domain(tri.verts, 1), 12)
    top = float(np.max(np.abs(d.ev(v12))))
    assert top == pytest.approx(11 / 12, abs=1e-12)
    lo, hi = _brackets(d, tri, 12, facts)[0]
    assert lo <= top <= hi
    lo, hi = _brackets(parse_expr(f"1 - ({d})"), tri, 12, facts)[1]
    assert lo <= 1 - top <= hi


def test_sup_norm_requires_holder_facts_for_nonconstant():
    with pytest.raises(ExprError):
        _brackets(parse_expr("x1"), UNIT, 8, None)


def test_audit_accepts_true_facts():
    e = parse_expr("x1^0.8/2")
    facts = ShapeFacts(concave_in={1}, holder_exponent=0.8, holder_constant=0.5)
    assert audit_shape(e, facts, UNIT) == []


def test_audit_rejects_false_concavity():
    e = parse_expr("x1^2")  # convex, not concave
    facts = ShapeFacts(concave_in={1})
    bad = audit_shape(e, facts, UNIT)
    assert bad and bad[0].fact == "concave"


def test_audit_rejects_false_constancy():
    facts = ShapeFacts(is_constant=True, constant_value=0.0)
    assert audit_shape(parse_expr("x1"), facts, UNIT)


def test_audit_affine_in_one_axis_of_square():
    e = parse_expr("x1*x2")  # affine in each axis separately
    facts = ShapeFacts(affine_in={1, 2})
    assert audit_shape(e, facts, SQUARE) == []


def test_normalize_facts_detects_constant():
    f = normalize_facts(parse_expr("1/4 + 1/4"), None, 2)
    assert f.is_constant and f.constant_value == pytest.approx(0.5)
    assert f.affine_in == frozenset({1, 2})


def test_shape_facts_affine_implies_concave_convex():
    f = ShapeFacts(affine_in={1})
    assert 1 in f.concave_in and 1 in f.convex_in


def test_holder_exponent_validation():
    with pytest.raises(ExprError):
        ShapeFacts(holder_exponent=1.5)


def test_holder_seminorm_estimate_identity():
    est = holder_seminorm_estimate(parse_expr("x1"), 1.0, UNIT)
    assert est == pytest.approx(1.0, abs=1e-6)


def test_holder_seminorm_estimate_power():
    # [DERIVED] |x^0.8 - y^0.8| / |x-y|^0.8 has sup 1 on [0,1] (at y=0)
    est = holder_seminorm_estimate(parse_expr("x1^0.8"), 0.8, UNIT)
    assert 0.97 <= est <= 1.0 + 1e-9


def test_multilinear_expr_matches_coeffs():
    e = multilinear_expr(
        {frozenset(): 1.0, frozenset({1}): 2.0, frozenset({1, 2}): -3.0}
    )
    x = np.array([[0.5, 0.25]])
    assert e.ev(x)[0] == pytest.approx(1 + 2 * 0.5 - 3 * 0.5 * 0.25)


def test_affine_expr():
    e = affine_expr(1.0, {1: -2.0})
    assert eval_expr(e, np.array([0.25])) == pytest.approx(0.5)
