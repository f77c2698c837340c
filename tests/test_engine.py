"""Model construction, join-up validation and evaluation."""

import collections
import dataclasses
import importlib
import inspect
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fifdim
from conftest import CONFIG_DIR, CONFIG_NAMES, get_config, get_model, key_dedup
from fifdim.cli import main
from fifdim.config import ConfigError, load_config, parse_number
from fifdim.dimension import CollinearWitness, empirical_dimension, witness_height_check
from fifdim.domains import (
    Box,
    BudgetError,
    cube_domain,
    gasket_domain,
    interval_domain,
    node_indices,
    vertex_set,
)
from fifdim.engine import (
    CONSISTENCY_TOL,
    OFF_K_ULPS,
    SUP_DEPTH,
    FifSpec,
    ModelError,
    _fit,
    apply_T,
    build_model,
    evaluate_at,
    evaluate_on_vk,
)
from fifdim.exprs import SHAPES, Const, Expr, Op, ShapeFacts, parse_expr
from fifdim.oscillation import holder_to_osc_check, seminorm
from test_cli import Q0, _set
from test_dimension import _pinned_models

HASHES = pathlib.Path(__file__).resolve().parent / "output_sha256.json"

# [DERIVED] on the equally spaced Case (ii) model:
# f*(1/9) = s_1 f*(1/3) + q_1(1/3) = (1/4)(1/2) + (1/3)^0.8 / 2
F_STAR_AT_NINTH = 0.25 * 0.5 + (1 / 3) ** 0.8 / 2


def test_build_model_all_configs(each_model):
    name, model = each_model
    assert model.joinup_residual <= 1e-9
    assert model.s_norm[1] < 1


def test_join_up_rejects_broken_data():
    cfg = get_config("example5_case2")
    spec = cfg.spec
    bad_data = list(spec.data)
    bad_data[1] = (bad_data[1][0], bad_data[1][1] + 0.01)
    bad = FifSpec(spec.domain, bad_data, spec.s, spec.q, spec.eta)
    with pytest.raises(ModelError, match="join-up"):
        build_model(bad)


def test_solved_displacements_keep_their_digits_far_from_the_origin():
    # q_i is fitted in x - lo, so q_i(x) = a (x - lo) + b keeps b of the
    # data's order; fitted in x, |b| ~ |a| 5e4 lost digits to ulp(|b|) and
    # the build failed with join-up residual 3.030e-09
    d = interval_domain([-5e4 + 1e-3 * t for t in (0, 0.3, 0.7, 1)], (0, 0, 0))
    nodes = vertex_set(d, 1)
    values = np.random.default_rng(0).normal(size=len(nodes))
    model = build_model(FifSpec(d, list(zip(map(tuple, nodes), values)),
                                [(Const(0.5), None)] * 3, "solve"))
    assert model.joinup_residual <= 1e-12
    assert all("(x1 - -50000.0)" in str(q) for q, _ in model.q)


def test_validate_join_up_residual_zero_on_case2():
    model = get_model("example5_case2")
    spec = FifSpec(
        model.domain,
        [(tuple(p), v) for p, v in zip(*evaluate_on_vk(model, 1))],
        model.s,
        model.q,
        model.eta,
    )
    assert build_model(spec).joinup_residual <= 1e-12


def test_solve_q_affine_oracle():
    # s = (1/4, 1/2, 3/4), data (0, 1/2, 1/3, 0): q_1 must be x/2
    q1 = _solved("example5_case2", "affine")[0][0]
    xs = np.linspace(0, 1, 11)[:, None]
    assert np.allclose(q1.ev(xs), xs[:, 0] / 2, atol=1e-12)


def _solved(name, family):
    spec = get_config(name).spec
    return build_model(FifSpec(spec.domain, spec.data, spec.s, family, 1.0)).q


@pytest.mark.parametrize("name, same", [
    ("degenerate_interval", ("affine", "multilinear")),
    ("example5_case2", ("affine", "multilinear")),
    ("sg_exact", ("affine", "sg_affine")),
])
def test_solve_families_that_name_one_basis_agree(name, same):
    # on an interval every J is |J| <= 1; "sg_affine" is "affine"
    a, b = (_solved(name, family) for family in same)
    pts = vertex_set(get_config(name).spec.domain, 3)
    for (ea, fa), (eb, fb) in zip(a, b):
        assert str(ea) == str(eb) and fa == fb
        assert ea.ev(pts).tobytes() == eb.ev(pts).tobytes()


def test_solve_q_reproduces_data_on_v1(each_model):
    name, model = each_model
    pts, vals = evaluate_on_vk(model, 1)
    expected = model.p_at(pts)
    assert np.max(np.abs(vals - expected)) <= 1e-12


@pytest.mark.parametrize("eta", [-3.0, 0.0, math.nan, math.inf])
def test_build_model_rejects_bad_eta(eta):
    spec = get_config("example5_case2").spec
    bad = FifSpec(spec.domain, spec.data, spec.s, spec.q, eta)
    with pytest.raises(ModelError, match="eta"):
        build_model(bad)


def test_scale_norm_too_large_rejected():
    d = interval_domain((0.0, 0.5, 1.0), (0, 0))
    data = [((0.0,), 0.0), ((0.5,), 1.0), ((1.0,), 0.0)]
    spec = FifSpec(
        d, data, [(parse_expr("1"), None)] * 2, "solve", 1.0
    )
    with pytest.raises(ModelError, match="must be < 1"):
        build_model(spec)


def test_shape_audit_rejects_misdeclared_facts():
    cfg = get_config("example5_case2")
    spec = cfg.spec
    bad_s = list(spec.s)
    bad_s[0] = (
        parse_expr("x1^2/4"),
        ShapeFacts(concave_in={1}, holder_exponent=1.0, holder_constant=0.5),
    )
    with pytest.raises(ModelError, match="shape audit"):
        build_model(FifSpec(spec.domain, spec.data, bad_s, spec.q, spec.eta))


def test_well_defined_interval_always_ok():
    # interval cells meet in knots: no signature needs to alternate
    d = interval_domain((0.0, 0.5, 1.0), (0, 0))
    data = [((0.0,), 0.0), ((0.5,), 1.0), ((1.0,), 0.0)]
    model = build_model(FifSpec(d, data, [(Const(0.5), None)] * 2, "solve"))
    assert model.joinup_residual <= 1e-12


def test_well_defined_cube_requires_alternating_signature():
    d = cube_domain([((0.0, 0.5, 1.0), (0, 0)), ((0.0, 0.5, 1.0), (0, 1))])
    data = get_config("degenerate_cube").spec.data  # its V is this cube's
    spec = FifSpec(d, data, [(Const(0.0), None)] * 4, "multilinear", 1.0)
    with pytest.raises(ModelError, match=re.escape(
            "ill-posed operator: signature not alternating on axis 1")):
        build_model(spec)


def test_well_defined_cube_face_mismatch_detected():
    # x1 x2 (1 - x2) is 0 on V_0, so the join-up conditions still hold, but
    # on the face x1 = 1 of map (1, 1) it reaches 1/4 at x2 = 1/2, where map
    # (2, 1), flipped along axis 1, adds nothing
    spec, model = get_config("degenerate_cube").spec, get_model("degenerate_cube")
    q = list(model.q)
    q[0] = (Op("+", (q[0][0], parse_expr("x1*x2 - x1*x2^2"))),
            ShapeFacts(holder_exponent=1.0, holder_constant=4.0))
    with pytest.raises(ModelError, match=re.escape(
            "ill-posed operator: face mismatch between maps (1, 1) and "
            "(2, 1) (max gap 2.500e-01)")):
        build_model(FifSpec(spec.domain, spec.data, model.s, q, 1.0))


def _data(j, **entry):
    """An edit of example5_case2's JSON that updates data[j] with ``entry``."""
    return lambda raw: raw["data"][j].update(entry)


X2 = {"expr": "x2/4", "facts": {"eta": 1, "H": "1/4"}}  # a variable beyond m = 1
CASE2 = "example5_case2"


def _needs(at):
    """The errors of the entry ``at`` with a variable and no Hoelder facts."""
    return [(f"{at}.facts.{k}", "required for a non-constant expression")
            for k in ("eta", "H")]


# one defect per row, as an edit of a bundled config's JSON, and the (path,
# message) pairs of the rules it breaks; the data rows come first, then the
# map count and eta rows, then the family and facts rows
SPEC_DEFECTS = [
    pytest.param(CASE2, _data(1, point=["1/2"]), [("data[1].point", "not a node of V")],
                 id="point-off-V"),
    pytest.param(CASE2, _data(2, point=["1/3"]),
                 [("data[2].point", "repeats the point of data[1]")], id="point-twice"),
    pytest.param(CASE2, _data(1, point=["1/3", "0"]), [(
        "data[1].point", "must have the domain's m = 1 coordinates, got 2")],
        id="point-wrong-length"),
    pytest.param(CASE2, lambda raw: raw["data"].pop(1),
                 [("data", "no value at (0.3333333333333333,)")],
                 id="node-without-value"),
    pytest.param(CASE2, _data(1, value=math.nan),
                 [("data[1].value", "must be finite, got nan")], id="value-NaN"),
    pytest.param(CASE2, _data(1, value=math.inf),
                 [("data[1].value", "must be finite, got inf")], id="value-inf"),
    pytest.param(CASE2, lambda raw: raw["data"].extend(
        [{"point": ["1/2"], "value": 9}, {"point": ["1/3"], "value": "1/2"}]),
                 [("data[4].point", "not a node of V"),
                  ("data[5].point", "repeats the point of data[1]")],
                 id="off-V-and-repeat"),
    pytest.param(CASE2, lambda raw: raw["scales"].pop(), [("scales", "expected 3 "
                 "entries (one per map index 1..3), got 2: map index 3 has no entry")],
                 id="scale-missing"),
    pytest.param(CASE2, lambda raw: raw["scales"].append("1/4"),
                 [("scales", "expected 3 entries, got 4")], id="scale-extra"),
    pytest.param(CASE2, lambda raw: raw["displacements"].pop(0), [(
        "displacements", "expected 3 entries (one per map index 1..3), got 2: "
        "map index 3 has no entry")], id="displacement-missing"),
    *(pytest.param(CASE2, _set("eta", eta),
                   [("eta", f"must be a finite number > 0, got {float(eta)}")],
                   id=f"eta-{eta}") for eta in (-3, 0, math.nan, math.inf)),
    pytest.param(CASE2, _set("scales", 0, X2),
                 [("scales[0].expr", "x2 is beyond the domain's m = 1")],
                 id="scale-beyond-m"),
    pytest.param(CASE2, lambda raw: raw.update(scales=[X2, "1/2", "3/4"],
                                               displacements={"solve": True}),
                 [("scales[0].expr", "x2 is beyond the domain's m = 1")],
                 id="scale-beyond-m-solved"),
    pytest.param(CASE2, _set("displacements", 1, "expr", "x3"),
                 [("displacements[1].expr", "x3 is beyond the domain's m = 1")],
                 id="displacement-beyond-m"),
    pytest.param(CASE2, _set("displacements", {"solve": "quadratic"}),
                 [("displacements.solve", "must name one of the families affine, "
                   "multilinear, sg_affine, got 'quadratic'")], id="family-unknown"),
    pytest.param("degenerate_cube", _set("displacements", {"solve": "affine"}),
                 [("displacements.solve", "family 'affine' has 3 unknowns but 4 "
                   "boundary constraints")], id="family-affine-on-a-cube"),
    pytest.param("sg_exact", _set("displacements", {"solve": "multilinear"}),
                 [("displacements.solve", "family 'multilinear' has 4 unknowns but "
                   "3 boundary constraints")], id="family-multilinear-on-the-gasket"),
    pytest.param(CASE2, _set("scales", 1, "x1/4"), _needs("scales[1]"),
                 id="scale-no-facts"),
    pytest.param(CASE2, _set("displacements", 1, "x1/4"), _needs("displacements[1]"),
                 id="displacement-no-facts"),
    pytest.param("example5_case1_sin", _set("scales", 0, "facts", "H", "-1/2"),
                 [("scales[0].facts.H", "must be finite, >= 0, got -0.5")],
                 id="scale-H-negative"),
    pytest.param(CASE2, _set(*Q0, "facts", "H", "-1/2"),
                 [("displacements[0].facts.H", "must be finite, >= 0, got -0.5")],
                 id="displacement-H-negative"),
    *(pytest.param(CASE2, _set(*Q0, "facts", "concave", [r]),
                   [("displacements[0].facts.concave",
                     f"must lie in 1..1, got [{r}]")], id=f"concave-axis-{r}")
      for r in (5, 0)),
]


def _spec_of(base, raw) -> FifSpec:
    """The FifSpec that the JSON ``raw`` of an edited config ``base``
    spells, facts and a solved family too, read without any rule."""
    def facts(raw):
        return None if raw is None else ShapeFacts(
            is_constant=raw.get("constant", False),
            holder_exponent=parse_number(raw["eta"]) if "eta" in raw else None,
            holder_constant=parse_number(raw["H"]) if "H" in raw else None,
            **{f"{shape}_in": raw.get(shape, ()) for shape, _ in SHAPES})

    def maps(entries):
        if isinstance(entries, dict):
            return "solve" if entries["solve"] is True else entries["solve"]
        return [(parse_expr(e), None) if isinstance(e, str)
                else (parse_expr(e["expr"]), facts(e.get("facts"))) for e in entries]
    return FifSpec(
        get_config(base).spec.domain,
        [(tuple(map(parse_number, e["point"])), parse_number(e["value"]))
         for e in raw["data"]],
        maps(raw["scales"]), maps(raw["displacements"]), parse_number(raw["eta"]))


def _fails_alike(tmp_path, capsys, base, edit, errors):
    """``edit`` of the bundled config ``base`` fails with ``errors`` in
    load_config, in `fif report` (exit 1, before any file) and in
    build_model, with the same paths and text."""
    raw = json.loads((CONFIG_DIR / f"{base}.json").read_text())
    edit(raw)
    path, out = tmp_path / "defect.json", tmp_path / "out"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError) as config_error:
        load_config(str(path))
    assert config_error.value.errors == errors
    assert main(["report", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "".join(
        f"config error at {at}: {msg}\n" for at, msg in errors)
    assert not out.exists()
    with pytest.raises(ModelError) as model_error:
        build_model(_spec_of(base, raw))
    assert str(model_error.value) == "; ".join(f"{at}: {msg}" for at, msg in errors)


@pytest.mark.parametrize("base, edit, errors", SPEC_DEFECTS[:7])
def test_build_model_keeps_the_config_data_rule(tmp_path, capsys, base, edit, errors):
    _fails_alike(tmp_path, capsys, base, edit, errors)


@pytest.mark.parametrize("base, edit, errors", SPEC_DEFECTS[7:17])
def test_build_model_keeps_the_config_map_and_eta_rules(tmp_path, capsys, base, edit,
                                                        errors):
    _fails_alike(tmp_path, capsys, base, edit, errors)


@pytest.mark.parametrize("base, edit, errors", SPEC_DEFECTS[17:])
def test_build_model_keeps_the_config_family_and_facts_rules(tmp_path, capsys, base,
                                                             edit, errors):
    # a non-constant map without (eta, H) has no bracket slack; a negative H
    # inverted its brackets, an axis beyond m was an IndexError of the audit
    # and an axis 0 passed, in build_model
    _fails_alike(tmp_path, capsys, base, edit, errors)


def test_every_export_resolves():
    # each module's __all__ names what it holds, and the package re-exports
    # only names of some module's __all__
    exported = {}
    for name in ("config", "dimension", "domains", "engine", "exprs",
                 "oscillation", "svgplot"):
        mod = importlib.import_module(f"fifdim.{name}")
        for attr in mod.__all__:
            assert hasattr(mod, attr), (name, attr)
        exported[mod.__name__] = set(mod.__all__)
    for attr, value in vars(fifdim).items():
        if not attr.startswith("_") and not inspect.ismodule(value):
            assert attr in exported[value.__module__], attr


def test_brackets_pinned():
    # repr of every bracket, captured before the brackets were made in one
    # pass: the six configs, a level-2 gasket and a 2x2x2 cube
    pins = json.loads(HASHES.read_text())
    extra = _pinned_models()
    models = {name: get_model(name) for name in CONFIG_NAMES}
    models.update((name, extra[name]) for name in ("gasket_level2", "cube_2x2x2"))
    for name, model in models.items():
        for field in ("s_sup", "s_inf", "q_sup", "s_norm", "M"):
            assert (repr(getattr(model, field))
                    == pins[name][f"brackets:{field}"]), (name, field)


def test_build_samples_the_bracket_grid_once(monkeypatch):
    # one grid at SUP_DEPTH per build, and each s_i and q_i evaluated on
    # it once for all of its brackets (the face match of a cube included)
    grids, evals = [], collections.Counter()
    sample_points, ev = Box.sample_points, Expr.ev

    def counted_points(self, depth):
        pts = sample_points(self, depth)
        if depth == SUP_DEPTH:
            grids.append(pts)
        return pts

    def counted_ev(self, x):
        evals[id(self)] += any(x is grid for grid in grids)
        return ev(self, x)

    monkeypatch.setattr(Box, "sample_points", counted_points)
    monkeypatch.setattr(Expr, "ev", counted_ev)
    model = build_model(get_config("degenerate_cube").spec)
    assert len(grids) == 1
    assert [evals[id(e)] for e, _ in model.s + model.q] == [1] * 8


@pytest.mark.parametrize("x0", [10.0, 1000.0])
def test_interval_away_from_zero_builds(x0):
    # the knots of example5_case1_one shifted by x0, data at the exact
    # knots: every map must send the interval's ends onto knots exactly
    # enough to find their data
    def model(x0):
        knots = [x0 + k for k in (0.0, 4 / 15, 3 / 5, 1.0)]
        data = [((k,), v) for k, v in zip(knots, (0.0, 0.5, 1 / 3, 0.0))]
        return build_model(FifSpec(
            interval_domain(knots, (0, 0, 0)), data,
            [(Const(c), None) for c in (0.25, 0.5, 0.75)], "solve"))

    (pts, vals), (pts0, vals0) = (evaluate_on_vk(model(x), 7) for x in (x0, 0.0))
    assert np.max(np.abs(pts - x0 - pts0)) < 1e-9
    assert np.max(np.abs(vals - vals0)) < 1e-9


def test_evaluate_on_vk_oracle_value():
    model = get_model("example5_case2")
    pts, vals = evaluate_on_vk(model, 2)
    idx = int(np.argmin(np.abs(pts[:, 0] - 1 / 9)))
    assert pts[idx, 0] == pytest.approx(1 / 9, abs=1e-12)
    assert vals[idx] == pytest.approx(F_STAR_AT_NINTH, abs=1e-12)


def test_evaluate_at_matches_vertex_recursion():
    model = get_model("example5_case2")
    assert evaluate_at(model, [1 / 9], tol=1e-12) == pytest.approx(
        F_STAR_AT_NINTH, abs=1e-10
    )
    pts, vals = evaluate_on_vk(model, 5)
    rng = np.random.default_rng(3)
    for j in rng.choice(len(pts), size=20, replace=False):
        # tolerance reflects the float-input floor, not truncation: digits
        # below machine-precision scale are undetermined and f* can move by
        # prod |s| over the reliable ones (~0.75^33 here on all-2 tails)
        assert evaluate_at(model, pts[j], tol=1e-10) == pytest.approx(
            vals[j], abs=1e-4
        )


def test_evaluate_at_outside_domain_rejected():
    model = get_model("example5_case2")
    with pytest.raises(ModelError, match=re.escape(
            "point (2.0,) outside the domain")):
        evaluate_at(model, [2.0])


def test_evaluate_at_rejects_nan():
    # a nan coordinate passed both bound checks and came back as nan
    with pytest.raises(ModelError, match=re.escape("point (nan,) outside")):
        evaluate_at(get_model("example5_case2"), [math.nan])


def test_p_at_rejects_points_off_v():
    with pytest.raises(ModelError, match=re.escape(
            "point (0.5,) is not a node of V")):
        get_model("example5_case2").p_at([[0.0], [0.5]])


@pytest.mark.parametrize("name, expected", [
    ("example5_case1_one", ["0.4432121181470601", "0.45415113485805997",
                            "0.6820429180544556", "0.25169775382322296"]),
    ("example5_case1_sin", ["0.3051840130299691", "0.3516660219325146",
                            "0.661364252443452", "0.22952502129839747"]),
    ("example5_case2", ["0.33792747299995696", "0.39276413140562905",
                        "0.5534456047499265", "0.3548470914769758"]),
    ("degenerate_interval", ["0.15000000000000002", "0.18518400000000002",
                             "0.45", "0.015000000000000013"]),
])
def test_evaluate_at_pinned_interval_values(name, expected):
    # seed values: the interval decodes and interpolates as a 1-axis product
    model = get_model(name)
    got = [repr(evaluate_at(model, [x])) for x in (0.1, 0.123456, 0.7, 0.99)]
    assert got == expected


@pytest.mark.parametrize("x", [(0.5, 0.3), (0.5, math.sqrt(3) / 6), (0.05, 0.5)])
def test_evaluate_at_rejects_points_off_the_gasket(x):
    # the central hole (twice) and a point of the bounding box off the triangle
    with pytest.raises(ModelError, match="off the gasket"):
        evaluate_at(get_model("sg_exact"), x)


def test_gasket_decode_keeps_every_v8_point():
    # V_8 points reach V_0 after 8 decodes; their round-off stays inside the
    # rejection slack on the way and at the vertex after
    model = get_model("sg_exact")
    pts, vals = evaluate_on_vk(model, 8)
    for x in pts:
        for step in range(9):
            _, x, out = model.domain.decode(x)
            assert out <= OFF_K_ULPS * np.spacing(1.0) * 2.0 ** (step + 1)
    rng = np.random.default_rng(8)
    for j in rng.choice(len(pts), size=30, replace=False):
        assert evaluate_at(model, pts[j]) == pytest.approx(vals[j], abs=1e-4)


# --------------------------------------------------------------------------
# The per-domain decoders and flat interpolants that Domain.decode and the
# default family solved on V_0 replaced, kept as references


def _reference_product_decode(d, x):
    """The map whose cell holds x (by knot search), and its pre-image."""
    flat = 0
    for u, axis in enumerate(d.axes):
        n = len(axis.knots) - 1
        j = int(np.searchsorted(axis.knots, x[u], side="right")) - 1
        flat = flat * n + min(max(j, 0), n - 1)
    mp = d.maps[flat]
    return flat, (np.asarray(x) - np.asarray(mp.offset)) / np.asarray(mp.scale)


def _reference_gasket_decode(d, x):
    """``level`` barycentric halvings of x toward its nearest vertex."""
    v = np.asarray(d.base.verts, float)
    A = (v[1:] - v[0]).T  # columns v1 - v0, v2 - v0
    flat, y = 0, np.asarray(x, float)
    for _ in range(d.level):
        ab = np.linalg.solve(A, y - v[0])
        j = int(np.argmax([1 - ab[0] - ab[1], ab[0], ab[1]]))
        flat, y = flat * 3 + j, 2 * y - v[j]
    return flat, y


def _reference_interpolant(d, x, p0):
    """Multilinear in the box coordinates, or planar on the triangle."""
    if d.kind == "gasket":
        abc = np.linalg.solve(np.column_stack([np.ones(3), d.v0_array]), p0)
        return float(abc[0] + abc[1] * x[0] + abc[2] * x[1])
    lo, hi = d.base.bounding_box()
    t = (x - lo) / (hi - lo)
    val = 0.0
    for corner, pv in zip(d.v0_array, p0):
        w = 1.0
        for u in range(d.m):
            w *= t[u] if corner[u] == hi[u] else (1 - t[u])
        val += w * pv
    return float(val)


@st.composite
def _domains_and_points(draw):
    """A product domain (unequal knots, flipped pieces) of 1 to 3 axes or a
    gasket of level 1 or 2, and a point of its K."""
    kind = draw(st.sampled_from(["interval", "cube2", "cube3", "gasket1",
                                 "gasket2"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind.startswith("gasket"):
        d = gasket_domain([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]],
                          int(kind[-1]))
        x = d.v0_array[rng.integers(3)]
        for i in rng.integers(d.N, size=40):  # an address 40 maps deep
            x = d.maps[i](x)
        return d, x, rng
    axes = []
    for _ in range(1 if kind == "interval" else int(kind[-1])):
        inner = np.sort(rng.uniform(0.05, 0.95, size=rng.integers(1, 4)))
        knots = (0.0, *inner.tolist(), 1.0)
        axes.append((knots, tuple(rng.integers(0, 2, len(knots) - 1).tolist())))
    d = interval_domain(*axes[0]) if kind == "interval" else cube_domain(axes)
    return d, rng.uniform(*d.base.bounding_box()), rng


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_domains_and_points())
def test_decode_equals_per_domain_reference(case):
    # the same map and the same pre-image at every step, until the decode's
    # round-off passes 1e-6 |K|; the level-n gasket composes its offsets,
    # which round once where n halvings round n times, so there the
    # pre-images agree to within that round-off
    d, x, rng = case
    reference = (_reference_gasket_decode if d.kind == "gasket"
                 else _reference_product_decode)
    y, ulp = x, np.spacing(1.0)
    while ulp < 1e-6 * d.diameter:
        i, got, _ = d.decode(y)
        ref_i, y = reference(d, y)
        ulp /= min(map(abs, d.maps[i].scale))
        assert i == ref_i
        if d.kind == "gasket" and d.level > 1:
            assert np.max(np.abs(got - y)) <= ulp
        else:
            assert np.array_equal(got, y)
    # the flat interpolant is the default family solved on V_0
    p0 = rng.uniform(-1, 1, len(d.v0))
    flat = _fit(d, d.default_family, p0)[0]
    lo, hi = d.base.bounding_box()
    pts = d.v0_array.mean(axis=0) + rng.uniform(-0.5, 0.5, (20, d.m)) * (hi - lo)
    for y in pts:
        assert abs(flat.ev(y[None])[0] - _reference_interpolant(d, y, p0)) <= 1e-15


def test_evaluate_at_is_exact_on_the_nodes():
    # a node decodes to a vertex of V_0 within the decode's round-off; the
    # address is then replayed from its data value (were 1.6e-5 off on
    # sg_exact and 4.6e-5 on example5_case2)
    for name in CONFIG_NAMES:
        model = get_model(name)
        pts, vals = evaluate_on_vk(model, 6)
        rng = np.random.default_rng(6)
        for j in rng.choice(len(pts), size=min(200, len(pts)), replace=False):
            assert abs(evaluate_at(model, pts[j]) - vals[j]) <= 1e-12, (name, j)


def _offset_model(d):
    """A FIF on ``d`` with data sin(3 (x - corner) / |K|) summed over axes."""
    nodes = vertex_set(d, 1)
    rel = (nodes - nodes.min(axis=0)) / d.diameter
    data = [(tuple(p), math.sin(3 * r.sum())) for p, r in zip(nodes.tolist(), rel)]
    s = [0.5, -0.4, 0.3] if d.m == 1 else [0.4, -0.3, 0.35]
    return build_model(FifSpec(d, data, [(Const(c), None) for c in s], "solve"))


def test_evaluate_at_keeps_the_nodes_of_offset_domains():
    # the decode's slack is in ulps of the region's coordinates: a fixed
    # 1e-12 rejected 51 of 100 V_5 nodes of the gasket at -4e4 as off K
    domains = [interval_domain(tuple(o + span * k for k in (0, 1 / 3, 2 / 3, 1)),
                               (0, 1, 0))
               for o, span in ((1e4, 1), (-5e4, 1), (1e3, 1e-3), (-2e5, 1),
                               (3e4, 1))]
    domains += [gasket_domain([[o, o], [o + 1, o], [o + 0.5, o + math.sqrt(3) / 2]])
                for o in (1e3, -4e4)]
    for d in domains:
        model = _offset_model(d)
        pts, vals = evaluate_on_vk(model, 5)
        rng = np.random.default_rng(5)
        for j in rng.choice(len(pts), size=100, replace=False):
            # the float-input floor: a node rounded at 5e4 is 7e-12 off it
            assert evaluate_at(model, pts[j]) == pytest.approx(vals[j], abs=1e-4)


@pytest.mark.parametrize("x, tol, match", [
    ([0.3], math.nan, "tol must be a finite number > 0"),
    ([0.3], math.inf, "tol must be a finite number > 0"),
    ([0.3, 0.2], 1e-9, "does not have 1 coordinates"),
], ids=["tol-nan", "tol-inf", "two-coordinates"])
def test_evaluate_at_bad_input_is_a_model_error(x, tol, match):
    with pytest.raises(ModelError, match=match):
        evaluate_at(get_model("example5_case2"), x, tol)


@pytest.mark.parametrize("word", [(-1,), (3,), (0.5,), (0, 2, 7)])
def test_witness_height_check_rejects_bad_symbols(word):
    # (-1,) read map N - 1 and passed, (3,) and (0.5,) were an IndexError
    # and a TypeError
    w = CollinearWitness(1, (0.0,), (2 / 3,), (1 / 3,), 0.5, 1 / 3)
    with pytest.raises(ModelError, match="out of range in address"):
        witness_height_check(get_model("example5_case2"), word, w, 2)


@pytest.mark.parametrize("call, message", [
    (lambda m: evaluate_on_vk(m, 2.0), "k must be an integer >= 1, got 2.0"),
    (lambda m: evaluate_on_vk(m, True), "k must be an integer >= 1, got True"),
    (lambda m: evaluate_on_vk(m, 0), "k must be an integer >= 1, got 0"),
    (lambda m: empirical_dimension(m, 2, 4, 1.5), "extra must be an integer >= 0, got 1.5"),
    (lambda m: empirical_dimension(m, math.nan, 4), "k_min must be an integer >= 2, got nan"),
    (lambda m: empirical_dimension(m, 2, 4, -1), "extra must be an integer >= 0, got -1"),
], ids=["vk-float", "vk-bool", "vk-0", "extra-float", "k-nan", "extra-negative"])
def test_level_arguments_must_be_integers(call, message):
    # a float level was a TypeError or, as a key, a BudgetError; True was 1
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        call(get_model("example5_case2"))


def test_a_numpy_integer_level_is_a_level():
    model = get_model("example5_case2")
    got, ref = evaluate_on_vk(model, np.int64(2)), evaluate_on_vk(model, 2)
    assert got[1].tobytes() == ref[1].tobytes()


def test_apply_T_fixed_point(each_model):
    name, model = each_model
    pts, vals = evaluate_on_vk(model, 2)
    new_pts, new_vals = apply_T(model, pts, vals)
    expected = dict(zip(map(tuple, np.round(new_pts, 9).tolist()), new_vals))
    deep_pts, deep_vals = evaluate_on_vk(model, 3)
    table = dict(zip(map(tuple, np.round(deep_pts, 9).tolist()), deep_vals))
    worst = max(
        abs(expected[k] - table[k]) for k in expected if k in table
    )
    assert worst <= 1e-9


def test_apply_T_contraction_factor():
    model = get_model("example5_case2")
    pts, _ = evaluate_on_vk(model, 3)
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = rng.normal(size=len(pts))
        h = rng.normal(size=len(pts))
        _, tg = apply_T(model, pts, g)
        _, th = apply_T(model, pts, h)
        assert np.max(np.abs(tg - th)) <= (
            model.s_norm[1] + 1e-12
        ) * np.max(np.abs(g - h))


@pytest.mark.parametrize("name", ["example5_case2", "sg_exact", "degenerate_cube"])
def test_apply_T_rejects_points_that_are_not_vk(name):
    # the push plan of V_k is read off the number of points
    model = get_model(name)
    pts, vals = evaluate_on_vk(model, 2)
    for bad in (pts[1:], pts[::-1], pts + 1e-3):
        with pytest.raises(ModelError, match="not a vertex set V_k"):
            apply_T(model, bad, vals[:len(bad)])
    v0 = model.domain.v0_array
    assert len(apply_T(model, v0, model.p_at(v0))[0]) == len(model.nodes)


def test_graph_self_similarity(each_model):
    # f*(l_i(x)) = s_i(x) f*(x) + q_i(x) read off exact level tables
    name, model = each_model
    pts, vals = evaluate_on_vk(model, 2)
    deep_pts, deep_vals = evaluate_on_vk(model, 3)
    res = 1e-9 * max(model.domain.diameter, 1.0)
    table = {
        tuple(np.round(p / res).astype(np.int64).tolist()): v
        for p, v in zip(deep_pts, deep_vals)
    }
    for i, mp in enumerate(model.domain.maps):
        imgs = mp(pts)
        rhs = model.s[i][0].ev(pts) * vals + model.q[i][0].ev(pts)
        for img, v in zip(imgs, rhs):
            key = tuple(np.round(img / res).astype(np.int64).tolist())
            assert key in table
            assert abs(table[key] - v) <= 1e-9


def test_sup_norm_of_f_star_bounded_by_M(each_model):
    name, model = each_model
    _, vals = evaluate_on_vk(model, 5)
    assert np.max(np.abs(vals)) <= model.M[1] + 1e-9


def test_graph_sample_budget_guard(monkeypatch):
    # the sweep of the seminorm and of the Hoelder check shrinks its extra
    # levels to fit the budget, but not below the default kmax = 12
    model = get_model("example5_case2")
    monkeypatch.setenv("FIF_CELL_BUDGET", "100")
    message = "^graph sample depth 12 exceeds the cell budget$"
    with pytest.raises(BudgetError, match=message):
        seminorm(model, 0.8)
    with pytest.raises(BudgetError, match=message):
        holder_to_osc_check(model, 0.8, 1.0)


def test_vk_matches_vertex_set(each_model):
    name, model = each_model
    pts, _ = evaluate_on_vk(model, 2)
    ref = vertex_set(model.domain, 2)
    assert pts.shape == ref.shape and pts.tobytes() == ref.tobytes()


def _full_dedup_vk(model, k):
    """V_k and f* on it by the dedup of every vertex slot: per level, a key
    dedup of all N |V_{k-1}| images, the spread check on every key group
    and first occurrences in order."""
    d = model.domain
    pts = d.v0_array
    vals = model.p_at(pts)
    for level in range(1, k + 1):
        img = np.concatenate([mp(pts) for mp in d.maps])
        vals = np.concatenate([s.ev(pts) * vals + q.ev(pts)
                               for (s, _), (q, _) in zip(model.s, model.q)])
        first, inverse = key_dedup(img, d.resolution)
        hi, lo = np.full(len(first), -np.inf), np.full(len(first), np.inf)
        np.maximum.at(hi, inverse, vals)
        np.minimum.at(lo, inverse, vals)
        worst = float(np.max(hi - lo))
        if worst > CONSISTENCY_TOL:
            raise ModelError(
                f"duplicate-vertex inconsistency {worst:.3e} at level {level}")
        order = np.sort(first)
        pts, vals = img[order], vals[order]
    return pts, vals


def _outcome(evaluate, model, k):
    """The bytes of (points, values), or the message of the ModelError."""
    try:
        pts, vals = evaluate(model, k)
    except ModelError as exc:
        return str(exc)
    return pts.shape, pts.tobytes(), vals.tobytes()


SCALES = st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True)


@st.composite
def _dedup_cases(draw):
    """A model and a level k of at most about 6000 vertex slots: intervals
    (unequal knots, flipped pieces, offsets up to +-5e4), 2- and 3-cubes
    and gaskets of level 1 and 2 (offsets up to +-5e4), with random data,
    constant scales and solved displacements; in a third of the cases a
    V_0 value is moved by 1e-3, so that the spread check fires."""
    kind = draw(st.sampled_from(["interval", "cube2", "cube3", "gasket1",
                                 "gasket2"]))
    x0 = draw(st.floats(-5e4, 5e4))
    if kind == "interval":
        n = draw(st.integers(2, 4))
        widths = draw(st.lists(st.floats(0.2, 1), min_size=n, max_size=n))
        d = interval_domain([x0 + sum(widths[:i]) for i in range(n + 1)],
                            draw(st.lists(st.integers(0, 1), min_size=n,
                                          max_size=n)))
    elif kind.startswith("cube"):
        sizes = draw(st.lists(st.integers(2, 3), min_size=int(kind[-1]),
                              max_size=int(kind[-1])))
        d = cube_domain([([i / n for i in range(n + 1)],
                          [j % 2 for j in range(n)]) for n in sizes])
    else:
        d = gasket_domain([[x0, x0], [x0 + 1, x0],
                           [x0 + 0.5, x0 + math.sqrt(3) / 2]], int(kind[-1]))
    # a cube's faces match under one common scale
    s = ([draw(SCALES)] * d.N if kind.startswith("cube") else
         draw(st.lists(SCALES, min_size=d.N, max_size=d.N)))
    nodes = vertex_set(d, 1)
    values = draw(st.lists(st.floats(-1, 1), min_size=len(nodes),
                           max_size=len(nodes)))
    data = [(tuple(p), v) for p, v in zip(nodes.tolist(), values)]
    model = build_model(FifSpec(d, data, [(Const(c), None) for c in s], "solve"))
    if draw(st.integers(0, 2)) == 0:
        v = model.values.copy()
        v[node_indices(model.nodes, d.v0_array[:1], d.resolution)] += 1e-3
        model = dataclasses.replace(model, values=v)
    k_max = int(math.log(6000 / len(d.v0)) / math.log(d.N))
    return model, draw(st.integers(1, k_max))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_dedup_cases())
def test_band_dedup_equals_full_dedup(case):
    # the push sorts only the images of the band near the region's
    # boundary and of vertices rounded to two keys
    model, k = case
    assert _outcome(evaluate_on_vk, model, k) == _outcome(_full_dedup_vk,
                                                          model, k)


def _pieces(draw, x0, flips):
    """An axis of 2-4 unequal pieces from ``x0``: knots and signature."""
    n = draw(st.integers(2, 4))
    widths = draw(st.lists(st.floats(0.2, 1), min_size=n, max_size=n))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    signature = bits if flips else [(j + bits[0]) % 2 for j in range(n)]
    return [x0 + sum(widths[:i]) for i in range(n + 1)], signature


@st.composite
def _counted_domains(draw):
    """A domain, a level k of at most about 20,000 vertex slots and |V_k|
    in closed form: intervals (flips, offsets up to +-2e5) with P^k + 1,
    2- and 3-cubes (alternating signatures) with prod (P_u^k + 1), and
    gaskets of level n (offsets up to +-5e4) with 3 (3^(n k) + 1) / 2."""
    kind = draw(st.sampled_from(["interval", "cube2", "cube3", "gasket1",
                                 "gasket2"]))
    if kind == "interval":
        d = interval_domain(*_pieces(draw, draw(st.floats(-2e5, 2e5)), True))
    elif kind.startswith("cube"):
        d = cube_domain([_pieces(draw, 0.0, False) for _ in range(int(kind[-1]))])
    else:
        x0 = draw(st.floats(-5e4, 5e4))
        d = gasket_domain([[x0, x0], [x0 + 1, x0],
                           [x0 + 0.5, x0 + math.sqrt(3) / 2]], int(kind[-1]))
    k = draw(st.integers(1, int(math.log(2e4 / len(d.v0)) / math.log(d.N))))
    if kind.startswith("gasket"):
        return d, k, 3 * (3**(int(kind[-1]) * k) + 1) // 2
    return d, k, math.prod(len(ax.knots[1:])**k + 1 for ax in d.axes)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_counted_domains())
def test_vk_has_its_closed_count(case):
    # a key dedup kept a vertex twice where its copies straddled a key's
    # edge (V_9 of -2e5 + (0, 1/3, 2/3, 1) had 19,687 points)
    d, k, count = case
    vk = vertex_set(d, k)
    assert len(vk) == count
    # f* = 0 on d, without the build's audit of up to 64 maps
    nodes, zero = vertex_set(d, 1), [(Const(0.0), None)] * d.N
    model = dataclasses.replace(get_model("example5_case2"), domain=d, nodes=nodes,
                                values=np.zeros(len(nodes)), s=zero, q=zero)
    pts, _ = evaluate_on_vk(model, k)
    assert pts.shape == vk.shape and pts.tobytes() == vk.tobytes()


def test_node_indices_match_the_nearest_node_within_the_resolution():
    # 0.6e-10 rounds to another point key than 0; a key match missed it
    nodes = np.array([[0.0], [1.0], [1.0 + 3e-10]])
    pts = [(0.6e-10,), (1.0 + 2.5e-10,), (0.5,), (math.nan,), (1.0, 2.0)]
    assert node_indices(nodes, pts, 1e-10) == [0, 2, None, None, None]


def test_far_interval_matches_its_knots():
    # V_1's copy of the last knot lies 1 ulp off it, across a point key's
    # edge: by key, data on the knots missed a node ("not a node of V") and
    # data on V_1 made build_model's V_0 lookup raise a bare IndexError
    knots = (-43707.71713613646, -43707.24349083011, -43707.00294955704,
             -43706.04385109855)
    d = interval_domain(knots, (1, 1, 1))
    values = (0.0, 0.5, 1 / 3, 0.0)
    for pts in (knots, sorted(vertex_set(d, 1)[:, 0])):
        data = [((x,), v) for x, v in zip(pts, values)]
        model = build_model(FifSpec(d, data, [(Const(0.3), None)] * 3, "solve"))
        assert model.p_at(np.array(knots)[:, None]).tolist() == list(values)


@pytest.mark.parametrize("x0", [-2e5, -5e4, 1e4])
def test_band_dedup_equals_full_dedup_on_split_vertices(x0):
    # at -2e5 the knot 1/3 of l_1(1) and l_2(1) rounds to two point keys,
    # so a key dedup kept V_1 of 6 points and V_9 of 19,687; by address
    # every offset has 3^9 + 1, as the key dedup where no key splits
    d = interval_domain(tuple(x0 + k for k in (0, 1 / 3, 2 / 3, 1)), (0, 1, 0))
    model = _offset_model(d)
    got = _outcome(evaluate_on_vk, model, 9)
    assert len(vertex_set(d, 1)) == 4 and got[0][0] == 3**9 + 1
    ref = _outcome(_full_dedup_vk, model, 9)
    assert (ref[0][0] == 19687) if x0 == -2e5 else (got == ref)


def test_spacing_below_the_resolution_is_named():
    # V_4 of these knots is 1e-12 apart, below the 1e-10 point resolution:
    # the key dedup refused it by name from level 4; addresses tell the
    # vertices apart at any spacing, so only a V_1 that the resolution
    # cannot match to the data is refused
    d = interval_domain((0, 1e-3, 0.5, 1), (0, 0, 0))
    model = _offset_model(d)
    assert [len(evaluate_on_vk(model, k)[0]) for k in (3, 5, 7)] == [
        3**k + 1 for k in (3, 5, 7)]
    assert d.too_fine() == ""
    d = interval_domain((0, 1e-11, 0.5, 1), (0, 0, 0))
    msg = ("level 1: vertex spacing bound 1.000e-11 is not above the point "
           "resolution 1.000e-10")
    assert d.too_fine() == msg
    # data on the knots: the build refused it as "data point (1e-11,) is
    # given twice"
    data = [((x,), 0.0) for x in (0, 1e-11, 0.5, 1)]
    with pytest.raises(ModelError, match=re.escape(msg)):
        build_model(FifSpec(d, data, [(Const(0.3), None)] * 3, "solve"))


@pytest.mark.parametrize("name, worst", [("example5_case2", "5.000e-04"),
                                         ("sg_exact", "8.000e-04")])
def test_duplicate_vertex_inconsistency_fires(name, worst):
    model = get_model(name)
    v = model.values.copy()
    v[-1] += 1e-3
    with pytest.raises(ModelError, match=re.escape(
            f"duplicate-vertex inconsistency {worst} at level 1")):
        evaluate_on_vk(dataclasses.replace(model, values=v), 3)
