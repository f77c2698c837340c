"""Domain maps: endpoint invariants, partition coverage, geometry constants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fifdim.domains as dm
from conftest import CONFIG_NAMES, get_config, get_model
from fifdim.dimension import empirical_dimension
from fifdim.domains import (
    AffineMap,
    Axis,
    Box,
    DomainError,
    ProductDomain,
    build_interval_maps,
    cube_domain,
    gasket_domain,
    interval_domain,
    product_domain,
    vertex_set,
)

KNOTS_CASE1 = (0.0, 4 / 15, 3 / 5, 1.0)


def test_interval_map_endpoints_forward():
    maps = build_interval_maps(KNOTS_CASE1, (0, 0, 0))
    for i, mp in enumerate(maps):
        assert mp(np.array([0.0]))[0] == pytest.approx(KNOTS_CASE1[i], abs=1e-12)
        assert mp(np.array([1.0]))[0] == pytest.approx(KNOTS_CASE1[i + 1], abs=1e-12)


def test_interval_map_endpoints_reversed_signature():
    maps = build_interval_maps((0.0, 0.5, 1.0), (1, 0))
    # signature bit 1: piece 1 maps x0 -> x1 and xn -> x0
    assert maps[0](np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-12)
    assert maps[0](np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-12)


def test_interval_partition_coverage():
    d = interval_domain(KNOTS_CASE1, (0, 0, 0))
    xs = np.linspace(0, 1, 10_000)[:, None]
    images = np.concatenate([mp(xs) for mp in d.maps])
    # images tile [0,1]: every sample point is within half a gap of an image
    xs_sorted = np.sort(images[:, 0])
    assert xs_sorted[0] == pytest.approx(0.0, abs=1e-12)
    assert xs_sorted[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.diff(xs_sorted)) < 1e-3


def test_knots_must_increase():
    with pytest.raises(DomainError):
        interval_domain((0.0, 0.6, 0.5, 1.0), (0, 0, 0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_knots_rejected(bad):
    # a NaN compares false both ways, so it passed the order check alone
    with pytest.raises(DomainError, match="finite"):
        interval_domain([0.0, bad, 1.0], [0, 0])
    with pytest.raises(DomainError, match="finite"):
        interval_domain([bad, 0.5, 1.0], [0, 0])


def test_signature_validation():
    with pytest.raises(DomainError):
        interval_domain((0.0, 1.0), (2,))
    with pytest.raises(DomainError):
        interval_domain((0.0, 0.5, 1.0), (0,))


def test_geometry_constants_case1():
    # [PAPER] Lambda_0 = 15/4 (smallest piece 4/15), Lambda = 5/2 (largest 2/5)
    d = interval_domain(KNOTS_CASE1, (0, 0, 0))
    assert d.lam0 == pytest.approx(15 / 4, rel=1e-12)
    assert d.lam == pytest.approx(5 / 2, rel=1e-12)
    assert d.N == 3
    assert d.diameter == pytest.approx(1.0)


def test_affine_map_compose_order():
    a = AffineMap((2.0,), (1.0,))
    b = AffineMap((3.0,), (-1.0,))
    x = np.array([0.7])
    assert a.compose(b)(x)[0] == pytest.approx(a(b(x))[0])


@pytest.mark.parametrize("sig", [(0, 0, 0), (0, 1, 0), (1, 1, 0)])
def test_interval_is_the_one_axis_product_domain(sig):
    d = interval_domain(KNOTS_CASE1, sig)
    assert isinstance(d, ProductDomain)
    assert d == product_domain([(KNOTS_CASE1, sig)])
    assert d.maps == tuple(build_interval_maps(KNOTS_CASE1, sig))
    assert d.v0 == ((0.0,), (1.0,))
    assert d.base == Box((0.0,), (1.0,))
    assert d.axes == (Axis(KNOTS_CASE1, sig),)
    assert (d.kind, d.m, d.dim, d.pcf) == ("interval", 1, 1.0, True)


def _equal_pieces(pieces: int, m: int):
    knots = tuple(i / pieces for i in range(pieces + 1))
    return product_domain([(knots, (0,) * pieces)] * m)


def test_domain_defaults(monkeypatch):
    monkeypatch.setenv("FIF_CELL_BUDGET", "100")  # the defaults never read it
    square = cube_domain([((0.0, 0.5, 1.0), (0, 1))] * 2)
    gasket = gasket_domain([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
    assert (square.kind, square.pcf, square.dim) == ("cube", False, 2.0)
    assert (gasket.kind, gasket.pcf, gasket.axes) == ("gasket", True, ())
    assert [d.default_family for d in (square, _equal_pieces(3, 1), gasket)] == [
        "multilinear", "multilinear", "affine"]
    # one rule in slots(k) = N^k |V_0| and the default budget B = 1e7:
    # (k_min, k_max) the least k >= 2 of 2^7 slots .. the last of B / 64,
    # sample_depth the last of 2^12, seminorm_kmax the last k, slots(k + 2) <= B
    rows = [  # domain, N, |V_0|, (k_min, k_max), sample_depth, seminorm_kmax
        (interval_domain(KNOTS_CASE1, (0, 0, 0)), 3, 2, (4, 10), 6, 12),  # bundled
        (square, 4, 4, (3, 7), 5, 8),  # degenerate_cube reads (3, 7) and 8
        (_equal_pieces(2, 1), 2, 2, (6, 16), 11, 20),
        (_equal_pieces(4, 1), 4, 2, (3, 8), 5, 9),
        (_equal_pieces(5, 1), 5, 2, (3, 7), 4, 7),
        (_equal_pieces(3, 2), 9, 4, (2, 4), 3, 4),
        (_equal_pieces(4, 2), 16, 4, (2, 3), 2, 3),
        (_equal_pieces(2, 3), 8, 8, (2, 4), 3, 4),
        *((gasket_domain(gasket.v0, n), 3**n, 3, window, depth, kmax)
          for n, window, depth, kmax in [
              (1, (4, 9), 6, 11), (2, (2, 4), 3, 4), (3, (2, 3), 2, 2),
              (4, (2, 3), 1, 1), (5, (2, 3), 1, 1)]),  # 243^3 x 3 > B
    ]
    for d, n, v0, window, depth, kmax in rows:
        assert (d.N, len(d.v0), d.slots(2)) == (n, v0, n**2 * v0)
        assert d.analysis_defaults() == {
            "k_min": window[0], "k_max": window[1], "sample_depth": depth,
            "seminorm_kmax": kmax}


def test_cube_domain_maps_and_v0():
    d = cube_domain([((0.0, 0.5, 1.0), (0, 1)), ((0.0, 0.5, 1.0), (0, 1))])
    assert d.N == 4 and d.m == 2
    assert set(map(tuple, d.v0)) == set(itertools.product((0.0, 1.0), repeat=2))
    # every map image is one of the four half-size squares
    for mp in d.maps:
        assert mp.ratio == pytest.approx(0.5)


def test_vertex_set_interval_level1():
    d = interval_domain(KNOTS_CASE1, (0, 0, 0))
    v1 = vertex_set(d, 1)
    assert sorted(v1[:, 0].tolist()) == pytest.approx([0, 4 / 15, 3 / 5, 1])


def test_vertex_set_sizes_gasket():
    d = gasket_domain([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]], 1)
    assert len(vertex_set(d, 0)) == 3
    assert len(vertex_set(d, 1)) == 6  # [TRIVIAL] 3 corners + 3 midpoints
    assert len(vertex_set(d, 2)) == 15


def test_gasket_level2_has_nine_maps():
    d = gasket_domain([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]], 2)
    assert d.N == 9
    for mp in d.maps:
        assert mp.ratio == pytest.approx(0.25)
    assert d.lam == pytest.approx(4.0)


def test_gasket_rejects_non_equilateral():
    with pytest.raises(DomainError):
        gasket_domain([[0, 0], [1, 0], [0, 1]], 1)


def test_cell_budget_env_override(monkeypatch):
    model = get_model("degenerate_interval")
    monkeypatch.setenv("FIF_CELL_BUDGET", "10")
    assert dm.cell_budget() == 10
    with pytest.raises(dm.BudgetError):
        empirical_dimension(model, 2, 3, extra=0)  # 3^3 x 2 vertex slots


@pytest.mark.parametrize("raw", ["abc", "0", "-5", "1.5"])
def test_cell_budget_rejects_malformed_env(monkeypatch, raw):
    monkeypatch.setenv("FIF_CELL_BUDGET", raw)
    with pytest.raises(dm.BudgetError, match="FIF_CELL_BUDGET"):
        dm.cell_budget()


def _lattice(pts, k):
    """Integer barycentric coordinates (i, j, l), summing to 2^k, of the
    nearest points of the 2^-k lattice of the unit triangle."""
    n = 2**k
    l = np.round(pts[:, 1] * n * 2 / math.sqrt(3)).astype(np.int64)
    j = np.round(pts[:, 0] * n - l / 2).astype(np.int64)
    return np.stack([n - j - l, j, l], axis=1)


def _lands_in_a_hole(b):
    """Exact test on lattice points b: halving toward the vertex of the
    largest coordinate k times must never leave the triangle or enter a
    hole of the gasket."""
    n = int(b[0].sum())
    rows = np.arange(len(b))
    bad = np.zeros(len(b), bool)
    for _ in range(n.bit_length() - 1):
        top = b.argmax(axis=1)
        bad |= (2 * b[rows, top] < n) | (b.min(axis=1) < 0)
        b = 2 * b
        b[rows, top] -= n
    return bad


@pytest.mark.parametrize("depth", range(1, 10))
def test_triangle_samples_are_points_of_K(depth):
    # the samples are V_depth of the gasket, not a grid of the filled
    # triangle, and V_depth is a diameter / 2^depth mesh of K
    tri = gasket_domain([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]], 1).base
    got = tri.sample_points(depth)
    assert len(got) == 3 * (3**depth + 1) // 2
    b = _lattice(got, depth)
    on_lattice = b[:, 1:] @ [[1, 0], [0.5, math.sqrt(3) / 2]] / 2**depth
    assert np.allclose(on_lattice, got, rtol=0, atol=1e-12)
    assert not _lands_in_a_hole(b).any()
    hole = np.array([[0.5, 0.3], [0.5, math.sqrt(3) / 6], [0.05, 0.5]])
    assert _lands_in_a_hole(_lattice(hole, 12)).all()  # the check sees holes
    assert tri.mesh_diameter(depth) == 1 / 2**depth
    if depth <= 5:
        finer = tri.sample_points(depth + 2)
        gap = np.linalg.norm(finer[:, None] - got[None], axis=-1).min(axis=1)
        assert gap.max() <= tri.mesh_diameter(depth)


def test_triangle_samples_stop_at_level_9():
    tri = gasket_domain([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]], 1).base
    assert tri.sample_points(12).tobytes() == tri.sample_points(9).tobytes()
    assert tri.mesh_diameter(12) == tri.mesh_diameter(9) == 2.0**-9


def test_triangle_sampling_stays_inside():
    d = gasket_domain([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]], 1)
    pts = d.base.sample_points(4)
    assert np.all(pts[:, 1] >= -1e-12)
    assert np.all(pts[:, 1] <= math.sqrt(3) / 2 + 1e-12)


# (Lambda, Lambda_0, |K|, [delta_k for k = 0..12]) of each domain, captured
# from the DomainGeometry these properties replaced
SCALING_CONSTANTS = {
    "example5_case1_one": (2.5, 3.75, 1.0, [
        1.0, 0.4, 0.16,
        0.064, 0.0256, 0.01024,
        0.004096, 0.0016384, 0.00065536,
        0.000262144, 0.0001048576, 4.194304e-05,
        1.6777216e-05,
    ]),
    "example5_case1_sin": (2.5, 3.75, 1.0, [
        1.0, 0.4, 0.16,
        0.064, 0.0256, 0.01024,
        0.004096, 0.0016384, 0.00065536,
        0.000262144, 0.0001048576, 4.194304e-05,
        1.6777216e-05,
    ]),
    "example5_case2": (2.9999999999999996, 3.0, 1.0, [
        1.0, 0.33333333333333337, 0.11111111111111113,
        0.03703703703703705, 0.012345679012345685, 0.004115226337448563,
        0.0013717421124828544, 0.0004572473708276182, 0.00015241579027587277,
        5.0805263425290925e-05, 1.6935087808430313e-05, 5.6450292694767715e-06,
        1.881676423158924e-06,
    ]),
    "sg_exact": (2.0, 2.0, 1.0, [
        1.0, 0.5, 0.25,
        0.125, 0.0625, 0.03125,
        0.015625, 0.0078125, 0.00390625,
        0.001953125, 0.0009765625, 0.00048828125,
        0.000244140625,
    ]),
    "degenerate_interval": (2.9999999999999996, 3.0, 1.0, [
        1.0, 0.33333333333333337, 0.11111111111111113,
        0.03703703703703705, 0.012345679012345685, 0.004115226337448563,
        0.0013717421124828544, 0.0004572473708276182, 0.00015241579027587277,
        5.0805263425290925e-05, 1.6935087808430313e-05, 5.6450292694767715e-06,
        1.881676423158924e-06,
    ]),
    "degenerate_cube": (2.0, 2.0, 1.4142135623730951, [
        1.4142135623730951, 0.7071067811865476, 0.3535533905932738,
        0.1767766952966369, 0.08838834764831845, 0.04419417382415922,
        0.02209708691207961, 0.011048543456039806, 0.005524271728019903,
        0.0027621358640099515, 0.0013810679320049757, 0.0006905339660024879,
        0.00034526698300124393,
    ]),
    "gasket_level2": (4.0, 4.0, 1.0, [
        1.0, 0.25, 0.0625,
        0.015625, 0.00390625, 0.0009765625,
        0.000244140625, 6.103515625e-05, 1.52587890625e-05,
        3.814697265625e-06, 9.5367431640625e-07, 2.384185791015625e-07,
        5.960464477539063e-08,
    ]),
    "cube_2x2x2": (2.0, 2.0, 1.7320508075688772, [
        1.7320508075688772, 0.8660254037844386, 0.4330127018922193,
        0.21650635094610965, 0.10825317547305482, 0.05412658773652741,
        0.027063293868263706, 0.013531646934131853, 0.0067658234670659265,
        0.0033829117335329633, 0.0016914558667664816, 0.0008457279333832408,
        0.0004228639666916204,
    ]),
    # Lambda_0 (the finest axis piece, 1/3) is not 1 / the smallest ratio
    "cube_unequal_axes": (1.4999999999999998, 3.0, 1.4142135623730951, [
        1.4142135623730951, 0.9428090415820636, 0.6285393610547091,
        0.4190262407031395, 0.27935082713542636, 0.18623388475695093,
        0.12415592317130066, 0.08277061544753378, 0.05518041029835586,
        0.03678694019890391, 0.024524626799269277, 0.016349751199512853,
        0.01089983413300857,
    ]),
}


def test_scaling_constants_pinned():
    triangle = [[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]]
    domains = {name: get_config(name).spec.domain for name in CONFIG_NAMES}
    domains["gasket_level2"] = gasket_domain(triangle, 2)
    domains["cube_2x2x2"] = cube_domain([((0, 0.5, 1), (0, 1))] * 3)
    domains["cube_unequal_axes"] = cube_domain(
        [((0, 1 / 3, 1), (0, 1)), ((0, 0.5, 1), (0, 1))])
    assert list(domains) == list(SCALING_CONSTANTS)
    for name, d in domains.items():
        got = (d.lam, d.lam0, d.diameter, [d.delta(k) for k in range(13)])
        assert got == SCALING_CONSTANTS[name], name


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.lists(st.floats(-1, 1).filter(bool), min_size=m, max_size=m),
    st.lists(st.floats(-5e4, 5e4), min_size=m, max_size=m),
    st.sampled_from([(), (7,), (5, 3)]), st.integers(0, 2**32 - 1))))
def test_affine_map_is_the_broadcast_formula(case):
    # mapped one axis at a time, each element gets the multiply and then
    # the add of x * scale + offset, so the bits are the same
    scale, offset, lead, seed = case
    x = np.random.default_rng(seed).uniform(-5e4, 5e4, (*lead, len(scale)))
    ref = x * np.asarray(scale) + np.asarray(offset)
    mp = AffineMap(tuple(scale), tuple(offset))
    assert mp(x).tobytes() == ref.tobytes()
    out = np.empty((2, *x.shape))[1]  # a slice of a larger array, as a push writes
    assert mp(x, out=out) is out and out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_outside_is_the_broadcast_formula(name):
    # on V_6 and on its pre-images under every map, which decode compares:
    # per column, the band, snap and off-K decisions cannot move
    d = get_model(name).domain
    pts = vertex_set(d, 6)
    y = np.concatenate([pts] + [(pts - o) / s for s, o in zip(*d.map_arrays)])
    if isinstance(d.base, Box):
        lo, hi = d.base.bounding_box()
        ref = np.maximum(lo - y, y - hi).max(axis=-1)
    else:
        b = y @ d.base._sides[:2]
        b += d.base._sides[2]
        ref = -np.minimum(np.minimum(b[..., 0], b[..., 1]), b[..., 2])
    assert d.base.outside(y).tobytes() == ref.tobytes()


def _slot_grid_plans(d):
    """The push plans of a cube from the grid index of every slot: the
    first slot of each grid point kept, every other dropped with it as
    partner.  The reference of ``ProductDomain.plans``, which indexes the
    grid only at the dropped slots."""
    m, P = d.m, np.array([len(ax.knots) - 1 for ax in d.axes])
    pieces, flips = np.array(list(np.ndindex(*P))).T, d.map_arrays[0].T < 0
    sign, later = np.where(flips, -1, 1)[..., None], (pieces > 0)[..., None]
    idx = np.array(list(np.ndindex(*(2,) * m))).T
    size = np.ones(m, int)
    while True:
        dims, shift = P * size + 1, (pieces + flips) * size[:, None]
        img = (sign * idx[:, None] + shift[..., None]).reshape(m, -1)
        starts = (idx[:, None] == (flips * size[:, None])[..., None]) & later
        keep = ~starts.any(axis=0).ravel()
        grid, drop = np.ravel_multi_index(img, dims), np.flatnonzero(~keep)
        first = np.empty(np.prod(dims), np.intp)
        first[grid[keep]] = np.flatnonzero(keep)
        yield keep, drop, first[grid[drop]]
        idx, size = img.compress(keep, axis=1), dims - 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 3).flatmap(lambda m: st.lists(
    st.lists(st.integers(0, 1), min_size=1, max_size=5 - m), min_size=m, max_size=m)))
def test_cube_plans_equal_the_slot_grid_plans(signatures):
    # 2-axis cubes of 1-3 pieces an axis and 3-axis ones of 1-2, any
    # flips, levels 1..5: keep, drop and partner are the reference's, dtype
    # and all
    d = cube_domain([(tuple(np.linspace(0, 1, len(sig) + 1)), tuple(sig))
                     for sig in signatures])
    for got, ref in zip(itertools.islice(d.plans(), 5),
                        itertools.islice(_slot_grid_plans(d), 5)):
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all()
