"""Domain maps: endpoint invariants, partition coverage, geometry constants."""

import itertools
import math

import numpy as np
import pytest

import fifdim.domains as dm
from fifdim.domains import (
    AffineMap,
    DomainError,
    build_interval_maps,
    cells,
    compose_word,
    cube_domain,
    gasket_domain,
    geometry_constants,
    interval_domain,
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


def test_signature_validation():
    with pytest.raises(DomainError):
        interval_domain((0.0, 1.0), (2,))
    with pytest.raises(DomainError):
        interval_domain((0.0, 0.5, 1.0), (0,))


def test_geometry_constants_case1():
    # [PAPER] Lambda_0 = 15/4 (smallest piece 4/15), Lambda = 5/2 (largest 2/5)
    d = interval_domain(KNOTS_CASE1, (0, 0, 0))
    g = geometry_constants(d)
    assert g.lam0 == pytest.approx(15 / 4, rel=1e-12)
    assert g.lam == pytest.approx(5 / 2, rel=1e-12)
    assert g.N == 3
    assert g.diameter == pytest.approx(1.0)


def test_compose_word_ratio_multiplies():
    d = interval_domain(KNOTS_CASE1, (0, 0, 0))
    f = compose_word(d, (0, 2))
    assert f.ratio == pytest.approx((4 / 15) * (2 / 5), rel=1e-12)


def test_affine_map_compose_order():
    a = AffineMap((2.0,), (1.0,))
    b = AffineMap((3.0,), (-1.0,))
    x = np.array([0.7])
    assert a.compose(b)(x)[0] == pytest.approx(a(b(x))[0])


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
    g = geometry_constants(d)
    assert g.lam == pytest.approx(4.0)


def test_gasket_rejects_non_equilateral():
    with pytest.raises(DomainError):
        gasket_domain([[0, 0], [1, 0], [0, 1]], 1)


def test_cells_enumeration_count():
    d = interval_domain((0.0, 0.5, 1.0), (0, 0))
    got = list(cells(d, 3))
    assert len(got) == 8
    words = [w for w, _ in got]
    assert words == sorted(words)  # lexicographic


def test_cell_budget_env_override(monkeypatch):
    monkeypatch.setenv("FIF_CELL_BUDGET", "10")
    assert dm.cell_budget() == 10
    d = interval_domain((0.0, 0.5, 1.0), (0, 0))
    with pytest.raises(dm.BudgetError):
        list(cells(d, 5))


@pytest.mark.parametrize("raw", ["abc", "0", "-5", "1.5"])
def test_cell_budget_rejects_malformed_env(monkeypatch, raw):
    monkeypatch.setenv("FIF_CELL_BUDGET", raw)
    with pytest.raises(dm.BudgetError, match="FIF_CELL_BUDGET"):
        dm.cell_budget()


def _triangle_grid_reference(tri, depth):
    # the barycentric double loop the vectorised grid must reproduce
    n = min(2**depth, 512)
    v = np.asarray(tri.verts, float)
    pts = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            k = n - i - j
            pts.append((i * v[0] + j * v[1] + k * v[2]) / n)
    return np.asarray(pts)


@pytest.mark.parametrize("depth", range(1, 10))
def test_triangle_grid_bitwise_equals_double_loop(depth):
    tri = gasket_domain([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]], 1).base
    got = tri.sample_points(depth)
    ref = _triangle_grid_reference(tri, depth)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def test_triangle_sampling_stays_inside():
    d = gasket_domain([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]], 1)
    pts = d.base.sample_points(4)
    assert np.all(pts[:, 1] >= -1e-12)
    assert np.all(pts[:, 1] <= math.sqrt(3) / 2 + 1e-12)
