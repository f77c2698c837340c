"""The depth-first sweep, the level pushes and the oscillation sums
against the breadth-first replay (``conftest.replay_levels``), the
sweep's rows against V_k, seed pins of the box-count estimate and of V_k,
and memory bounds."""

import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CONFIG_NAMES, SMALL_BLOCK_SLOTS, get_model, key_dedup,
                      replay_levels, replayed_estimate, replayed_table)
from fifdim import dimension, engine, oscillation
from fifdim.dimension import empirical_dimension
from fifdim.domains import cube_domain, gasket_domain, interval_domain, vertex_set
from fifdim.engine import (FifSpec, ModelError, apply_T, build_model,
                           evaluate_on_vk)
from fifdim.exprs import Const, Op
from fifdim.oscillation import seminorm

HASHES = pathlib.Path(__file__).resolve().parent / "output_sha256.json"
TRIANGLE = [[0, 0], [1, 0], [0.5, 3**0.5 / 2]]

SWEEP_CONFIGS = ["example5_case2", "example5_case1_sin", "example5_case1_one",
                 "degenerate_cube", "sg_exact"]


def _replay(model, depth, geometry_to=None):
    return list(replay_levels(model, depth, geometry_to))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _keys(pts, d):
    """The integer grid key round(x / resolution) of each point of ``pts``
    (..., m), as a tuple, in the order of the points."""
    keys = np.round(np.asarray(pts).reshape(-1, d.m) / d.resolution).astype(np.int64)
    return [tuple(k) for k in keys.tolist()]


def _assert_extremes(got, part):
    """``got``, a (lo, hi) pair, is the min and max of each row of ``part``
    bit for bit, the sign of a zero too.  Only where a row's extreme is a
    zero that the row holds with both signs is either sign right: numpy's
    min and max return the later of two equal operands (np.minimum(0.0,
    -0.0) is -0.0, np.minimum(-0.0, 0.0) is 0.0), so there the sign follows
    the order of the reduce, in any layout."""
    part = np.asarray(part)
    zero, neg = part == 0, np.signbit(part)
    both = (zero & neg).any(axis=1) & (zero & ~neg).any(axis=1)
    for ext, ref in zip(got, (part.min(axis=1), part.max(axis=1))):
        free = both & (ref == 0)
        assert (ext[free] == 0).all()
        assert _same_bits(np.where(free, 0.0, ext), np.where(free, 0.0, ref))


def _assert_osc_sums_equal_replay(model, kmax, depths):
    # Osc(k) of each k, read off level depths[k], is np.sum of the spreads
    # of the replayed level-k table, bit for bit
    levels = _replay(model, max(depths.values()), geometry_to=0)
    got = oscillation._osc_sums(model, kmax)
    assert list(got) == list(range(1, kmax + 1))
    for k, osc in got.items():
        vmin, vmax = replayed_table(model, k, depths[k], levels)
        assert repr(osc) == repr(float(np.sum(vmax - vmin)))


@pytest.mark.parametrize("name", SWEEP_CONFIGS)
def test_graph_samples_sweep_equals_replay(name, small_blocks):
    # the level-k value ranges of the oscillation sums, each from level
    # k + 4, in blocks of 1-3 cells
    _assert_osc_sums_equal_replay(get_model(name), 3, {1: 5, 2: 6, 3: 7})


@pytest.mark.parametrize("name", SWEEP_CONFIGS)
def test_graph_samples_shared_level_folded_once(name, small_blocks, monkeypatch):
    # a budget of level 5 shrinks the extra of every k to 5 - k, so all five
    # read level 5, as k = 10, 11 and 12 read level 14 in the default
    # seminorm: it is folded once into a table of its cells (e0 = 0), and
    # k = 1..4 reduce runs of that table
    model = get_model(name)
    monkeypatch.setenv("FIF_CELL_BUDGET", str(model.N**5 * len(model.domain.v0)))
    _assert_osc_sums_equal_replay(model, 5, dict.fromkeys(range(1, 6), 5))


def _dedup(pts, vals, model):
    """First occurrences of the points of (pts, vals), in order."""
    order = np.sort(key_dedup(pts, model.domain.resolution)[0])
    return pts[order], vals[order]


@pytest.mark.parametrize("name", ["sg_exact", "degenerate_cube", "example5_case2"])
def test_vk_and_apply_T_equal_replay(name, small_blocks):
    # small blocks push each map's rows in chunks of 5 (m = 2) or 8 rows
    model = get_model(name)
    m = model.domain.m
    levels = _replay(model, 4)
    for k in (1, 3):
        pts, vals = evaluate_on_vk(model, k)
        ref = _dedup(levels[k][0].reshape(-1, m), levels[k][1].reshape(-1),
                     model)
        assert _same_bits(pts, ref[0]) and _same_bits(vals, ref[1])
        # one read-off step: every map applied to every sample, map-major
        nxt = [(mp(pts), model.s[i][0].ev(pts) * vals + model.q[i][0].ev(pts))
               for i, mp in enumerate(model.domain.maps)]
        ref = _dedup(np.concatenate([p for p, _ in nxt]),
                     np.concatenate([v for _, v in nxt]), model)
        got = apply_T(model, pts, vals)
        assert _same_bits(got[0], ref[0]) and _same_bits(got[1], ref[1])


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_vk_matches_pinned_digest(name, monkeypatch):
    # at the largest k with N^k |V_0| <= 2e6 vertex slots; pinned when V_k
    # was one push of all those slots and one dedup
    monkeypatch.delenv("FIF_CELL_BUDGET", raising=False)
    model = get_model(name)
    slots = len(model.domain.v0)
    k = max(k for k in range(1, 40) if model.N**k * slots <= 2_000_000)
    pts, vals = evaluate_on_vk(model, k)
    digest = hashlib.sha256(np.ascontiguousarray(pts).tobytes())
    digest.update(np.ascontiguousarray(vals).tobytes())
    pinned = json.loads(HASHES.read_text())[name][f"evaluate_on_vk:{k}"]
    assert digest.hexdigest() == pinned


def test_vk_rejects_inconsistent_shared_vertices():
    # q_1 shifted by 1e-6: the knot that l_1 and l_2 share gets two values
    model = get_model("example5_case2")
    (q1, facts), *rest = model.q
    bad = dataclasses.replace(
        model, q=[(Op("+", (q1, Const(1e-6))), facts), *rest])
    with pytest.raises(ModelError, match="duplicate-vertex inconsistency"):
        evaluate_on_vk(bad, 3)
    # apply_T takes arbitrary samples and does not check them
    pts, vals = evaluate_on_vk(model, 2)
    assert len(apply_T(bad, pts, vals)[0]) == len(evaluate_on_vk(model, 3)[0])


def test_vk_memory_bounded():
    # each level is pushed into the rows it keeps, so it holds V_(k-1), V_k
    # and one chunk: 3.8 MB at k = 10 and 9.4 MB at k = 11, whose result
    # and input take 8.1 MB; a push of all N |V_10| slots and a compress of
    # the kept ones peaked at 12.4 MB, all 177,147 slots of level 10 before
    # one dedup at 19 MB
    model = get_model("sg_exact")
    peaks = []
    for k in (10, 11):
        tracemalloc.start()
        try:
            evaluate_on_vk(model, k)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 15 * 2**20 and peaks[1] < 10.5 * 2**20


@pytest.mark.parametrize("name", SWEEP_CONFIGS)
def test_empirical_sweep_equals_replay(name, small_blocks):
    model = get_model(name)
    k_min, k_max = (2, 4) if model.N == 4 else (3, 5)
    est = empirical_dimension(model, k_min, k_max, extra=2)
    ref = replayed_estimate(model, k_min, k_max, k_max + 2)
    assert [(k, repr(d), c) for k, d, c in est.entries] == [
        (k, repr(d), c) for k, d, c in ref]


# empirical_dimension at the default budget, captured before the sweep:
# (k_min, k_max) -> box counts for k_min..k_max and repr(slope)
SEED_ESTIMATES = {
    "example5_case2": ((6, 12), [12252, 54758, 245032, 1098337, 4929351,
                                 22141239, 99511926], "1.365786390358037"),
    "example5_case1_sin": ((4, 10), [76, 190, 466, 1181, 2916, 7218, 18138],
                           "1.3156087589828946"),
    "example5_case1_one": ((4, 10), [76, 199, 513, 1341, 3406, 8784, 22948],
                           "1.370485107450704"),
    "degenerate_cube": ((3, 7), [128, 516, 2060, 8252, 32988],
                        "2.0018608234931463"),
    "sg_exact": ((5, 9), [3407, 15915, 75248, 357405, 1705064],
                 "2.2423317214169747"),
}


# "<config>:small": extra = 4 in blocks of SMALL_BLOCK_SLOTS floats, pinned
# when those blocks of 1-3 cells each lay inside one group of N^4 cells
SEED_ESTIMATES.update({
    "example5_case2:small": ((3, 5), [151, 684, 3031], "1.365071222659966"),
    "sg_exact:small": ((2, 4), [45, 204, 918], "2.175248623542068"),
    "degenerate_cube:small": ((2, 3), [32, 128], "1.9999999999999987"),
})


@pytest.mark.parametrize("name", sorted(SEED_ESTIMATES))
def test_empirical_matches_seed(name, monkeypatch):
    (k_min, k_max), counts, slope = SEED_ESTIMATES[name]
    config, _, small = name.partition(":")
    if small:
        monkeypatch.setattr(engine, "BLOCK_SLOTS", SMALL_BLOCK_SLOTS)
    est = empirical_dimension(get_model(config), k_min, k_max, extra=4 if small else 2)
    assert [k for k, _, _ in est.entries] == list(range(k_min, k_max + 1))
    assert [c for _, _, c in est.entries] == counts
    assert repr(est.slope) == slope


def test_empirical_memory_bounded():
    # the whole level 14 (9.6M vertex slots) took about 680 MB here
    model = get_model("example5_case2")
    tracemalloc.start()
    try:
        empirical_dimension(model, 6, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**20


@pytest.mark.parametrize("name, k_min, k_max", [
    ("example5_case1_one", 5, 11), ("example5_case2", 7, 13)])
def test_empirical_memory_is_a_block(name, k_min, k_max, monkeypatch):
    # the counts are reduced block by block: about 2.6 MB here (4.2 and
    # 5.1 MB for blocks of cell slots), against 59.5 and 41.9 MB when the
    # unequal knots kept the depth level's table and x order, and the
    # level-tied counts one table per level
    monkeypatch.setenv("FIF_CELL_BUDGET", "30000000")
    model = get_model(name)
    tracemalloc.start()
    try:
        empirical_dimension(model, k_min, k_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_seminorm_memory_bounded():
    # 16 MB here, 12 MB of it the value ranges of the ten levels 5..14 it
    # reads; it was 62 MB when those tables also held vertex points, boxes
    # and diameters
    model = get_model("example5_case2")
    tracemalloc.start()
    try:
        seminorm(model, 0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


@st.composite
def interval_models(draw, equal=False):
    """Intervals of 2-4 pieces with unequal knots (or ``equal`` ones) from
    x0 = 0 or 1000, random signature bits and data, constant scales and
    solved displacements.  Widths within a factor of 4 keep every level-8
    cell wider than 1e-9, far above the float spacing at 1000, so no two
    cells share a lo end."""
    n = draw(st.integers(2, 4))
    widths = (draw(st.lists(st.floats(0.25, 1), min_size=n, max_size=n, unique=True))
              if not equal else [draw(st.floats(0.25, 1))] * n)
    x0 = draw(st.sampled_from([0.0, 1000.0]))
    knots = [x0 + sum(widths[:i]) for i in range(n + 1)]
    flips = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    d = interval_domain(knots, flips)
    nodes = vertex_set(d, 1)
    values = draw(st.lists(st.floats(-1, 1), min_size=len(nodes),
                           max_size=len(nodes)))
    data = [(tuple(p), v) for p, v in zip(nodes, values)]
    return build_model(FifSpec(d, data, [(Const(0.5), None)] * n, "solve"))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(interval_models(), st.integers(1, 7))
def test_interval_rows_are_in_x_order(model, k):
    # level k, pushed whole, reads its cells as adjacent rows: V_k sorted
    # by x, points and values bit for bit, whatever the flips
    *_, (level, _, block) = engine._sweep(model, k, points=True)
    assert level == k and engine._groups(block.vals, 1) == model.N**k
    pts, vals = evaluate_on_vk(model, k)
    order = np.argsort(pts[:, 0])
    assert _same_bits(block.pts, pts[order]) and _same_bits(block.vals, vals[order])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(interval_models(), st.integers(0, 2))
def test_row_sweep_on_intervals_equals_slot_replay(model, e):
    # random knots, flips and data in blocks of 3 cells: the level-tied and
    # the dyadic counts are the slot replay's exactly, and Osc(k) agrees
    # with it to 1e-12, since a row shared by two slots carries one of
    # their values, which may differ in the last bit
    d, k_min, k_max = model.domain, 2, 5
    deltas = {k: d.delta(k) for k in range(k_min, k_max + 1)}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "BLOCK_SLOTS", SMALL_BLOCK_SLOTS)
        est = empirical_dimension(model, k_min, k_max, extra=e)
        tied = dimension._tied_counts(model, deltas, k_max + e)
        osc = oscillation._osc_sums(model, 3)
    with pytest.MonkeyPatch.context() as patch:
        # level 5 whole, at a budget that makes k = 1..4 reduce runs of the
        # table of level 5
        patch.setenv("FIF_CELL_BUDGET", str(model.N**5 * 2))
        shared = oscillation._osc_sums(model, 5)
    assert est.entries == replayed_estimate(model, k_min, k_max, k_max + e)
    levels = _replay(model, 7, geometry_to=0)
    for k, delta in deltas.items():
        vmin, vmax = replayed_table(model, k, k + e, levels)
        assert tied[k] == int(np.sum(np.maximum(np.ceil((vmax - vmin) / delta - 1e-9), 1)))
    for k, got in osc.items():
        vmin, vmax = replayed_table(model, k, k + 4, levels)
        assert got == pytest.approx(float(np.sum(vmax - vmin)), rel=1e-12)
    for k, got in shared.items():
        vmin, vmax = replayed_table(model, k, 5, levels)
        assert got == pytest.approx(float(np.sum(vmax - vmin)), rel=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(interval_models(equal=True))
def test_grouped_tied_counts_on_intervals_equal_replay(model):
    # equal pieces, random flips and data: the level-tied counts of the
    # sweep grouped by g = N^e are the replay's exactly for e = 0..3, in
    # blocks of C = N^L cells (L = 1 or 2 for 16 floats, up to 3 to 6 for
    # 256, and at least e).  So 1 < g < C (residue-major blocks, flipped or
    # not), g == C (one group a block) and levels pushed whole only to hold
    # a group all occur
    d, k_min, k_max = model.domain, 2, 4
    assert d.homogeneous
    deltas = {k: d.delta(k) for k in range(k_min, k_max + 1)}
    for e in range(4):
        ref = replayed_estimate(model, k_min, k_max, k_max + e)
        for slots in (SMALL_BLOCK_SLOTS, 256):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "BLOCK_SLOTS", slots)
                got = dimension._tied_counts(model, deltas, k_max + e)
            assert [(k, delta, got[k]) for k, delta in deltas.items()] == ref


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_sweep_whole_levels_are_vk(name):
    # the sweep pushes its whole levels as evaluate_on_vk does: on an
    # interval each is V_k in x order, points and values bit for bit; else
    # a table (P, C) of rows of V_k, points and values bit for bit, whose
    # column j holds the rows of the replayed cell j's vertices, ascending,
    # and every row is in some column
    model = get_model(name)
    d, whole = model.domain, 0
    replayed = replay_levels(model, 30, geometry_to=0)
    next(replayed)  # level 0
    for level, _, block in engine._sweep(model, 30, points=True):
        if engine._groups(block.vals, 1) < model.N**level:
            break
        pts, vals = evaluate_on_vk(model, level)
        if block.vals.ndim == 1:
            order = np.argsort(pts[:, 0], kind="stable")
            assert _same_bits(block.pts, pts[order]) and _same_bits(block.vals, vals[order])
        else:
            row = {p.tobytes(): j for j, p in enumerate(pts)}
            at = np.reshape([row[p.tobytes()] for p in block.pts.reshape(-1, d.m)],
                            block.vals.shape)
            key = dict(zip(_keys(pts, d), range(len(pts))))
            cells = next(replayed)[0]  # (C, P, m)
            of_cells = np.reshape([key[k] for k in _keys(cells, d)], cells.shape[:2])
            assert _same_bits(block.vals, vals[at]) and len(np.unique(at)) == len(vals)
            assert _same_bits(at, np.sort(of_cells, axis=1).T)
        whole += 1
    assert whole == level - 1 >= 7


def test_seminorm_samples_make_no_geometry(monkeypatch):
    # the seminorm reads value ranges only: on unequal knots too, its one
    # sweep carries no vertex points at the depth level
    model = get_model("example5_case1_one")
    sweeps, sweep = [], oscillation._sweep

    def spy(model, depth, *args, **kw):
        sweeps.append((depth, points := []))
        for level, offset, block in sweep(model, depth, *args, **kw):
            if level == depth:
                points.append(block.pts is not None)
            yield level, offset, block

    monkeypatch.setattr(oscillation, "_sweep", spy)
    seminorm(model, 1.0, kmax=5)
    assert [(depth, any(points)) for depth, points in sweeps] == [(9, False)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(2, 5), st.integers(0, 3), st.integers(0, 2),
       st.integers(0, 9), st.integers(0, 2**32 - 1))
def test_fold_is_the_reshape_min_max(n, e, b, slots, seed):
    # blocks of n^(e + b) cells, whole groups of g = n^e laid out
    # group-major (``_group_major``), folded at every offset of n^2 blocks,
    # in random order, into tables of the groups filled with NaN: every row
    # is written once, with the min and max of its group's cells, bit for
    # bit (``_assert_extremes``).  Cells (C, slots) read rows of the
    # block's values, which hold zeros of both signs, each group R
    # distinct rows (some read twice); for slots = 0 the block is an
    # interval's C + 1 rows, a group of cells j g .. j g + g - 1 the rows
    # j g .. j g + g
    rng = np.random.default_rng(seed)
    group, cells = n**e, n**(e + b)
    lo, hi = np.full(n**2 * cells // group, np.nan), np.full(n**2 * cells // group, np.nan)
    parts = np.full((len(lo), group * slots if slots else group + 1), np.nan)
    distinct = int(rng.integers(1, group * slots + 1)) if slots else 0
    for j in rng.permutation(n**2):
        if slots:
            size = int(rng.integers(distinct, distinct * cells // group + 1))
            index = np.concatenate([rng.permutation(np.concatenate([
                rows, rng.choice(rows, group * slots - distinct)]))
                for rows in (rng.permutation(size)[:distinct]
                             for _ in range(cells // group))]).reshape(cells, slots)
        else:
            size, index = cells + 1, np.arange(cells + 1)
        values = rng.normal(size=size)
        values[rng.random(size) < 0.3] = 0.0
        values[rng.random(size) < 0.3] = -0.0
        engine._fold(lo, hi, values[engine._group_major(index, group)], j * cells, group)
        part = (values[index].reshape(cells // group, -1) if slots else
                np.array([values[s:s + group + 1] for s in range(0, cells, group)]))
        parts[j * cells // group:j * cells // group + len(part)] = part
    assert not np.isnan(lo).any() and not np.isnan(hi).any()
    _assert_extremes((lo, hi), parts)


def _sweep_copies(model, depth, group, slots):
    """(level, offset, values, points) of each block of ``_sweep`` in
    blocks of ``slots`` floats, each copied out of its level's buffer."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "BLOCK_SLOTS", slots)
        return [(level, at, block.vals.copy(), block.pts.copy())
                for level, at, block in engine._sweep(model, depth, group, points=True)]


def _whole_levels(blocks):
    """The last level a sweep pushed whole: the deepest that is one block."""
    counts = collections.Counter(level for level, *_ in blocks)
    return max((level for level, c in counts.items() if c == 1), default=0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(["example5_case2", "sg_exact", "degenerate_cube"]),
       st.integers(0, 5), st.sampled_from([16, 256]))
def test_group_major_blocks_reduce_to_the_push_order_min_max(name, e, slots):
    # P = 2, 3 and 4 slots a cell, groups of g = N^e cells, blocks of
    # C = N^L cells (L = 0 or 1 for 16 floats, 2 to 4 for 256, at least e
    # when grouped).  Every level the grouped sweep yields, whole levels
    # too, is laid out group-major from the block of an ungrouped sweep
    # with the same whole levels: on an interval its C + 1 rows, rows j g
    # first, then rows j g + s for s = 1..g-1; on a cube or the gasket a
    # table (R, C / g) whose column j holds the R distinct rows of cells
    # j g .. j g + g - 1, columns of the twin's (P, C) table.  It holds
    # whole groups (a whole level of fewer than g cells is one), and one
    # leading-axis reduce of it gives the min and max of its twin's
    # push-order groups, runs of g + 1 rows in x order on an interval, the
    # cells (C, P) else, bit for bit.  Those are the groups of the
    # replayed cells, up to the one value a row shared by two slots keeps
    # on an interval
    model = get_model(name)
    d, n, group = model.domain, model.N, model.N**e
    levels = _replay(model, 5, geometry_to=0)
    grouped = _sweep_copies(model, 5, group, slots)
    whole = _whole_levels(grouped)
    # the block size at which the ungrouped sweep pushes as many levels whole
    same = max(slots, n * len(vertex_set(d, whole - 1)) * (d.m + 1)) if whole else slots
    ungrouped = _sweep_copies(model, 5, 1, same)
    assert [(lv, at) for lv, at, *_ in grouped] == [(lv, at) for lv, at, *_ in ungrouped]
    for (level, at, major, pts), (_, _, push, push_pts) in zip(grouped, ungrouped):
        cells = n**min(level, whole)
        g = min(group, cells)
        assert cells % g == 0 and (g == group or cells == n**level)
        assert engine._groups(major, g) == cells // g and engine._groups(push, 1) == cells
        ref = levels[level][1][at:at + cells].reshape(cells // g, -1)
        lo, hi = engine._group_extremes(major, g)
        if push.ndim == 1:
            order = np.concatenate([np.arange(s, cells + 1, g) for s in range(g)])
            assert _same_bits(major, push[order])
            runs = [push[j:j + g + 1] for j in range(0, cells, g)]
            assert _same_bits(lo, [r.min() for r in runs])
            assert _same_bits(hi, [r.max() for r in runs])
            # no map flips, so x order is push order; a row shared by
            # two slots carries one of their values
            assert np.allclose(lo, ref.min(axis=1), rtol=0, atol=1e-15)
            assert np.allclose(hi, ref.max(axis=1), rtol=0, atol=1e-15)
        else:
            # both sweeps push the same rows: a point's bits name its row
            for j in range(cells // g):
                rows = {p.tobytes(): v for p, v in zip(pts[:, j], major[:, j])}
                twin = {p.tobytes(): v for p, v in zip(
                    push_pts[:, j * g:j * g + g].reshape(-1, d.m),
                    push[:, j * g:j * g + g].ravel())}
                assert len(rows) == len(major) and rows == twin
            groups = push.T.reshape(cells // g, -1)
            assert _same_bits(lo, groups.min(axis=1)) and _same_bits(hi, groups.max(axis=1))
            assert _same_bits(lo, ref.min(axis=1)) and _same_bits(hi, ref.max(axis=1))


@st.composite
def grid_models(draw):
    """2- and 3-axis cubes of 2 or 3 unequal pieces an axis (2 on 3 axes),
    each axis's first piece flipped or not (signatures alternate), and
    gaskets of level 1 and 2.  Dyadic data on V_1 with scale 1/2 and
    solved displacements, or zero data of both signs with scales of both
    signs and q_i = -0, whose values are zeros of both signs."""
    if draw(st.booleans()):
        m = draw(st.integers(2, 3))
        axes = []
        for n in [draw(st.integers(2, 5 - m)) for _ in range(m)]:
            widths = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
            flip = draw(st.integers(0, 1))
            axes.append(([sum(widths[:i]) / sum(widths) for i in range(n + 1)],
                         [(j + flip) % 2 for j in range(n)]))
        d = cube_domain(axes)
    else:
        d = gasket_domain(TRIANGLE, draw(st.integers(1, 2)))
    nodes = vertex_set(d, 1)
    if draw(st.booleans()):
        values = [v / 4 for v in draw(st.lists(st.integers(-8, 8), min_size=len(nodes),
                                               max_size=len(nodes)))]
        s, q = [(Const(0.5), None)] * d.N, "solve"
    else:
        values = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=len(nodes),
                               max_size=len(nodes)))
        s = [(Const(c), None) for c in draw(st.lists(
            st.sampled_from([0.5, -0.5, 0.25]), min_size=d.N, max_size=d.N))]
        q = [(Const(-0.0), None)] * d.N
    return build_model(FifSpec(d, [(tuple(p), v) for p, v in zip(nodes, values)], s, q))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(grid_models())
def test_group_tables_hold_the_distinct_rows_of_their_cells(model):
    # groups of g = N^e cells for e = 0..3, levels 1..e + 1, in blocks of
    # 1-3 cells or of the default size: column j of a block's (R, C / g)
    # table holds R distinct vertices, those of the replayed cells j g ..
    # j g + g - 1, and its extremes are those of the cells' slots, each
    # read off the column's row of its vertex, bit for bit
    # (``_assert_extremes``)
    d, n = model.domain, model.N
    levels = list(itertools.islice(replay_levels(model, 5, geometry_to=0), 5))
    for e, slots in itertools.product(range(4), (SMALL_BLOCK_SLOTS, engine.BLOCK_SLOTS)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "BLOCK_SLOTS", slots)
            for level, at, block in engine._sweep(model, e + 1, n**e, points=True):
                g = min(n**e, n**level)
                cells = levels[level][0][at:at + block.vals.shape[1] * g]
                keys, size, part = _keys(cells, d), g * cells.shape[1], []
                for j in range(block.vals.shape[1]):
                    rows = dict(zip(_keys(block.pts[:, j], d), block.vals[:, j]))
                    keys_j = keys[j * size:j * size + size]
                    assert len(rows) == len(block.vals) and set(rows) == set(keys_j)
                    part.append([rows[k] for k in keys_j])
                _assert_extremes(engine._group_extremes(block.vals, g), part)


@pytest.mark.parametrize("name, kmax", [*((name, 6) for name in SWEEP_CONFIGS),
                                        ("example5_case2", None)])
def test_osc_sums_reduce_shared_levels_finest_first(name, kmax, monkeypatch):
    # at a budget of level 6, k = 2..6 read level 6 (e_k = 6 - k or 4,
    # e0 = 0); in the default seminorm of example5_case2, k = 10, 11 and 12
    # read level 14 (e0 = 2).  Osc(k), each reduced from the runs of the
    # next finer k of its level, is repr-equal to one strided reduce of
    # runs of N^(e_k - e0) rows of the whole table, which the folds of the
    # sweep write, every row
    model = get_model(name)
    if kmax:
        monkeypatch.setenv("FIF_CELL_BUDGET", str(model.domain.slots(6)))
    kmax = kmax or model.domain.analysis_defaults()["seminorm_kmax"]
    extras = {k: engine._fit_extra(model, k, 4) for k in range(1, kmax + 1)}
    n, e0 = model.N, min(extras.values())
    assert max(collections.Counter(k + e for k, e in extras.items()).values()) >= 3
    tables = {k + e: (np.full(n**(k + e - e0), np.nan), np.full(n**(k + e - e0), np.nan))
              for k, e in extras.items()}
    for level, offset, block in engine._sweep(model, max(tables), n**e0):
        if level in tables:
            engine._fold(*tables[level], block.vals, offset, n**e0)
    direct = {}
    for k, e in extras.items():
        (lo, hi), r = tables[k + e], n**(e - e0)
        assert not np.isnan(lo).any() and not np.isnan(hi).any()
        direct[k] = repr(float(np.sum(
            functools.reduce(np.maximum, [hi[s::r] for s in range(r)])
            - functools.reduce(np.minimum, [lo[s::r] for s in range(r)]))))
    got = oscillation._osc_sums(model, kmax)
    assert list(got) == list(direct) and [repr(v) for v in got.values()] == list(direct.values())


def test_sweep_blocks_of_a_level_share_one_buffer(small_blocks):
    # below the levels pushed whole (none here: the 9 slots of level 1 are
    # 27 floats), every block of one level is gathered into that level's
    # one buffer, values and points
    model = get_model("sg_exact")
    buffers = {}
    for level, _, block in engine._sweep(model, 5, points=True):
        if engine._groups(block.vals, 1) < model.N**level:
            buffers.setdefault(level, set()).add(
                (block.vals.ctypes.data, block.pts.ctypes.data))
    assert sorted(buffers) == [1, 2, 3, 4, 5]
    assert all(len(seen) == 1 for seen in buffers.values())
    assert len(set().union(*buffers.values())) == 5
