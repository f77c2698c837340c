import pathlib

import numpy as np
import pytest

from fifdim import engine
from fifdim.config import load_config
from fifdim.engine import build_model

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

CONFIG_NAMES = [
    "example5_case1_one",
    "example5_case1_sin",
    "example5_case2",
    "sg_exact",
    "degenerate_interval",
    "degenerate_cube",
]

# BLOCK_SLOTS of the small_blocks fixture: blocks of 1-3 cells
SMALL_BLOCK_SLOTS = 16

_cache = {}


def get_config(name):
    if name not in _cache:
        _cache[name] = load_config(str(CONFIG_DIR / f"{name}.json"))
    return _cache[name]


def get_model(name):
    key = ("model", name)
    if key not in _cache:
        _cache[key] = build_model(get_config(name).spec)
    return _cache[key]


def replay_levels(model, depth, geometry_to=None):
    """Levels 0..depth as (pts, vals, lo, hi, diam), one at a time, each
    pushed whole from level 0 with the per-map arithmetic of the
    recursion.  Boxes and diameters are carried down to level
    ``geometry_to`` (all levels by default) and are None below it; the
    last level has no points, since nothing pushes it."""
    geometry_to = depth if geometry_to is None else geometry_to
    d = model.domain
    v0 = d.v0_array
    lo, hi = d.base.bounding_box()
    lev = (v0[None], model.p_at(v0)[None], lo[None], hi[None],
           np.array([d.base.diameter]))
    yield lev
    for level in range(1, depth + 1):
        pts, vals, lo, hi, diam = lev
        C, P, m = pts.shape
        flat = pts.reshape(C * P, m)
        out = [[], [], [], [], []]
        for i, mp in enumerate(d.maps):
            s_v = model.s[i][0].ev(flat).reshape(C, P)
            q_v = model.q[i][0].ev(flat).reshape(C, P)
            out[1].append(s_v * vals + q_v)
            if level < depth:
                out[0].append(mp(pts))
            if level <= geometry_to:
                a, b = mp(lo), mp(hi)
                out[2].append(np.minimum(a, b))
                out[3].append(np.maximum(a, b))
                out[4].append(diam * mp.ratio)
        lev = tuple(np.concatenate(parts) if parts else None for parts in out)
        yield lev


def key_dedup(pts, resolution):
    """(first, inverse) of the points ``pts`` (n, m) by their integer grid
    keys round(x / resolution): the first point of each key and each
    point's key group.  The reference dedup of V_k by point identity."""
    keys = np.round(np.asarray(pts, float) / resolution).astype(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    return first, inverse.reshape(-1)


def replay_geometry(model, k):
    """(lo, hi, diam) of the level-k cells from ``replay_levels``, in push
    order: boxes (C, m) and diameters (C,)."""
    for _, _, lo, hi, diam in replay_levels(model, k):
        pass
    return lo, hi, diam


def column_count_reference(vmin, vmax, delta, cell_lo, cell_hi, ncols=None):
    """The m = 1 column method on every cell corner (the boxes (C, 1) of
    the cells in push order, with value ranges vmin, vmax), scattered with
    ufunc.at: what the column counts of ``dimension`` must equal, bit for
    bit.  The columns run up to ncols - 1, or else to the one the last hi
    corner meets; a corner past it counts in that one."""
    x0 = float(np.min(cell_lo[:, 0]))
    ends = []
    for corner, sign in ((cell_lo, 1.0), (cell_hi, -1.0)):
        t = corner[:, 0] - x0
        t /= delta
        tie = np.abs(corner[:, 0]) / delta
        tie *= sign * 1e-12
        t += sign * 1e-9
        t += tie
        ends.append(np.floor(t, out=t).astype(int))
    ncols = ncols or max(1, int(np.max(ends[1])) + 1)
    ia, width = (np.clip(col, 0, ncols - 1, out=col) for col in ends)
    np.maximum(width, ia, out=width)
    width -= ia
    span = int(np.max(width))
    if span > 64:
        raise ValueError("cells too coarse for this delta; refine the sample")
    colmin = np.full(ncols, np.inf)
    colmax = np.full(ncols, -np.inf)
    np.minimum.at(colmin, ia, vmin)
    np.maximum.at(colmax, ia, vmax)
    for o in range(1, span + 1):
        sel = np.flatnonzero(width >= o)
        idx = ia[sel] + o
        np.minimum.at(colmin, idx, vmin[sel])
        np.maximum.at(colmax, idx, vmax[sel])
    filled = colmax >= colmin
    ranges = colmax[filled] - colmin[filled]
    counts = np.maximum(1, np.ceil(ranges / delta - 1e-9))
    return int(np.sum(counts))


def replayed_table(model, k, level, levels=None):
    """(vmin, vmax) of the level-k cells, in push order, over the vertex
    values of their descendants at ``level`` (of ``levels``, as
    ``replay_levels`` gives them, or replayed here)."""
    if levels is None:
        *_, (_, vals, _, _, _) = replay_levels(model, level, geometry_to=0)
    else:
        vals = levels[level][1]
    vals = vals.reshape(model.N**k, -1)
    return vals.min(axis=1), vals.max(axis=1)


def replayed_estimate(model, k_min, k_max, depth):
    """empirical_dimension's entries from whole replayed levels: each
    level-tied count a sum over the level-k cells at level k + depth -
    k_max, of max(ceil(osc / delta), 1) on an interval and of the prism's
    ceil(osc / delta) + 1 on a cube or the gasket; on unequal knots each
    dyadic count ``column_count_reference`` of the level-depth cells."""
    levels = list(replay_levels(model, depth))
    d = model.domain
    if d.homogeneous or d.m > 1:
        out = []
        for k in range(k_min, k_max + 1):
            vmin, vmax = replayed_table(model, k, k + depth - k_max, levels)
            boxes = np.ceil((vmax - vmin) / d.delta(k) - 1e-9)
            boxes = boxes + 1 if d.m > 1 else np.maximum(boxes, 1)
            out.append((k, d.delta(k), int(np.sum(boxes))))
        return out
    vmin, vmax = replayed_table(model, depth, depth, levels)
    lo, hi = levels[depth][2:4]
    return [(k, d.diameter / 2.0**k, column_count_reference(
        vmin, vmax, d.diameter / 2.0**k, lo, hi)) for k in range(k_min, k_max + 1)]


@pytest.fixture
def small_blocks(monkeypatch):
    # blocks of 1-3 cells: every level (past the first on an interval) is
    # swept depth-first in many blocks, and a level-k range spans several
    # blocks (extra > 1)
    monkeypatch.setattr(engine, "BLOCK_SLOTS", SMALL_BLOCK_SLOTS)


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR


@pytest.fixture(params=CONFIG_NAMES, scope="session")
def each_model(request):
    return request.param, get_model(request.param)
