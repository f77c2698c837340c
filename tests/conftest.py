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

# BLOCK_SLOTS of the small_blocks fixture: blocks of 2-4 cells
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


@pytest.fixture
def small_blocks(monkeypatch):
    # blocks of 2-4 cells: every level past the first is swept depth-first
    # in many blocks, and a level-k range spans several blocks (extra > 1)
    monkeypatch.setattr(engine, "BLOCK_SLOTS", SMALL_BLOCK_SLOTS)


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR


@pytest.fixture(params=CONFIG_NAMES, scope="session")
def each_model(request):
    return request.param, get_model(request.param)
