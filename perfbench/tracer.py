"""Span tracing of calls into the fifdim modules, from outside the library.

``install`` replaces every public function of every fifdim module with a
timing wrapper, in every module namespace that holds it by name (so
``graph_sample`` is wrapped in ``engine``, ``oscillation``, ``dimension``
and the package itself), plus the ``sample_points`` method of the two
region classes.  Each call becomes one span ``[name, start, end, parent,
op, attrs]`` kept in memory; ``layer_metrics`` reduces the spans of a pass
to the per-layer metrics named in BENCHMARK.json.

Counts in ``attrs`` are computed from the call's arguments and the
library's budget rule (``cells``), or read off the result (``points``,
``unique``).  ``rss_rise_mb`` is the peak of memory newly allocated during
the call as tracemalloc sees it (numpy reports its array buffers to it), so
it does not depend on what earlier calls left behind.
"""

from __future__ import annotations

import importlib
import inspect
import time
import tracemalloc

MODULES = ("config", "exprs", "domains", "engine", "oscillation",
           "dimension", "svgplot", "cli")

# calls whose memory rise is measured (tracemalloc slows allocation, so
# only these few large-array kernels pay for it)
MEMORY_TRACED = {"engine.evaluate_on_vk", "engine.graph_sample",
                 "dimension.empirical_dimension"}

# calls whose arguments or results give counts (see _attrs)
COUNTED = MEMORY_TRACED | {"domains.sample_points"}

# setup entry points: their subtrees make up setup_s, everything else run_s
SETUP = {"config.load_config", "engine.build_model"}


def _budget() -> int:
    from fifdim.domains import cell_budget

    # the unwrapped function, so computing a count records no span
    return getattr(cell_budget, "__wrapped__", cell_budget)()


def _model_cells(model, depth: int) -> int:
    """Vertex slots N^depth * |V_0|, the quantity the cell budget bounds."""
    return model.N ** depth * len(model.domain.v0)


def _attrs(name, a, result):
    """Counts for one call; ``a`` maps parameter names to arguments."""
    if name == "domains.sample_points":
        return {"points": len(result)}
    if name == "engine.evaluate_on_vk":
        slots = _model_cells(a["model"], a["k"])
        return {"cells": slots, "slots": slots, "unique": len(result[1])}
    if name == "engine.graph_sample":
        return {"cells": _model_cells(a["model"], a["k"] + a["extra"])}
    # dimension.empirical_dimension: the depth rule of the function itself
    model, k_max = a["model"], a["k_max"]
    depth = k_max + a["extra"]
    while depth > k_max and _model_cells(model, depth) > _budget():
        depth -= 1
    return {"cells": _model_cells(model, depth)}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None  # label of the benchmark operation under way

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        measure_memory = name in MEMORY_TRACED
        signature = inspect.signature(fn) if name in COUNTED else None

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            own_memory = measure_memory and not tracemalloc.is_tracing()
            if own_memory:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if own_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            attrs = {}
            if signature:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = _attrs(name, bound.arguments, result)
            if own_memory:
                attrs["rss_rise_mb"] = peak / 2**20
            span[5] = attrs
            return result

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> None:
    """Route every public fifdim function through ``tracer``."""
    pkg = importlib.import_module("fifdim")
    mods = [importlib.import_module(f"fifdim.{m}") for m in MODULES]
    wrappers = {}
    for mod in mods:
        short = mod.__name__.split(".", 1)[1]
        for attr, val in vars(mod).items():
            if (inspect.isfunction(val) and not attr.startswith("_")
                    and val.__module__ == mod.__name__):
                wrappers[val] = tracer.wrap(f"{short}.{attr}", val)
    for mod in [pkg, *mods]:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrappers:
                setattr(mod, attr, wrappers[val])
    domains = importlib.import_module("fifdim.domains")
    for cls in (domains.Box, domains.Triangle):
        cls.sample_points = tracer.wrap("domains.sample_points",
                                        cls.sample_points)


def _span_tables(spans):
    """Per-span self time and whether the span lies under a setup call."""
    n = len(spans)
    child = [0.0] * n
    in_setup = [False] * n
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_setup[i] = in_setup[parent] or spans[parent][0] in SETUP
    self_s = [s[2] - s[1] - child[i] for i, s in enumerate(spans)]
    return self_s, in_setup


# per-layer metric -> (statistic, span names it covers)
LAYER_METRICS = {
    "config.load_config.s": ("s", ["config.load_config"]),
    "exprs.audit_shape.s": ("s", ["exprs.audit_shape"]),
    "exprs.audit_shape.calls": ("calls", ["exprs.audit_shape"]),
    "exprs.sup_norm.s": ("s", ["exprs.sup_norm", "exprs.inf_abs"]),
    "exprs.sup_norm.calls": ("calls", ["exprs.sup_norm", "exprs.inf_abs"]),
    "domains.sample_points.s": ("s", ["domains.sample_points"]),
    "domains.sample_points.points": ("points", ["domains.sample_points"]),
    "domains.vertex_set.s": ("s", ["domains.vertex_set"]),
    "engine.build_model.self_s": ("self_s", ["engine.build_model"]),
    "engine.solve_q.s": ("s", ["engine.solve_q"]),
    "engine.validate_join_up.s": ("s", ["engine.validate_join_up"]),
    "engine.check_well_defined.s": ("s", ["engine.check_well_defined"]),
    "engine.evaluate_on_vk.s": ("s", ["engine.evaluate_on_vk"]),
    "engine.evaluate_on_vk.cells": ("cells", ["engine.evaluate_on_vk"]),
    "engine.evaluate_on_vk.unique_ratio": ("unique_ratio",
                                           ["engine.evaluate_on_vk"]),
    "engine.evaluate_on_vk.rss_rise_mb": ("rss_rise_mb",
                                          ["engine.evaluate_on_vk"]),
    "engine.graph_sample.calls": ("calls", ["engine.graph_sample"]),
    "engine.graph_sample.s": ("s", ["engine.graph_sample"]),
    "engine.graph_sample.cells": ("cells", ["engine.graph_sample"]),
    "engine.graph_sample.rss_rise_mb": ("rss_rise_mb",
                                        ["engine.graph_sample"]),
    "oscillation.seminorm.s": ("s", ["oscillation.seminorm"]),
    "oscillation.seminorm.self_s": ("self_s", ["oscillation.seminorm"]),
    "dimension.reconcile.s": ("s", ["dimension.reconcile"]),
    "dimension.theoretical_entries.s": ("s",
                                        ["dimension.theoretical_entries"]),
    "dimension.find_witness.calls": ("calls", ["dimension.find_witness"]),
    "dimension.find_witness.s": ("s", ["dimension.find_witness"]),
    "dimension.lower_bound_interval_variable_s.s": (
        "s", ["dimension.lower_bound_interval_variable_s"]),
    "dimension.empirical_dimension.self_s": (
        "self_s", ["dimension.empirical_dimension"]),
    "dimension.empirical_dimension.cells": (
        "cells", ["dimension.empirical_dimension"]),
    "dimension.empirical_dimension.rss_rise_mb": (
        "rss_rise_mb", ["dimension.empirical_dimension"]),
    "dimension.box_count.calls": ("calls", ["dimension.box_count"]),
    "dimension.box_count.s": ("s", ["dimension.box_count"]),
    "svgplot.charts.s": ("s", ["svgplot.polyline_chart",
                               "svgplot.scatter_chart",
                               "svgplot.loglog_chart"]),
    "cli.main.self_s": ("self_s", ["cli.main"]),
}

UNITS = {"s": "s", "self_s": "s", "calls": "count",
         "cells": "count_computed", "points": "count",
         "unique_ratio": "ratio", "rss_rise_mb": "MB"}


def layer_metrics(spans) -> dict[str, float]:
    """Reduce one pass's spans to the per-layer metrics, plus the sum of
    self time outside setup subtrees (``run_self_s``)."""
    self_s, in_setup = _span_tables(spans)
    out = {}
    for metric, (stat, names) in LAYER_METRICS.items():
        idx = [i for i, s in enumerate(spans) if s[0] in names]
        attrs = [spans[i][5] for i in idx]
        if stat == "s":
            value = sum(spans[i][2] - spans[i][1] for i in idx)
        elif stat == "self_s":
            value = sum(self_s[i] for i in idx)
        elif stat == "calls":
            value = len(idx)
        elif stat == "unique_ratio":
            slots = sum(a["slots"] for a in attrs)
            value = sum(a["unique"] for a in attrs) / slots if slots else 0.0
        elif stat == "rss_rise_mb":
            value = max((a.get("rss_rise_mb", 0.0) for a in attrs),
                        default=0.0)
        else:
            value = sum(a[stat] for a in attrs)
        out[metric] = value
    out["run_self_s"] = sum(
        t for t, s, setup in zip(self_s, spans, in_setup)
        if not setup and s[0] not in SETUP
    )
    return out
