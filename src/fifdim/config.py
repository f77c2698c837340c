"""JSON run-configuration loading.

Numbers may be given as JSON numbers or as strings; strings are parsed
as exact fractions ("4/15", "1/3") so knot ratios survive into the log
formulas without decimal truncation.

Parsing owns the JSON types, numbers, expression syntax, facts fields
(eta in (0, 1], as ``ShapeFacts`` requires), the spellings of
"displacements.solve", the domain (and the path that blames a V too
fine) and "analysis".  The rules of a spec, the family and the facts
too, are ``engine._spec_errors``, as ``build_model`` runs them; their
(path, message) pairs join the parse errors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .domains import (DEFAULT_CELL_BUDGET, BudgetError, Domain, DomainError,
                      build_interval_maps, cube_domain, gasket_domain,
                      interval_domain, vertex_set)
from .engine import FifSpec, _spec_errors
from .exprs import SHAPES, ExprError, ShapeFacts, parse_expr

__all__ = ["RunConfig", "ConfigError", "load_config", "parse_number",
           "resolve_analysis"]

# the "analysis" fields: gamma_pin is a number, the others JSON integers
# with these least values (a box-count window starts at level 2 and spans
# two levels at least; a sample at depth 0 is the interpolation nodes)
ANALYSIS_INTS = {"k_min": 2, "k_max": 3, "sample_depth": 0}


class ConfigError(ValueError):
    """Config parse/schema failure; ``errors`` lists (path, message)."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = errors
        super().__init__(
            "; ".join(f"{path}: {msg}" for path, msg in errors)
        )


def _json_int(value) -> bool:
    """Whether a JSON value is an integer: 6.0, "6" and true are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_number(raw, path: str = "") -> float:
    if isinstance(raw, bool):
        raise ConfigError([(path, "expected a number, got a boolean")])
    if isinstance(raw, (int, float)):
        return float(raw)
    if isinstance(raw, str):
        try:
            return float(Fraction(raw))
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ConfigError([(path, f"cannot parse number {raw!r}")])
    raise ConfigError([(path, f"expected a number, got {type(raw).__name__}")])


def _number(raw, path: str, errors, ok=None, need=""):
    """``parse_number`` whose failure, or a value that fails ``ok`` (which
    ``need`` states) if given, is recorded in ``errors``; None then."""
    try:
        value = parse_number(raw, path)
    except ConfigError as exc:
        errors.extend(exc.errors)
        return None
    if ok is not None and not ok(value):
        errors.append((path, f"must be {need}, got {value}"))
        return None
    return value


@dataclass
class RunConfig:
    spec: FifSpec
    analysis: dict = field(default_factory=dict)


def _facts_from(raw, path: str, errors) -> ShapeFacts | None:
    """The declared facts of an expression, None if they do not parse."""
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        errors.append((path, "facts must be an object"))
        return None
    n_errors = len(errors)
    known = {"constant", "eta", "H", *(shape for shape, _ in SHAPES)}
    errors.extend((f"{path}.{k}", "unknown fact field") for k in raw if k not in known)
    constant = raw.get("constant", False)
    if not isinstance(constant, bool):
        errors.append((f"{path}.constant",
                       f"must be true or false, got {json.dumps(constant)}"))
    for shape, _ in SHAPES:  # 1-based axes of the domain
        axes = raw.get(shape, [])
        if not isinstance(axes, list) or not all(_json_int(u) for u in axes):
            errors.append((f"{path}.{shape}", "must be a list of integers, "
                           f"got {json.dumps(axes)}"))
    eta, H = (_number(raw[k], f"{path}.{k}", errors, *ok) if k in raw else None
              for k, ok in (("eta", (lambda v: 0 < v <= 1, "in (0, 1]")), ("H", ())))
    if len(errors) > n_errors:
        return None
    return ShapeFacts(is_constant=constant, holder_exponent=eta, holder_constant=H,
                      **{f"{shape}_in": raw.get(shape, ()) for shape, _ in SHAPES})


def _domain_from(raw, errors) -> Domain | None:
    if not isinstance(raw, dict):
        errors.append(("domain", "must be an object"))
        return None
    kind = raw.get("kind")
    try:
        if kind in ("interval", "cube"):
            # an interval is the one axis written at the top of "domain"
            single = kind == "interval"
            axes = []
            for j, ax in enumerate([raw] if single else raw["axes"]):
                at = "domain" if single else f"domain.axes[{j}]"
                knots = [parse_number(x, f"{at}.knots") for x in ax["knots"]]
                sig = ax.get("signature", [0] * (len(knots) - 1))
                if not isinstance(sig, list) or not all(
                        _json_int(b) and b in (0, 1) for b in sig):
                    errors.append((f"{at}.signature", "must be a list of "
                                   f"integers 0 or 1, got {json.dumps(sig)}"))
                    return None
                try:
                    build_interval_maps(knots, sig)
                except DomainError as exc:  # "knots ..." or "signature ..."
                    errors.append((f"{at}.{str(exc).split()[0]}", str(exc)))
                    return None
                axes.append((tuple(knots), tuple(sig)))
            domain = interval_domain(*axes[0]) if single else cube_domain(axes)
            # nodes too close for V_1 are blamed on the narrowest piece's axis
            gaps = [min(b - a for a, b in zip(k, k[1:])) for k, _ in axes]
            at = ("domain.knots" if single
                  else f"domain.axes[{gaps.index(min(gaps))}].knots")
        elif kind == "gasket":
            verts = [[parse_number(c, "domain.vertices") for c in v]
                     for v in raw["vertices"]]
            level = raw.get("level", 1)
            if not _json_int(level) or level < 1:
                errors.append(("domain.level", "must be an integer >= 1, "
                               f"got {json.dumps(level)}"))
                return None
            domain, at = gasket_domain(verts, level), "domain.vertices"
        else:
            errors.append(("domain.kind", f"unknown kind {kind!r}"))
            return None
        if why := domain.too_fine():
            errors.append((at, why))
            return None
        return domain
    except (KeyError, TypeError) as exc:
        errors.append(("domain", f"malformed: {exc}"))
    except ConfigError as exc:
        errors.extend(exc.errors)
    except ValueError as exc:  # the gasket's vertices or too few cube axes
        errors.append((f"domain.{'vertices' if kind == 'gasket' else 'axes'}", str(exc)))
    return None


def _data_from(raw, domain: Domain, errors) -> list | None:
    """The (point, value) entries of "data", or of the {'constant': c} preset
    on V = V_1; None if one does not parse, which skips the data rule."""
    if isinstance(raw, dict) and "constant" in raw:
        c = _number(raw["constant"], "data.constant", errors, math.isfinite, "finite")
        return None if c is None else [
            (tuple(p), c) for p in vertex_set(domain, 1).tolist()]
    if not isinstance(raw, list):
        errors.append(("data", "must be a list or a {'constant': c} preset"))
        return None
    data, n_errors = [], len(errors)
    for j, entry in enumerate(raw):
        here = f"data[{j}]"
        try:
            point = entry["point"]
            if not isinstance(point, list):
                raise ConfigError([(f"{here}.point", "must be a list of numbers, "
                                    f"got {json.dumps(point)}")])
            data.append((tuple(parse_number(c, f"{here}.point") for c in point),
                         _number(entry["value"], f"{here}.value", errors)))
        except (KeyError, TypeError) as exc:
            errors.append((here, f"malformed: {exc}"))
        except ConfigError as exc:
            errors.extend(exc.errors)
    return data if len(errors) == n_errors else None


def _expr_entries(raw, path: str, errors):
    """(expr, facts) per entry, None for one whose expr or facts do not
    parse; None if ``raw`` is not a list."""
    if not isinstance(raw, list):
        errors.append((path, "must be a list"))
        return None
    out = []
    for j, entry in enumerate(raw):
        here = f"{path}[{j}]"
        out.append(None)
        if isinstance(entry, str):
            entry = {"expr": entry}
        if not isinstance(entry, dict) or "expr" not in entry:
            errors.append((here, "expected an object with an 'expr' field"))
            continue
        try:
            if not isinstance(entry["expr"], str):
                raise ExprError(f"must be a string, got {json.dumps(entry['expr'])}")
            expr = parse_expr(entry["expr"])
        except ExprError as exc:
            errors.append((f"{here}.expr", str(exc)))
            continue
        facts = _facts_from(entry.get("facts"), f"{here}.facts", errors)
        if facts is not None:
            out[-1] = (expr, facts)
    return out


def load_config(path: str) -> RunConfig:
    """Load and validate a run configuration; raises ConfigError.

    Each analysis integer is checked alone here; the window they make with
    the CLI flags and the domain defaults is ``resolve_analysis``'s."""
    errors: list[tuple[str, str]] = []
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([("", f"cannot read config: {exc}")])
    except json.JSONDecodeError as exc:
        raise ConfigError([("", f"invalid JSON: {exc}")])
    if not isinstance(raw, dict):
        raise ConfigError([("", "top level must be an object")])

    domain = _domain_from(raw.get("domain"), errors)
    data = None if domain is None else _data_from(raw.get("data"), domain, errors)
    scales = _expr_entries(raw.get("scales", []), "scales", errors)

    raw_q = raw.get("displacements")
    if isinstance(raw_q, dict) and "solve" in raw_q:  # true: "solve", the default
        solve, q_entries = raw_q["solve"], None
        if solve is True or isinstance(solve, str) and solve != "solve":
            q_entries = "solve" if solve is True else solve
        else:
            errors.append(("displacements.solve", "must be true or a family "
                           f"name, got {json.dumps(solve)}"))
    elif isinstance(raw_q, list):
        q_entries = _expr_entries(raw_q, "displacements", errors)
    else:
        errors.append(("displacements", "must be a list or {'solve': family}"))
        q_entries = None

    eta = _number(raw.get("eta", 1.0), "eta", errors)
    if domain is not None:
        spec = FifSpec(domain=domain, data=data, s=scales, q=q_entries, eta=eta)
        errors.extend(_spec_errors(spec))

    analysis = raw.get("analysis", {})
    if not isinstance(analysis, dict):
        errors.append(("analysis", "must be an object"))
        analysis = {}
    for key, value in analysis.items():
        at = f"analysis.{key}"
        if key == "gamma_pin":
            analysis[key] = _number(value, at, errors, lambda v: 0 <= v < math.inf,
                                    "finite, >= 0")
        elif key not in ANALYSIS_INTS:
            errors.append((at, "unknown analysis field"))
        elif not _json_int(value):
            errors.append((at, f"must be an integer, got {json.dumps(value)}"))

    if errors or domain is None:
        raise ConfigError(errors or [("domain", "missing")])
    return RunConfig(spec=spec, analysis=analysis)


def resolve_analysis(analysis: dict, domain: Domain,
                     given: dict[str, tuple[str, int]] | None = None
                     ) -> dict[str, int]:
    """The effective k_min, k_max and sample_depth of a run.

    Each comes from ``given`` ({field: (where it was given, value)}, the
    CLI flags), else from ``analysis``, else from the domain's
    ``analysis_defaults``.  Each must reach its ANALYSIS_INTS least
    value, and k_max must be > k_min (a slope fits two counts at least);
    the ConfigError names where the offending value came from.  A default
    k_max over DEFAULT_CELL_BUDGET raises BudgetError (no window fits).
    """
    defaults = domain.analysis_defaults()
    source = {key: (given or {}).get(key) or (
        (f"analysis.{key}", analysis[key]) if key in analysis
        else (f"the default {key}", defaults[key]))
        for key in ANALYSIS_INTS}
    value = {key: v for key, (_, v) in source.items()}
    errors = [(source[key][0], f"must be >= {least}, got {value[key]}")
              for key, least in ANALYSIS_INTS.items() if value[key] < least]
    (lo_at, lo), (hi_at, hi) = source["k_min"], source["k_max"]
    if not errors and hi <= lo:  # blame a given value, not a default
        errors.append((lo_at, f"must be <= {hi_at} - 1 = {hi - 1}, got {lo}")
                      if hi_at.startswith("the default")
                      else (hi_at, f"must be >= {lo_at} + 1 = {lo + 1}, got {hi}"))
    if errors:
        raise ConfigError(errors)
    if hi_at.startswith("the default") and (need := domain.slots(hi)) > DEFAULT_CELL_BUDGET:
        raise BudgetError(f"{hi_at}: window {lo}..{hi} needs {domain.N}^{hi} x {len(domain.v0)}"
                          f" = {need:,} vertex slots, over the budget {DEFAULT_CELL_BUDGET:,}")
    return value
