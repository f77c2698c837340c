"""JSON run-configuration loading.

Numbers may be given as JSON numbers or as strings; strings are parsed
as exact fractions ("4/15", "1/3") so knot ratios survive into the log
formulas without decimal truncation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .domains import Domain, cube_domain, gasket_domain, interval_domain, vertex_set
from .engine import FAMILIES, FifSpec
from .exprs import ExprError, ShapeFacts, parse_expr

__all__ = ["RunConfig", "ConfigError", "load_config", "parse_number",
           "resolve_analysis"]

# the "analysis" fields: gamma_pin is a number, the others JSON integers
# with these least values (a box-count window starts at level 2; a sample
# at depth 0 is the interpolation nodes)
ANALYSIS_INTS = {"k_min": 2, "k_max": 2, "sample_depth": 0}


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
        except (ValueError, ZeroDivisionError):
            raise ConfigError([(path, f"cannot parse number {raw!r}")])
    raise ConfigError([(path, f"expected a number, got {type(raw).__name__}")])


@dataclass
class RunConfig:
    spec: FifSpec
    analysis: dict = field(default_factory=dict)


def _facts_from(raw: dict | None, path: str, errors) -> ShapeFacts | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        errors.append((path, "facts must be an object"))
        return None
    known = {"constant", "affine", "concave", "convex", "eta", "H"}
    for k in raw:
        if k not in known:
            errors.append((f"{path}.{k}", "unknown fact field"))
    try:
        return ShapeFacts(
            is_constant=bool(raw.get("constant", False)),
            affine_in=frozenset(raw.get("affine", ())),
            concave_in=frozenset(raw.get("concave", ())),
            convex_in=frozenset(raw.get("convex", ())),
            holder_exponent=(
                parse_number(raw["eta"], f"{path}.eta") if "eta" in raw else None
            ),
            holder_constant=(
                parse_number(raw["H"], f"{path}.H") if "H" in raw else None
            ),
        )
    except (ExprError, ConfigError) as exc:
        errors.append((path, str(exc)))
        return None


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
                axes.append((tuple(knots), tuple(sig)))
            return interval_domain(*axes[0]) if single else cube_domain(axes)
        if kind == "gasket":
            verts = [
                [parse_number(c, "domain.vertices") for c in v]
                for v in raw["vertices"]
            ]
            level = raw.get("level", 1)
            if not _json_int(level) or level < 1:
                errors.append(("domain.level", "must be an integer >= 1, "
                               f"got {json.dumps(level)}"))
                return None
            return gasket_domain(verts, level)
        errors.append(("domain.kind", f"unknown kind {kind!r}"))
    except (KeyError, TypeError) as exc:
        errors.append(("domain", f"malformed: {exc}"))
    except (ConfigError, ValueError) as exc:
        errors.append(("domain", str(exc)))
    return None


def _expr_entries(raw, path: str, errors):
    out = []
    if not isinstance(raw, list):
        errors.append((path, "must be a list"))
        return out
    for j, entry in enumerate(raw):
        here = f"{path}[{j}]"
        if isinstance(entry, str):
            entry = {"expr": entry}
        if not isinstance(entry, dict) or "expr" not in entry:
            errors.append((here, "expected an object with an 'expr' field"))
            continue
        try:
            expr = parse_expr(entry["expr"])
        except ExprError as exc:
            errors.append((f"{here}.expr", str(exc)))
            continue
        facts = _facts_from(entry.get("facts"), f"{here}.facts", errors)
        out.append((expr, facts))
    return out


def load_config(path: str) -> RunConfig:
    """Load and validate a run configuration; raises ConfigError."""
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

    data = []
    raw_data = raw.get("data")
    if isinstance(raw_data, dict) and "constant" in raw_data:
        if domain is not None:
            c = parse_number(raw_data["constant"], "data.constant")
            for pt in vertex_set(domain, 1):
                data.append((tuple(float(x) for x in pt), c))
    elif isinstance(raw_data, list):
        for j, entry in enumerate(raw_data):
            here = f"data[{j}]"
            try:
                pt = tuple(
                    parse_number(c, f"{here}.point") for c in entry["point"]
                )
                data.append((pt, parse_number(entry["value"], f"{here}.value")))
            except (KeyError, TypeError) as exc:
                errors.append((here, f"malformed: {exc}"))
            except ConfigError as exc:
                errors.extend(exc.errors)
    else:
        errors.append(("data", "must be a list or a {'constant': c} preset"))

    scales = _expr_entries(raw.get("scales", []), "scales", errors)

    raw_q = raw.get("displacements")
    if isinstance(raw_q, dict) and "solve" in raw_q:
        solve = raw_q["solve"]
        if solve is not True and solve not in FAMILIES:
            errors.append(("displacements.solve", "must be true or one of "
                           f"{', '.join(FAMILIES)}, got {json.dumps(solve)}"))
        q_entries = solve if solve in FAMILIES else "solve"
    elif isinstance(raw_q, dict) and "exprs" in raw_q:
        q_entries = _expr_entries(raw_q["exprs"], "displacements.exprs", errors)
    elif isinstance(raw_q, list):
        q_entries = _expr_entries(raw_q, "displacements", errors)
    else:
        errors.append(
            ("displacements", "must be a list, {'exprs': []} or {'solve': family}")
        )
        q_entries = []

    eta = parse_number(raw.get("eta", 1.0), "eta")
    if not (math.isfinite(eta) and eta > 0):
        errors.append(("eta", f"must be a finite number > 0, got {eta}"))

    if domain is not None:
        if len(scales) != domain.N:
            errors.append(
                ("scales", f"expected {domain.N} entries, got {len(scales)}")
            )
        if not isinstance(q_entries, str) and q_entries and len(q_entries) != domain.N:
            errors.append(
                (
                    "displacements",
                    f"expected {domain.N} entries (one per map index 1..{domain.N}), "
                    f"got {len(q_entries)}: map index {len(q_entries) + 1} has no entry"
                    if len(q_entries) < domain.N
                    else f"expected {domain.N} entries, got {len(q_entries)}",
                )
            )

    analysis = raw.get("analysis", {})
    if not isinstance(analysis, dict):
        errors.append(("analysis", "must be an object"))
        analysis = {}
    analysis, n_errors = dict(analysis), len(errors)
    for key, value in analysis.items():
        at = f"analysis.{key}"
        if key == "gamma_pin":
            try:
                analysis[key] = parse_number(value, at)
            except ConfigError as exc:
                errors.extend(exc.errors)
        elif key not in ANALYSIS_INTS:
            errors.append((at, "unknown analysis field"))
        elif not _json_int(value):
            errors.append((at, f"must be an integer, got {json.dumps(value)}"))
    if domain is not None and len(errors) == n_errors:  # all integers
        try:
            resolve_analysis(analysis, domain)
        except ConfigError as exc:
            errors.extend(exc.errors)

    if errors or domain is None:
        raise ConfigError(errors or [("domain", "missing")])

    spec = FifSpec(domain=domain, data=data, s=scales, q=q_entries, eta=eta)
    return RunConfig(spec=spec, analysis=analysis)


def resolve_analysis(analysis: dict, domain: Domain,
                     given: dict[str, tuple[str, int]] | None = None
                     ) -> dict[str, int]:
    """The effective k_min, k_max and sample_depth of a run.

    Each comes from ``given`` ({field: (where it was given, value)}, the
    CLI flags), else from ``analysis``, else from the domain's default
    window or depth 6.  Each must reach its ANALYSIS_INTS least
    value, and k_max must be >= k_min; the ConfigError names where the
    offending value came from.
    """
    defaults = dict(zip(("k_min", "k_max"), domain.default_window),
                    sample_depth=6)
    source = {key: (given or {}).get(key) or (
        (f"analysis.{key}", analysis[key]) if key in analysis
        else (f"the default {key}", default))
        for key, default in defaults.items()}
    value = {key: v for key, (_, v) in source.items()}
    errors = [(source[key][0], f"must be >= {least}, got {value[key]}")
              for key, least in ANALYSIS_INTS.items() if value[key] < least]
    (lo_at, lo), (hi_at, hi) = source["k_min"], source["k_max"]
    if not errors and hi < lo:  # blame a given value, not a default
        errors.append((lo_at, f"must be <= {hi_at} = {hi}, got {lo}")
                      if hi_at.startswith("the default")
                      else (hi_at, f"must be >= {lo_at} = {lo}, got {hi}"))
    if errors:
        raise ConfigError(errors)
    return value
