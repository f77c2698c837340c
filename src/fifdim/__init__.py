"""Fractal interpolation functions on self-similar domains.

Builds interpolants whose graphs are attractors of iterated function
systems over an interval, an m-cube or the Sierpinski gasket, computes
theoretical box-dimension bounds from scale-vector data, estimates the
dimension empirically by box counting, and cross-checks the two.
"""

from .config import ConfigError, RunConfig, load_config, parse_number
from .dimension import (
    BoundEntry,
    BoundsReport,
    CollinearWitness,
    EmpiricalEstimate,
    GammaReport,
    empirical_dimension,
    find_witness,
    gammas,
    reconcile,
    theoretical_entries,
    witness_height_check,
)
from .domains import (
    AffineMap,
    Box,
    BudgetError,
    Domain,
    DomainError,
    Triangle,
    cell_budget,
    cube_domain,
    gasket_domain,
    interval_domain,
    vertex_set,
)
from .engine import (
    FifModel,
    FifSpec,
    ModelError,
    apply_T,
    build_model,
    evaluate_at,
    evaluate_on_vk,
)
from .exprs import (
    ExprError,
    ExprSyntaxError,
    ShapeFacts,
    affine_expr,
    audit_shape,
    eval_expr,
    holder_seminorm_estimate,
    multilinear_expr,
    parse_expr,
)
from .oscillation import holder_to_osc_check, seminorm
from .svgplot import loglog_chart, polyline_chart, scatter_chart

__version__ = "1.0.0"
