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
    box_count,
    bounds_gasket,
    dim_domain,
    empirical_dimension,
    exact_dim_cube,
    find_witness,
    gammas,
    lower_bound_cube,
    lower_bound_interval_variable_s,
    reconcile,
    upper_bound,
    witness_height_check,
)
from .domains import (
    AffineMap,
    Box,
    BudgetError,
    Domain,
    DomainError,
    DomainGeometry,
    Triangle,
    cell_budget,
    cells,
    cube_domain,
    gasket_domain,
    geometry_constants,
    interval_domain,
    vertex_set,
)
from .engine import (
    FifModel,
    FifSpec,
    GraphSample,
    ModelError,
    apply_T,
    build_model,
    check_well_defined,
    evaluate_at,
    evaluate_on_vk,
    graph_sample,
    graph_samples,
    solve_q,
    validate_join_up,
)
from .exprs import (
    ExprError,
    ExprSyntaxError,
    ShapeFacts,
    affine_expr,
    audit_shape,
    eval_expr,
    holder_seminorm_estimate,
    inf_abs,
    multilinear_expr,
    parse_expr,
    sup_norm,
)
from .oscillation import (
    DEFAULT_KMAX,
    OscTable,
    cell_osc,
    holder_to_osc_check,
    osc_table,
    seminorm,
    total_osc,
)
from .svgplot import loglog_chart, polyline_chart, scatter_chart

__version__ = "1.0.0"
