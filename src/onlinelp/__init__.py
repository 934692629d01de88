"""Approximate LP solving by single-pass online learning, plus exact sifting.

The package covers the full pipeline: sparse inequality-form LP instances
(`model`), the one-pass explicit/implicit online solver `solve_online`
with variable duplication (`online`), a bounded-variable revised simplex
(`simplex`), a sifting column-generation loop that the online pass's dual
seeds and steadies, with one pricing sweep of A per round (`sifting`),
and multi-knapsack generation plus MPS/CSV I/O (`instances`, `mps`).
"""

from .model import (
    LpInstance,
    InstanceStats,
    Metrics,
    compute_stats,
    constraint_violation,
    optimality_gap,
    relative_optimality,
    dual_objective,
    stopping_residual,
    evaluate_solution,
)
from .projection import project_weighted_simplex, ProjectionInfeasibleError
from .online import (
    RunConfig,
    OnlineSolution,
    ProximalSolution,
    ProxCase,
    default_stepsize,
    explicit_step,
    implicit_step,
    solve_online,
    unit_box_rescaled,
)
from .simplex import (
    SimplexResult,
    SolveStatus,
    solve_lp,
    enumerate_vertices_oracle,
)
from .sifting import (
    SiftConfig,
    SiftResult,
    init_working_set,
    price,
    sift,
    basis_metrics,
)
from .instances import (
    MkpParams,
    ResultRecord,
    generate_mkp,
    netlib_modify,
    write_results_csv,
    read_results_csv,
)
from .mps import parse_mps, write_mps, MpsParseError

__version__ = "0.1.0"
