"""Greedy agglomerative clustering under three linkage costs, exact
small-instance optima, adversarial instance generators, and a harness that
checks every claimed approximation ratio mechanically."""

from .bounds import bound_value, render_bound
from .engine import (
    MergeHistory,
    MergeScript,
    MergeStep,
    ScriptViolationError,
    agglomerate,
    agglomerate_nn_chain,
    greedy_tie_margin,
)
from .forge import (
    ExpectedOutcome,
    GeneratedCase,
    ParseError,
    gen_hypercube_l1,
    gen_l2_3d,
    gen_line_1d,
    gen_linf_2d,
    gen_random,
    hypercube_reference_clusters,
    read_case,
    read_instance,
    write_case,
    write_instance,
)
from .harness import (
    RatioReport,
    SuiteResult,
    evaluate,
    evaluate_case,
    grid_search_enclosing_radius,
    verify_suite,
)
from .metrics import (
    BallCover,
    Cluster,
    EnclosingBall,
    Instance,
    L1,
    L2,
    LINF,
    Norm,
    Problem,
    SolverError,
    cluster_cost,
    diameter,
    discrete_radius,
    distance,
    radius,
)
from .oracles import (
    CoverableSample,
    OracleResult,
    SizeLimitError,
    VolumeCheck,
    best_oracle,
    min_pairwise_distance,
    optimal_by_partition_enum,
    optimal_diameter_1d,
    optimal_discrete_kcenter,
    volume_lemma_check,
)

__version__ = "0.1.0"

__all__ = [
    "Norm", "L1", "L2", "LINF", "Problem",
    "Instance", "Cluster", "BallCover", "EnclosingBall", "SolverError",
    "distance", "diameter", "discrete_radius", "radius", "cluster_cost",
    "MergeScript", "MergeStep", "MergeHistory", "ScriptViolationError",
    "agglomerate", "agglomerate_nn_chain", "greedy_tie_margin",
    "OracleResult", "CoverableSample", "VolumeCheck", "SizeLimitError",
    "optimal_by_partition_enum", "optimal_discrete_kcenter", "optimal_diameter_1d",
    "best_oracle", "volume_lemma_check", "min_pairwise_distance",
    "ExpectedOutcome", "GeneratedCase", "ParseError",
    "gen_line_1d", "gen_linf_2d", "gen_l2_3d", "gen_hypercube_l1",
    "hypercube_reference_clusters", "gen_random",
    "read_instance", "read_case", "write_instance", "write_case",
    "bound_value", "render_bound",
    "RatioReport", "SuiteResult", "evaluate", "evaluate_case",
    "grid_search_enclosing_radius", "verify_suite",
    "__version__",
]
