"""Nearest reversible sparse Markov chains.

Given a sparse row-stochastic matrix, find the closest (Frobenius norm)
transition matrix that is reversible with respect to the chain's stationary
distribution and confined to the symmetrized sparsity pattern.  The package
also carries the closed-form Metropolis-Hastings reversibilization
baseline, ergodic decomposition utilities, an in-repo QP solver, and the
experiment drivers (random sparse ensembles, Langevin count matrices).
"""

from .chain_analysis import (
    CycleCheckResult,
    ErgodicDecomposition,
    ergodic_decomposition,
    is_irreducible,
    kolmogorov_cycle_check,
    stationary_mixture,
    strongly_connected_components,
)
from .exceptions import (
    ClassSolveFailed,
    DegenerateInstance,
    DimensionMismatch,
    EmptyTrajectory,
    InconsistentSupport,
    LengthMismatch,
    MaxIterations,
    MissingDiagonal,
    NegativeEntry,
    NonPositivePi,
    PatternNotSymmetric,
    RevMarkovError,
    StationaryUnderflow,
    ZeroRow,
)
from .experiments import (
    BenchmarkConfig,
    LangevinConfig,
    count_matrix,
    gen_random_chain,
    langevin_trajectory,
    run_benchmark,
    torsion_potential,
)
from .pipeline import (
    ClassReport,
    PipelineDiagnostics,
    PipelineOptions,
    nearest_sparse_reversible,
    verify,
)
from .qp_build import (
    IndexMaps,
    ReducedQP,
    build_index_maps,
    build_reduced_qp,
    unscale_solution,
)
from .qp_solve import (
    KKTResiduals,
    SolverOptions,
    SolverResult,
    kkt_residuals,
    solve_qp,
)
from .reversibilize import (
    mh_baseline_distance,
    reversibilize,
)
from .sparse_core import (
    ProbabilityVector,
    SparseStochasticMatrix,
    SparsityPattern,
    detailed_balance_residual,
    frobenius_distance,
    row_normalize,
    stationarity_residual,
    stochasticity_residual,
    symmetrized_pattern,
)

__version__ = "0.1.0"
