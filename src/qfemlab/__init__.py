"""qfemlab: a finite element laboratory with a desk-scale classical
simulation of a quantum linear-solver pipeline, plus the analytic resource
models and lower-bound demonstrations that go with it."""

__version__ = "0.1.0"

from .assembly import (
    BilinearForm,
    SparseSymMatrix,
    assemble_gram,
    assemble_load,
    assemble_stiffness,
)
from .errors import (
    BudgetExceededError,
    CapExceededError,
    NonConvergenceError,
    SimulationFloorError,
    UnsupportedConfigurationError,
    ValidationError,
)
from .lowerbounds import (
    BlackBoxPair,
    BumpOracle,
    bump_f0,
    hybrid_experiment,
    make_blackbox_pair,
    oracle_search_demo,
)
from .mesh import (
    BasisSpec,
    Mesh,
    build_basis,
    build_interval_mesh,
    build_square_triangulation,
)
from .problems import (
    ProblemSpec,
    analytic_solution_1d,
    discretize,
    mesh_size,
    poly_l2_norm,
)
from .quantum import (
    FunctionalEstimate,
    SampleBudget,
    build_r_state,
    estimate_functional,
    estimate_norm,
    hadamard_test_estimate,
)
from .resources import (
    ErrorBudget,
    ResourceEstimate,
    SobolevData,
    choose_mesh_size,
    classical_cost,
    exponent_table,
    norm_estimation_cost,
    quantum_cost,
    split_budget,
)
from .solver import CGReport, conjugate_gradient, estimate_condition_number

__all__ = [name for name in dir() if not name.startswith("_")]
