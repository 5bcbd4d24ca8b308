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
)
from .problems import (
    ProblemSpec,
    analytic_solution_1d,
    discretize,
    mesh_size,
    poly_l2_norm,
)
from .quantum import (
    SampleBudget,
    build_r_state,
    estimate_functional,
    estimate_norm,
    hadamard_test_estimate,
)
from .resources import (
    SobolevData,
    exponent_table,
    model_costs,
    split_budget,
)
from .solver import CGReport, conjugate_gradient

__all__ = [name for name in dir() if not name.startswith("_")]
