"""Desk-scale statevector simulation of the sampling pipeline.

The input state |f~> is prepared exactly, as the ledger records in its
``input_state_assumption``. The linear-equation subroutine is not run:
the overlap estimator samples the outcome distribution of a solver output
at l2 distance eps_l from the exact solution state, and the subroutine's
analytic oracle cost is charged to a resource ledger once per use of the
state preparation. Solves come from ``SparseSymMatrix.solve`` (the band
Cholesky factor in 1D, preconditioned CG to rounding level in 2D), and
the condition number from its cached eigenvalue extremes: lambda_min as
``SparseSymMatrix.extremes`` states it, never above the true value, over a
certified upper bound on lambda_max, so modelled costs are upper bounds.
Norm estimation accepts with p = (lambda_min ||x||)^2 for that lambda_min,
so in 2D, where it may sit up to 4x low, p is up to 16x smaller and its
shots, which grow as 1/p, up to 16x more, measured <= 2.25x for n >= 3.
No dense matrix is formed. All estimators are plain Monte Carlo at the
exact event probabilities: empirical sampling uses 1/eps^2 shots while the
ledger charges the amplitude-estimation count of 1/eps, and the gap is
annotated in the ledger entries.

All states are real unit vectors over the FEM dofs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import SparseSymMatrix, assemble_load
from .errors import (
    BudgetExceededError,
    SimulationFloorError,
    UnsupportedConfigurationError,
    ValidationError,
)
from .mesh import BasisSpec
from .problems import ProblemSpec, discretize, mesh_size, poly_l2_norm
from .resources import cost_entry, discretisation_share, polylog, split_budget

ACCEPTANCE_FLOOR = 1e-9
# the shots one SampleBudget may draw in all
SHOT_BUDGET = 10**12


@dataclass
class SampleBudget:
    """The shots drawn so far, against ``SHOT_BUDGET``, plus the RNG shared
    by the sampling estimators."""

    rng_seed: int = 0
    uses_of_state_prep: int = field(init=False, default=0)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.rng_seed)

    def binomial(self, shots: int, p: float) -> int:
        """One binomial count over ``shots`` draws, charging all of them to
        the budget before drawing."""
        if shots < 1:
            raise ValidationError("shots must be >= 1")
        if self.uses_of_state_prep + shots > SHOT_BUDGET:
            raise BudgetExceededError(
                f"budget of {SHOT_BUDGET} shots exhausted (would need {self.uses_of_state_prep + shots})"
            )
        self.uses_of_state_prep += shots
        return int(self.rng.binomial(shots, p))


# ---------------------------------------------------------------------------
# the estimators

def _shot_count(num: float, den: float, what: str) -> int:
    """ceil(num / den) shots. Where den underflows to 0 or the quotient
    overflows, no float holds the count, and it exceeds every budget."""
    try:
        return math.ceil(num / den)
    except (ZeroDivisionError, OverflowError) as exc:
        raise BudgetExceededError(f"{what} needs more shots than a float can count") from exc


def build_r_state(spec: BasisSpec, r_coeffs):
    """Normalized state with amplitudes proportional to <phi_i, r>, plus the
    normalization alpha = (sum_i <phi_i, r>^2)^(1/2)."""
    load = assemble_load(spec, r_coeffs)
    with np.errstate(over="ignore"):  # refused below
        alpha = float(np.linalg.norm(load))
    if alpha == np.inf:
        raise ValidationError("the norm of r's load vector leaves double-precision range")
    if alpha < 1e-300:
        raise ValidationError("r is orthogonal to every basis function")
    return load / alpha, alpha


def hadamard_test_estimate(
    u_state: np.ndarray,
    r_state: np.ndarray,
    eps_out: float,
    budget: SampleBudget,
    eps_l: float = 0.0,
) -> float:
    """Estimate <u~|r> from +-1 samples whose expectation is the overlap.

    Each shot measures a solver-output state cos(theta) u + sin(theta) w at
    l2 distance ``eps_l`` from ``u_state`` (theta = 2 asin(eps_l / 2)), with
    w uniform on the unit sphere orthogonal to u. Since w and -w are equally
    likely, the outcomes are iid with P(+1) = (1 + cos(theta) <u|r>) / 2, so
    their mean is drawn as one binomial over 2*ceil(1/eps_out^2) shots
    (Hoeffding sizing for the 2/3 success target). Every shot consumes one
    use of the state preparation.
    """
    if eps_out <= 0:
        raise ValidationError("eps_out must be positive")
    if not 0.0 <= eps_l < 1.0:
        raise ValidationError("eps_l must be in [0, 1)")
    # an error of 1 or more needs one pair of shots; squaring more can overflow
    shots = 2 * _shot_count(1.0, min(eps_out, 1.0) ** 2, "overlap estimation")
    theta = 2.0 * math.asin(eps_l / 2.0)
    p = 0.5 * (1.0 + float(np.clip(math.cos(theta) * float(u_state @ r_state), -1.0, 1.0)))
    return 2.0 * budget.binomial(shots, p) / shots - 1.0


def estimate_norm(M: SparseSymMatrix, x: np.ndarray, eps_n_rel: float, budget: SampleBudget, ledger: list) -> float:
    """Estimate ||x|| for the solve x = M^{-1} b the caller holds, by
    sampling the acceptance event of the norm-estimation subroutine at its
    exact probability p = ||A^{-1}b||^2 / kappa^2 (A = M / lambda_max) =
    (lambda_min ||x||)^2, in which lambda_max cancels, and inverting
    sqrt(p) / lambda_min.

    Relative error <= eps_n_rel with probability >= 2/3 by construction of
    the shot count. The analytic oracle cost is appended to ``ledger``:
    P_A calls (s kappa^2 / eps) polylog(s kappa / eps), P_b calls kappa / eps,
    with kappa = lambda_max / lambda_min and eps = ``eps_n_rel``.
    """
    if eps_n_rel <= 0:
        raise ValidationError("eps_n_rel must be positive")
    lam_min, lam_max = M.extremes()
    y = lam_min * x
    p = min(float(y @ y), 1.0)
    if p < ACCEPTANCE_FLOOR:
        raise SimulationFloorError(f"acceptance probability {p:.3e} below the simulable floor {ACCEPTANCE_FLOOR:.0e}")
    shots = max(8, _shot_count(2.0 * (1.0 - p), p * eps_n_rel**2, "norm estimation"))
    p_hat = budget.binomial(shots, p) / shots
    s, kappa = M.s, lam_max / lam_min
    pa = (s * kappa**2 / eps_n_rel) * polylog(s * kappa / eps_n_rel)
    notes = {
        "call": "norm_estimation",
        "empirical_shots": shots,
        "model_inv_eps_exponent": 1,
        "empirical_inv_eps_exponent": 2,
    }
    ledger.append(cost_entry("quantum", {"P_A": pa, "P_b": kappa / eps_n_rel}, pa, (1,), notes))
    return float(math.sqrt(p_hat) / lam_min)


def estimate_functional(problem: ProblemSpec, eps: float, budget: SampleBudget, exact_mode: bool = False) -> dict:
    """Estimate R = int r u with additive error <= eps ||r|| (probability
    >= 2/3) by the three-step pipeline: estimate the solution norm, estimate
    the overlap <r|u~> from solver-output samples, output alpha * N~ * R~.

    ``exact_mode`` zeroes the solver, norm and measurement errors so only
    the discretisation term remains. Returns the ``simulate`` artifact less
    its ``meta`` and ``uses_of_state_prep``: the estimate ``value`` next to
    the discrete functional it estimates, the budget split with the mesh
    size and dof count, and the ledger of modelled oracle costs.
    """
    sob = problem.solution_sobolev
    if eps > sob.l2_norm:
        raise UnsupportedConfigurationError(f"assumes eps <= ||u|| (eps={eps}, ||u||={sob.l2_norm})")
    n, h = mesh_size(problem, 2.0 * discretisation_share(eps, sob.l2_norm))
    spec, M, b_raw = discretize(problem, n)
    r_state, alpha = build_r_state(spec, problem.r_array())
    r_norm = poly_l2_norm(problem.r_array(), problem.d)

    u_tilde = M.solve(b_raw)
    with np.errstate(over="ignore"):  # split_budget refuses an infinite norm
        u_norm = float(np.linalg.norm(u_tilde))
    split = split_budget(eps, sob, alpha, u_norm, r_norm)

    ledger: list = []
    r_load_values = alpha * r_state
    exact_discrete = float(r_load_values @ u_tilde)  # = <u~, r> in L2

    if exact_mode:
        n_tilde = u_norm
        r_tilde = float((r_state @ u_tilde) / u_norm)
        value = alpha * n_tilde * r_tilde
    else:
        b_norm = float(np.linalg.norm(b_raw))
        eps_n_rel = split["eps_n"] / u_norm
        n_tilde = b_norm * estimate_norm(M, u_tilde / b_norm, eps_n_rel, budget, ledger=ledger)
        u_state = u_tilde / u_norm
        eps_l_eff = min(split["eps_l"], 0.9)
        # one quantum linear-equation solve to accuracy eps_l costs
        # s kappa polylog(s kappa / eps_l) oracle calls, eps_l clamped at 1e-16
        lam_min, lam_max = M.extremes()
        s, kappa = M.s, lam_max / lam_min
        cost = s * kappa * polylog(s * kappa / max(eps_l_eff, 1e-16))
        uses_before = budget.uses_of_state_prep
        r_tilde = hadamard_test_estimate(u_state, r_state, split["eps_out"], budget, eps_l=eps_l_eff)
        uses = budget.uses_of_state_prep - uses_before
        notes = {
            "call": "overlap_estimation",
            "state_prep_uses": uses,
            "model_uses_per_estimate": 1.0 / split["eps_out"],
            "input_state_assumption": "exact |f~> preparation",
        }
        ledger.append(cost_entry("quantum", {"P_M": cost * uses, "P_b": cost * uses}, cost * uses, (), notes))
        value = alpha * n_tilde * r_tilde

    return {
        "value": float(value),
        "exact_value_discrete": exact_discrete,
        "alpha": alpha,
        "n_tilde": float(n_tilde),
        "r_tilde": float(r_tilde),
        "u_tilde_norm": u_norm,
        "budget": {**split, "h": h, "n_dofs": spec.n_dofs},
        "h": h,
        "n_elements": spec.mesh.n_elements,
        "n_dofs": spec.n_dofs,
        "exact_mode": exact_mode,
        "ledger": ledger,
    }
