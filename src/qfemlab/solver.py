"""Conjugate gradient with an energy-norm stopping certificate, and the
condition number from the cached sparse eigenvalue extremes.

CG only observes residuals, so the energy-norm target ||x - x*||_M <=
tol * ||x*||_M is certified through the bound ||x - x*||_M <= ||r|| /
sqrt(lambda_min) together with ||x_j||_M = sqrt(b.x_j), which increases
monotonically to ||x*||_M when starting from zero. A preconditioner must be
symmetric positive definite: only then does preconditioned CG minimise the
M-norm error over its Krylov space and the bound above certify it, so any
other ``precond`` is rejected. Plain and preconditioned CG take lambda_min
from one source, the exact smallest eigenvalue of M from its cached sparse
factorisation (``SparseSymMatrix.extremes``); a Ritz value of CG's own
Lanczos tridiagonal would bound lambda_min from above and so make the
certified bound too small. r is the recursively updated residual,
which can fall below the true b - M x once both near rounding level.

The same extremes give kappa = lambda_max / lambda_min, which sets the
default iteration cap max(50, ceil(10 sqrt(kappa) log(1/tol))), sized for
unpreconditioned CG's O(sqrt(kappa) log(1/tol)) steps, and is what
``estimate_condition_number`` returns.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import LoadVector, SparseSymMatrix
from .errors import ValidationError


@dataclass
class CGReport:
    solution: np.ndarray
    iterations: int
    final_energy_error_estimate: float
    matvec_count: int
    converged: bool
    lambda_min_estimate: float
    residual_norm: float

    def to_dict(self):
        """Every field but the solution vector."""
        return {key: value for key, value in vars(self).items() if key != "solution"}


def conjugate_gradient(
    M: SparseSymMatrix,
    b,
    tol: float = 1e-8,
    precond: SparseSymMatrix | None = None,
    cap: int | None = None,
) -> CGReport:
    """Solve M x = b by (preconditioned) CG to relative energy-norm accuracy
    ``tol``, returning an explicit non-convergence report when the iteration
    cap is reached.

    ``precond`` is applied as z = P r and must be symmetric positive
    definite (``P.is_spd()``, a pivot-sign test on its sparse factorisation);
    any other preconditioner raises ValidationError. ``cap`` bounds the
    number of iterations and must be at least 1.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if cap is not None and cap < 1:
        raise ValidationError("cap must be >= 1")
    bvec = np.asarray(b.values if isinstance(b, LoadVector) else b, dtype=float)
    n = M.n
    if bvec.shape != (n,):
        raise ValidationError(f"rhs has shape {bvec.shape}, expected ({n},)")
    if np.linalg.norm(bvec) == 0.0:
        return CGReport(np.zeros(n), 0, 0.0, 0, True, 0.0, 0.0)

    if precond is not None and not precond.is_spd():
        raise ValidationError("preconditioner must be symmetric positive definite")

    apply_p = (lambda r: precond @ r) if precond is not None else (lambda r: r)
    lam_min, lam_max = M.extremes()
    sqrt_lam = np.sqrt(lam_min)
    if cap is None:
        cap = max(50, int(np.ceil(10.0 * np.sqrt(lam_max / lam_min) * np.log(1.0 / tol))))

    x = np.zeros(n)
    r = bvec.copy()
    z = apply_p(r)
    p = z.copy()
    rz = float(r @ z)
    for j in range(1, cap + 1):
        Ap = M @ p
        pAp = float(p @ Ap)
        if pAp <= 0:
            raise ValidationError("matrix is not positive definite on the active dofs")
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap

        rnorm = float(np.linalg.norm(r))
        energy_of_x = float(bvec @ x)
        err_bound = rnorm / sqrt_lam
        if energy_of_x > 0 and err_bound <= tol * np.sqrt(energy_of_x):
            return CGReport(x, j, err_bound / np.sqrt(energy_of_x), j, True, lam_min, rnorm)
        if j >= cap:
            rel = err_bound / np.sqrt(energy_of_x) if energy_of_x > 0 else np.inf
            return CGReport(x, j, rel, j, False, lam_min, rnorm)

        z = apply_p(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz if rz != 0 else 0.0) * p
        rz = rz_new


def estimate_condition_number(M: SparseSymMatrix) -> float:
    """kappa = lambda_max / lambda_min from the cached eigenvalue extremes
    of M's sparse factorisation (``SparseSymMatrix.extremes``).

    Raises ValidationError when M is singular or indefinite.
    """
    lam_min, lam_max = M.extremes()
    return lam_max / lam_min
