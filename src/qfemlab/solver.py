"""Conjugate gradient with an energy-norm stopping certificate, and the
condition number from the cached sparse eigenvalue extremes.

CG only observes residuals, so the energy-norm target ||x - x*||_M <=
tol * ||x*||_M is certified through the bound ||x - x*||_M <= ||r|| /
sqrt(lambda_min) together with ||x_j||_M = sqrt(b.x_j), which increases
monotonically to ||x*||_M when starting from zero. Plain and preconditioned
CG take lambda_min from one source, the exact smallest eigenvalue of M from
its cached sparse factorisation (``SparseSymMatrix.extremes``); a Ritz value
of CG's own Lanczos tridiagonal would bound lambda_min from above and so
make the certified bound too small. r is the recursively updated residual,
which can fall below the true b - M x once both near rounding level.

The same extremes give kappa = lambda_max / lambda_min, which sets the
default iteration cap max(50, ceil(10 sqrt(kappa) log(1/tol))), sized for
unpreconditioned CG's O(sqrt(kappa) log(1/tol)) steps, and is what
``estimate_condition_number`` returns.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
    iterates: list = field(default_factory=list, repr=False)

    def to_dict(self):
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "final_energy_error_estimate": self.final_energy_error_estimate,
            "matvec_count": self.matvec_count,
            "lambda_min_estimate": self.lambda_min_estimate,
            "residual_norm": self.residual_norm,
        }


def _as_vector(b) -> np.ndarray:
    if isinstance(b, LoadVector):
        return np.asarray(b.values, dtype=float)
    return np.asarray(b, dtype=float)


def conjugate_gradient(
    M: SparseSymMatrix,
    b,
    tol: float = 1e-8,
    precond: SparseSymMatrix | None = None,
    cap: int | None = None,
    collect_iterates: bool = False,
) -> CGReport:
    """Solve M x = b by (preconditioned) CG to relative energy-norm accuracy
    ``tol``, returning an explicit non-convergence report when the iteration
    cap is reached.

    ``precond`` is applied as z = P r when P is symmetric positive definite
    (``P.is_spd()``, a pivot-sign test on its sparse factorisation);
    otherwise the preconditioned system is solved through its normal
    equations (with the documented quadratic condition-number penalty).
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    bvec = _as_vector(b)
    n = M.n
    if bvec.shape != (n,):
        raise ValidationError(f"rhs has shape {bvec.shape}, expected ({n},)")
    if np.linalg.norm(bvec) == 0.0:
        return CGReport(np.zeros(n), 0, 0.0, 0, True, 0.0, 0.0)

    if precond is not None and not precond.is_spd():
        return _cg_normal_equations(M, bvec, precond, tol, cap, collect_iterates)

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
    iterates = []
    j = 0
    while True:
        Ap = M @ p
        pAp = float(p @ Ap)
        if pAp <= 0:
            raise ValidationError("matrix is not positive definite on the active dofs")
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        j += 1
        if collect_iterates:
            iterates.append(x.copy())

        rnorm = float(np.linalg.norm(r))
        energy_of_x = float(bvec @ x)
        err_bound = rnorm / sqrt_lam
        if energy_of_x > 0 and err_bound <= tol * np.sqrt(energy_of_x):
            return CGReport(x, j, err_bound / np.sqrt(energy_of_x), j, True, lam_min, rnorm, iterates)
        if j >= cap:
            rel = err_bound / np.sqrt(energy_of_x) if energy_of_x > 0 else np.inf
            return CGReport(x, j, rel, j, False, lam_min, rnorm, iterates)

        z = apply_p(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz if rz != 0 else 0.0) * p
        rz = rz_new


def _cg_normal_equations(M, bvec, P, tol, cap, collect_iterates):
    """CG on (PM)^T (PM) x = (PM)^T P b for a non-SPD preconditioner."""
    n = M.n

    def op(v):
        return M @ (P @ (P @ (M @ v)))

    rhs = M @ (P @ (P @ bvec))
    x = np.zeros(n)
    r = rhs.copy()
    p = r.copy()
    rr = float(r @ r)
    matvecs = 0
    # the normal equations square the condition number; allow far more steps
    cap_eff = cap if cap is not None else max(1000, 200 * n)
    iterates = []
    rhsn = float(np.linalg.norm(rhs))
    for j in range(1, cap_eff + 1):
        Ap = op(p)
        matvecs += 2
        alpha = rr / float(p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        if collect_iterates:
            iterates.append(x.copy())
        rr_new = float(r @ r)
        if np.sqrt(rr_new) <= tol * rhsn:
            return CGReport(x, j, np.sqrt(rr_new) / rhsn, matvecs, True, 0.0, np.sqrt(rr_new), iterates)
        p = r + (rr_new / rr) * p
        rr = rr_new
    return CGReport(x, cap_eff, np.inf, matvecs, False, 0.0, np.sqrt(rr), iterates)


def estimate_condition_number(M: SparseSymMatrix) -> float:
    """kappa = lambda_max / lambda_min from the cached eigenvalue extremes
    of M's sparse factorisation (``SparseSymMatrix.extremes``).

    Raises ValidationError when M is singular or indefinite.
    """
    lam_min, lam_max = M.extremes()
    return lam_max / lam_min
