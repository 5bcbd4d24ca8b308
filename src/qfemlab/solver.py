"""Conjugate gradient with an energy-norm stopping certificate, and the
condition number from the cached sparse eigenvalue extremes.

CG only observes residuals, so the energy-norm target ||x - x*||_M <=
tol * ||x*||_M is certified through the bound ||x - x*||_M <= ||r|| /
sqrt(lambda_min) together with ||x_j||_M = sqrt(b.x_j), which increases
monotonically to ||x*||_M when starting from zero. lambda_min comes from
the Ritz values of the solver's own Lanczos tridiagonal (plain CG) or, for
preconditioned runs, is the exact smallest eigenvalue of M from its cached
sparse factorisation (``SparseSymMatrix.extremes``): the smallest Ritz
value of a short Lanczos run overestimates lambda_min, which would make the
certified bound too small.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

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

    if precond is not None and not precond.is_spd():
        return _cg_normal_equations(M, bvec, precond, tol, cap, collect_iterates)

    apply_p = (lambda r: precond @ r) if precond is not None else (lambda r: r)

    # lambda_min(M) for the energy certificate of preconditioned runs
    lam_fixed = M.extremes()[0] if precond is not None else None

    x = np.zeros(n)
    r = bvec.copy()
    z = apply_p(r)
    p = z.copy()
    rz = float(r @ z)
    matvecs = 0
    alphas, offs = [], []
    prev_alpha = prev_beta = None
    lam_lo = lam_hi = None
    iterates = []
    bnorm = float(np.linalg.norm(bvec))
    if bnorm == 0.0:
        return CGReport(x, 0, 0.0, 0, True, lam_fixed or 0.0, 0.0)

    j = 0
    err_bound = np.inf
    while True:
        Ap = M @ p
        matvecs += 1
        pAp = float(p @ Ap)
        if pAp <= 0:
            raise ValidationError("matrix is not positive definite on the active dofs")
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        j += 1
        if collect_iterates:
            iterates.append(x.copy())

        # Lanczos tridiagonal from the CG coefficients (plain CG only)
        if precond is None:
            if prev_alpha is None:
                alphas.append(1.0 / alpha)
            else:
                alphas.append(1.0 / alpha + prev_beta / prev_alpha)
            if j > 1:
                offs.append(np.sqrt(prev_beta) / prev_alpha)

        z = apply_p(r)
        rz_new = float(r @ z)
        beta = rz_new / rz if rz != 0 else 0.0
        prev_alpha, prev_beta = alpha, beta
        rz = rz_new
        p = z + beta * p

        if lam_fixed is not None:
            lam_lo = lam_fixed
        elif len(alphas) >= 1:
            if len(alphas) == 1:
                lam_lo = lam_hi = alphas[0]
            elif j <= 400 or j % 5 == 0:
                ev = eigh_tridiagonal(np.array(alphas), np.array(offs), eigvals_only=True)
                lam_lo, lam_hi = float(ev[0]), float(ev[-1])

        rnorm = float(np.linalg.norm(r))
        energy_of_x = float(bvec @ x)
        if lam_lo is not None and lam_lo > 0 and energy_of_x > 0:
            err_bound = rnorm / np.sqrt(lam_lo)
            if err_bound <= tol * np.sqrt(energy_of_x):
                return CGReport(
                    x, j, err_bound / np.sqrt(energy_of_x), matvecs, True,
                    lam_lo, rnorm, iterates,
                )

        if cap is not None:
            cap_eff = cap
        elif lam_lo and lam_hi and lam_lo > 0:
            kappa_hat = lam_hi / lam_lo
            cap_eff = max(50, int(np.ceil(10.0 * np.sqrt(kappa_hat) * np.log(1.0 / tol))))
        else:
            cap_eff = max(50, 20 * n)
        if j >= cap_eff:
            rel = err_bound / np.sqrt(energy_of_x) if energy_of_x > 0 else np.inf
            return CGReport(x, j, rel, matvecs, False, lam_lo or 0.0, rnorm, iterates)


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
