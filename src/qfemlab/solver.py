"""Conjugate gradient with an energy-norm stopping certificate, and the
condition number from the cached sparse eigenvalue extremes.

CG only observes residuals, so the energy-norm target ||x - x*||_M <=
tol * ||x*||_M is certified through the bound ||x - x*||_M <= ||r|| /
sqrt(lambda_min) together with ||x_j||_M = sqrt(b.x_j), which increases
monotonically to ||x*||_M when starting from zero. lambda_min is the
smallest eigenvalue of M to rounding level (``SparseSymMatrix.extremes``);
a Ritz value of CG's own Lanczos tridiagonal would bound lambda_min from
above by far more and so make the certified bound too small. r is the
recursively updated residual, which can fall below the true b - M x once
both near rounding level.

The same extremes give kappa = lambda_max / lambda_min, lambda_min to
rounding over an upper bound on lambda_max with a relative 1e-12 margin,
so kappa is an upper bound too. It sets the default iteration cap
max(50, ceil(10 sqrt(kappa) log(1/tol))), sized for CG's
O(sqrt(kappa) log(1/tol)) steps, and is what ``estimate_condition_number``
returns. With C^{-1} for C/4 <= M <= C (2D: ``SineTransformPreconditioner``),
PCG reads lambda_min, lambda_max as 1/4 and 1, bounds on the spectrum of
C^{-1} M, and ||r||^2 as r^T C^{-1} r, so that ||x - x*||_M^2 <= 4 r^T C^{-1} r.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import SparseSymMatrix
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


def conjugate_gradient(M: SparseSymMatrix, b, tol: float = 1e-8, cap: int | None = None, precond=None) -> CGReport:
    """Solve M x = b by CG to relative energy-norm accuracy ``tol``,
    returning an explicit non-convergence report when the iteration cap is
    reached. ``cap`` bounds the number of iterations and must be at least 1.
    ``precond`` applies C^{-1}, for C/4 <= M <= C, in place of ``M.extremes()``.
    Raises ValidationError when p^T A p is not positive or not finite, and
    when the iterate's energy b^T x is not finite.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if cap is not None and cap < 1:
        raise ValidationError("cap must be >= 1")
    bvec = np.asarray(b, dtype=float)
    n = M.n
    if bvec.shape != (n,):
        raise ValidationError(f"rhs has shape {bvec.shape}, expected ({n},)")
    with np.errstate(over="ignore"):  # refused below
        bnorm = np.linalg.norm(bvec)
    if not np.isfinite(bnorm):
        raise ValidationError("right-hand side is not finite or its norm overflows")
    if bnorm == 0.0:
        return CGReport(np.zeros(n), 0, 0.0, 0, True, 0.0, 0.0)

    lam_min, lam_max = M.extremes() if precond is None else (0.25, 1.0)
    sqrt_lam = np.sqrt(lam_min)
    if cap is None:
        cap = max(50, int(np.ceil(10.0 * np.sqrt(lam_max / lam_min) * np.log(1.0 / tol))))

    # one errstate for the whole loop: an overflow shows in p^T A p or in the
    # energy b^T x, and either is refused
    with np.errstate(all="ignore"):
        x = np.zeros(n)
        r = bvec.copy()
        z = r if precond is None else precond(r)
        p = z.copy()
        rz = float(r @ z)
        for j in range(1, cap + 1):
            Ap = M @ p
            pAp = float(p @ Ap)
            if not 0.0 < pAp < math.inf:
                raise ValidationError(
                    "matrix is not positive definite on the active dofs" if pAp <= 0
                    else "a CG step leaves double-precision range"
                )
            alpha = rz / pAp
            x = x + alpha * p
            r = r - alpha * Ap

            z = r if precond is None else precond(r)
            rz_new = float(r @ z)
            rnorm = float(np.sqrt(rz_new))
            energy_of_x = float(bvec @ x)
            err_bound = rnorm / sqrt_lam
            if energy_of_x > 0:  # finite or +inf; +inf is refused on return
                if err_bound <= tol * np.sqrt(energy_of_x):
                    break
            elif not math.isfinite(energy_of_x):
                raise ValidationError("the CG iterate leaves double-precision range")

            p = z + (rz_new / rz if rz != 0 else 0.0) * p
            rz = rz_new
        if energy_of_x == math.inf:
            raise ValidationError("the CG iterate leaves double-precision range")
        converged = bool(energy_of_x > 0 and err_bound <= tol * np.sqrt(energy_of_x))
        rel = err_bound / np.sqrt(energy_of_x) if energy_of_x > 0 else np.inf
        return CGReport(x, j, rel, j, converged, lam_min, rnorm)


def estimate_condition_number(M: SparseSymMatrix) -> float:
    """An upper bound on kappa = lambda_max / lambda_min: lambda_min to rounding
    over the Collatz-Wielandt upper bound on lambda_max, both cached by
    ``SparseSymMatrix.extremes``.

    Raises ValidationError when M is singular or indefinite.
    """
    lam_min, lam_max = M.extremes()
    return lam_max / lam_min
