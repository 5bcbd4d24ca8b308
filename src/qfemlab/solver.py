"""Conjugate gradient with an energy-norm stopping certificate.

CG only observes residuals, so the energy-norm target ||x - x*||_M <=
tol * ||x*||_M is certified through the bound ||x - x*||_M <= ||r|| /
sqrt(lambda_min) together with ||x_j||_M = sqrt(b.x_j), which increases
monotonically to ||x*||_M when starting from zero. lambda_min is the lower
end of ``SparseSymMatrix.extremes``, whose docstring states what it is in
1D and 2D: never above the true value and at most 4x below it, which
keeps the certificate sound and at most 2x larger. A Ritz value of CG's
own Lanczos tridiagonal would bound lambda_min from above by far more and
so make the certified bound too small. r is the recursively updated
residual, which can fall below the true b - M x once both near rounding
level.

The same extremes give kappa = lambda_max / lambda_min, lambda_min (or nu)
over an upper bound on lambda_max with a relative 1e-12 margin, so kappa
is an upper bound too, at most 4x above kappa in 2D. It sets the default
iteration cap max(50, ceil(10 sqrt(kappa) log(1/tol))), sized for CG's
O(sqrt(kappa) log(1/tol)) steps. With C^{-1} for C/4 <= M <= C (2D:
``SineTransformPreconditioner``), PCG reads lambda_min, lambda_max as 1/4
and 1, bounds on the spectrum of C^{-1} M, and ||r||^2 as r^T C^{-1} r, so
that ||x - x*||_M^2 <= 4 r^T C^{-1} r.

The loop keeps x and -r as the two rows of one (2, n) array, and p and M p
as the two rows of another. M p is written into its row by the product
that ``SparseSymMatrix.product_into`` binds to these two rows, checked
once per solve, so that a product costs only the zeroing of M p and the
kernel call. x + alpha p and -(r - alpha M p) are one multiply of the
second array by alpha and one add into the first, through one scratch
array, and a step allocates only what ``precond`` returns. Negation is
exact and round-to-nearest is sign-symmetric, so every element goes
through the same IEEE operations as in x + alpha p and r - alpha M p. The
same holds for r^T r = (-r)^T (-r), for p = z + beta p written as
p - (-z), and for PCG's -z = C^{-1}(-r), which
``SineTransformPreconditioner`` forms by products and a division that are
sign-symmetric too. Only the sign of a zero can differ, and it reaches no
nonzero value; x starts at +0 and is only added to, so it never holds -0. The result is bit-identical to the
out-of-place form. The scalars stay Python floats, without numpy's scalar
dispatch; ``math.sqrt`` is correctly rounded, as ``np.sqrt`` is.
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
    Raises ValidationError when lambda_min is not positive, when p^T A p is
    not positive or not finite, and when the iterate's energy b^T x is not
    finite.
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
    if not lam_min > 0.0:  # a near-singular matrix's Rayleigh quotient can round to <= 0
        raise ValidationError("matrix is singular to rounding level: lambda_min <= 0")
    sqrt_lam = math.sqrt(lam_min)
    if cap is None:
        cap = max(50, int(np.ceil(10.0 * np.sqrt(lam_max / lam_min) * np.log(1.0 / tol))))

    # one errstate for the whole loop: an overflow shows in p^T A p or in the
    # energy b^T x, and either is refused
    with np.errstate(all="ignore"):
        xr, pa = np.zeros((2, n)), np.empty((2, n))
        x, nr = xr  # x and -r
        p, Ap = pa
        np.negative(bvec, out=nr)
        nz = nr if precond is None else precond(nr)  # -z
        np.negative(nz, out=p)
        tmp = np.empty((2, n))
        product = M.product_into(p, Ap)
        p_dot, nr_dot, b_dot, multiply = p.dot, nr.dot, bvec.dot, np.multiply
        rz = float(nr_dot(nz))
        for j in range(1, cap + 1):
            product()
            pAp = float(p_dot(Ap))
            if not 0.0 < pAp < math.inf:
                raise ValidationError(
                    "matrix is not positive definite on the active dofs" if pAp <= 0
                    else "a CG step leaves double-precision range"
                )
            alpha = rz / pAp
            multiply(pa, alpha, out=tmp)
            xr += tmp  # x + alpha p and -(r - alpha A p)

            nz = nr if precond is None else precond(nr)
            rz_new = float(nr_dot(nz))
            # an indefinite C^{-1} can make r^T C^{-1} r negative: nan, not an error
            rnorm = math.sqrt(rz_new) if rz_new >= 0 else math.nan
            energy_of_x = float(b_dot(x))
            err_bound = rnorm / sqrt_lam
            if energy_of_x > 0:  # finite or +inf; +inf is refused on return
                if err_bound <= tol * math.sqrt(energy_of_x):
                    break
            elif not math.isfinite(energy_of_x):
                raise ValidationError("the CG iterate leaves double-precision range")

            p *= rz_new / rz if rz != 0 else 0.0
            p -= nz  # p + z
            rz = rz_new
        if energy_of_x == math.inf:
            raise ValidationError("the CG iterate leaves double-precision range")
        converged = bool(energy_of_x > 0 and err_bound <= tol * math.sqrt(energy_of_x))
        rel = err_bound / math.sqrt(energy_of_x) if energy_of_x > 0 else math.inf
        return CGReport(x, j, rel, j, converged, lam_min, rnorm)
