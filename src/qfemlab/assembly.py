"""Assembly of stiffness, mass and load terms.

The bilinear form is a(u, v) = diffusion * int grad(u).grad(v) + reaction *
int u v. Element matrices are exact: in 1D they are integrated in rational
arithmetic once per degree, so interior stiffness entries come out
bit-exact (2/h on the diagonal, -1/h off it, for the k=1 pure-diffusion
case); in 2D the two right triangles of a cell have integer gradients, so
pure diffusion gives the five-point stencil 4 * diffusion and -diffusion
exactly. Loads use Gauss-Legendre quadrature with enough points to be exact
for polynomial data up to degree 8.

Matrices and loads are stencils on the uniform mesh, added onto its nodes
by strided slices, one per local node (pair): on the node line in 1D,
where element e's local node a is node e k + a, and on the vertex grid in
2D, one stencil per triangle shape and one array per coupling direction.
The assembly is the only maker of a ``SparseSymMatrix``, and hands scipy
int32 CSR indices. In 1D each call writes its node rows out as CSR. In 2D
the CSR pattern depends only on the grid, so it is cached per process,
keyed by n: ``_grid_plan`` holds ``indptr``, ``indices`` and, per stored
entry, the position of its value in the four coupling grids. Each matrix
adds its stencils onto the grids and fills its values with one gather;
exact zero couplings are then dropped. The orthonormal sine matrix of a
``SineTransformPreconditioner`` is cached per process too, keyed by n.
Both caches hold the last ``GRID_CACHE_SIZE`` grids, and their arrays are
read-only, so a matrix shares them without a copy. The 2D load is formed
by sum factorisation, f evaluated one axis at a time on the grid of
quadrature points. Entry points take the ``BasisSpec`` alone,
which holds its mesh; a mesh is its dimension and n, with no coordinates
or elements.

Dofs are numbered along the line (1D) or row by row (2D), so every
assembled matrix is banded, with half-bandwidth at most k in 1D and n in
2D. 1D matrices solve through one band Cholesky factor; 2D ones, whose factor
would fill the band, through a ``SineTransformPreconditioner``. What
lambda_min each gives is stated once, in ``SparseSymMatrix.extremes``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import polynomial as npoly
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded, eigh
from scipy.sparse._sparsetools import csr_matvec  # private; pinned to csr @ x bitwise by the tests

from .errors import NonConvergenceError, ValidationError
from .mesh import TRIANGLE_GRADS, BasisSpec, Mesh

MAX_POLY_DEGREE = 8
# 2D grids whose CSR plan and sine matrix each cache keeps: a default
# ``convergence`` (four levels and their reference) and a ``simulate``
GRID_CACHE_SIZE = 8


# ---------------------------------------------------------------------------
# exact reference elements (1D, degree 1..3)

@lru_cache(maxsize=None)
def _reference_lagrange(k: int):
    """Coefficient arrays (low->high, Fraction objects) of the k+1 nodal
    polynomials on [0,1] with nodes j/k."""
    ts = [Fraction(j, k) for j in range(k + 1)]
    polys = []
    for t_j in ts:
        others = [t for t in ts if t != t_j]
        polys.append(npoly.polyfromroots(np.array(others, dtype=object)) / math.prod(t_j - t for t in others))
    return polys


@lru_cache(maxsize=None)
def _reference_matrices(k: int):
    """Exact reference stiffness and mass matrices on [0,1].

    On a physical element of length h the contributions are K/h * diffusion
    and M*h * reaction.
    """
    polys = _reference_lagrange(k)

    def integral01(poly) -> float:
        return float(npoly.polyval(1, npoly.polyint(poly)))

    kmat = np.array([[integral01(npoly.polymul(npoly.polyder(a), npoly.polyder(b))) for b in polys] for a in polys])
    mmat = np.array([[integral01(npoly.polymul(a, b)) for b in polys] for a in polys])
    return kmat, mmat


@lru_cache(maxsize=None)
def _gauss01(p: int):
    """p-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(p)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def _reference_values_at(k: int, p: int):
    """Nodal basis values at the p Gauss points of [0, 1]: (k+1, p) array."""
    xs, _ = _gauss01(p)
    return np.array([npoly.polyval(xs, poly.astype(float)) for poly in _reference_lagrange(k)])


@lru_cache(maxsize=None)
def _duffy_rule(p: int):
    """Quadrature on the reference triangle (0,0),(1,0),(0,1) via the square
    collapse x=u(1-v), y=uv; exact for total degree <= 2p-2 polynomials."""
    xu, wu = _gauss01(p)
    xv, wv = _gauss01(p)
    u = np.repeat(xu, p)
    v = np.tile(xv, p)
    w = np.repeat(wu, p) * np.tile(wv, p) * u  # Jacobian u
    return np.column_stack([u * (1.0 - v), u * v]), w


# ---------------------------------------------------------------------------
# types

@dataclass(frozen=True)
class BilinearForm:
    """Elliptic form a(u,v) = diffusion*int grad.grad + reaction*int u v."""

    diffusion: float = 1.0
    reaction: float = 0.0

    def __post_init__(self):
        if self.diffusion <= 0:
            raise ValidationError("diffusion coefficient must be > 0")
        if self.reaction < 0:
            raise ValidationError("reaction coefficient must be >= 0")


class SineTransformPreconditioner:
    """C = diffusion K5 + reaction/n^2 I on the n x n grid's interior vertices,
    the five-point stencil plus the lumped mass: C/4 <= M <= C for the P1
    matrix M of the same coefficients. The DST-I S diagonalises C (Lynch, Rice
    & Thomas 1964): C^{-1} v = S Lambda^{-1} S v, by sine-matrix products that
    beat ``scipy.fft.dstn`` up to the cell cap (16 against 146 us at n = 43).
    The sine matrix S is cached per process, keyed by n (``_sine_matrix``),
    and read-only, so every preconditioner on a grid shares one; the
    spectrum, which holds the coefficients, is built on first use."""

    def __init__(self, n, diffusion, reaction):
        self.n, self.diffusion, self.reaction = n, diffusion, reaction

    @cached_property
    def _sine(self):
        return _sine_matrix(self.n)

    @cached_property
    def _lam(self):
        t = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, self.n) / self.n)
        return self.diffusion * (t[:, None] + t) + self.reaction / self.n**2

    @cached_property
    def lambda_min_bound(self) -> float:
        # M = diffusion K5 + reaction Mass, and with q = reaction / n^2:
        # - Mass = (I + S/6) / 2n^2, S the six neighbours, S = 4 - K5 + P and
        #   P (NE-SW paths) >= -2, so M >= diffusion K5 + q (2/3 - K5/12);
        # - element mass >= 1/4 lumped, so M >= diffusion K5 + q/4.
        # Each convex combination is a polynomial in K5, least at K5's lambda_1
        # for a weight s <= 12 diffusion / q; s = min(1, 12 diffusion / q) gives
        # nu, nu <= lambda_min <= lambda_min(C) <= 4 nu. Lowered by the 1e-12
        # that lambda_max is raised by
        n, q = self.n, self.reaction / self.n**2
        lam1 = 8.0 * math.sin(math.pi / (2 * n)) ** 2
        return min(self.diffusion * lam1 + q * (2.0 / 3.0 - lam1 / 12.0), 5.0 * self.diffusion + q / 4.0) * (1.0 - 1e-12)

    def __call__(self, v):  # C^{-1} v
        s, w = self._sine, v.reshape(self.n - 1, self.n - 1)
        return (s @ (s @ w @ s / self._lam) @ s).reshape(v.shape)


@lru_cache(maxsize=GRID_CACHE_SIZE)
def _sine_matrix(n: int) -> np.ndarray:
    """The orthonormal, symmetric DST-I matrix of the n x n grid, read-only."""
    j = np.arange(1, n)
    sine = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(j, j) / n)
    sine.flags.writeable = False
    return sine


def lowest_eigenvalue(matvec, precond, start, lam_max) -> float:
    """lambda_min of M by single-vector LOPCG (Knyazev 2001) from the unit
    vector ``start``, with ``precond`` applying the preconditioner's inverse
    and ``lam_max`` an upper bound on M's spectrum. It stops at residual
    ||Mx - rq x|| <= tol = max(1e-10 rq, 32 eps lam_max) (rq: the start's
    Rayleigh quotient); the second term, the rounding floor of M x, is the
    larger where lam_max / rq passes about 1.4e4. Each step is one
    Rayleigh-Ritz on span{x, w, p}: w = precond(Mx - (x^T Mx) x), made
    orthogonal to x, and p the previous step's move, each of unit norm; p
    is left out for a step whose 3 x 3 Gram matrix is not positive
    definite. M x and M p are updated with x and p, so each step takes one
    product with M, through ``matvec``. The loop stops on that recursive
    M x, then M x is recomputed and the residual rechecked against 2 tol;
    the value returned is x^T M x, lambda_min where the iteration can
    reach the lowest eigenvector from ``start``."""
    x = start
    # rows x, w, p, and M times each; p joins from the second step
    basis, images = np.empty((3, len(x))), np.empty((3, len(x)))
    basis[0], images[0] = x, matvec(x)
    # residual norms are taken times a power of two near 1/lam_max, which
    # changes no rounding but keeps their squares from over- or underflowing
    scale = math.ldexp(1.0, -math.frexp(lam_max)[1])
    tol = max(1e-10 * (float(x @ images[0]) * scale), 32.0 * np.finfo(float).eps * (lam_max * scale))
    rows = 2
    for _ in range(1000):
        x, mx = basis[0], images[0]
        residual = mx - (x @ mx) * x
        if np.linalg.norm(residual * scale) <= tol:  # on the recursive M x: recheck
            mx = matvec(x)
            lam = float(x @ mx)
            if np.linalg.norm((mx - lam * x) * scale) > 2.0 * tol:
                break
            return lam
        w = precond(residual)
        w -= (x @ w) * x
        basis[1] = w / np.linalg.norm(w)
        images[1] = matvec(basis[1])
        for rows in (rows, 2):  # with p if it can, then without
            try:
                gram = basis[:rows] @ basis[:rows].T
                coef = eigh(basis[:rows] @ images[:rows].T, gram, check_finite=False)[1][:, 0]
                break
            except LinAlgError:  # the Gram matrix is not positive definite
                continue
        else:
            break
        p, mp = coef[1:] @ basis[1:rows], coef[1:] @ images[1:rows]
        x, mx = coef[0] * x + p, coef[0] * mx + mp
        x_norm, p_norm = np.linalg.norm(x), np.linalg.norm(p)
        basis[0], images[0] = x / x_norm, mx / x_norm
        rows = 3 if p_norm > 0.0 else 2  # a step that left x in place has no p
        if rows == 3:
            basis[2], images[2] = p / p_norm, mp / p_norm
    raise NonConvergenceError("LOPCG eigenvalue iteration did not converge")


class SparseSymMatrix:
    """Symmetric sparse matrix ``csr`` in canonical CSR form (sorted column
    indices, no duplicates), built only by the stencil assembly, symmetric
    bit for bit: M_pq and M_qp are the same stencil entry read from either
    end, so the constructor wraps ``csr`` without a check.

    Immutable by convention. ``s`` is the maximum number of nonzeros per row.
    Every product with M (``matvec``, and the bound product of
    ``product_into`` that CG calls once per step), and the |M| products of
    ``extremes``, is one call of scipy's CSR kernel on M's own arrays, the
    call that ``csr @ x`` makes after its type and shape dispatch, so the
    results are the same bits.

    Linear algebra stays sparse. The first call that needs it (``is_spd``;
    ``solve`` or ``extremes`` of a matrix without the sine transform) packs
    the upper band of the CSR arrays (half-bandwidth bw, the largest j - i
    of a stored entry) into LAPACK's (bw + 1) x n layout and takes its
    band Cholesky factor M = R^T R once, caching it (or its failure); no other
    factorisation is made. M is positive definite exactly when it succeeds.
    """

    def __init__(self, csr):
        self.csr = csr
        self.n = csr.shape[0]
        self.s = int(np.diff(csr.indptr).max()) if self.n else 0
        self._chol = self._extremes = self._precond = None
        # read once: each ``csr.shape`` is a Python-level property call
        self._indptr, self._indices, self._data = csr.indptr, csr.indices, csr.data

    def matvec(self, x):
        """M x for a vector x of length n, by one kernel call on M's arrays."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):  # the kernel reads x without a bounds check
            raise ValidationError(f"vector has shape {x.shape}, expected ({self.n},)")
        return self._product(self._data, x)

    def product_into(self, x, out):
        """A function of no arguments that writes M x into ``out``, zeroed
        first, and returns ``out``: bit-identical to ``matvec(x)`` for the
        values x holds at the call. The kernel reads x and writes ``out``
        through their pointers with no check, so both are checked once,
        here: float64 vectors of length n that share no memory; any other
        pair is refused. A loop that updates x in place then pays only the
        zeroing and the kernel call per product."""
        for name, v in (("x", x), ("out", out)):
            if not isinstance(v, np.ndarray) or v.shape != (self.n,) or v.dtype != np.float64:
                raise ValidationError(f"{name} must be a float64 vector of shape ({self.n},)")
        if np.shares_memory(out, x):
            raise ValidationError("out overlaps the vector it multiplies")
        n, indptr, indices, data, fill = self.n, self._indptr, self._indices, self._data, out.fill

        def product():
            fill(0.0)
            csr_matvec(n, n, indptr, indices, data, x, out)
            return out

        return product

    def _product(self, data, x) -> np.ndarray:
        """The product of x with M's pattern holding ``data``, by the kernel
        call that ``csr @ x`` ends in, into a fresh zero vector."""
        y = np.zeros(self.n)
        csr_matvec(self.n, self.n, self._indptr, self._indices, data, x, y)
        return y

    def solve(self, b) -> np.ndarray:
        """M^{-1} b: PCG to rounding level (relative energy error 1e-14) or
        the band factor (ValidationError unless M is positive definite)."""
        b = np.asarray(b, dtype=float)
        if self._precond is not None:
            from .solver import conjugate_gradient  # solver imports this module
            report = conjugate_gradient(self, b, tol=1e-14, precond=self._precond)
            if not report.converged:
                raise NonConvergenceError("preconditioned CG did not reach rounding level")
            x = report.solution
        elif self.is_spd():
            x = cho_solve_banded((self._chol, False), b, check_finite=False)
        else:
            raise ValidationError("matrix is singular or indefinite")
        if not np.all(np.isfinite(x)):
            raise ValidationError("solution overflows" if np.all(np.isfinite(b)) else "right-hand side is not finite")
        return x

    def is_spd(self) -> bool:
        """Whether the band Cholesky factorisation succeeds (a singular matrix
        is not SPD). The first call factors M and caches the factor or the
        failure."""
        if self._chol is None:
            csr = self.csr
            offset = csr.indices - np.repeat(np.arange(self.n), np.diff(csr.indptr))
            upper = offset >= 0
            bw = int(offset.max(initial=0))
            band = np.zeros((bw + 1, self.n), order="F")  # LAPACK's layout, factored in place
            band[bw - offset[upper], csr.indices[upper]] = csr.data[upper]
            try:
                self._chol = cholesky_banded(band, overwrite_ab=True, check_finite=False)
            except LinAlgError:  # a leading minor is not positive
                self._chol = False
        return self._chol is not False

    def extremes(self) -> tuple[float, float]:
        """(lambda_min, an upper bound on lambda_max) of an SPD matrix, cached.

        The upper end comes first: the Collatz-Wielandt bound max_i (|M| w)_i
        / w_i >= rho(|M|) >= lambda_max after 8 power steps on |M| from w =
        1, raised by a relative 1e-12 so that rounding cannot put it below
        lambda_max. Each step is one kernel call on M's pattern with |data|:
        not a product with M, so it does not pass through ``matvec``. On
        stiffness matrices it is within 2e-2 of lambda_max, and within 1e-5
        at a thousand dofs.

        lambda_min, which CG's certificate, kappa and the norm estimator's
        acceptance probability all read, is:

        - 1D: lambda_min to rounding level, from ``lowest_eigenvalue``'s
          LOPCG loop, preconditioned by M's cached band factor, from x_j =
          sin(pi (j + 1) / 2n): the nodal values of sin(pi x / 2), the
          lowest eigenfunction of -D u'' + R u with u(0) = u'(1) = 0 for
          every D and R. A matrix without the sine transform (one written
          by hand) takes the same path.
        - 2D: the sine transform's ``lambda_min_bound`` nu, a certified
          lower bound: nu <= lambda_min <= 4 nu, measured nu <= lambda_min
          <= 1.5 nu for n >= 3. Such a matrix is SPD by construction and
          is not factored.

        Equal matrices give bit-identical values. Raises ValidationError
        when a factored matrix is singular or indefinite and
        NonConvergenceError when the loop does not converge.
        """
        if self._extremes is None:
            if self._precond is None and not self.is_spd():
                raise ValidationError("matrix is singular or indefinite")
            # w stays positive: an SPD matrix has a positive diagonal
            absdata, w = np.abs(self._data), np.ones(self.n)
            for _ in range(8):
                y = self._product(absdata, w)
                bound = float((y / w).max())
                w = y / y.max()
            lam_max = bound * (1.0 + 1e-12)
            if self._precond is None:
                band_solve = partial(cho_solve_banded, (self._chol, False), check_finite=False)
                start = np.sin(np.pi * np.arange(1, self.n + 1) / (2 * self.n))
                lam_min = lowest_eigenvalue(self.matvec, band_solve, start / np.linalg.norm(start), lam_max)
            else:
                lam_min = self._precond.lambda_min_bound
            self._extremes = (lam_min, lam_max)
        return self._extremes


# ---------------------------------------------------------------------------
# assembly

def _assemble_bilinear(spec: BasisSpec, diffusion: float, reaction: float) -> SparseSymMatrix:
    """1D: element e's local node a is node e k + a on the line of n k + 1
    nodes, so row m of the (n k + 1, 2k + 1) stencil holds the entries for
    columns m - k .. m + k, and each local entry (a, b) is one strided slice.
    A node shares at most two elements, so every entry is a sum of at most
    two terms, the same in any order. 2D: the stencil build of
    ``_assemble_stencil_2d``."""
    mesh = spec.mesh
    if mesh.dimension == 2:
        return _assemble_stencil_2d(spec, diffusion, reaction)
    n, k = mesh.n, spec.k
    kref, mref = _reference_matrices(k)
    local = diffusion * kref / mesh.h + reaction * mref * mesh.h
    vals = np.zeros((n * k + 1, 2 * k + 1))
    for a in range(k + 1):
        for b in range(k + 1):
            vals[a:a + n * k:k, k + b - a] += local[a, b]
    line = np.full(n * k + 1 + 2 * k, -1, dtype=np.int32)  # the dofs of nodes -k .. n k + k, -1 off the line
    line[k:-k] = spec.node_dofs
    cols = line[np.arange(n * k + 1)[:, None] + np.arange(2 * k + 1)]
    # dofs number the free nodes in node order, so keeping the nonzero
    # entries of free rows and free columns leaves canonical CSR
    keep = (vals != 0.0) & (cols >= 0) & (spec.node_dofs >= 0)[:, None]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1)[spec.dof_nodes])], dtype=np.int32)
    return SparseSymMatrix(sp.csr_array((vals[keep], cols[keep], indptr), shape=(spec.n_dofs, spec.n_dofs)))


@lru_cache(maxsize=GRID_CACHE_SIZE)
def _grid_plan(n: int):
    """The CSR pattern of every matrix on the n x n grid, read-only:
    (indptr, indices, at), where ``at`` is, per stored entry, the flat
    position of its value in the stacked [C, E, N, NE] grids of
    ``_assemble_stencil_2d``, each (n + 1) x (n + 1) with vertex (i, j) at
    [j, i].

    Row (i, j) holds SW, S, W, C, E, N, NE, where the neighbour is a dof;
    SW, S and W read the neighbour's NE, N and E. Dofs number the free
    nodes in node order, so every row's columns ascend. All three are
    int32: ``indptr`` and ``indices`` as scipy's ``csr_array`` keeps them,
    so a matrix that drops no entry views them without a copy, and each
    product streams half the index bytes of int64. int32 holds counts
    below 2^31, far above what ``MAX_CELLS`` allows: with n^2 <= 200,000
    cells, the 4 (n + 1)^2 positions and at most 7 (n + 1)^2 entries stay
    below 1.5e6.
    """
    spec = BasisSpec(Mesh(2, n), 1)
    m = n + 1
    # the grids' positions and the dofs, padded by a border of -1 that
    # every off-grid neighbour reads
    at = np.full((4, m + 2, m + 2), -1, dtype=np.int32)
    at[:, 1:-1, 1:-1] = np.arange(4 * m * m, dtype=np.int32).reshape(4, m, m)
    dof = np.full((m + 2, m + 2), -1, dtype=np.int32)
    dof[1:-1, 1:-1] = spec.node_dofs.reshape(m, m)
    C, E, N, NE = at

    def offset(grid, dj, di):
        """grid at vertex (i + di, j + dj), for every dof row (i, j)"""
        return grid[1 + dj:m + 1 + dj, 1 + di:m + 1 + di].reshape(-1)[spec.dof_nodes]

    steps = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))
    cols = np.stack([offset(dof, dj, di) for dj, di in steps], axis=-1)
    keep = cols >= 0
    reads = (offset(NE, -1, -1), offset(N, -1, 0), offset(E, 0, -1), offset(C, 0, 0), offset(E, 0, 0), offset(N, 0, 0), offset(NE, 0, 0))
    plan = (np.concatenate([[0], np.cumsum(keep.sum(axis=1))], dtype=np.int32), cols[keep], np.stack(reads, axis=-1)[keep])
    for array in plan:
        array.flags.writeable = False
    return plan


def _assemble_stencil_2d(spec: BasisSpec, diffusion: float, reaction: float) -> SparseSymMatrix:
    """The uniform triangulation has two element shapes, so M is a stencil.

    The two exact element matrices are added onto the (n+1)^2 vertex grid,
    indexed [j, i], once per coupling: the vertex itself (C) and its east
    (E), north (N) and north-east (NE) neighbours. The other neighbours'
    entries are these read from the neighbour's side, so M_pq and M_qp are
    bit-identical. The grid's cached ``_grid_plan`` gives the CSR pattern
    and where each entry's value lies, so one gather fills the values.
    Exact zeros (NE at reaction 0; E and N where the mass cancels the
    stiffness, at reaction 12 diffusion n^2) are then dropped, with
    ``indptr`` recounted, which leaves canonical CSR. M carries its
    preconditioner.
    """
    n = spec.mesh.n
    indptr, indices, at = _grid_plan(n)
    area = 0.5 / (n * n)
    mass = reaction * area / 12.0 * (1.0 + np.eye(3))
    # the gradients are n g, so the element stiffness (n g)(n g)^T * area is
    # g g^T / 2 whatever n is
    lo, up = (diffusion * 0.5 * (g @ g.T) + mass for g in TRIANGLE_GRADS)
    grids = np.zeros((4, n + 1, n + 1))  # vertex (i, j) at [j, i]
    C, E, N, NE = grids
    cell, on = slice(0, n), slice(1, n + 1)  # vertex (i, j) of each cell, and one further on
    C[cell, cell] += lo[0, 0] + up[0, 0]  # v00 of cell (i, j) is vertex (i, j)
    C[cell, on] += lo[1, 1]  # v10
    C[on, on] += lo[2, 2] + up[1, 1]  # v11
    C[on, cell] += up[2, 2]  # v01
    E[cell, cell] += lo[0, 1]  # edge v00-v10 of the cell above
    E[on, cell] += up[1, 2]  # edge v11-v01 of the cell below
    N[cell, cell] += up[0, 2]  # edge v00-v01 of the cell to the east
    N[cell, on] += lo[1, 2]  # edge v10-v11 of the cell to the west
    NE[cell, cell] += lo[0, 2] + up[0, 1]
    data = grids.take(at)
    nonzero = data != 0.0
    if not nonzero.all():
        data, indices = data[nonzero], indices[nonzero]
        indptr = np.concatenate([[0], np.cumsum(nonzero)], dtype=np.int32)[indptr]  # entries kept before each row
    M = SparseSymMatrix(sp.csr_array((data, indices, indptr), shape=(spec.n_dofs, spec.n_dofs)))
    M._precond = SineTransformPreconditioner(n, diffusion, reaction)
    return M


def assemble_stiffness(spec: BasisSpec, form: BilinearForm) -> SparseSymMatrix:
    """Assemble M with M_ij = a(phi_i, phi_j); symmetric positive semidefinite."""
    return _assemble_bilinear(spec, form.diffusion, form.reaction)


def assemble_gram(spec: BasisSpec) -> SparseSymMatrix:
    """Assemble the Gram (mass) matrix W_ij = int phi_i phi_j."""
    return _assemble_bilinear(spec, 0.0, 1.0)


def poly_degree(coeffs) -> int:
    c = np.asarray(coeffs, dtype=float)
    if c.ndim == 1:
        nz = np.nonzero(c)[0]
        return int(nz[-1]) if len(nz) else 0
    nz = np.nonzero(c)
    if len(nz[0]) == 0:
        return 0
    return int(max(i + j for i, j in zip(*nz)))


def coefficient_array(coeffs, d: int) -> np.ndarray:
    """Polynomial data as floats: flat in 1D, c[a, b] of x^a y^b in 2D (a flat list is c[a, 0])."""
    try:
        c = np.asarray(coeffs, dtype=float)
    except ValueError as exc:  # ragged rows, or entries that are not numbers
        raise ValidationError("polynomial coefficients must be a rectangular array of numbers") from exc
    if c.size == 0 or not 1 <= c.ndim <= d:
        shape = "flat list" if d == 1 else "list or matrix"
        raise ValidationError(f"{d}D data must be a non-empty coefficient {shape}")
    return c.reshape(len(c), -1) if d == 2 else c


def element_quadrature_1d(mesh: Mesh, p: int):
    """p-point Gauss-Legendre rule on every element of a 1D mesh: points
    (n_elements, p) in element order and the weights (p,) of [0, 1]."""
    xs, ws = _gauss01(p)
    return (np.arange(mesh.n) / mesh.n)[:, None] + mesh.h * xs, ws


def assemble_load(spec: BasisSpec, f) -> np.ndarray:
    """Load vector with entries int f phi_i over the active dofs.

    ``f`` is given as polynomial coefficients (1D: flat list, low order
    first; 2D: coefficient matrix c[a][b] of x^a y^b, total degree <= 8).
    1D evaluates f on the (n_elements, p) Gauss points and adds each local
    node's terms onto the node line by one slice. 2D is a vertex-grid
    stencil by sum factorisation: per triangle shape, cell (i, j) has its
    quadrature points at x = (i + s_q)/n, y = (j + t_q)/n, so Horner in x on
    an (n, q) table, once per power of y, then Horner in y give f on an
    (n, n, q) array [j, i, q]. One product with the (q, 3) table of weighted
    barycentric values gives the triangles' corner terms, added onto the
    grid by slices.
    """
    mesh = spec.mesh
    c = coefficient_array(f, mesh.dimension)
    deg = poly_degree(c)  # sets the quadrature order
    if deg > MAX_POLY_DEGREE:
        raise ValidationError(f"polynomial degree {deg} beyond supported maximum {MAX_POLY_DEGREE}")
    if mesh.dimension == 2:
        n = mesh.n
        pts, w = _duffy_rule(max(2, (deg + 1) // 2 + 2))
        u, v = pts.T
        # weight times barycentric value per corner, times the Jacobian 2|T| = 1/n^2
        table = w[:, None] * np.column_stack([1.0 - u - v, u, v]) / (n * n)
        cells = np.arange(n)[:, None]
        grid = np.zeros((n + 1, n + 1))  # vertex (i, j) at [j, i]
        # lower (v00, v10, v11): x = i + u + v, y = j + v; upper (v00, v11,
        # v01): x = i + u, y = j + u + v; corners as (dj, di) from v00
        for s, t, corners in ((u + v, v, ((0, 0), (0, 1), (1, 1))), (u, u + v, ((0, 0), (1, 1), (1, 0)))):
            fx = npoly.polyval((cells + s) / n, c)  # [b, i, q]
            y = ((cells + t) / n)[:, None]
            fq = np.broadcast_to(fx[-1], (n, n, len(w))).copy()  # [j, i, q], by Horner in y in place
            for row in fx[-2::-1]:
                fq *= y
                fq += row
            terms = (fq.reshape(n * n, -1) @ table).reshape(n, n, 3)
            for (dj, di), term in zip(corners, np.moveaxis(terms, 2, 0)):
                grid[dj:dj + n, di:di + n] += term
        return grid.ravel()[spec.dof_nodes]
    xq, ws = element_quadrature_1d(mesh, max(spec.k + 1, (spec.k + deg) // 2 + 2))
    basis_vals = _reference_values_at(spec.k, len(ws))  # (k+1, p)
    # (h * B) @ v and h * (B @ v) round differently; artifacts pin the first
    contrib = ((mesh.h * basis_vals)[None] @ (ws * npoly.polyval(xq, c))[..., None])[..., 0]
    out = np.zeros(spec.n_nodes)  # element e's local node a is node e k + a
    for a in range(spec.k + 1):
        out[a:a + mesh.n * spec.k:spec.k] += contrib[:, a]
    return out[spec.dof_nodes]
