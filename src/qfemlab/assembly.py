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
Every matrix row is then written out as CSR directly by one builder for
both dimensions. The 2D load is formed by sum factorisation, f evaluated
one axis at a time on the grid of quadrature points. Nothing reads vertex
coordinates or element lists: meshes carry only their dimension and n.

Dofs are numbered along the line (1D) or row by row (2D), so every
assembled matrix is banded, with half-bandwidth at most k in 1D and n in
2D. 1D matrices solve through one band Cholesky factor; 2D ones, whose factor
would fill the band, through a ``SineTransformPreconditioner`` built on
first use. lambda_min comes from one single-vector LOPCG loop,
``lowest_eigenvalue``, preconditioned by the band factor in 1D and by the
sine transform in 2D. Only past the 2D class bound, where the loop's start
cannot reach the lowest eigenvector, does shift-invert ARPACK on the band
factor read it.
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
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import NonConvergenceError, ValidationError
from .mesh import TRIANGLE_GRADS, BasisSpec, Mesh

MAX_POLY_DEGREE = 8


# ---------------------------------------------------------------------------
# exact reference elements (1D, degree 1..3)

def _frac_polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _frac_polyder(a):
    return [i * a[i] for i in range(1, len(a))] or [Fraction(0)]


def _frac_polyint01(a):
    # integral over the reference interval [0, 1]
    return sum(c / (i + 1) for i, c in enumerate(a))


@lru_cache(maxsize=None)
def _reference_lagrange(k: int):
    """Coefficient lists (low->high, Fractions) of the k+1 nodal polynomials
    on [0,1] with nodes j/k."""
    ts = [Fraction(j, k) for j in range(k + 1)]
    polys = []
    for j in range(k + 1):
        p = [Fraction(1)]
        for m in range(k + 1):
            if m == j:
                continue
            denom = ts[j] - ts[m]
            p = _frac_polymul(p, [-ts[m] / denom, Fraction(1) / denom])
        polys.append(p)
    return polys


@lru_cache(maxsize=None)
def _reference_matrices(k: int):
    """Exact reference stiffness and mass matrices on [0,1].

    On a physical element of length h the contributions are K/h * diffusion
    and M*h * reaction.
    """
    polys = _reference_lagrange(k)
    m = k + 1
    kmat = np.empty((m, m))
    mmat = np.empty((m, m))
    for a in range(m):
        for b in range(m):
            kmat[a, b] = float(_frac_polyint01(_frac_polymul(_frac_polyder(polys[a]), _frac_polyder(polys[b]))))
            mmat[a, b] = float(_frac_polyint01(_frac_polymul(polys[a], polys[b])))
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
    polys = _reference_lagrange(k)
    vals = np.empty((k + 1, p))
    for j, poly in enumerate(polys):
        vals[j] = npoly.polyval(xs, [float(c) for c in poly])
    return vals


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
    The sine matrix and the spectrum are built on first use."""

    def __init__(self, n, diffusion, reaction):
        self.n, self.diffusion, self.reaction = n, diffusion, reaction

    @cached_property
    def _sine(self):
        j = np.arange(1, self.n)
        return np.sqrt(2.0 / self.n) * np.sin(np.pi * np.outer(j, j) / self.n)  # orthonormal, symmetric

    @cached_property
    def _lam(self):
        t = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, self.n) / self.n)
        return self.diffusion * (t[:, None] + t) + self.reaction / self.n**2

    @cached_property
    def class_holds_lambda_min(self) -> bool:
        # M >= (diffusion - q) K5 + 4q, q = reaction / 4n^2 (the mass stencil is
        # >= 2 - K5/2 element areas), and K5 >= k12 off the symmetry class of
        # sin(pi a/n) sin(pi b/n), whose lowest M-value is <= C's, diffusion k11 + 4q
        n = self.n
        k11, k12 = (4.0 - 2.0 * np.cos(np.pi / n) - 2.0 * np.cos(a * np.pi / n) for a in (1, 2))
        return bool(self.diffusion * k11 <= (self.diffusion - self.reaction / (4 * n**2)) * k12)

    def __call__(self, v):  # C^{-1} v
        s, w = self._sine, v.reshape(self.n - 1, self.n - 1)
        return (s @ (s @ w @ s / self._lam) @ s).reshape(v.shape)


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
    the value returned is x^T M x. It is lambda_min only where the
    iteration can reach the lowest eigenvector from ``start``: the 2D start
    keeps its symmetry class
    (``SineTransformPreconditioner.class_holds_lambda_min``)."""
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


def _csr_product(csr, data, x) -> np.ndarray:
    """The product of x with csr's pattern holding ``data``, by the kernel
    call that ``csr @ x`` ends in, into a fresh zero vector."""
    y = np.zeros(csr.shape[0])
    csr_matvec(csr.shape[0], csr.shape[1], csr.indptr, csr.indices, data, x, y)
    return y


class SparseSymMatrix:
    """Symmetric sparse matrix in canonical CSR form (sorted column indices,
    no duplicates).

    Immutable by convention. ``s`` is the maximum number of nonzeros per row.
    The constructor checks symmetry (to a relative 1e-14, in O(nnz)). The
    stencil assembly is symmetric bit for bit by design and skips the check
    through ``_symmetric``.

    Every product with M, and the |M| products of ``extremes``, is one call
    of scipy's CSR kernel on M's own arrays, the call that ``csr @ x`` makes
    after its type and shape dispatch, so the results are the same bits.

    Linear algebra stays sparse. The first call that needs it (``is_spd``;
    ``solve`` without a preconditioner; ``extremes`` unless the sine
    transform preconditions its LOPCG loop)
    packs the upper band of the CSR arrays (half-bandwidth bw, the largest
    j - i of a stored entry) into LAPACK's (bw + 1) x n layout and takes its
    band Cholesky factor M = R^T R once, caching it (or its failure); no other
    factorisation is made. M is positive definite exactly when it succeeds.
    """

    def __init__(self, matrix):
        # a copy: canonicalising sorts in place, and the caller keeps its arrays
        csr = sp.csr_array(matrix, copy=True)
        csr.sum_duplicates()
        if csr.shape[0] != csr.shape[1]:
            raise ValidationError(f"matrix must be square, got {csr.shape}")
        scale = max(1.0, abs(csr.data).max() if csr.nnz else 0.0)
        asym = abs((csr - csr.T)).max() if csr.nnz else 0.0
        if asym > 1e-14 * scale:
            raise ValidationError(f"matrix is not symmetric (asymmetry {asym:.3e})")
        self._adopt(csr)

    @classmethod
    def _symmetric(cls, csr):
        """Wrap a canonical CSR matrix, symmetric by construction, unchecked."""
        self = cls.__new__(cls)
        self._adopt(csr)
        return self

    def _adopt(self, csr):
        self._csr = csr
        self.n = csr.shape[0]
        self.s = int(np.diff(csr.indptr).max()) if self.n else 0
        self._chol = self._extremes = self._precond = None

    @classmethod
    def from_dense(cls, a):
        return cls(np.asarray(a, dtype=float))

    @classmethod
    def identity(cls, n):
        return cls(sp.identity(n, format="csr"))

    @property
    def csr(self):
        return self._csr

    def matvec(self, x):
        """M x for a vector x of length n, by one kernel call on M's arrays."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValidationError(f"vector has shape {x.shape}, expected ({self.n},)")
        return _csr_product(self._csr, self._csr.data, x)

    def __matmul__(self, x):
        return self.matvec(x)

    def to_dense(self):
        return self._csr.toarray()

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
            csr = self._csr
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

        lambda_min, to rounding level, is ``lowest_eigenvalue``'s LOPCG loop.
        On the 2D Dirichlet grid it runs with the sine-transform C from x =
        sin(pi a/n) sin(pi b/n); that start keeps its class under the mesh's
        symmetries, so this holds lambda_min only when
        ``class_holds_lambda_min``, and past that bound (about reaction > 2.4
        diffusion n^2) shift-invert Lanczos at 0 on the cached band factor
        (ARPACK, fixed start) reads it instead. Every other matrix, each 1D
        one included, runs the loop preconditioned by its cached band
        factor, from x_j = sin(pi (j + 1) / 2n): the nodal values of sin(pi
        x / 2), the lowest eigenfunction of -D u'' + R u with u(0) = u'(1) =
        0 for every D and R.
        Equal matrices give bit-identical values. Raises ValidationError when
        the matrix is singular or indefinite and NonConvergenceError when
        the eigensolver does not converge.
        """
        if self._extremes is None:
            by_sine = self._precond is not None and self._precond.class_holds_lambda_min
            if not by_sine and not self.is_spd():
                raise ValidationError("matrix is singular or indefinite")
            # w stays positive: an SPD matrix has a positive diagonal
            absdata, w = np.abs(self._csr.data), np.ones(self.n)
            for _ in range(8):
                y = _csr_product(self._csr, absdata, w)
                bound = float((y / w).max())
                w = y / y.max()
            lam_max = bound * (1.0 + 1e-12)
            band_solve = partial(cho_solve_banded, (self._chol, False), check_finite=False)
            if by_sine:
                sine = self._precond._sine[0]
                lam_min = lowest_eigenvalue(self.matvec, self._precond, np.outer(sine, sine).ravel(), lam_max)
            elif self._precond is None or self.n == 1:  # one dof: the loop returns M_00 at once
                start = np.sin(np.pi * np.arange(1, self.n + 1) / (2 * self.n))
                lam_min = lowest_eigenvalue(self.matvec, band_solve, start / np.linalg.norm(start), lam_max)
            else:
                inv = LinearOperator(self._csr.shape, matvec=band_solve, dtype=float)
                v0 = np.random.default_rng(0).standard_normal(self.n)
                try:
                    lam_min = float(eigsh(self._csr, k=1, sigma=0.0, OPinv=inv, v0=v0, return_eigenvectors=False)[0])
                except ArpackNoConvergence as exc:
                    raise NonConvergenceError("Lanczos eigenvalue iteration did not converge") from exc
            self._extremes = (lam_min, lam_max)
        return self._extremes


# ---------------------------------------------------------------------------
# assembly

def _check_pair(mesh: Mesh, spec: BasisSpec):
    if spec.mesh != mesh:
        raise ValidationError("basis was not built for this mesh")


def _assemble_bilinear(mesh: Mesh, spec: BasisSpec, diffusion: float, reaction: float) -> SparseSymMatrix:
    """1D: element e's local node a is node e k + a on the line of n k + 1
    nodes, so row m of the (n k + 1, 2k + 1) stencil holds the entries for
    columns m - k .. m + k, and each local entry (a, b) is one strided slice.
    A node shares at most two elements, so every entry is a sum of at most
    two terms, the same in any order. 2D: the stencil build of
    ``_assemble_stencil_2d``."""
    if mesh.dimension == 2:
        return _assemble_stencil_2d(mesh, spec, diffusion, reaction)
    n, k = mesh.n, spec.k
    kref, mref = _reference_matrices(k)
    local = diffusion * kref / mesh.h + reaction * mref * mesh.h
    vals = np.zeros((n * k + 1, 2 * k + 1))
    for a in range(k + 1):
        for b in range(k + 1):
            vals[a:a + n * k:k, k + b - a] += local[a, b]
    line = np.full(n * k + 1 + 2 * k, -1)  # the dofs of nodes -k .. n k + k, -1 off the line
    line[k:-k] = spec.node_dofs
    cols = line[np.arange(n * k + 1)[:, None] + np.arange(2 * k + 1)]
    return _node_rows_to_csr(spec, vals, cols)


def _node_rows_to_csr(spec: BasisSpec, vals, cols) -> SparseSymMatrix:
    """M from one row per node: (n_nodes, width) values and their dof
    columns, -1 off the dofs, ascending along each row. Dofs number the free
    nodes in node order, so keeping the nonzero entries of free rows and
    free columns leaves canonical CSR."""
    keep = (vals != 0.0) & (cols >= 0) & (spec.node_dofs >= 0)[:, None]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1)[spec.dof_nodes])])
    return SparseSymMatrix._symmetric(sp.csr_array((vals[keep], cols[keep], indptr), shape=(spec.n_dofs, spec.n_dofs)))


def _assemble_stencil_2d(mesh: Mesh, spec: BasisSpec, diffusion: float, reaction: float) -> SparseSymMatrix:
    """The uniform triangulation has two element shapes, so M is a stencil.

    The two exact element matrices are added onto the (n+1)^2 vertex grid,
    indexed [j, i], once per coupling: the vertex itself (C) and its east
    (E), north (N) and north-east (NE) neighbours. The other neighbours'
    entries are these read from the neighbour's side, so M_pq and M_qp are
    bit-identical. Each row's seven entries come out in ascending column
    order; exact zeros and constrained nodes are dropped, which leaves
    canonical CSR. On the Dirichlet grid M carries its preconditioner.
    """
    n = mesh.n
    area = 0.5 / (n * n)
    mass = reaction * area / 12.0 * (1.0 + np.eye(3))
    # the gradients are n g, so the element stiffness (n g)(n g)^T * area is
    # g g^T / 2 whatever n is
    lo, up = (diffusion * 0.5 * (g @ g.T) + mass for g in TRIANGLE_GRADS)
    # vertex (i, j) sits at [j + 1, i + 1]; the border holds zeros and dof -1
    C, E, N, NE = np.zeros((4, n + 3, n + 3))
    dof = np.full((n + 3, n + 3), -1)
    dof[1:n + 2, 1:n + 2] = spec.node_dofs.reshape(n + 1, n + 1)
    cell, on = slice(1, n + 1), slice(2, n + 2)  # vertex (i, j) of each cell, and one further on
    C[cell, cell] += lo[0, 0] + up[0, 0]  # v00 of cell (i, j) is vertex (i, j)
    C[cell, on] += lo[1, 1]  # v10
    C[on, on] += lo[2, 2] + up[1, 1]  # v11
    C[on, cell] += up[2, 2]  # v01
    E[cell, cell] += lo[0, 1]  # edge v00-v10 of the cell above
    E[on, cell] += up[1, 2]  # edge v11-v01 of the cell below
    N[cell, cell] += up[0, 2]  # edge v00-v01 of the cell to the east
    N[cell, on] += lo[1, 2]  # edge v10-v11 of the cell to the west
    NE[cell, cell] += lo[0, 2] + up[0, 1]

    def offset(grid, dj, di):
        """grid at vertex (i + di, j + dj), for every vertex (i, j)"""
        return grid[1 + dj:n + 2 + dj, 1 + di:n + 2 + di]

    # row (i, j): SW, S, W, C, E, N, NE, where W is the E entry of (i - 1, j)
    # and so on; dofs number the free nodes in node order, so every row's
    # columns ascend
    vals = np.stack(
        [offset(NE, -1, -1), offset(N, -1, 0), offset(E, 0, -1), offset(C, 0, 0), offset(E, 0, 0), offset(N, 0, 0), offset(NE, 0, 0)],
        axis=-1,
    ).reshape(-1, 7)
    steps = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))
    cols = np.stack([offset(dof, dj, di) for dj, di in steps], axis=-1).reshape(-1, 7)
    M = _node_rows_to_csr(spec, vals, cols)
    if spec.n_dofs == (n - 1) ** 2:
        M._precond = SineTransformPreconditioner(n, diffusion, reaction)
    return M


def assemble_stiffness(mesh: Mesh, spec: BasisSpec, form: BilinearForm) -> SparseSymMatrix:
    """Assemble M with M_ij = a(phi_i, phi_j); symmetric positive semidefinite."""
    _check_pair(mesh, spec)
    return _assemble_bilinear(mesh, spec, form.diffusion, form.reaction)


def assemble_gram(mesh: Mesh, spec: BasisSpec) -> SparseSymMatrix:
    """Assemble the Gram (mass) matrix W_ij = int phi_i phi_j."""
    _check_pair(mesh, spec)
    return _assemble_bilinear(mesh, spec, 0.0, 1.0)


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


def assemble_load(mesh: Mesh, spec: BasisSpec, f) -> np.ndarray:
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
    _check_pair(mesh, spec)
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
