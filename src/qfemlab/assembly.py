"""Assembly of stiffness, mass and load terms, sparse row access, and SPAI.

The bilinear form is a(u, v) = diffusion * int grad(u).grad(v) + reaction *
int u v. 1D element matrices are integrated exactly in rational arithmetic
once per degree, so interior stiffness entries come out bit-exact (2/h on
the diagonal, -1/h off it, for the k=1 pure-diffusion case). Loads use
Gauss-Legendre quadrature with enough points to be exact for polynomial
data up to degree 8.

Every kernel is batched over elements: the element matrices, or the load
contributions at all quadrature points of all elements, are formed in one
broadcast, then scattered to the dofs in element order (a COO build for
matrices, one ``np.bincount`` for loads), so duplicates sum in a fixed order.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import polynomial as npoly
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import NonConvergenceError, ValidationError
from .mesh import BasisSpec, Mesh

MAX_POLY_DEGREE = 8
_CALLABLE_QUAD_POINTS = 12


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


class SparseSymMatrix:
    """Symmetric sparse matrix in CSR form with sorted column indices.

    Immutable by convention. ``s`` is the maximum number of nonzeros per row.

    Linear algebra stays sparse. The first call to ``solve``, ``is_spd`` or
    ``extremes`` factors the matrix once with a symmetric-mode sparse LU
    (symmetric fill-reducing ordering, diagonal pivots only) and caches it.
    With diagonal pivots the factorisation is P M P^T = L D L^T with D =
    diag(U), so by Sylvester's law of inertia M is positive definite exactly
    when no off-diagonal pivot was needed and every pivot is > 0.
    """

    def __init__(self, matrix):
        csr = sp.csr_array(matrix)
        csr.sort_indices()
        if csr.shape[0] != csr.shape[1]:
            raise ValidationError(f"matrix must be square, got {csr.shape}")
        scale = max(1.0, abs(csr.data).max() if csr.nnz else 0.0)
        asym = abs((csr - csr.T)).max() if csr.nnz else 0.0
        if asym > 1e-14 * scale:
            raise ValidationError(f"matrix is not symmetric (asymmetry {asym:.3e})")
        self._csr = csr
        self.n = csr.shape[0]
        counts = np.diff(csr.indptr)
        self.s = int(counts.max()) if len(counts) else 0
        self._lu = None
        self._spd = None
        self._extremes = None

    @classmethod
    def from_upper_coo(cls, n, rows, cols, vals):
        """Build from upper-triangle COO entries (i <= j), mirroring the
        strict upper part so (i,j) and (j,i) are bit-identical."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        vals = np.asarray(vals, dtype=float)
        if np.any(rows > cols):
            raise ValidationError("from_upper_coo expects entries with i <= j")
        upper = sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
        upper.sum_duplicates()
        strict = sp.triu(upper, k=1)
        full = upper + strict.T
        return cls(full)

    @classmethod
    def from_dense(cls, a):
        a = np.asarray(a, dtype=float)
        return cls(sp.csr_array(a))

    @classmethod
    def identity(cls, n):
        return cls(sp.identity(n, format="csr"))

    @property
    def nnz(self):
        return self._csr.nnz

    @property
    def csr(self):
        return self._csr

    def matvec(self, x):
        return self._csr @ np.asarray(x, dtype=float)

    def __matmul__(self, x):
        return self.matvec(x)

    def row_nonzeros(self, r: int):
        """(columns, values) of row r, sorted by column."""
        if not 0 <= r < self.n:
            raise ValidationError(f"row {r} out of range [0, {self.n})")
        lo, hi = self._csr.indptr[r], self._csr.indptr[r + 1]
        return self._csr.indices[lo:hi], self._csr.data[lo:hi]

    def entry(self, i: int, j: int) -> float:
        cols, vals = self.row_nonzeros(i)
        hit = np.nonzero(cols == j)[0]
        return float(vals[hit[0]]) if len(hit) else 0.0

    def to_dense(self):
        return self._csr.toarray()

    def _factor(self):
        if self._lu is None:
            try:
                lu = splu(
                    sp.csc_array(self._csr),
                    permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
            except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
                raise ValidationError("matrix is singular") from exc
            # SuperLU still swaps rows at an exactly zero diagonal pivot
            self._spd = bool(np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0))
            self._lu = lu
        return self._lu

    def solve(self, b) -> np.ndarray:
        """M^{-1} b from the cached sparse factorisation."""
        x = self._factor().solve(np.asarray(b, dtype=float))
        if not np.all(np.isfinite(x)):
            raise ValidationError("matrix is singular")
        return x

    def is_spd(self) -> bool:
        """Positive definiteness from the pivot signs of the cached
        factorisation; a singular matrix is not SPD."""
        try:
            self._factor()
        except ValidationError:
            return False
        return self._spd

    def extremes(self) -> tuple[float, float]:
        """(lambda_min, lambda_max) of an SPD matrix, cached.

        Both come from shift-invert Lanczos (ARPACK) with a fixed start
        vector, so repeated calls and equal matrices give bit-identical
        values: lambda_min at shift 0 through the cached factorisation,
        lambda_max at a shift just above the Gershgorin bound. Raises
        ValidationError when the matrix is singular or indefinite and
        NonConvergenceError when ARPACK does not converge.
        """
        if self._extremes is None:
            if not self.is_spd():
                raise ValidationError("matrix is singular or indefinite")
            if self.n == 1:
                lam = self.entry(0, 0)
                self._extremes = (lam, lam)
                return self._extremes
            lu = self._factor()
            csc = sp.csc_array(self._csr)
            v0 = np.random.default_rng(0).standard_normal(self.n)
            inv = LinearOperator(csc.shape, matvec=lu.solve, dtype=float)
            shift = 1.01 * float(abs(self._csr).sum(axis=1).max())
            try:
                lo = eigsh(csc, k=1, sigma=0.0, OPinv=inv, v0=v0, return_eigenvectors=False)
                hi = eigsh(csc, k=1, sigma=shift, v0=v0, return_eigenvectors=False)
            except ArpackNoConvergence as exc:
                raise NonConvergenceError("Lanczos eigenvalue iteration did not converge") from exc
            self._extremes = (float(lo[0]), float(hi[0]))
        return self._extremes

    def max_abs(self) -> float:
        return float(abs(self._csr.data).max()) if self.nnz else 0.0

    def pattern(self):
        out = self._csr.copy()
        out.data = np.ones_like(out.data)
        return out

    def to_matrix_market(self, path):
        from scipy.io import mmwrite

        mmwrite(path, sp.coo_array(self._csr), symmetry="symmetric")


@dataclass(frozen=True)
class LoadVector:
    """Dense load vector over the active dofs: entries int f phi_i."""

    n: int
    values: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def to_csv(self, path):
        with open(path, "w") as f:
            f.write("index,value\n")
            for i, v in enumerate(self.values):
                f.write(f"{i},{v!r}\n")


# ---------------------------------------------------------------------------
# assembly

def _check_pair(mesh: Mesh, spec: BasisSpec):
    expected_nodes = mesh.n * spec.k + 1 if mesh.dimension == 1 else mesh.n_vertices
    if spec.n_nodes != expected_nodes or len(spec.element_nodes) != mesh.n_elements:
        raise ValidationError("basis was not built for this mesh")


def _assemble_bilinear(mesh: Mesh, spec: BasisSpec, diffusion: float, reaction: float) -> SparseSymMatrix:
    """All element matrices in one broadcast, then one COO build of the upper
    triangle in element order (so duplicates sum in a fixed order)."""
    gids = spec.node_dofs[spec.element_nodes]  # (n_elements, m), -1 if constrained
    m = gids.shape[1]
    if mesh.dimension == 1:
        kref, mref = _reference_matrices(spec.k)
        h = mesh.h
        local = (diffusion * kref / h + reaction * mref * h)[None]
    else:
        area = 0.5 / (mesh.n * mesh.n)
        pts = mesh.vertices[spec.element_nodes]  # (n_elements, 3, 2)
        # gradients of the barycentric functions
        pb, pc = np.roll(pts, -1, axis=1), np.roll(pts, -2, axis=1)
        g = np.stack([pb[..., 1] - pc[..., 1], pc[..., 0] - pb[..., 0]], axis=-1) / (2.0 * area)
        gg = g @ g.transpose(0, 2, 1)
        local = diffusion * gg * area + reaction * area / 12.0 * (1.0 + np.eye(3))
    a, b = np.triu_indices(m)
    ia, ib = gids[:, a], gids[:, b]
    vals = np.broadcast_to(local[:, a, b], ia.shape)
    keep = (ia >= 0) & (ib >= 0)
    ia, ib, vals = ia[keep], ib[keep], vals[keep]
    return SparseSymMatrix.from_upper_coo(spec.n_dofs, np.minimum(ia, ib), np.maximum(ia, ib), vals)


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


def _as_evaluator(mesh: Mesh, f):
    """Normalize polynomial coefficients or a callable into a point evaluator
    plus the quadrature order needed for load integrals to be exact."""
    if callable(f):
        return f, _CALLABLE_QUAD_POINTS
    c = np.asarray(f, dtype=float)
    deg = poly_degree(c)
    if deg > MAX_POLY_DEGREE:
        raise ValidationError(f"polynomial degree {deg} beyond supported maximum {MAX_POLY_DEGREE}")
    if mesh.dimension == 1:
        if c.ndim != 1:
            raise ValidationError("1D data must be a flat coefficient list")
        return (lambda x: npoly.polyval(x, c)), 0
    if c.ndim == 1:
        c = c.reshape(-1, 1)
    return (lambda x, y: npoly.polyval2d(x, y, c)), 0


def element_quadrature_1d(mesh: Mesh, p: int):
    """p-point Gauss-Legendre rule on every element of a 1D mesh: points
    (n_elements, p) in element order and the weights (p,) of [0, 1]."""
    xs, ws = _gauss01(p)
    return mesh.vertices[mesh.elements[:, 0]] + mesh.h * xs, ws


def assemble_load(mesh: Mesh, spec: BasisSpec, f) -> LoadVector:
    """Load vector with entries int f phi_i over the active dofs.

    ``f`` is given as polynomial coefficients (1D: flat list, low order
    first; 2D: coefficient matrix c[i][j] of x^i y^j, total degree <= 8) or
    as a callable sampled by quadrature. A callable is evaluated once on
    (n_elements, q) arrays of quadrature points (one ``x`` array in 1D, ``x``
    and ``y`` in 2D), so it must be numpy-vectorised.
    """
    _check_pair(mesh, spec)
    ev, extra = _as_evaluator(mesh, f)
    deg = extra if extra else poly_degree(f)
    if mesh.dimension == 1:
        xq, ws = element_quadrature_1d(mesh, max(spec.k + 1, (spec.k + deg) // 2 + 2))
        basis_vals = _reference_values_at(spec.k, len(ws))  # (k+1, p)
        # (h * B) @ v and h * (B @ v) round differently; artifacts pin the first
        contrib = ((mesh.h * basis_vals)[None] @ (ws * ev(xq))[..., None])[..., 0]
    else:
        ref_pts, ref_w = _duffy_rule(max(2, (deg + 1) // 2 + 2))
        corners = mesh.vertices[spec.element_nodes]  # (n_elements, 3, 2)
        origin = corners[:, :1]
        # affine map from the reference triangle: (n_elements, q, 2)
        xq = origin + ref_pts[:, :1] * (corners[:, 1:2] - origin) + ref_pts[:, 1:] * (corners[:, 2:] - origin)
        lam = np.column_stack([1.0 - ref_pts[:, 0] - ref_pts[:, 1], ref_pts[:, 0], ref_pts[:, 1]])
        area = 0.5 / (mesh.n * mesh.n)
        contrib = 2.0 * area * (lam * (ref_w * ev(xq[..., 0], xq[..., 1]))[..., None]).sum(axis=1)
    gids = spec.node_dofs[spec.element_nodes]  # (n_elements, m), -1 if constrained
    keep = gids >= 0
    # bincount adds in element order, as the bilinear COO build does; it
    # returns integer zeros when there are no dofs
    out = np.bincount(gids[keep], weights=contrib[keep], minlength=spec.n_dofs)
    return LoadVector(spec.n_dofs, out.astype(float, copy=False))


def row_oracle(matrix: SparseSymMatrix, r: int, i: int):
    """(column, value) of the i-th nonzero of row r (i is 1-based, column
    order); None beyond the row's nonzero count."""
    cols, vals = matrix.row_nonzeros(r)
    if i < 1 or i > len(cols):
        return None
    return int(cols[i - 1]), float(vals[i - 1])


def spai_preconditioner(M: SparseSymMatrix, pattern=None) -> SparseSymMatrix:
    """Sparse approximate inverse: minimize ||PM - I||_F row by row over a
    fixed sparsity pattern (default: the pattern of M), then symmetrize.

    Rows whose local least-squares problem is rank deficient fall back to
    the Jacobi entry 1/M_ii. When the symmetrised result is not positive
    definite (``is_spd()``; it can be indefinite on coarse meshes, e.g. 1D
    P1 with n = 3), the whole matrix falls back to Jacobi, diag(1/M_ii), so
    the returned preconditioner of an SPD M is always SPD, as CG requires.
    """
    A = M.csr
    if pattern is None:
        pat = M.pattern()
    elif isinstance(pattern, SparseSymMatrix):
        pat = pattern.pattern()
    else:
        pat = sp.csr_array(pattern)
    n = M.n
    rows, cols, vals = [], [], []
    indptr, indices = A.indptr, A.indices
    for i in range(n):
        J = pat.indices[pat.indptr[i]:pat.indptr[i + 1]]
        if len(J) == 0:
            J = np.array([i])
        # by symmetry, column support of A[:, j] equals row support of A[j, :]
        I = np.unique(np.concatenate([indices[indptr[j]:indptr[j + 1]] for j in J]))
        Asub = A[I][:, J].toarray()
        e = (I == i).astype(float)
        sol, _, rank, _ = np.linalg.lstsq(Asub, e, rcond=None)
        if rank < len(J) or not np.all(np.isfinite(sol)):
            J, sol = [i], [_jacobi_entry(M, i)]
        rows.extend([i] * len(J))
        cols.extend(J)
        vals.extend(sol)
    P = sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
    P = SparseSymMatrix((P + P.T) * 0.5)
    if P.is_spd():
        return P
    return SparseSymMatrix(sp.diags_array([_jacobi_entry(M, i) for i in range(n)]))


def _jacobi_entry(M: SparseSymMatrix, i: int) -> float:
    mii = M.entry(i, i)
    if mii == 0.0:
        raise ValidationError(f"cannot precondition: zero diagonal at row {i}")
    return 1.0 / mii
