"""Small hand-written SparseSymMatrix instances for the tests, and the
reference 2D stencil build.

The package builds every matrix by its stencil assembly, symmetric bit for
bit, and wraps it unchecked. A matrix written by hand is checked here
instead: canonicalised (a copy, sorted, duplicates summed), square, and
symmetric to a relative 1e-14.
"""
import numpy as np
import scipy.sparse as sp

from qfemlab import SparseSymMatrix, ValidationError
from qfemlab.mesh import TRIANGLE_GRADS


def sym_matrix(a) -> SparseSymMatrix:
    """The SparseSymMatrix of a dense or sparse array; ValidationError unless
    it is square and symmetric to a relative 1e-14."""
    # a copy: canonicalising sorts in place, and the caller keeps its arrays
    csr = sp.csr_array(a, dtype=float, copy=True)
    csr.sum_duplicates()
    if csr.shape[0] != csr.shape[1]:
        raise ValidationError(f"matrix must be square, got {csr.shape}")
    scale = max(1.0, abs(csr.data).max() if csr.nnz else 0.0)
    asym = abs(csr - csr.T).max() if csr.nnz else 0.0
    if asym > 1e-14 * scale:
        raise ValidationError(f"matrix is not symmetric (asymmetry {asym:.3e})")
    return SparseSymMatrix(csr)


def stencil_2d_reference(spec, diffusion: float, reaction: float) -> sp.csr_array:
    """The 2D stencil matrix by per-call index work, as the package built it
    before its CSR pattern was cached per grid: the four coupling grids
    padded by a zero border, each row's seven values and dof columns
    gathered by offset slices (SW, S, W, C, E, N, NE; SW, S and W read the
    neighbour's NE, N and E), then the nonzero entries of free rows and
    columns kept. The package's CSR arrays must equal these bit for bit."""
    n = spec.mesh.n
    area = 0.5 / (n * n)
    mass = reaction * area / 12.0 * (1.0 + np.eye(3))
    lo, up = (diffusion * 0.5 * (g @ g.T) + mass for g in TRIANGLE_GRADS)
    # vertex (i, j) sits at [j + 1, i + 1]; the border holds zeros and dof -1
    C, E, N, NE = np.zeros((4, n + 3, n + 3))
    dof = np.full((n + 3, n + 3), -1)
    dof[1:n + 2, 1:n + 2] = spec.node_dofs.reshape(n + 1, n + 1)
    cell, on = slice(1, n + 1), slice(2, n + 2)
    C[cell, cell] += lo[0, 0] + up[0, 0]
    C[cell, on] += lo[1, 1]
    C[on, on] += lo[2, 2] + up[1, 1]
    C[on, cell] += up[2, 2]
    E[cell, cell] += lo[0, 1]
    E[on, cell] += up[1, 2]
    N[cell, cell] += up[0, 2]
    N[cell, on] += lo[1, 2]
    NE[cell, cell] += lo[0, 2] + up[0, 1]

    def offset(grid, dj, di):
        return grid[1 + dj:n + 2 + dj, 1 + di:n + 2 + di]

    vals = np.stack(
        [offset(NE, -1, -1), offset(N, -1, 0), offset(E, 0, -1), offset(C, 0, 0), offset(E, 0, 0), offset(N, 0, 0), offset(NE, 0, 0)],
        axis=-1,
    ).reshape(-1, 7)
    steps = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))
    cols = np.stack([offset(dof, dj, di) for dj, di in steps], axis=-1).reshape(-1, 7)
    keep = (vals != 0.0) & (cols >= 0) & (spec.node_dofs >= 0)[:, None]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1)[spec.dof_nodes])])
    return sp.csr_array((vals[keep], cols[keep], indptr), shape=(spec.n_dofs, spec.n_dofs))
