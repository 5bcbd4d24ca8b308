"""Small hand-written SparseSymMatrix instances for the tests.

The package builds every matrix by its stencil assembly, symmetric bit for
bit, and wraps it unchecked. A matrix written by hand is checked here
instead: canonicalised (a copy, sorted, duplicates summed), square, and
symmetric to a relative 1e-14.
"""
import scipy.sparse as sp

from qfemlab import SparseSymMatrix, ValidationError


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
