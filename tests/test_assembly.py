import numpy as np
import pytest

from qfemlab import (
    BilinearForm,
    SparseSymMatrix,
    ValidationError,
    assemble_gram,
    assemble_load,
    assemble_stiffness,
    build_basis,
    build_interval_mesh,
    build_square_triangulation,
)
from pointwise import basis, elements, vertices

DIFFUSION = BilinearForm(1.0, 0.0)


def poisson_1d(n, k=1):
    mesh = build_interval_mesh(n)
    spec = build_basis(mesh, k)
    return mesh, spec, assemble_stiffness(mesh, spec, DIFFUSION)


def test_stiffness_tridiagonal_values_exact():
    mesh, spec, M = poisson_1d(8)
    h = mesh.h
    dense = M.to_dense()
    for r in range(spec.n_dofs - 1):
        assert dense[r, r] == 2.0 / h
        assert dense[r, r + 1] == -1.0 / h
    # Neumann end carries the half tent
    assert dense[-1, -1] == 1.0 / h


def test_stiffness_single_element():
    mesh, spec, M = poisson_1d(1)
    assert M.to_dense().shape == (1, 1)
    assert M.to_dense()[0, 0] == 1.0 / mesh.h


def test_bilinear_form_validation():
    with pytest.raises(ValidationError):
        BilinearForm(0.0, 0.0)
    with pytest.raises(ValidationError):
        BilinearForm(1.0, -1.0)


def test_mismatched_mesh_spec_rejected():
    mesh, spec, _ = poisson_1d(4)
    other = build_interval_mesh(5)
    with pytest.raises(ValidationError):
        assemble_stiffness(other, spec, DIFFUSION)


def test_load_constant():
    mesh = build_interval_mesh(8)
    spec = build_basis(mesh, 1)
    f = assemble_load(mesh, spec, [1.0])
    assert np.allclose(f[:-1], mesh.h, atol=1e-14)
    assert f[-1] == pytest.approx(mesh.h / 2, abs=1e-14)


def test_load_zero():
    mesh = build_interval_mesh(4)
    spec = build_basis(mesh, 1)
    assert np.all(assemble_load(mesh, spec, [0.0]) == 0.0)


def test_load_linear_interior():
    mesh = build_interval_mesh(4)
    spec = build_basis(mesh, 1)
    f = assemble_load(mesh, spec, [0.0, 1.0])
    # interior entries are h * x_i; dof 0 sits at x = 0.25
    assert f[0] == pytest.approx(0.0625, abs=1e-14)
    assert f[1] == pytest.approx(mesh.h * 0.5, abs=1e-14)


def test_load_rejects_high_degree():
    mesh = build_interval_mesh(4)
    spec = build_basis(mesh, 1)
    with pytest.raises(ValidationError):
        assemble_load(mesh, spec, [0.0] * 9 + [1.0])


@pytest.mark.parametrize(
    "d, f",
    [(2, [[[1.0]]]), (2, [[1.0, 2.0], [3.0]]), (1, [[1.0, 2.0], [3.0]]), (2, []), (2, [[]])],
    ids=["3d-array", "ragged-rows", "ragged-rows-1d", "empty", "empty-rows"],
)
def test_load_rejects_malformed_coefficients(d, f):
    mesh = build_interval_mesh(4) if d == 1 else build_square_triangulation(3)
    spec = build_basis(mesh, 1)
    with pytest.raises(ValidationError):
        assemble_load(mesh, spec, f)


def test_gram_tent_overlaps():
    mesh = build_interval_mesh(8)
    spec = build_basis(mesh, 1)
    W = assemble_gram(mesh, spec).to_dense()
    h = mesh.h
    for r in range(spec.n_dofs - 1):
        assert W[r, r] == pytest.approx(2 * h / 3, abs=1e-14)
        assert W[r, r + 1] == pytest.approx(h / 6, abs=1e-14)
    assert W[-1, -1] == pytest.approx(h / 3, abs=1e-14)


def test_gram_zero_overlap_entries_absent():
    mesh = build_interval_mesh(8)
    spec = build_basis(mesh, 1)
    W = assemble_gram(mesh, spec)
    assert set(W.csr.indices[W.csr.indptr[3]:W.csr.indptr[4]]) == {2, 3, 4}


def test_gram_2d_diagonal_scales_like_h_squared():
    for n in (4, 8):
        mesh = build_square_triangulation(n)
        spec = build_basis(mesh, 1)
        W = assemble_gram(mesh, spec)
        diag = W.to_dense().diagonal()
        # six triangles of area h_cell^2/2 each contribute area/6
        assert np.allclose(diag, 0.5 / n**2, atol=1e-14)


def test_gram_operator_norm_bound():
    # ||W|| <= s * max_ij |W_ij| for s-sparse symmetric matrices
    for build, n in ((build_interval_mesh, 16), (build_square_triangulation, 4)):
        mesh = build(n)
        spec = build_basis(mesh, 1)
        W = assemble_gram(mesh, spec)
        norm = np.linalg.norm(W.to_dense(), 2)
        assert norm <= W.s * abs(W.csr.data).max() + 1e-14


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bruteforce_equivalence_1d(k):
    # dense oracle: integrate a(phi_i, phi_j) with 64-point composite quadrature
    mesh = build_interval_mesh(6)
    spec = build_basis(mesh, k)
    form = BilinearForm(1.3, 0.7)
    M = assemble_stiffness(mesh, spec, form).to_dense()
    xs, ws = np.polynomial.legendre.leggauss(64)
    dense = np.zeros_like(M)
    for e in range(mesh.n_elements):
        a = vertices(mesh)[elements(mesh)[e, 0], 0]
        b = vertices(mesh)[elements(mesh)[e, 1], 0]
        xq = (a + b) / 2 + (b - a) / 2 * xs
        wq = (b - a) / 2 * ws
        for i in range(spec.n_dofs):
            vi, gi = basis(mesh, spec, i, xq)
            if not np.any(vi) and not np.any(gi):
                continue
            for j in range(i, spec.n_dofs):
                vj, gj = basis(mesh, spec, j, xq)
                val = form.diffusion * wq @ (gi * gj)[:, 0] + form.reaction * wq @ (vi * vj)
                dense[i, j] += val
                if i != j:
                    dense[j, i] += val
    assert np.abs(M - dense).max() < 1e-10


def test_bruteforce_equivalence_2d():
    mesh = build_square_triangulation(3)
    spec = build_basis(mesh, 1)
    form = BilinearForm(1.0, 2.0)
    M = assemble_stiffness(mesh, spec, form).to_dense()
    # 16-point tensor rule per triangle via barycentric sampling
    from qfemlab.assembly import _duffy_rule

    pts, w = _duffy_rule(8)
    dense = np.zeros_like(M)
    for e in range(mesh.n_elements):
        tri = elements(mesh)[e]
        p = vertices(mesh)[tri]
        xq = p[0, 0] + pts[:, 0] * (p[1, 0] - p[0, 0]) + pts[:, 1] * (p[2, 0] - p[0, 0])
        yq = p[0, 1] + pts[:, 0] * (p[1, 1] - p[0, 1]) + pts[:, 1] * (p[2, 1] - p[0, 1])
        jac = 1.0 / mesh.n**2  # 2 * area
        for i in range(spec.n_dofs):
            vi, gi = basis(mesh, spec, i, np.column_stack([xq, yq]))
            for j in range(i, spec.n_dofs):
                vj, gj = basis(mesh, spec, j, np.column_stack([xq, yq]))
                val = jac * (form.diffusion * w @ (gi * gj).sum(axis=1) + form.reaction * w @ (vi * vj))
                dense[i, j] += val
                if i != j:
                    dense[j, i] += val
    assert np.abs(M - dense).max() < 1e-10


@pytest.mark.parametrize("builder,n,k", [(build_interval_mesh, 7, 1), (build_interval_mesh, 5, 3), (build_square_triangulation, 5, 1)])
def test_unconstrained_basis_partition_of_unity(builder, n, k):
    # with every node active the basis sums to 1: constants lie in the
    # kernel of the diffusion matrix and 1^T W 1 is the domain's measure
    mesh = builder(n)
    spec = build_basis(mesh, k, constrain_dirichlet=False)
    ones = np.ones(spec.n_dofs)
    assert np.abs(assemble_stiffness(mesh, spec, BilinearForm(1.7, 0.0)) @ ones).max() < 1e-10 * n
    assert ones @ (assemble_gram(mesh, spec) @ ones) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("builder,n,k", [(build_interval_mesh, 16, 1), (build_interval_mesh, 10, 3), (build_square_triangulation, 4, 1)])
def test_symmetry_and_psd(builder, n, k):
    mesh = builder(n)
    spec = build_basis(mesh, k)
    M = assemble_stiffness(mesh, spec, BilinearForm(1.0, 0.5))
    dense = M.to_dense()
    assert np.array_equal(dense, dense.T)
    assert np.linalg.eigvalsh(dense).min() >= -1e-12


def test_sparse_matrix_rejects_asymmetry():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        SparseSymMatrix.from_dense(bad)
