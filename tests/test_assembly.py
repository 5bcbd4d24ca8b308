import json

import numpy as np
import pytest

from qfemlab import (
    BasisSpec,
    BilinearForm,
    Mesh,
    ValidationError,
    assemble_gram,
    assemble_load,
    assemble_stiffness,
)
from qfemlab import cli
from qfemlab.assembly import GRID_CACHE_SIZE, _assemble_stencil_2d, _grid_plan, _sine_matrix
from matrices import stencil_2d_reference, sym_matrix
from pointwise import basis, element_nodes, elements, vertices

DIFFUSION = BilinearForm(1.0, 0.0)


def poisson_1d(n, k=1):
    mesh = Mesh(1, n)
    spec = BasisSpec(mesh, k)
    return mesh, spec, assemble_stiffness(spec, DIFFUSION)


def test_stiffness_tridiagonal_values_exact():
    mesh, spec, M = poisson_1d(8)
    h = mesh.h
    dense = M.csr.toarray()
    for r in range(spec.n_dofs - 1):
        assert dense[r, r] == 2.0 / h
        assert dense[r, r + 1] == -1.0 / h
    # Neumann end carries the half tent
    assert dense[-1, -1] == 1.0 / h


def test_stiffness_single_element():
    mesh, spec, M = poisson_1d(1)
    assert M.csr.toarray().shape == (1, 1)
    assert M.csr.toarray()[0, 0] == 1.0 / mesh.h


def test_bilinear_form_validation():
    with pytest.raises(ValidationError):
        BilinearForm(0.0, 0.0)
    with pytest.raises(ValidationError):
        BilinearForm(1.0, -1.0)


def test_load_constant():
    mesh = Mesh(1, 8)
    spec = BasisSpec(mesh, 1)
    f = assemble_load(spec, [1.0])
    assert np.allclose(f[:-1], mesh.h, atol=1e-14)
    assert f[-1] == pytest.approx(mesh.h / 2, abs=1e-14)


def test_load_zero():
    mesh = Mesh(1, 4)
    spec = BasisSpec(mesh, 1)
    assert np.all(assemble_load(spec, [0.0]) == 0.0)


def test_load_linear_interior():
    mesh = Mesh(1, 4)
    spec = BasisSpec(mesh, 1)
    f = assemble_load(spec, [0.0, 1.0])
    # interior entries are h * x_i; dof 0 sits at x = 0.25
    assert f[0] == pytest.approx(0.0625, abs=1e-14)
    assert f[1] == pytest.approx(mesh.h * 0.5, abs=1e-14)


def test_load_rejects_high_degree():
    mesh = Mesh(1, 4)
    spec = BasisSpec(mesh, 1)
    with pytest.raises(ValidationError):
        assemble_load(spec, [0.0] * 9 + [1.0])


@pytest.mark.parametrize(
    "d, f",
    [(2, [[[1.0]]]), (2, [[1.0, 2.0], [3.0]]), (1, [[1.0, 2.0], [3.0]]), (2, []), (2, [[]])],
    ids=["3d-array", "ragged-rows", "ragged-rows-1d", "empty", "empty-rows"],
)
def test_load_rejects_malformed_coefficients(d, f):
    mesh = Mesh(d, 4 if d == 1 else 3)
    spec = BasisSpec(mesh, 1)
    with pytest.raises(ValidationError):
        assemble_load(spec, f)


def test_gram_tent_overlaps():
    mesh = Mesh(1, 8)
    spec = BasisSpec(mesh, 1)
    W = assemble_gram(spec).csr.toarray()
    h = mesh.h
    for r in range(spec.n_dofs - 1):
        assert W[r, r] == pytest.approx(2 * h / 3, abs=1e-14)
        assert W[r, r + 1] == pytest.approx(h / 6, abs=1e-14)
    assert W[-1, -1] == pytest.approx(h / 3, abs=1e-14)


def test_gram_zero_overlap_entries_absent():
    mesh = Mesh(1, 8)
    spec = BasisSpec(mesh, 1)
    W = assemble_gram(spec)
    assert set(W.csr.indices[W.csr.indptr[3]:W.csr.indptr[4]]) == {2, 3, 4}


def test_gram_2d_diagonal_scales_like_h_squared():
    for n in (4, 8):
        mesh = Mesh(2, n)
        spec = BasisSpec(mesh, 1)
        W = assemble_gram(spec)
        diag = W.csr.toarray().diagonal()
        # six triangles of area h_cell^2/2 each contribute area/6
        assert np.allclose(diag, 0.5 / n**2, atol=1e-14)


def test_gram_operator_norm_bound():
    # ||W|| <= s * max_ij |W_ij| for s-sparse symmetric matrices
    for d, n in ((1, 16), (2, 4)):
        mesh = Mesh(d, n)
        spec = BasisSpec(mesh, 1)
        W = assemble_gram(spec)
        norm = np.linalg.norm(W.csr.toarray(), 2)
        assert norm <= W.s * abs(W.csr.data).max() + 1e-14


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bruteforce_equivalence_1d(k):
    # dense oracle: integrate a(phi_i, phi_j) with 64-point composite quadrature
    mesh = Mesh(1, 6)
    spec = BasisSpec(mesh, k)
    form = BilinearForm(1.3, 0.7)
    M = assemble_stiffness(spec, form).csr.toarray()
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
    mesh = Mesh(2, 3)
    spec = BasisSpec(mesh, 1)
    form = BilinearForm(1.0, 2.0)
    M = assemble_stiffness(spec, form).csr.toarray()
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


@pytest.mark.parametrize("d,n,k", [(1, 7, 1), (1, 5, 3), (2, 5, 1)])
def test_basis_partition_of_unity_away_from_the_boundary(d, n, k):
    # on the elements without a Dirichlet node the basis sums to 1, so a row
    # whose stencil touches none of them sums to 0 in the diffusion matrix,
    # and its entry of W 1 is the load of f = 1
    spec = BasisSpec(Mesh(d, n), k)
    touching = element_nodes(spec)
    near = np.zeros(spec.n_nodes, dtype=bool)
    near[touching[(spec.node_dofs[touching] < 0).any(axis=1)]] = True
    rows = ~near[spec.dof_nodes]
    assert rows.any()
    ones = np.ones(spec.n_dofs)
    assert np.abs(assemble_stiffness(spec, BilinearForm(1.7, 0.0)).matvec(ones)[rows]).max() < 1e-10 * n
    load = assemble_load(spec, [1.0] if d == 1 else [[1.0]])
    np.testing.assert_allclose(assemble_gram(spec).matvec(ones)[rows], load[rows], rtol=1e-14, atol=0)


@pytest.mark.parametrize("d,n,k", [(1, 16, 1), (1, 10, 3), (2, 4, 1)])
def test_symmetry_and_psd(d, n, k):
    spec = BasisSpec(Mesh(d, n), k)
    M = assemble_stiffness(spec, BilinearForm(1.0, 0.5))
    dense = M.csr.toarray()
    assert np.array_equal(dense, dense.T)
    assert np.linalg.eigvalsh(dense).min() >= -1e-12


def test_sparse_matrix_rejects_asymmetry():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        sym_matrix(bad)


@pytest.mark.parametrize("d", [1, 2])
def test_assembled_matrices_equal_their_transpose_bitwise(d):
    # SparseSymMatrix wraps what the stencil assembly builds without a
    # symmetry check, so every stiffness and Gram matrix must be symmetric
    # bit for bit
    if d == 1:
        cases = [(Mesh(1, n), k) for k in (1, 2, 3) for n in (1, 2, 5, 16)]
    else:
        cases = [(Mesh(2, n), 1) for n in range(1, 13)]
    for mesh, k in cases:
        spec = BasisSpec(mesh, k)
        stiffness = [assemble_stiffness(spec, BilinearForm(D, R)) for D in (1.0, 1e-3) for R in (0.0, 1.0, 1e4)]
        for M in stiffness + [assemble_gram(spec)]:
            assert (M.csr != M.csr.T).nnz == 0, (mesh, k)


@pytest.mark.parametrize("d", [1, 2])
def test_assembled_matrices_hold_int32_indices(d):
    # int32 CSR indices halve the index bytes each product streams
    if d == 1:
        cases = [(Mesh(1, n), k) for k in (1, 2, 3) for n in (1, 2, 5, 16, 300)]
    else:
        cases = [(Mesh(2, n), 1) for n in (1, 2, 5, 12, 43)]
    for mesh, k in cases:
        spec = BasisSpec(mesh, k)
        stiffness = [assemble_stiffness(spec, BilinearForm(D, R)) for D in (1.0, 1e-3) for R in (0.0, 1.0, 12.0 * mesh.n**2)]
        for M in stiffness + [assemble_gram(spec)]:
            assert M.csr.indptr.dtype == M.csr.indices.dtype == np.int32, (mesh, k)


# (diffusion, reaction) as functions of n: R = 0 leaves NE zero, and
# R = 12 D n^2 cancels E and N wherever its mass rounds to -stiffness
STENCIL_CASES = {
    "D1-R1": lambda n: (1.0, 1.0),
    "D1-R0": lambda n: (1.0, 0.0),
    "gram": lambda n: (0.0, 1.0),
    "D1-R12n2": lambda n: (1.0, 12.0 * n * n),
}


@pytest.mark.parametrize("case", list(STENCIL_CASES))
def test_2d_stencil_matches_the_per_call_index_build_bitwise(case):
    dropped = 0
    for n in range(1, 71):
        spec = BasisSpec(Mesh(2, n), 1)
        diffusion, reaction = STENCIL_CASES[case](n)
        M = _assemble_stencil_2d(spec, diffusion, reaction)
        ref = stencil_2d_reference(spec, diffusion, reaction)
        for name, dtype in (("indptr", np.int32), ("indices", np.int32), ("data", np.float64)):
            got, want = getattr(M.csr, name), getattr(ref, name)
            assert got.dtype == dtype and np.array_equal(got, want), (n, name)
        assert M.s == (int(np.diff(ref.indptr).max()) if spec.n_dofs else 0), n
        dropped += ref.nnz < len(_grid_plan(n)[1])
    # the exact zeros of these cases are dropped from the cached pattern
    assert (dropped > 0) == (case in ("D1-R0", "D1-R12n2")), dropped


def test_grid_caches_are_read_only_and_hit_on_the_same_grid():
    spec = BasisSpec(Mesh(2, 9), 1)
    M = assemble_stiffness(spec, BilinearForm(1.0, 1.0))
    sine = M._precond._sine
    hits = _grid_plan.cache_info().hits, _sine_matrix.cache_info().hits
    for array in (M.csr.indices, M.csr.indptr):
        with pytest.raises(ValueError):
            array[0] = 1
    with pytest.raises(ValueError):
        sine[0, 0] = 1.0
    again = assemble_stiffness(spec, BilinearForm(2.0, 0.5))
    assert again._precond._sine is sine and np.shares_memory(again.csr.indices, M.csr.indices)
    assert _grid_plan.cache_info().hits > hits[0] and _sine_matrix.cache_info().hits > hits[1]


def test_grid_caches_hold_a_default_convergence_and_a_simulate(tmp_path):
    levels = cli.build_parser().parse_args(["convergence", "--spec", "x"]).levels
    assert levels + 2 <= GRID_CACHE_SIZE  # the levels, their reference, a simulate
    for cache in (_grid_plan, _sine_matrix):
        assert cache.cache_info().maxsize == GRID_CACHE_SIZE
        cache.cache_clear()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "d": 2, "k": 1, "pde": {"diffusion": 1, "reaction": 1},
        "f": [[-1]], "r": [[1]], "eps": 5e-2, "sobolev": [0.05, 0.3, 2.0],
    }))

    def reports():
        for command in ("convergence", "simulate"):
            assert cli.main([command, "--spec", str(spec), "--out", str(tmp_path)]) == 0
        return _grid_plan.cache_info().misses, _sine_matrix.cache_info().misses

    first = reports()
    assert first[0] == levels + 2
    assert reports() == first  # every grid of the second run is a hit
