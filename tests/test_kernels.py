"""Batched element kernels against per-element reference loops.

Each reference below is the element-by-element form the batched kernel
replaced. The load kernel adds the same terms in the same order, so that
comparison is exact (``np.array_equal``). The 2D stencil build uses the
exact reference-triangle matrices, where the element loop takes gradients
from vertex coordinates i/n that are rounded, so it is compared at 1e-14
relative, with the same sparsity pattern.
"""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfemlab import (
    BilinearForm,
    SparseSymMatrix,
    assemble_gram,
    assemble_load,
    assemble_stiffness,
    build_basis,
    build_interval_mesh,
    build_square_triangulation,
)
from qfemlab.assembly import _duffy_rule, _gauss01, _reference_values_at, poly_degree
from qfemlab.cli import _l2_norm_1d

coeff = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def loads(draw):
    """(d, n, k, constrained, f) with f polynomial coefficients."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 40 if d == 1 else 10))
    k = draw(st.integers(1, 3)) if d == 1 else 1
    constrained = draw(st.booleans())
    if d == 1:
        f = draw(st.lists(coeff, min_size=1, max_size=9))
    else:
        m = draw(st.integers(1, 4))
        f = draw(st.lists(st.lists(coeff, min_size=m, max_size=m), min_size=m, max_size=m))
    return d, n, k, constrained, f


def reference_load(mesh, spec, f):
    out = np.zeros(spec.n_dofs)
    deg = poly_degree(f)
    if mesh.dimension == 1:
        p = max(spec.k + 1, (spec.k + deg) // 2 + 2)
        xs, ws = _gauss01(p)
        basis_vals = _reference_values_at(spec.k, p)
        h = mesh.h
        for e in range(mesh.n_elements):
            fq = np.polynomial.polynomial.polyval(mesh.vertices[mesh.elements[e, 0], 0] + h * xs, f)
            contrib = h * basis_vals @ (ws * fq)
            for a, ia in enumerate(spec.node_dofs[spec.element_nodes[e]]):
                if ia >= 0:
                    out[ia] += contrib[a]
        return out
    ref_pts, ref_w = _duffy_rule(max(2, (deg + 1) // 2 + 2))
    area = 0.5 / (mesh.n * mesh.n)
    lam = np.column_stack([1.0 - ref_pts[:, 0] - ref_pts[:, 1], ref_pts[:, 0], ref_pts[:, 1]])
    for e in range(mesh.n_elements):
        pts = mesh.vertices[spec.element_nodes[e]]
        xq = pts[0, 0] + ref_pts[:, 0] * (pts[1, 0] - pts[0, 0]) + ref_pts[:, 1] * (pts[2, 0] - pts[0, 0])
        yq = pts[0, 1] + ref_pts[:, 0] * (pts[1, 1] - pts[0, 1]) + ref_pts[:, 1] * (pts[2, 1] - pts[0, 1])
        contrib = 2.0 * area * (lam * (ref_w * np.polynomial.polynomial.polyval2d(xq, yq, f))[:, None]).sum(axis=0)
        for a, ia in enumerate(spec.node_dofs[spec.element_nodes[e]]):
            if ia >= 0:
                out[ia] += contrib[a]
    return out


@settings(max_examples=60, deadline=None)
@given(loads())
# a 1D case where (h * B) @ v and h * (B @ v) round differently
@example((1, 3, 2, False, [1.0, 3.0]))
def test_batched_load_matches_element_loop(case):
    d, n, k, constrained, f = case
    mesh = build_interval_mesh(n) if d == 1 else build_square_triangulation(n)
    spec = build_basis(mesh, k, constrain_dirichlet=constrained)
    assert np.array_equal(assemble_load(mesh, spec, f), reference_load(mesh, spec, f))


def reference_bilinear_2d(mesh, spec, diffusion, reaction):
    """M from one element matrix per element, its gradients taken from the
    vertex coordinates, summed over elements by a COO build; exact zero
    sums are dropped."""
    area = 0.5 / (mesh.n * mesh.n)
    pts = mesh.vertices[spec.element_nodes]  # (n_elements, 3, 2)
    # gradient of barycentric function a from the vertices b, c that follow it
    pb, pc = np.roll(pts, -1, axis=1), np.roll(pts, -2, axis=1)
    g = np.stack([pb[..., 1] - pc[..., 1], pc[..., 0] - pb[..., 0]], axis=-1) / (2.0 * area)
    local = diffusion * np.einsum("eak,ebk->eab", g, g) * area + reaction * area / 12.0 * (1.0 + np.eye(3))
    gids = spec.node_dofs[spec.element_nodes]
    rows, cols = np.broadcast_to(gids[:, :, None], local.shape), np.broadcast_to(gids[:, None, :], local.shape)
    keep = (rows >= 0) & (cols >= 0)
    out = sp.coo_array((local[keep], (rows[keep], cols[keep])), shape=(spec.n_dofs, spec.n_dofs)).tocsr()
    out.eliminate_zeros()
    return out


def assert_matches_reference(M, ref):
    """Same CSR pattern and row width, entries equal to 1e-14 relative."""
    assert np.array_equal(M.csr.indptr, ref.indptr) and np.array_equal(M.csr.indices, ref.indices)
    assert M.s == (int(np.diff(ref.indptr).max()) if M.n else 0)
    np.testing.assert_allclose(M.csr.data, ref.data, rtol=1e-14, atol=1e-14 * abs(ref.data).max(initial=0.0))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 12),
    st.floats(1e-3, 1e3),
    st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    st.booleans(),
)
# meshes whose vertex coordinates i/n are inexact, so the reference rounds
@example(5, 1.0, 1.0, True)
@example(43, 1.0, 1.0, True)
def test_batched_bilinear_2d_matches_element_loop(n, diffusion, reaction, constrained):
    mesh = build_square_triangulation(n)
    spec = build_basis(mesh, 1, constrain_dirichlet=constrained)
    M = assemble_stiffness(mesh, spec, BilinearForm(diffusion, reaction))
    assert_matches_reference(M, reference_bilinear_2d(mesh, spec, diffusion, reaction))
    if constrained and n > 1:
        # pure diffusion gives the five-point stencil exactly on interior nodes
        P = assemble_stiffness(mesh, spec, BilinearForm(diffusion, 0.0)).csr
        rows = np.repeat(np.arange(P.shape[0]), np.diff(P.indptr))
        assert np.all(P.data[P.indices == rows] == 4.0 * diffusion)
        assert np.all(P.data[P.indices != rows] == -diffusion)


@pytest.mark.parametrize("constrained", [True, False], ids=["constrained", "unconstrained"])
def test_stencil_matches_element_loop_on_every_size(constrained):
    # the stiffness with and without reaction and the Gram matrix, n = 1..64
    for n in range(1, 65):
        mesh = build_square_triangulation(n)
        spec = build_basis(mesh, 1, constrain_dirichlet=constrained)
        if spec.n_dofs == 0:
            continue
        for diffusion, reaction in ((1.0, 0.0), (0.37, 2.5)):
            M = assemble_stiffness(mesh, spec, BilinearForm(diffusion, reaction))
            assert_matches_reference(M, reference_bilinear_2d(mesh, spec, diffusion, reaction))
        G = assemble_gram(mesh, spec)
        assert_matches_reference(G, reference_bilinear_2d(mesh, spec, 0.0, 1.0))
        if not constrained:
            # the basis sums to 1, so G 1 is the load of f = 1
            np.testing.assert_allclose(G @ np.ones(spec.n_dofs), assemble_load(mesh, spec, [[1.0]]), rtol=1e-14, atol=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_from_upper_coo_mirrors_bit_identically(n, seed):
    rng = np.random.default_rng(seed)
    m = 4 * n
    rows, cols = rng.integers(0, n, m), rng.integers(0, n, m)
    # duplicates of mixed magnitude, so the summation order shows in the bits
    vals = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 9, m)
    M = SparseSymMatrix.from_upper_coo(n, np.minimum(rows, cols), np.maximum(rows, cols), vals)
    dense = M.to_dense()
    assert np.array_equal(dense.view(np.uint64), dense.T.view(np.uint64))


@given(st.integers(1, 30))
def test_batched_builders_match_loops(n):
    def vid(i, j):
        return j * (n + 1) + i

    expected = []
    for j in range(n):
        for i in range(n):
            expected.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            expected.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
    assert np.array_equal(build_square_triangulation(n).elements, np.asarray(expected))
    mesh = build_interval_mesh(n)
    for k in (1, 2, 3):
        expected = np.array([[e * k + j for j in range(k + 1)] for e in range(n)])
        assert np.array_equal(build_basis(mesh, k).element_nodes, expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(2, 12), st.floats(-10.0, 10.0))
def test_l2_norm_1d_matches_element_loop(n, p, freq):
    mesh = build_interval_mesh(n)

    def diff(xq):
        return np.cos(freq * xq) - xq**2

    xs, ws = _gauss01(p)
    total = 0.0
    for e in range(mesh.n_elements):
        xq = mesh.vertices[mesh.elements[e, 0], 0] + mesh.h * xs
        total += mesh.h * float(ws @ diff(xq) ** 2)
    assert _l2_norm_1d(mesh, p, diff) == float(np.sqrt(total))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.integers(2, 30),
    st.integers(1, 3),
    st.floats(1e-3, 1e3),
    st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    st.booleans(),
)
def test_stiffness_and_gram_symmetric_psd(d, n, k, diffusion, reaction, constrained):
    mesh = build_interval_mesh(n) if d == 1 else build_square_triangulation(min(n, 10))
    spec = build_basis(mesh, k if d == 1 else 1, constrain_dirichlet=constrained)
    for matrix in (assemble_stiffness(mesh, spec, BilinearForm(diffusion, reaction)), assemble_gram(mesh, spec)):
        dense = matrix.to_dense()
        assert np.array_equal(dense, dense.T)
        eig = np.linalg.eigvalsh(dense)
        assert eig[0] >= -1e-12 * eig[-1]
        if constrained:
            assert matrix.is_spd()
