"""Batched element kernels against per-element reference loops.

Each reference below is the element-by-element form the batched kernel
replaced, so the comparisons are exact (``np.array_equal``), not approximate:
the batched kernels must add the same terms in the same order.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfemlab import (
    BilinearForm,
    assemble_gram,
    assemble_load,
    assemble_stiffness,
    build_basis,
    build_interval_mesh,
    build_square_triangulation,
    evaluate_discrete,
    spai_preconditioner,
)
from qfemlab.assembly import _CALLABLE_QUAD_POINTS, _duffy_rule, _gauss01, _reference_values_at, poly_degree
from qfemlab.cli import _l2_norm_1d

coeff = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def loads(draw):
    """(d, n, k, constrained, f) with f polynomial coefficients or a callable."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 40 if d == 1 else 10))
    k = draw(st.integers(1, 3)) if d == 1 else 1
    constrained = draw(st.booleans())
    a, b = draw(coeff), draw(coeff)
    if draw(st.booleans()):
        f = (lambda x: np.sin(a * x) + b * x**2) if d == 1 else (lambda x, y: np.cos(a * x + b * y) + x * y)
    elif d == 1:
        f = draw(st.lists(coeff, min_size=1, max_size=9))
    else:
        m = draw(st.integers(1, 4))
        f = draw(st.lists(st.lists(coeff, min_size=m, max_size=m), min_size=m, max_size=m))
    return d, n, k, constrained, f


def reference_load(mesh, spec, f):
    out = np.zeros(spec.n_dofs)
    deg = _CALLABLE_QUAD_POINTS if callable(f) else poly_degree(f)
    if mesh.dimension == 1:
        ev = f if callable(f) else (lambda x: np.polynomial.polynomial.polyval(x, f))
        p = max(spec.k + 1, (spec.k + deg) // 2 + 2)
        xs, ws = _gauss01(p)
        basis_vals = _reference_values_at(spec.k, p)
        h = mesh.h
        for e in range(mesh.n_elements):
            fq = ev(mesh.vertices[mesh.elements[e, 0], 0] + h * xs)
            contrib = h * basis_vals @ (ws * fq)
            for a, ia in enumerate(spec.node_dofs[spec.element_nodes[e]]):
                if ia >= 0:
                    out[ia] += contrib[a]
        return out
    ev = f if callable(f) else (lambda x, y: np.polynomial.polynomial.polyval2d(x, y, f))
    ref_pts, ref_w = _duffy_rule(max(2, (deg + 1) // 2 + 2))
    area = 0.5 / (mesh.n * mesh.n)
    lam = np.column_stack([1.0 - ref_pts[:, 0] - ref_pts[:, 1], ref_pts[:, 0], ref_pts[:, 1]])
    for e in range(mesh.n_elements):
        pts = mesh.vertices[spec.element_nodes[e]]
        xq = pts[0, 0] + ref_pts[:, 0] * (pts[1, 0] - pts[0, 0]) + ref_pts[:, 1] * (pts[2, 0] - pts[0, 0])
        yq = pts[0, 1] + ref_pts[:, 0] * (pts[1, 1] - pts[0, 1]) + ref_pts[:, 1] * (pts[2, 1] - pts[0, 1])
        contrib = 2.0 * area * (lam * (ref_w * ev(xq, yq))[:, None]).sum(axis=0)
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
    assert np.array_equal(assemble_load(mesh, spec, f).values, reference_load(mesh, spec, f))


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
@given(st.integers(1, 40), st.integers(1, 3), st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_l2_norm_1d_matches_element_loop(n, k, p, seed):
    mesh = build_interval_mesh(n)
    spec = build_basis(mesh, k)
    coeffs = np.random.default_rng(seed).standard_normal(spec.n_dofs)

    def diff(xq):
        return np.cos(3.0 * xq) - evaluate_discrete(mesh, spec, coeffs, xq)

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


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.integers(2, 30),
    st.integers(1, 3),
    st.floats(1e-3, 1e3),
    st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
)
# the symmetrised least-squares fit is indefinite here (eigenvalue -5.9e-4)
@example(1, 3, 1, 1.0, 0.0)
def test_spai_preconditioner_is_spd(d, n, k, diffusion, reaction):
    mesh = build_interval_mesh(n) if d == 1 else build_square_triangulation(min(n, 10))
    spec = build_basis(mesh, k if d == 1 else 1)
    M = assemble_stiffness(mesh, spec, BilinearForm(diffusion, reaction))
    assert spai_preconditioner(M).is_spd()
