from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointwise import element_nodes, elements, evaluate, nodes, vertices
from qfemlab import ValidationError, build_basis, build_interval_mesh, build_square_triangulation
from qfemlab.assembly import _reference_lagrange, _reference_values_at
from qfemlab.mesh import prolongation


def test_interval_mesh_uniform_partition():
    m = build_interval_mesh(4)
    assert np.allclose(vertices(m).ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert m.h == 0.25
    # u(0) = 0 constrains the left endpoint only; the Neumann end stays free
    assert build_basis(m, 1).dof_nodes.tolist() == [1, 2, 3, 4]


def test_interval_mesh_degenerate():
    m = build_interval_mesh(1)
    assert m.n_elements == 1
    assert m.h == 1.0


def test_interval_mesh_eight():
    m = build_interval_mesh(8)
    assert m.h == 0.125
    assert m.n_elements == 8
    assert len(vertices(m)) == 9 and len(elements(m)) == 8


def test_interval_mesh_rejects_zero():
    with pytest.raises(ValidationError):
        build_interval_mesh(0)


def test_square_triangulation_counts():
    m1 = build_square_triangulation(1)
    assert m1.n_elements == len(elements(m1)) == 2 and len(vertices(m1)) == 4
    m2 = build_square_triangulation(2)
    assert m2.n_elements == len(elements(m2)) == 8 and len(vertices(m2)) == 9
    # the whole boundary is Dirichlet: only the centre vertex is a dof
    spec = build_basis(m2, 1)
    assert spec.dof_nodes.tolist() == [4] and spec.node_dofs[[0, 2, 6, 8]].tolist() == [-1] * 4


def test_square_triangulation_h():
    m = build_square_triangulation(4)
    assert m.h == pytest.approx(np.sqrt(2) / 4)
    # h really is the longest edge
    for tri in elements(m):
        pts = vertices(m)[tri]
        for a in range(3):
            edge = np.linalg.norm(pts[a] - pts[(a + 1) % 3])
            assert edge <= m.h + 1e-15


def test_square_triangulation_rejects_zero():
    with pytest.raises(ValidationError):
        build_square_triangulation(0)


def test_elements_tile_domain():
    m = build_square_triangulation(3)
    area = 0.0
    for tri in elements(m):
        pts = vertices(m)[tri]
        e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
        area += 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
    assert area == pytest.approx(1.0, abs=1e-14)


def test_refinement_halves_h_exactly():
    for n in (3, 5, 7, 12):
        assert build_interval_mesh(2 * n).h == build_interval_mesh(n).h / 2
        assert build_square_triangulation(2 * n).h == build_square_triangulation(n).h / 2


def test_tent_values():
    coarse, fine = build_interval_mesh(4), build_interval_mesh(8)
    # P e_0 is dof 0 of the coarse space, which peaks at its node x = 0.25,
    # at the fine nodes 0.125, 0.25, ..., 1
    spec_c = build_basis(coarse, 1)
    tent = prolongation(spec_c, build_basis(fine, 1), np.eye(spec_c.n_dofs)[0])
    assert tent[1] == 1.0  # x = 0.25
    assert tent[2] == 0.5  # x = 0.375
    assert tent[5] == 0.0  # x = 0.75


@pytest.mark.parametrize("k", [1, 2, 3])
def test_partition_of_unity_1d(k):
    # the reference table behind the loads (2..7 points) and the 1D L2 error
    # (10..28 points); the k = 3 polynomials have coefficients up to 27/2,
    # so Horner's rule puts a column sum up to 5 ulp off 1
    for p in range(1, 29):
        np.testing.assert_allclose(_reference_values_at(k, p).sum(axis=0), 1.0, rtol=0, atol=2e-15)


def test_partition_of_unity_2d():
    # with every node active the coarse basis functions sum to 1 at every fine node
    coarse, fine = build_square_triangulation(3), build_square_triangulation(12)
    spec_c = build_basis(coarse, 1, False)
    np.testing.assert_allclose(prolongation(spec_c, build_basis(fine, 1, False), np.ones(spec_c.n_dofs)), 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_support_sparsity_1d(k):
    m = build_interval_mesh(6)
    spec = build_basis(m, k)
    for i in range(spec.n_dofs):
        assert (element_nodes(spec) == spec.dof_nodes[i]).any(axis=1).sum() <= k + 1


def test_support_sparsity_2d():
    m = build_square_triangulation(4)
    spec = build_basis(m, 1)
    for i in range(spec.n_dofs):
        assert (element_nodes(spec) == spec.dof_nodes[i]).any(axis=1).sum() <= 6


def test_lagrange_nodal_property():
    for k in (1, 2, 3):
        # the reference basis function j is 1 at its node j/k and 0 at the others
        for j, poly in enumerate(_reference_lagrange(k)):
            at_nodes = [sum(c * Fraction(i, k) ** e for e, c in enumerate(poly)) for i in range(k + 1)]
            assert at_nodes == [int(i == j) for i in range(k + 1)]
        # so on a mesh, P from a space to itself is the identity
        m = build_interval_mesh(3)
        spec = build_basis(m, k)
        P = np.column_stack([prolongation(spec, spec, e) for e in np.eye(spec.n_dofs)])
        assert np.array_equal(P, np.eye(spec.n_dofs))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1)]),
    st.integers(1, 12),
    st.integers(1, 6),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_prolongation_matches_point_evaluation(dk, n, ratio, constrained, seed):
    d, k = dk
    build = build_interval_mesh if d == 1 else build_square_triangulation
    coarse, fine = build(n), build(n * ratio)
    spec_c, spec_f = build_basis(coarse, k, constrained), build_basis(fine, k, constrained)
    coeffs = np.random.default_rng(seed).standard_normal(spec_c.n_dofs)
    fine_coeffs = prolongation(spec_c, spec_f, coeffs)
    assert fine_coeffs.shape == (spec_f.n_dofs,)
    at_fine_dofs = evaluate(coarse, spec_c, coeffs, nodes(spec_f)[spec_f.dof_nodes])
    np.testing.assert_allclose(fine_coeffs, at_fine_dofs, rtol=0, atol=1e-14 * max(1.0, abs(coeffs).max(initial=0.0)))


@pytest.mark.parametrize(
    "coarse, fine",
    [
        (build_interval_mesh(4), build_interval_mesh(6)),
        (build_interval_mesh(4), build_square_triangulation(8)),
        (build_square_triangulation(3), build_square_triangulation(4)),
    ],
    ids=["not-a-multiple", "dimension", "2d-not-a-multiple"],
)
def test_prolongation_rejects_non_nested_meshes(coarse, fine):
    with pytest.raises(ValidationError):
        spec_c = build_basis(coarse, 1)
        prolongation(spec_c, build_basis(fine, 1), np.zeros(spec_c.n_dofs))
