"""Uniform interval meshes and unit-square triangulations with nodal bases.

Only uniform subdivisions of [0, 1] and [0, 1]^2 are supported: the
eigenvalue scaling studies, the 2D stencil assembly and the prolongation
all rely on regular spacing. Vertex coordinates are computed as i/n (never
accumulated), so refining a mesh halves h exactly in floating point.

Boundary conditions are fixed: in 1D the left endpoint is Dirichlet and the
right endpoint Neumann (u(0) = u'(1) = 0); in 2D all four sides of the unit
square are homogeneous Dirichlet.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import UnsupportedConfigurationError, ValidationError

INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh of [0,1] (intervals) or [0,1]^2 (right triangles).

    Attributes
    ----------
    dimension : 1 or 2
    n : subdivisions per side
    vertices : (n_vertices, dimension) array of coordinates
    elements : (n_elements, dimension + 1) array of vertex indices
    h : greatest edge length over all elements
    boundary_flags : per-vertex marker (INTERIOR / DIRICHLET / NEUMANN)
    """

    dimension: int
    n: int
    vertices: np.ndarray
    elements: np.ndarray
    h: float
    boundary_flags: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_elements(self) -> int:
        return len(self.elements)


def build_interval_mesh(n_elements: int) -> Mesh:
    """Uniform mesh of [0, 1] with n_elements intervals of size 1/n.

    The left endpoint is flagged Dirichlet and the right endpoint Neumann,
    matching the model problem u(0) = u'(1) = 0.
    """
    if n_elements < 1:
        raise ValidationError(f"n_elements must be >= 1, got {n_elements}")
    n = int(n_elements)
    vertices = (np.arange(n + 1, dtype=float) / n).reshape(-1, 1)
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    flags = np.full(n + 1, INTERIOR, dtype=np.int8)
    flags[0] = DIRICHLET
    flags[-1] = NEUMANN
    return Mesh(1, n, vertices, elements, 1.0 / n, flags)


def build_square_triangulation(n_per_side: int) -> Mesh:
    """Uniform triangulation of [0, 1]^2: n^2 cells, each split into two
    right triangles along the (0,0)-(1,1) cell diagonal. h = sqrt(2)/n.

    All four sides are flagged Dirichlet.
    """
    if n_per_side < 1:
        raise ValidationError(f"n_per_side must be >= 1, got {n_per_side}")
    n = int(n_per_side)
    xs = np.arange(n + 1, dtype=float) / n
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    # cell (i, j), row by row: lower-left vertex j(n+1) + i
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01 = v00 + 1, v00 + n + 1
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])  # eta <= xi
    upper = np.column_stack([v00, v11, v01])  # eta >= xi
    elements = np.stack([lower, upper], axis=1).reshape(-1, 3)

    ii = np.tile(np.arange(n + 1), n + 1)
    jj = np.repeat(np.arange(n + 1), n + 1)
    on_boundary = (ii == 0) | (ii == n) | (jj == 0) | (jj == n)
    flags = np.where(on_boundary, DIRICHLET, INTERIOR).astype(np.int8)
    return Mesh(2, n, vertices, elements, np.sqrt(2.0) / n, flags)


@dataclass(frozen=True)
class BasisSpec:
    """Nodal basis on a mesh: degree-k Lagrange in 1D, hats (k=1) in 2D.

    Nodes include the Dirichlet-constrained ones; dofs are the subset kept
    in the assembled system (all nodes when the Dirichlet nodes are left
    unconstrained). Each basis function is supported on O(1) elements.
    """

    k: int
    n_dofs: int
    nodes: np.ndarray          # (n_nodes, d) coordinates of all nodes
    element_nodes: np.ndarray  # (n_elements, nodes per element) node ids
    dof_nodes: np.ndarray      # dof index -> node id
    node_dofs: np.ndarray      # node id -> dof index, -1 if constrained

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def build_basis(mesh: Mesh, k: int, constrain_dirichlet: bool = True) -> BasisSpec:
    """Build the nodal basis of degree k (1..3 in 1D; k must be 1 in 2D)."""
    if mesh.dimension == 1:
        if k not in (1, 2, 3):
            raise UnsupportedConfigurationError(f"1D degree must be 1..3, got {k}")
        n = mesh.n
        n_nodes = n * k + 1
        coords = (np.arange(n_nodes, dtype=float) / (n * k)).reshape(-1, 1)
        element_nodes = np.arange(n)[:, None] * k + np.arange(k + 1)
        constrained_nodes = np.zeros(n_nodes, dtype=bool)
        if constrain_dirichlet:
            constrained_nodes[0] = mesh.boundary_flags[0] == DIRICHLET
    elif mesh.dimension == 2:
        if k != 1:
            raise UnsupportedConfigurationError("2D supports k = 1 only")
        coords = mesh.vertices
        element_nodes = mesh.elements
        constrained_nodes = (
            mesh.boundary_flags == DIRICHLET
            if constrain_dirichlet
            else np.zeros(mesh.n_vertices, dtype=bool)
        )
    else:
        raise UnsupportedConfigurationError(f"dimension {mesh.dimension}")

    dof_nodes = np.nonzero(~constrained_nodes)[0]
    node_dofs = np.full(len(coords), -1, dtype=int)
    node_dofs[dof_nodes] = np.arange(len(dof_nodes))
    return BasisSpec(
        k=k,
        n_dofs=len(dof_nodes),
        nodes=coords,
        element_nodes=element_nodes,
        dof_nodes=dof_nodes,
        node_dofs=node_dofs,
    )


# Barycentric coordinates on the two reference triangles of a cell, as
# functions of local cell coordinates (xi, eta) in [0,1]^2.
# lower (v00, v10, v11): 1-xi, xi-eta, eta ; upper (v00, v11, v01): 1-eta, xi, eta-xi
# Their gradients, times n, in the same order:
TRIANGLE_GRADS = (np.array([[-1, 0], [1, -1], [0, 1]]), np.array([[0, -1], [1, 0], [-1, 1]]))


def prolongation(coarse: Mesh, coarse_spec: BasisSpec, fine: Mesh, fine_spec: BasisSpec):
    """Sparse P_{c->f} holding the coarse basis values at the fine nodes:
    rows are fine dofs, columns coarse dofs, so P u_c is the coarse function
    in the fine basis. The fine mesh must refine the coarse one (same
    dimension and degree, n_f a multiple of n_c); the spaces are then
    nested and P u_c is exact. Built by index arithmetic on integers, so
    every value is a ratio of two integers rounded once. A constrained
    node's value is zero in both spaces, so its row or column is left out.
    """
    r, rem = divmod(fine.n, coarse.n)
    if fine.dimension != coarse.dimension or fine_spec.k != coarse_spec.k or rem:
        raise ValidationError("the fine mesh and basis do not refine the coarse ones")
    if fine.dimension == 1:
        k = fine_spec.k
        m = np.arange(fine.n * k + 1)  # fine node m sits at m / (n_f k)
        e = np.minimum(m // (r * k), coarse.n - 1)
        q = m - e * r * k  # k t = q / r, t the node's coordinate in coarse element e
        nodes = e[:, None] * k + np.arange(k + 1)
        # l_j(t) = prod_{l != j} (kt - l) / (j - l) = prod (q - l r) / ((j - l) r)
        num, den = np.ones((len(m), k + 1), dtype=np.int64), np.ones(k + 1, dtype=np.int64)
        for j in range(k + 1):
            for l in range(k + 1):
                if l != j:
                    num[:, j] *= q - l * r
                    den[j] *= (j - l) * r
        vals = num / den
    else:
        # coarse cell (ci, cj) holds fine vertex (I, J) at (a, b) / r in the
        # cell; its barycentric weights, times r
        nc = coarse.n
        I, J = np.tile(np.arange(fine.n + 1), fine.n + 1), np.repeat(np.arange(fine.n + 1), fine.n + 1)
        ci, cj = np.minimum(I // r, nc - 1), np.minimum(J // r, nc - 1)
        a, b = I - ci * r, J - cj * r
        nodes = (cj * (nc + 1) + ci)[:, None] + np.array([0, 1, nc + 1, nc + 2])  # v00, v10, v01, v11
        vals = np.column_stack([r - np.maximum(a, b), np.maximum(a - b, 0), np.maximum(b - a, 0), np.minimum(a, b)]) / r
    # dofs number the free nodes in node order, so each row's columns ascend
    cols = coarse_spec.node_dofs[nodes]
    keep = (vals != 0.0) & (cols >= 0) & (fine_spec.node_dofs >= 0)[:, None]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1)[fine_spec.dof_nodes])])
    return sp.csr_array((vals[keep], cols[keep], indptr), shape=(fine_spec.n_dofs, coarse_spec.n_dofs))
