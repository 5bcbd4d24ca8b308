"""Uniform interval meshes and unit-square triangulations with nodal bases.

Only uniform subdivisions of [0, 1] and [0, 1]^2 are supported: the
eigenvalue scaling studies, the 2D stencil assembly and the prolongation
all rely on regular spacing. A mesh is its dimension and its number of
subdivisions per side n: h and the element count are closed forms, and the
vertex coordinates and element connectivity are computed on first use,
which no 2D report makes. Vertex coordinates are computed as i/n (never
accumulated), so refining a mesh halves h exactly in floating point.

Boundary conditions are fixed: in 1D the left endpoint is Dirichlet and the
right endpoint Neumann (u(0) = u'(1) = 0); in 2D all four sides of the unit
square are homogeneous Dirichlet. ``build_basis`` takes the constrained
nodes from n.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnsupportedConfigurationError, ValidationError


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh of [0,1] (n intervals) or [0,1]^2 (n^2 cells, each split
    into two right triangles along its (0,0)-(1,1) diagonal).

    ``vertices``, the (n+1)^dimension x dimension coordinates with vertex
    (i, j) of the square at j(n+1) + i, and ``elements``, the n_elements x
    (dimension + 1) vertex indices, are computed on first use.
    """

    dimension: int
    n: int

    @property
    def h(self) -> float:
        """The greatest edge length over all elements."""
        return 1.0 / self.n if self.dimension == 1 else np.sqrt(2.0) / self.n

    @property
    def n_elements(self) -> int:
        return self.n if self.dimension == 1 else 2 * self.n**2

    @cached_property
    def vertices(self) -> np.ndarray:
        xs = np.arange(self.n + 1, dtype=float) / self.n
        if self.dimension == 1:
            return xs.reshape(-1, 1)
        gx, gy = np.meshgrid(xs, xs, indexing="xy")
        return np.column_stack([gx.ravel(), gy.ravel()])

    @cached_property
    def elements(self) -> np.ndarray:
        n = self.n
        if self.dimension == 1:
            return np.column_stack([np.arange(n), np.arange(1, n + 1)])
        # cell (i, j), row by row: lower-left vertex j(n+1) + i
        v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
        v10, v01 = v00 + 1, v00 + n + 1
        v11 = v01 + 1
        lower = np.column_stack([v00, v10, v11])  # eta <= xi
        upper = np.column_stack([v00, v11, v01])  # eta >= xi
        return np.stack([lower, upper], axis=1).reshape(-1, 3)


def build_interval_mesh(n_elements: int) -> Mesh:
    """Uniform mesh of [0, 1] with n_elements intervals of size 1/n."""
    if n_elements < 1:
        raise ValidationError(f"n_elements must be >= 1, got {n_elements}")
    return Mesh(1, int(n_elements))


def build_square_triangulation(n_per_side: int) -> Mesh:
    """Uniform triangulation of [0, 1]^2: n^2 cells, each split into two
    right triangles along the (0,0)-(1,1) cell diagonal. h = sqrt(2)/n."""
    if n_per_side < 1:
        raise ValidationError(f"n_per_side must be >= 1, got {n_per_side}")
    return Mesh(2, int(n_per_side))


@dataclass(frozen=True)
class BasisSpec:
    """Nodal basis on a mesh: degree-k Lagrange in 1D, hats (k=1) in 2D.

    Nodes include the Dirichlet-constrained ones; dofs are the subset kept
    in the assembled system (all nodes when the Dirichlet nodes are left
    unconstrained). Each basis function is supported on O(1) elements.
    ``nodes`` ((n_nodes, d) coordinates) and ``element_nodes`` ((n_elements,
    nodes per element) node ids) are computed on first use.
    """

    mesh: Mesh
    k: int
    dof_nodes: np.ndarray  # dof index -> node id
    node_dofs: np.ndarray  # node id -> dof index, -1 if constrained

    @property
    def n_dofs(self) -> int:
        return len(self.dof_nodes)

    @property
    def n_nodes(self) -> int:
        return len(self.node_dofs)

    @cached_property
    def nodes(self) -> np.ndarray:
        if self.mesh.dimension == 2:
            return self.mesh.vertices
        return (np.arange(self.n_nodes, dtype=float) / (self.mesh.n * self.k)).reshape(-1, 1)

    @cached_property
    def element_nodes(self) -> np.ndarray:
        if self.mesh.dimension == 2:
            return self.mesh.elements
        return np.arange(self.mesh.n)[:, None] * self.k + np.arange(self.k + 1)


def build_basis(mesh: Mesh, k: int, constrain_dirichlet: bool = True) -> BasisSpec:
    """Build the nodal basis of degree k (1..3 in 1D; k must be 1 in 2D).
    The Dirichlet nodes are node 0 in 1D and the boundary of the (n+1)^2
    vertex grid in 2D."""
    n = mesh.n
    if mesh.dimension == 1:
        if k not in (1, 2, 3):
            raise UnsupportedConfigurationError(f"1D degree must be 1..3, got {k}")
        free = np.ones(n * k + 1, dtype=bool)
        free[0] = not constrain_dirichlet
    elif mesh.dimension == 2:
        if k != 1:
            raise UnsupportedConfigurationError("2D supports k = 1 only")
        inside = np.ones(n + 1, dtype=bool)
        inside[[0, n]] = not constrain_dirichlet
        free = (inside[:, None] & inside).ravel()  # vertex (i, j) at j(n+1) + i
    else:
        raise UnsupportedConfigurationError(f"dimension {mesh.dimension}")
    dof_nodes = np.flatnonzero(free)
    node_dofs = np.full(len(free), -1)
    node_dofs[dof_nodes] = np.arange(len(dof_nodes))
    return BasisSpec(mesh, k, dof_nodes, node_dofs)


# Barycentric coordinates on the two reference triangles of a cell, as
# functions of local cell coordinates (xi, eta) in [0,1]^2.
# lower (v00, v10, v11): 1-xi, xi-eta, eta ; upper (v00, v11, v01): 1-eta, xi, eta-xi
# Their gradients, times n, in the same order:
TRIANGLE_GRADS = (np.array([[-1, 0], [1, -1], [0, 1]]), np.array([[0, -1], [1, 0], [-1, 1]]))


def prolongation(coarse_spec: BasisSpec, fine_spec: BasisSpec, u_c: np.ndarray) -> np.ndarray:
    """P u_c: the coarse function with dof values ``u_c`` in the fine basis,
    one value per fine dof. The fine mesh must refine the coarse one (same
    dimension and degree, n_f a multiple of n_c); the spaces are then nested
    and P u_c is exact. The weights come from index arithmetic on integers,
    so each is a ratio of two integers rounded once; a fine node's value is
    its weighted coarse nodal values added in ascending coarse node order,
    constrained coarse nodes reading zero.
    """
    coarse, fine = coarse_spec.mesh, fine_spec.mesh
    r, rem = divmod(fine.n, coarse.n)
    if fine.dimension != coarse.dimension or fine_spec.k != coarse_spec.k or rem:
        raise ValidationError("the fine mesh and basis do not refine the coarse ones")
    nodal = np.zeros(coarse_spec.n_nodes)
    nodal[coarse_spec.dof_nodes] = u_c
    if fine.dimension == 1:
        k = fine_spec.k
        m = np.arange(fine.n * k + 1)  # fine node m sits at m / (n_f k)
        e = np.minimum(m // (r * k), coarse.n - 1)
        q = m - e * r * k  # k t = q / r, t the node's coordinate in coarse element e
        # l_j(t) = prod_{l != j} (kt - l) / (j - l) = prod (q - l r) / ((j - l) r)
        out = np.zeros(len(m))
        for j in range(k + 1):
            num, den = np.ones(len(m), dtype=np.int64), 1
            for l in range(k + 1):
                if l != j:
                    num *= q - l * r
                    den *= (j - l) * r
            out += num / den * nodal[e * k + j]
    else:
        # coarse cell (ci, cj) holds fine vertex (I, J) at (a, b) / r in the
        # cell; its barycentric weights, times r, for v00, v10, v01, v11
        nc = coarse.n
        c = np.minimum(np.arange(fine.n + 1) // r, nc - 1)  # the coarse cell of each fine grid line
        a = np.arange(fine.n + 1) - c * r
        b = a[:, None]
        grid = nodal.reshape(nc + 1, nc + 1)  # [cj, ci]
        columns = grid.take(c, axis=1), grid.take(c + 1, axis=1)
        out = np.zeros((fine.n + 1, fine.n + 1))  # [J, I]
        weights = (r - np.maximum(a, b), np.maximum(a - b, 0), np.maximum(b - a, 0), np.minimum(a, b))
        for w, (dj, di) in zip(weights, ((0, 0), (0, 1), (1, 0), (1, 1))):
            out += w / r * columns[di].take(c + dj, axis=0)
        out = out.ravel()
    return out[fine_spec.dof_nodes]
