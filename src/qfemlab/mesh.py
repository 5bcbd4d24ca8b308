"""Uniform interval meshes and unit-square triangulations with nodal bases.

Only uniform subdivisions of [0, 1] and [0, 1]^2 are supported: the
eigenvalue scaling studies and the closed-form sparse row access both rely
on regular spacing. Vertex coordinates are computed as i/n (never
accumulated), so refining a mesh halves h exactly in floating point.

Boundary conditions are fixed: in 1D the left endpoint is Dirichlet and the
right endpoint Neumann (u(0) = u'(1) = 0); in 2D all four sides of the unit
square are homogeneous Dirichlet.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

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

    def to_json(self) -> str:
        """The uniform mesh is fixed by its dimension and subdivision n."""
        return json.dumps({"dimension": self.dimension, "n": self.n}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Mesh":
        payload = json.loads(text)
        if payload["dimension"] == 1:
            return build_interval_mesh(payload["n"])
        return build_square_triangulation(payload["n"])


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
    in the assembled system (all nodes when ``constrained`` is False). Each
    basis function is supported on O(1) elements.
    """

    k: int
    n_dofs: int
    nodes: np.ndarray          # (n_nodes, d) coordinates of all nodes
    element_nodes: np.ndarray  # (n_elements, nodes per element) node ids
    dof_nodes: np.ndarray      # dof index -> node id
    node_dofs: np.ndarray      # node id -> dof index, -1 if constrained
    constrained: bool

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node_support(self, node: int) -> tuple[int, ...]:
        rows = np.nonzero((self.element_nodes == node).any(axis=1))[0]
        return tuple(int(e) for e in rows)

    def support_map(self, i: int) -> tuple[int, ...]:
        """Element indices where basis function i is nonzero."""
        if not 0 <= i < self.n_dofs:
            raise ValidationError(f"dof index {i} out of range [0, {self.n_dofs})")
        return self.node_support(int(self.dof_nodes[i]))


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
        constrained=constrain_dirichlet,
    )


def _check_point(mesh: Mesh, x) -> np.ndarray:
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.shape != (mesh.dimension,):
        raise ValidationError(f"point shape {pt.shape} does not match dimension {mesh.dimension}")
    if np.any(pt < 0.0) or np.any(pt > 1.0):
        raise ValidationError(f"point {pt} outside the unit domain")
    return pt


def _locate(mesh: Mesh, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Element holding each of the (m, d) points, and the points' (m, d)
    coordinates in their cell, scaled to [0, 1]^d.

    Cell (i, j) of the square holds elements 2(jn + i) (lower, eta <= xi)
    and 2(jn + i) + 1 (upper).
    """
    n = mesh.n
    cell = np.minimum((pts * n).astype(int), n - 1)
    local = pts * n - cell
    if mesh.dimension == 1:
        return cell[:, 0], local
    upper = local[:, 1] > local[:, 0]
    return 2 * (cell[:, 1] * n + cell[:, 0]) + upper, local


def _lagrange_value(ts: np.ndarray, j: int, x: float) -> float:
    v = 1.0
    for m in range(len(ts)):
        if m != j:
            v *= (x - ts[m]) / (ts[j] - ts[m])
    return v


def _lagrange_deriv(ts: np.ndarray, j: int, x: float) -> float:
    total = 0.0
    for m in range(len(ts)):
        if m == j:
            continue
        term = 1.0 / (ts[j] - ts[m])
        for l in range(len(ts)):
            if l != j and l != m:
                term *= (x - ts[l]) / (ts[j] - ts[l])
        total += term
    return total


# Barycentric coordinates on the two reference triangles of a cell, as
# functions of local cell coordinates (xi, eta) in [0,1]^2.
# lower (v00, v10, v11): 1-xi, xi-eta, eta ; upper (v00, v11, v01): 1-eta, xi, eta-xi


def _node_at(mesh: Mesh, spec: BasisSpec, node: int, pt: np.ndarray):
    """(element holding pt, local index of node there or None, cell-local
    coordinates of pt)."""
    e, local = _locate(mesh, pt[None])
    e = int(e[0])
    hits = np.nonzero(spec.element_nodes[e] == node)[0]
    return e, (int(hits[0]) if len(hits) else None), local[0]


def _eval_nodal(mesh: Mesh, spec: BasisSpec, node: int, pt: np.ndarray) -> float:
    e, a, local = _node_at(mesh, spec, node, pt)
    if a is None:
        return 0.0
    if mesh.dimension == 1:
        return _lagrange_value(spec.nodes[spec.element_nodes[e], 0], a, float(pt[0]))
    xi, eta = local
    vals = (1.0 - xi, xi - eta, eta) if e % 2 == 0 else (1.0 - eta, xi, eta - xi)
    return float(vals[a])


def _eval_nodal_grad(mesh: Mesh, spec: BasisSpec, node: int, pt: np.ndarray) -> np.ndarray:
    e, a, _ = _node_at(mesh, spec, node, pt)
    if a is None:
        return np.zeros(mesh.dimension)
    if mesh.dimension == 1:
        return np.array([_lagrange_deriv(spec.nodes[spec.element_nodes[e], 0], a, float(pt[0]))])
    n = mesh.n
    if e % 2 == 0:
        grads = ((-n, 0.0), (n, -n), (0.0, n))
    else:
        grads = ((0.0, -n), (n, 0.0), (-n, n))
    return np.asarray(grads[a], dtype=float)


def eval_basis(mesh: Mesh, spec: BasisSpec, i: int, x) -> float:
    """Value of basis function i at point x; zero outside its support."""
    pt = _check_point(mesh, x)
    if not 0 <= i < spec.n_dofs:
        raise ValidationError(f"dof index {i} out of range [0, {spec.n_dofs})")
    return _eval_nodal(mesh, spec, int(spec.dof_nodes[i]), pt)


def eval_basis_grad(mesh: Mesh, spec: BasisSpec, i: int, x) -> np.ndarray:
    """Gradient of basis function i at point x (length-d array)."""
    pt = _check_point(mesh, x)
    if not 0 <= i < spec.n_dofs:
        raise ValidationError(f"dof index {i} out of range [0, {spec.n_dofs})")
    return _eval_nodal_grad(mesh, spec, int(spec.dof_nodes[i]), pt)


def neighbors(mesh: Mesh, element: int) -> list[int]:
    """Elements sharing at least one vertex with the given one, sorted."""
    if not 0 <= element < mesh.n_elements:
        raise ValidationError(f"element {element} out of range [0, {mesh.n_elements})")
    shared = np.isin(mesh.elements, mesh.elements[element]).any(axis=1)
    shared[element] = False
    return np.flatnonzero(shared).tolist()


def evaluate_discrete(mesh: Mesh, spec: BasisSpec, coeffs, points) -> np.ndarray:
    """Evaluate sum_i coeffs_i phi_i at many points (vectorized).

    ``coeffs`` has one entry per dof; constrained nodes contribute zero.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (spec.n_dofs,):
        raise ValidationError(f"expected {spec.n_dofs} coefficients, got {coeffs.shape}")
    nodal = np.zeros(spec.n_nodes)
    nodal[spec.dof_nodes] = coeffs

    pts = np.asarray(points, dtype=float).reshape(-1, mesh.dimension)
    e, local = _locate(mesh, pts)
    locals_ = spec.element_nodes[e]                          # (m, nodes per element)
    if mesh.dimension == 1:
        xs = pts[:, 0]
        ts = spec.nodes[locals_, 0]                          # (m, k+1)
        vals = np.zeros(len(xs))
        kk = spec.k + 1
        for j in range(kk):
            lj = np.ones(len(xs))
            for m in range(kk):
                if m != j:
                    lj *= (xs - ts[:, m]) / (ts[:, j] - ts[:, m])
            vals += nodal[locals_[:, j]] * lj
        return vals

    xi, eta = local[:, 0], local[:, 1]
    lam = np.where(
        (e % 2 == 0)[:, None],
        np.column_stack([1.0 - xi, xi - eta, eta]),
        np.column_stack([1.0 - eta, xi, eta - xi]),
    )
    return np.sum(nodal[locals_] * lam, axis=1)
