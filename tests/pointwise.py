"""Pointwise reference for the nodal bases, one point at a time.

The package evaluates its bases only through tables: the reference values
at the Gauss points (the loads and the 1D L2 error) and the prolongation.
These loops are the independent oracle that the tables and the assembled
matrices are checked against: 1D Lagrange values and derivatives from the
product formula on the element's nodes, 2D barycentric values and
gradients on the cell's two right triangles.
"""
import numpy as np


def local_basis(mesh, spec, pt):
    """The element holding ``pt``, and the values (m,) and gradients (m, d)
    at ``pt`` of that element's m nodal basis functions, in local order.

    Cell (i, j) of the square holds elements 2(jn + i) (lower, eta <= xi)
    and 2(jn + i) + 1 (upper).
    """
    n = mesh.n
    cell = [min(int(c * n), n - 1) for c in pt]
    if mesh.dimension == 1:
        e, x = cell[0], float(pt[0])
        ts = spec.nodes[spec.element_nodes[e], 0].tolist()
        vals, grads = np.ones(len(ts)), np.zeros((len(ts), 1))
        for j, tj in enumerate(ts):
            for m, tm in enumerate(ts):
                if m != j:
                    vals[j] *= (x - tm) / (tj - tm)
                    term = 1.0 / (tj - tm)
                    for l, tl in enumerate(ts):
                        if l != j and l != m:
                            term *= (x - tl) / (tj - tl)
                    grads[j, 0] += term
        return e, vals, grads
    xi, eta = pt[0] * n - cell[0], pt[1] * n - cell[1]
    upper = eta > xi
    e = 2 * (cell[1] * n + cell[0]) + upper
    if upper:  # nodes v00, v11, v01
        return e, np.array([1.0 - eta, xi, eta - xi]), n * np.array([[0.0, -1.0], [1.0, 0.0], [-1.0, 1.0]])
    return e, np.array([1.0 - xi, xi - eta, eta]), n * np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])  # v00, v10, v11


def basis(mesh, spec, i, pts):
    """Values (m,) and gradients (m, d) of basis function i (a dof index) at
    each of the points (m, d), or (m,) in 1D; zero outside its support."""
    vals, grads = np.zeros(len(pts)), np.zeros((len(pts), mesh.dimension))
    for m, pt in enumerate(pts):
        e, v, g = local_basis(mesh, spec, np.atleast_1d(pt))
        hits = np.nonzero(spec.element_nodes[e] == spec.dof_nodes[i])[0]
        if len(hits):
            vals[m], grads[m] = v[hits[0]], g[hits[0]]
    return vals, grads


def evaluate(mesh, spec, coeffs, pts):
    """sum_i coeffs_i phi_i at each of the points (m, d), or (m,) in 1D;
    constrained nodes contribute zero."""
    nodal = np.zeros(spec.n_nodes)
    nodal[spec.dof_nodes] = coeffs
    out = np.empty(len(pts))
    for m, pt in enumerate(pts):
        e, vals, _ = local_basis(mesh, spec, np.atleast_1d(pt))
        out[m] = nodal[spec.element_nodes[e]] @ vals
    return out
