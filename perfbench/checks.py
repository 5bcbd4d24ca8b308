"""Per-op output checks, computed outside the timed region.

The reference discretisation here is written independently of qfemlab:
vectorised element matrices, the same nodal bases (equispaced Lagrange
nodes in 1D, hats in 2D, cells split along the (0,0)-(1,1) diagonal) and
the same boundary conditions, solved with a sparse LU factorisation. The
discrete functional sum_i u_i <phi_i, r> does not depend on the assembly
code, so it is a reference for both ``solve`` and ``simulate``.
"""
from __future__ import annotations

import json
import math

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import polynomial as npoly
from scipy.sparse.linalg import eigsh, splu

from workloads import exact_functional_1d, l2_norm_1d

# per-op failure probability allowed to a correct sampler, split over the
# norm and overlap estimators by a union bound
SAMPLER_FAILURE_PROB = 1e-6
# band around the expected L2 rate k + 1 for the fitted convergence slope
SLOPE_BAND = 0.25
DENSE_EIG_MAX_DOFS = 500


def _lagrange_1d(k: int):
    ts = np.linspace(0.0, 1.0, k + 1)
    basis = []
    for j in range(k + 1):
        others = np.delete(ts, j)
        basis.append(npoly.polyfromroots(others) / np.prod(ts[j] - others))
    return basis


def _integrate01(c) -> float:
    return float(npoly.polyval(1.0, npoly.polyint(c)))


def _system_1d(n, k, diffusion, reaction, f, r):
    basis = _lagrange_1d(k)
    ders = [npoly.polyder(p) for p in basis]
    kref = np.array([[_integrate01(npoly.polymul(a, b)) for b in ders] for a in ders])
    mref = np.array([[_integrate01(npoly.polymul(a, b)) for b in basis] for a in basis])
    h = 1.0 / n
    local = diffusion * kref / h + reaction * mref * h
    nodes = np.arange(n)[:, None] * k + np.arange(k + 1)[None, :]  # (n, k+1)
    rows = np.repeat(nodes, k + 1, axis=1).ravel()
    cols = np.tile(nodes, (1, k + 1)).ravel()
    vals = np.tile(local.ravel(), n)
    n_nodes = n * k + 1
    full = sp.coo_array((vals, (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()

    xs, ws = np.polynomial.legendre.leggauss(8)
    xs, ws = 0.5 * (xs + 1.0), 0.5 * ws
    phi = np.array([npoly.polyval(xs, p) for p in basis])  # (k+1, q)
    xq = (np.arange(n)[:, None] + xs[None, :]) * h          # (n, q)

    def load(c):
        vec = np.zeros(n_nodes)
        np.add.at(vec, nodes, h * (npoly.polyval(xq, c) * ws) @ phi.T)
        return vec[1:]

    return full[1:, 1:], -load(f), load(r)


def _duffy01(p: int):
    g, w = np.polynomial.legendre.leggauss(p)
    g, w = 0.5 * (g + 1.0), 0.5 * w
    u, v = np.meshgrid(g, g, indexing="ij")
    wu, wv = np.meshgrid(w, w, indexing="ij")
    s, t = (u * (1.0 - v)).ravel(), (u * v).ravel()
    return s, t, (wu * wv * u).ravel()  # weights sum to 1/2


def _system_2d(n, diffusion, reaction, f, r):
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    v00 = (j * (n + 1) + i).ravel()  # vertex (i, j) has id j (n + 1) + i
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    tris = np.concatenate([lower, upper])
    xs = np.arange(n + 1) / n
    verts = np.column_stack([np.tile(xs, n + 1), np.repeat(xs, n + 1)])
    area = 0.5 / n**2
    mass = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    local = []
    for tri in (lower[0], upper[0]):
        p = verts[tri]
        grads = np.array([[p[(a + 1) % 3, 1] - p[(a + 2) % 3, 1], p[(a + 2) % 3, 0] - p[(a + 1) % 3, 0]] for a in range(3)])
        grads /= 2.0 * area
        local.append(diffusion * area * grads @ grads.T + reaction * mass)
    vals = np.concatenate([np.tile(local[0].ravel(), n * n), np.tile(local[1].ravel(), n * n)])
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    nv = (n + 1) ** 2
    full = sp.coo_array((vals, (rows, cols)), shape=(nv, nv)).tocsr()

    s, t, w = _duffy01(6)
    lam = np.column_stack([1.0 - s - t, s, t])  # (q, 3)
    p0, p1, p2 = (verts[tris[:, a]] for a in range(3))
    xq = p0[:, None, :] + s[None, :, None] * (p1 - p0)[:, None, :] + t[None, :, None] * (p2 - p0)[:, None, :]
    ii = np.arange(1, n)
    interior = (ii[None, :] + (n + 1) * ii[:, None]).ravel()

    def load(c):
        c = np.asarray(c, dtype=float)
        fq = npoly.polyval2d(xq[..., 0], xq[..., 1], c.reshape(len(c), -1))
        vec = np.zeros(nv)
        np.add.at(vec, tris, 2.0 * area * (fq * w) @ lam)
        return vec[interior]

    return full[interior][:, interior], -load(f), load(r)


class Reference:
    """Sparse-direct solution of the discrete system a spec induces at a
    given mesh size, with the norms the checks need."""

    def __init__(self, spec: dict, n: int):
        pde = spec.get("pde", {})
        diffusion, reaction = float(pde.get("diffusion", 1.0)), float(pde.get("reaction", 0.0))
        if spec["d"] == 1:
            A, b, rl = _system_1d(n, spec["k"], diffusion, reaction, spec["f"], spec["r"])
        else:
            A, b, rl = _system_2d(n, diffusion, reaction, spec["f"], spec["r"])
        self.A = A.tocsc()
        self.b, self.r_load = b, rl
        self.lu = splu(self.A)
        self.u = self.lu.solve(b)
        self.n_dofs = len(b)
        self.functional = float(rl @ self.u)

    def energy_norm_u(self) -> float:
        return math.sqrt(float(self.b @ self.u))

    def dual_norm_r(self) -> float:
        return math.sqrt(float(self.r_load @ self.lu.solve(self.r_load)))

    def lambda_min(self) -> float:
        if self.n_dofs <= DENSE_EIG_MAX_DOFS:
            return float(np.linalg.eigvalsh(self.A.toarray())[0])
        return float(eigsh(self.A, k=1, sigma=0.0, which="LM", return_eigenvectors=False)[0])


class Checker:
    """Checks artifacts; reference solves are cached per (spec, mesh)."""

    def __init__(self):
        self._refs: dict = {}

    def reference(self, spec: dict, n: int) -> Reference:
        key = (json.dumps(spec, sort_keys=True), n)
        if key not in self._refs:
            self._refs[key] = Reference(spec, n)
        return self._refs[key]

    def check(self, kind: str, spec: dict, art) -> str | None:
        """None when the artifact is correct, else the reason it is not."""
        return getattr(self, f"_check_{kind}")(spec, art)

    @staticmethod
    def _mesh_n(spec, art) -> int:
        ne = int(art["n_elements"])
        return ne if spec["d"] == 1 else int(round(math.sqrt(ne / 2)))

    def _check_solve(self, spec, art):
        cg = art["cg"]
        tol = spec["eps"] / 2.0
        if not cg["converged"] or not cg["final_energy_error_estimate"] <= tol:
            return f"CG certificate {cg['final_energy_error_estimate']} above tol {tol}"
        F = art["functional"]
        if spec["d"] == 1:
            exact = exact_functional_1d(spec["f"], spec["r"], spec["pde"]["diffusion"])
            bound = spec["eps"] * l2_norm_1d(spec["r"])
            if not abs(F - exact) <= bound:
                return f"functional {F} vs exact {exact}: error above eps*||r|| = {bound}"
            return None
        ref = self.reference(spec, self._mesh_n(spec, art))
        if art["n_dofs"] != ref.n_dofs:
            return f"n_dofs {art['n_dofs']} != reference {ref.n_dofs}"
        # |r.(x - x*)| <= ||r||_{M^-1} ||x - x*||_M <= ||r||_{M^-1} tol ||x*||_M
        bound = tol * ref.energy_norm_u() * ref.dual_norm_r() + 1e-12 * abs(ref.functional)
        if not abs(F - ref.functional) <= bound:
            return f"functional {F} vs sparse direct {ref.functional}: error above {bound}"
        return None

    def _check_convergence(self, spec, art):
        slope = art["fitted_slope"]
        target = spec["k"] + 1
        if len(art["levels"]) != 3 or not abs(slope - target) <= SLOPE_BAND:
            return f"fitted slope {slope} outside {target} +- {SLOPE_BAND}"
        return None

    def _check_simulate(self, spec, art):
        ref = self.reference(spec, self._mesh_n(spec, art))
        exact = art["exact_value_discrete"]
        if not abs(exact - ref.functional) <= 1e-9 * abs(ref.functional):
            return f"exact_value_discrete {exact} vs sparse direct {ref.functional}"
        # value = alpha N~ R~ against alpha U R: |.| <= alpha U (dN + dR + bias)
        alpha = float(np.linalg.norm(ref.r_load))
        U = float(np.linalg.norm(ref.u))
        x = ref.lu.solve(ref.b / np.linalg.norm(ref.b))
        p = min((ref.lambda_min() * float(np.linalg.norm(x))) ** 2, 1.0)
        budget = art["budget"]
        eps_rel = budget["eps_n"] / U
        shots_n = max(8, math.ceil(2.0 * (1.0 - p) / (p * eps_rel**2)))
        shots_o = 2 * math.ceil(1.0 / budget["eps_out"] ** 2)
        log_term = math.log(4.0 / SAMPLER_FAILURE_PROB)
        # multiplicative Chernoff on the binomial acceptance count, then
        # |sqrt(a) - 1| <= |a - 1|; Hoeffding on the mean of +-1 outcomes
        d_norm = math.sqrt(3.0 * log_term / (shots_n * p))
        if d_norm >= 1.0:
            d_norm = max(1.0, 1.0 / math.sqrt(p) - 1.0)
        d_overlap = math.sqrt(2.0 * log_term / shots_o)
        bias = min(budget["eps_l"], 0.9) ** 2 / 2.0  # 1 - cos(theta) of the QLE perturbation
        bound = alpha * U * (d_norm + d_overlap + bias)
        if not abs(art["value"] - exact) <= bound:
            return f"value {art['value']} vs {exact}: error above the 1e-6 sampling bound {bound}"
        return None

    def _check_lowerbound(self, spec, art):
        bad = [row for row in art if row["violations"]]
        return f"{len(bad)} rows violate the distinguishability bound" if bad else None
