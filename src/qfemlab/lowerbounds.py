"""Distinguishability and oracle-search hardness demonstrations.

The hybrid experiment evolves a register through T black-box state
preparations interleaved with arbitrary orthogonal maps, once for each of
two nearby target states, and compares the exact optimal distinguishing
probability with the bound 1/2 + T * eps / sqrt(2). The bump construction
encodes unstructured search into evaluating the integral of a solution's
square over half the domain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .quantum import Statevector


# ---------------------------------------------------------------------------
# hybrid-argument distinguishability

def orthonormal_completions(psi: np.ndarray, phi: np.ndarray):
    """The unit vectors phi' and psi' inside span{psi, phi} with phi' _|_ psi
    and psi' _|_ phi: phi' ~ phi - <psi|phi> psi and psi' ~ <psi|phi> phi -
    psi, each normalised by its own norm. The sign of psi' makes the map
    (psi, phi') -> (phi, psi') a rotation of the plane by the angle between
    psi and phi."""
    ov = float(psi @ phi)
    phi_p = phi - ov * psi
    psi_p = ov * phi - psi
    n_phi, n_psi = np.linalg.norm(phi_p), np.linalg.norm(psi_p)
    if min(n_phi, n_psi) <= 1e-13:
        raise ValidationError("states are (anti)parallel; completion undefined")
    return phi_p / n_phi, psi_p / n_psi


def completion_operators(psi: np.ndarray, phi: np.ndarray):
    """Orthogonal A_psi = (psi, phi', shared) and A_phi = (phi, psi',
    shared), so A_psi e_0 = psi, A_phi e_0 = phi and A_phi A_psi^T is the
    rotation taking psi to phi; hence ||A_psi - A_phi||_2 = ||psi - phi||.
    The shared columns complete span{psi, phi} to an orthonormal basis."""
    dim = len(psi)
    phi_p, psi_p = orthonormal_completions(psi, phi)
    q, _ = np.linalg.qr(np.column_stack([psi, phi_p, np.eye(dim)]))
    shared = q[:, 2:]
    a_psi = np.column_stack([psi, phi_p, shared])
    a_phi = np.column_stack([phi, psi_p, shared])
    for name, op in (("A_psi", a_psi), ("A_phi", a_phi)):
        if np.abs(op @ op.T - np.eye(dim)).max() > 1e-12:
            raise ValidationError(f"{name} completion is not orthogonal to 1e-12")
    return a_psi, a_phi


@dataclass
class BlackBoxPair:
    """Two black-box preparations T-fold interleaved with random orthogonal
    maps; eps_sep is computed from the states, never assumed."""

    psi: Statevector
    phi: Statevector
    T: int
    unitaries: list = field(repr=False, default_factory=list)
    eps_sep: float = 0.0

    def __post_init__(self):
        if self.psi.dim != self.phi.dim:
            raise ValidationError("state dimensions differ")
        self.eps_sep = float(np.linalg.norm(self.psi.amplitudes - self.phi.amplitudes))
        for u in self.unitaries:
            if np.abs(u @ u.T - np.eye(len(u))).max() > 1e-12:
                raise ValidationError("interleaving map is not orthogonal to 1e-12")


def _random_orthogonal(dim: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def make_blackbox_pair(dim: int, eps_sep: float, T: int, rng_seed: int) -> BlackBoxPair:
    """Random pair at exact chord distance eps_sep with T+1 seeded
    orthogonal interleaving maps."""
    if dim < 2 or dim & (dim - 1):
        raise ValidationError("dim must be a power of two >= 2")
    if not 0.0 <= eps_sep < 2.0:
        raise ValidationError("eps_sep must be in [0, 2)")
    rng = np.random.default_rng(rng_seed)
    a = rng.standard_normal(dim)
    a /= np.linalg.norm(a)
    w = rng.standard_normal(dim)
    w -= (w @ a) * a
    w /= np.linalg.norm(w)
    theta = 2.0 * math.asin(eps_sep / 2.0)
    b = math.cos(theta) * a + math.sin(theta) * w
    us = [_random_orthogonal(dim, rng) for _ in range(T + 1)]
    return BlackBoxPair(Statevector(a), Statevector(b / np.linalg.norm(b)), T, us)


@dataclass
class HybridResult:
    exact_probability: float
    empirical_probability: float
    bound: float
    eps_sep: float
    T: int


def hybrid_experiment(pair: BlackBoxPair, trials: int, rng_seed: int) -> HybridResult:
    """Run the two interleaved evolutions and compare distinguishability
    against 1/2 + T * eps_sep / sqrt(2).

    The exact optimal probability comes from the trace distance of the two
    final pure states; the empirical one applies the corresponding optimal
    two-outcome measurement over ``trials`` samples with a uniform prior,
    and is NaN when ``trials`` is 0.
    """
    dim = pair.psi.dim
    if dim > 2**10:
        raise ValidationError("dimension above the simulable cap 2^10")
    if len(pair.unitaries) != pair.T + 1:
        raise ValidationError(f"need T+1 = {pair.T + 1} interleaving maps")
    psi = pair.psi.amplitudes
    phi = pair.phi.amplitudes
    bound = 0.5 + pair.T * pair.eps_sep / math.sqrt(2.0)

    if pair.eps_sep < 1e-13:
        return HybridResult(0.5, 0.5, bound, pair.eps_sep, pair.T)

    a_psi, a_phi = completion_operators(psi, phi)

    def evolve(a_op):
        state = np.zeros(dim)
        state[0] = 1.0
        for t in range(pair.T):
            state = a_op @ (pair.unitaries[t] @ state)
        return pair.unitaries[pair.T] @ state

    eta_psi = evolve(a_psi)
    eta_phi = evolve(a_phi)
    ov = float(np.clip(eta_psi @ eta_phi, -1.0, 1.0))
    exact_p = 0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - ov * ov))

    if trials == 0:
        return HybridResult(exact_p, math.nan, bound, pair.eps_sep, pair.T)

    # optimal (Helstrom) two-outcome measurement inside span{eta_psi, eta_phi}
    rng = np.random.default_rng(rng_seed)
    nc = np.linalg.norm(eta_phi - ov * eta_psi)
    if nc < 1e-14:
        emp = 0.5
    else:
        rho_diff = np.array([[1.0 - ov * ov, -ov * nc], [-ov * nc, -(nc * nc)]])
        evals, evecs = np.linalg.eigh(rho_diff)
        plus = evecs[:, evals > 0]
        proj = plus @ plus.T
        p_psi = float(np.array([1.0, 0.0]) @ proj @ np.array([1.0, 0.0]))
        p_phi = float(np.array([ov, nc]) @ proj @ np.array([ov, nc]))
        pick_psi = rng.random(trials) < 0.5
        accept = rng.random(trials)
        correct = np.where(pick_psi, accept < p_psi, accept >= p_phi)
        emp = float(np.mean(correct))
    return HybridResult(exact_p, emp, bound, pair.eps_sep, pair.T)


# ---------------------------------------------------------------------------
# bump-function oracle search

def _bump(y):
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - y[inside] ** 2))
    return out


def bump_f0(n: int, x) -> float:
    """sqrt(N) * B(2 N x - 1): a smooth bump supported on [0, 1/N] whose L2
    norm is independent of N."""
    if n < 1:
        raise ValidationError("N must be >= 1")
    xv = np.asarray(x, dtype=float)
    if np.any(xv < 0.0) or np.any(xv > 1.0):
        raise ValidationError("x must lie in [0, 1]")
    val = math.sqrt(n) * _bump(2.0 * n * xv - 1.0)
    return float(val) if np.isscalar(x) or xv.ndim == 0 else val


@lru_cache(maxsize=None)
def _bump_sq_mass() -> float:
    """int_{-1}^{1} B(y)^2 dy; one cell holds half of it. Imports
    scipy.integrate on first use, so ``import qfemlab`` does not."""
    from scipy.integrate import quad

    val, _ = quad(lambda y: _bump(y) ** 2, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    return val


@dataclass
class BumpOracle:
    """Membership oracle with a single marked index; every evaluation of the
    encoded function costs one query."""

    n: int
    y0: int
    queries: int = 0

    def __post_init__(self):
        if not 0 <= self.y0 < self.n:
            raise ValidationError(f"y0 must be in [0, {self.n})")

    def query(self, y: int) -> int:
        self.queries += 1
        return 1 if y == self.y0 else 0

    def f(self, x: float) -> float:
        """The encoded input function: a bump translated to the marked cell."""
        y = min(int(self.n * x), self.n - 1)
        if self.query(y) == 1:
            return bump_f0(self.n, x - y / self.n)
        return 0.0


@dataclass
class SearchResult:
    answer: bool
    queries: int
    integral: float


def oracle_search_demo(oracle: BumpOracle) -> SearchResult:
    """Decide whether the marked index lies in the lower half by evaluating
    int_0^{1/2} u(x)^2 dx with an 8-point Gauss rule on each cell, scanned
    in order; every quadrature point costs one oracle query. Classical query
    cost is linear in N."""
    if oracle.n < 2:
        raise ValidationError("N must be >= 2")
    n = oracle.n
    xs, ws = np.polynomial.legendre.leggauss(8)
    xs = (xs + 1.0) / 2.0
    ws = ws / 2.0
    width = 1.0 / n
    half_cell_mass = 0.5 * _bump_sq_mass() / 2.0
    integral = 0.0
    start_queries = oracle.queries
    for cell in range(n // 2):
        vals = np.array([oracle.f(cell * width + t * width) for t in xs])
        cell_mass = width * float(ws @ vals**2)
        integral += cell_mass
    answer = integral > half_cell_mass
    return SearchResult(answer, oracle.queries - start_queries, integral)
