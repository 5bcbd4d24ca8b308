"""Distinguishability and oracle-search hardness demonstrations.

The hybrid experiment evolves a register through T black-box state
preparations interleaved with orthogonal maps, once for each of two nearby
target states, and computes the exact optimal distinguishing probability,
which the hybrid argument bounds by 1/2 + T * eps / sqrt(2). Random maps
stay well below the bound; the aligned interleaving, which undoes each
preparation before the next, comes within a constant factor of it. The
bump construction encodes unstructured search into evaluating the integral
of a solution's square over half the domain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ValidationError


# ---------------------------------------------------------------------------
# hybrid-argument distinguishability

def orthonormal_completions(psi: np.ndarray, phi: np.ndarray):
    """The unit vectors phi' _|_ psi and psi' _|_ phi in span{psi, phi}.
    phi' ~ phi - <psi|phi> psi is orthogonalised twice, since one pass
    leaves an error of 1e-16 / ||psi - phi||. With phi = cos(t) psi +
    sin(t) phi', psi' = cos(t) phi' - sin(t) psi, so (psi, phi') -> (phi,
    psi') rotates the plane by the angle t between psi and phi."""
    cos_t = float(psi @ phi)
    phi_p = phi - cos_t * psi
    n_phi = np.linalg.norm(phi_p)
    if n_phi <= 1e-13:
        raise ValidationError("states are (anti)parallel; completion undefined")
    phi_p /= n_phi
    phi_p -= float(psi @ phi_p) * psi
    phi_p /= np.linalg.norm(phi_p)
    return phi_p, cos_t * phi_p - float(phi_p @ phi) * psi


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

    psi: np.ndarray
    phi: np.ndarray
    T: int
    unitaries: list = field(repr=False, default_factory=list)
    eps_sep: float = field(init=False)

    def __post_init__(self):
        if len(self.psi) != len(self.phi):
            raise ValidationError("state dimensions differ")
        self.eps_sep = float(np.linalg.norm(self.psi - self.phi))
        for u in self.unitaries:
            if np.abs(u @ u.T - np.eye(len(u))).max() > 1e-12:
                raise ValidationError("interleaving map is not orthogonal to 1e-12")


def _random_orthogonal(dim: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def check_pair_args(dim: int, eps_sep: float) -> None:
    """Refuse a pair that ``make_blackbox_pair`` cannot build: dim must be a
    power of two in [2, 2^10] and eps_sep in [0, 2)."""
    if dim < 2 or dim & (dim - 1):
        raise ValidationError("dim must be a power of two >= 2")
    if dim > 2**10:
        raise ValidationError("dimension above the simulable cap 2^10")
    if not 0.0 <= eps_sep < 2.0:
        raise ValidationError("eps_sep must be in [0, 2)")


def make_blackbox_pair(dim: int, eps_sep: float, T: int, rng_seed: int) -> BlackBoxPair:
    """Random pair at exact chord distance eps_sep with T+1 seeded
    orthogonal interleaving maps. The 2^10 dimension cap is checked before
    anything is built, since T+1 dense dim x dim maps above it can exhaust
    memory."""
    check_pair_args(dim, eps_sep)
    rng = np.random.default_rng(rng_seed)
    a = rng.standard_normal(dim)
    a /= np.linalg.norm(a)
    w = rng.standard_normal(dim)
    w -= (w @ a) * a
    w /= np.linalg.norm(w)
    theta = 2.0 * math.asin(eps_sep / 2.0)
    b = math.cos(theta) * a + math.sin(theta) * w
    us = [_random_orthogonal(dim, rng) for _ in range(T + 1)]
    return BlackBoxPair(a, b / np.linalg.norm(b), T, us)


@dataclass
class HybridResult:
    exact_probability: float


def _distinguishing_probability(a_psi: np.ndarray, a_phi: np.ndarray, maps) -> float:
    """Optimal probability of telling apart U_T A U_{T-1} ... A U_0 e_0 for
    A = A_psi and A = A_phi, from the trace distance of the two final pure
    states: 1/2 + sqrt(1 - <eta_psi|eta_phi>^2) / 2, taken as half the norm
    of eta_phi's part orthogonal to eta_psi, which keeps full precision
    where the square root would turn a rounding error of 1e-16 into 1e-8."""

    def evolve(a_op):
        state = np.zeros(len(a_op))
        state[0] = 1.0
        for u in maps[:-1]:
            state = a_op @ (u @ state)
        return maps[-1] @ state

    eta_psi, eta_phi = evolve(a_psi), evolve(a_phi)
    ov = float(eta_psi @ eta_phi) / float(eta_psi @ eta_psi)
    return 0.5 + 0.5 * float(np.linalg.norm(eta_phi - ov * eta_psi))


def hybrid_experiment(pair: BlackBoxPair) -> HybridResult:
    """The exact optimal probability of distinguishing the two interleaved
    evolutions of ``pair``; the hybrid argument bounds it by
    1/2 + T * eps_sep / sqrt(2)."""
    if len(pair.unitaries) != pair.T + 1:
        raise ValidationError(f"need T+1 = {pair.T + 1} interleaving maps")
    if pair.eps_sep < 1e-13:
        return HybridResult(0.5)
    return HybridResult(_distinguishing_probability(*completion_operators(pair.psi, pair.phi), pair.unitaries))


def aligned_probability(eps_sep: float, T: int) -> float:
    """The distinguishing probability under the interleaving I, A_psi^T, ...,
    A_psi^T, I, which undoes each psi preparation before the next one, so
    the phi branch turns by theta = 2 asin(eps_sep / 2) at every use:
    1/2 + |sin(T theta)| / 2. While T theta <= pi/4 this is at least 0.6 of
    the bound's advantage T * eps_sep / sqrt(2), so the bound is tight up to
    a constant. Both branches stay in span{e_0, e_1}, so two dimensions
    suffice."""
    if eps_sep < 1e-13:
        return 0.5
    theta = 2.0 * math.asin(eps_sep / 2.0)
    a_psi, a_phi = completion_operators(np.array([1.0, 0.0]), np.array([math.cos(theta), math.sin(theta)]))
    maps = [a_psi.T] * (T + 1)
    maps[0] = maps[-1] = np.eye(2)
    return _distinguishing_probability(a_psi, a_phi, maps)


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
    queries: int = field(init=False, default=0)

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


def oracle_search_demo(oracle: BumpOracle) -> tuple[bool, int]:
    """Decide whether the marked index lies in the first floor(N/2) cells,
    y0 < N // 2, by evaluating int u(x)^2 dx over those cells with an
    8-point Gauss rule on each, scanned in order; every quadrature point
    costs one oracle query. For odd N the middle cell, which straddles
    x = 1/2, is not scanned and counts as the upper half. Returns the answer
    and the queries it took; classical query cost is linear in N."""
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
    return answer, oracle.queries - start_queries
