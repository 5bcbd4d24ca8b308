"""Desk-scale statevector simulation of the sampling pipeline.

State preparation follows the prefix-weight (Grover-Rudolph) scheme; the
linear-equation subroutine is a behavioral stand-in (exact sparse direct
solve plus a seeded perturbation of calibrated l2 size) whose analytic
oracle cost is recorded in a resource ledger. Solves, lambda_max and the
condition number all come from the stiffness matrix's cached sparse
factorisation and eigenvalue extremes (``SparseSymMatrix.solve`` and
``SparseSymMatrix.extremes``); no dense matrix is formed. All estimators
are plain Monte Carlo at the exact event probabilities: empirical sampling
uses 1/eps^2 shots while the ledger charges the amplitude-estimation count
of 1/eps, and the gap is annotated in the ledger entries.

All states are real; dimensions are padded to the next power of two with
zero amplitudes, so inner products over the full vectors equal those over
the active block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .assembly import SparseSymMatrix, assemble_load
from .errors import (
    BudgetExceededError,
    SimulationFloorError,
    UnsupportedConfigurationError,
    ValidationError,
)
from .mesh import BasisSpec, Mesh
from .problems import ProblemSpec, derive_sobolev, discretize, mesh_size, poly_l2_norm
from .resources import ErrorBudget, ResourceEstimate, discretisation_share, norm_estimation_cost, split_budget
from .solver import estimate_condition_number

MAX_SIM_QUBITS = 14
ACCEPTANCE_FLOOR = 1e-9


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


class Statevector:
    """Normalized real amplitude vector over a power-of-two dimension.

    ``n_active`` marks the FEM block; the padding tail is identically zero.
    """

    __slots__ = ("amplitudes", "n_active")

    def __init__(self, amplitudes, n_active=None):
        amps = np.asarray(amplitudes, dtype=float)
        dim = len(amps)
        if dim == 0 or dim & (dim - 1):
            raise ValidationError(f"dimension {dim} is not a power of two")
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > 1e-12:
            raise ValidationError(f"state norm {nrm} is not 1 within 1e-12")
        self.amplitudes = amps
        self.n_active = dim if n_active is None else int(n_active)

    @classmethod
    def from_vector(cls, vec) -> "Statevector":
        v = np.asarray(vec, dtype=float)
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            raise ValidationError("cannot normalize a zero vector")
        dim = _next_pow2(len(v))
        out = np.zeros(dim)
        out[: len(v)] = v / nrm
        return cls(out, n_active=len(v))

    @property
    def n_qubits(self) -> int:
        return int(round(math.log2(len(self.amplitudes))))

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def inner(self, other: "Statevector") -> float:
        if self.dim != other.dim:
            raise ValidationError("dimension mismatch")
        return float(self.amplitudes @ other.amplitudes)

    def to_csv(self, path):
        with open(path, "w") as f:
            f.write("index,amplitude\n")
            for i, a in enumerate(self.amplitudes):
                f.write(f"{i},{a!r}\n")


@dataclass
class WeightOracle:
    """Prefix-weight oracle: W_x is the squared mass of the branch below the
    bitstring prefix x (most significant bit first), W_empty = 1.

    ``accuracy`` is the additive error guarantee per query (0 for exact
    oracles); ``cost_per_call`` feeds the query accounting.
    """

    n_qubits: int
    evaluator: object
    sign: object
    accuracy: float = 0.0
    cost_per_call: int = 1
    queries: int = 0

    def weight(self, prefix) -> float:
        self.queries += self.cost_per_call
        return float(self.evaluator(tuple(prefix)))

    @classmethod
    def exact_for_state(cls, amplitudes) -> "WeightOracle":
        """Exact oracle for a target amplitude vector of length 2^n."""
        amps = np.asarray(amplitudes, dtype=float)
        n = int(round(math.log2(len(amps))))
        if 2**n != len(amps):
            raise ValidationError("amplitude vector length must be a power of two")
        nrm = np.linalg.norm(amps)
        if nrm == 0:
            raise ValidationError("zero target state")
        amps = amps / nrm
        cums = np.concatenate([[0.0], np.cumsum(amps**2)])

        def evaluator(prefix):
            k = len(prefix)
            v = 0
            for bit in prefix:
                v = (v << 1) | int(bit)
            width = 2 ** (n - k)
            return float(cums[(v + 1) * width] - cums[v * width])

        def sign(index):
            return 1.0 if amps[index] >= 0 else -1.0

        return cls(n_qubits=n, evaluator=evaluator, sign=sign, accuracy=0.0)

    def with_noise(self, accuracy: float, seed: int) -> "WeightOracle":
        """Wrap with deterministic per-prefix additive noise of size <= accuracy."""
        base_eval = self.evaluator

        def noisy(prefix):
            v = 0
            for bit in prefix:
                v = (v << 1) | int(bit)
            rng = np.random.default_rng([seed, len(prefix), v])
            return float(base_eval(prefix)) + accuracy * (2.0 * rng.random() - 1.0)

        return WeightOracle(
            n_qubits=self.n_qubits,
            evaluator=noisy,
            sign=self.sign,
            accuracy=accuracy,
            cost_per_call=self.cost_per_call,
        )


@dataclass
class SampleBudget:
    """Shot allowance plus the RNG shared by the sampling estimators."""

    shots: int = 10**12
    rng_seed: int = 0
    uses_of_state_prep: int = 0

    def __post_init__(self):
        self.rng = np.random.default_rng(self.rng_seed)

    def binomial(self, shots: int, p: float, size: int = 1) -> np.ndarray:
        """``size`` binomial counts of ``shots`` trials each, charging all
        shots * size of them to the budget before drawing."""
        if shots < 1 or size < 1:
            raise ValidationError("shots and size must be >= 1")
        count = shots * size
        if self.uses_of_state_prep + count > self.shots:
            raise BudgetExceededError(
                f"budget of {self.shots} shots exhausted (would need {self.uses_of_state_prep + count})"
            )
        self.uses_of_state_prep += count
        return self.rng.binomial(shots, p, size=size)


def grover_rudolph_prepare(oracle: WeightOracle, n_qubits: int, trunc_const: float = 1.0) -> Statevector:
    """Prepare the state with amplitudes sign(x) * sqrt(W_x) from a
    prefix-weight oracle.

    Branches whose reported weight falls at or below trunc_const * accuracy
    are dropped: below the oracle's noise floor the conditional fractions
    carry no information, and the discarded mass contributes an l2 error of
    the same order the noisy weights already force. Each surviving prefix is
    queried once per level, so the amplitude products telescope exactly.
    """
    n = int(n_qubits)
    if n < 1 or n > MAX_SIM_QUBITS:
        raise ValidationError(f"n_qubits must be in 1..{MAX_SIM_QUBITS}")
    acc = float(oracle.accuracy)
    if acc < 0:
        raise ValidationError("oracle accuracy must be >= 0")
    tol = 3.0 * acc + 1e-9

    w_root = oracle.weight(())
    if abs(w_root - 1.0) > tol:
        raise ValidationError(f"root weight must be 1, got {w_root}")
    threshold = trunc_const * acc

    alive = {(): w_root}
    for _ in range(n):
        nxt = {}
        for prefix, w in alive.items():
            w0 = oracle.weight(prefix + (0,))
            w1 = oracle.weight(prefix + (1,))
            if w0 < -tol or w1 < -tol:
                raise ValidationError(f"negative weight under prefix {prefix}")
            if abs(w0 + w1 - w) > tol:
                raise ValidationError(
                    f"inconsistent oracle at prefix {prefix}: {w0} + {w1} != {w}"
                )
            if w0 > threshold:
                nxt[prefix + (0,)] = w0
            if w1 > threshold:
                nxt[prefix + (1,)] = w1
        alive = nxt

    amps = np.zeros(2**n)
    for prefix, w in alive.items():
        idx = 0
        for bit in prefix:
            idx = (idx << 1) | bit
        amps[idx] = oracle.sign(idx) * math.sqrt(max(w, 0.0) / w_root)
    if not np.any(amps):
        raise ValidationError("all branches truncated; oracle weights sum to ~0")
    return Statevector.from_vector(amps)


# ---------------------------------------------------------------------------
# closed-form load weights (uniform 1D tents, polynomial data)

@lru_cache(maxsize=None)
def _bernoulli_plus(p: int):
    # B-minus recurrence, then flip B_1 to +1/2 for the ascending power sum
    bs = [Fraction(1)]
    for m in range(1, p + 1):
        s = sum(Fraction(math.comb(m + 1, j)) * bs[j] for j in range(m))
        bs.append(-s / (m + 1))
    if p >= 1:
        bs[1] = Fraction(1, 2)
    return tuple(bs)


def _power_sum(p: int, n: int) -> Fraction:
    """sum_{m=1}^{n} m^p, exact, evaluated in O(p) (Faulhaber)."""
    if n <= 0:
        return Fraction(0)
    bs = _bernoulli_plus(p)
    total = Fraction(0)
    for j in range(p + 1):
        total += Fraction(math.comb(p + 1, j)) * bs[j] * Fraction(n) ** (p + 1 - j)
    return total / (p + 1)


def _tent_load_poly(f_coeffs, h: float) -> np.ndarray:
    """Coefficients of L(x) = int tent_x(t) f(t) dt for a full tent centred
    at x on a uniform mesh: L(x) = h * sum_j c_j sum_{m even} C(j,m) h^m
    * 2/((m+1)(m+2)) * x^(j-m)."""
    c = np.asarray(f_coeffs, dtype=float)
    deg = len(c) - 1
    out = np.zeros(deg + 1)
    for j in range(deg + 1):
        if c[j] == 0.0:
            continue
        for m in range(0, j + 1, 2):
            mu = 2.0 / ((m + 1) * (m + 2))
            out[j - m] += c[j] * math.comb(j, m) * h**m * mu
    return h * out


def _half_tent_load(f_coeffs, h: float) -> float:
    """int_{1-h}^{1} ((t-(1-h))/h) f(t) dt for the Neumann-end half tent."""
    c = np.asarray(f_coeffs, dtype=float)
    total = 0.0
    for j in range(len(c)):
        if c[j] == 0.0:
            continue
        for m in range(j + 1):
            total += c[j] * math.comb(j, m) * (1.0 - h) ** (j - m) * h**m / (m + 2)
    return h * total


def exact_weight_S(mesh: Mesh, spec: BasisSpec, f_coeffs, a: int, b: int) -> float:
    """S(a, b) = sum_{i=a}^{b} (int phi_i f)^2 in closed form.

    The per-dof squared load entry is a fixed polynomial in the node
    position, so the range sum reduces to Faulhaber power sums and the cost
    is independent of b - a. Uniform 1D meshes with k = 1 only.
    """
    if mesh.dimension != 1 or spec.k != 1 or not spec.constrained:
        raise UnsupportedConfigurationError(
            "closed-form weights need a uniform 1D mesh with constrained k=1 tents"
        )
    if a > b:
        return 0.0
    n_dofs = spec.n_dofs
    if a < 0 or b >= n_dofs:
        raise ValidationError(f"range [{a}, {b}] outside [0, {n_dofs})")
    h = mesh.h
    q = npoly.polymul(_tent_load_poly(f_coeffs, h), _tent_load_poly(f_coeffs, h))

    # dofs 0 .. n_dofs-2 are full tents at x = (i+1) h; the last is the half tent
    total = 0.0
    hi_full = min(b, n_dofs - 2)
    if a <= hi_full:
        for p, qp in enumerate(q):
            if qp == 0.0:
                continue
            ps = _power_sum(p, hi_full + 1) - _power_sum(p, a)
            total += qp * h**p * float(ps)
    if b == n_dofs - 1:
        total += _half_tent_load(f_coeffs, h) ** 2
    return float(total)


def darboux_load_entry(spec: BasisSpec, f_antiderivatives, i: int) -> float:
    """int phi_i f via the alternating endpoint sum

        sum_{j=0}^{k} (-1)^j [phi_i^(j)(t) F_{j+1}(t)] evaluated over each
        support element,

    where F_{m} is the m-fold antiderivative of f. Valid because phi_i is a
    polynomial of degree k on each element (its (k+1)-th derivative
    vanishes). Requires antiderivative orders 1..k+1 as coefficient lists
    forming a consistent chain.
    """
    if spec.nodes.shape[1] != 1:
        raise UnsupportedConfigurationError("endpoint evaluation is 1D only")
    k = spec.k
    if len(f_antiderivatives) < k + 1:
        raise ValidationError(f"need antiderivative orders 1..{k + 1}")
    fs = [np.asarray(c, dtype=float) for c in f_antiderivatives[: k + 1]]
    for m in range(len(fs) - 1):
        der = npoly.polyder(fs[m + 1])
        pad_a = np.pad(der, (0, max(0, len(fs[m]) - len(der))))
        pad_b = np.pad(fs[m], (0, max(0, len(der) - len(fs[m]))))
        scale = max(1.0, np.abs(pad_b).max())
        if np.abs(pad_a - pad_b).max() > 1e-9 * scale:
            raise ValidationError(f"antiderivative chain broken between orders {m + 1} and {m + 2}")

    if not 0 <= i < spec.n_dofs:
        raise ValidationError(f"dof index {i} out of range")
    node = int(spec.dof_nodes[i])
    total = 0.0
    for e in spec.node_support(node):
        locals_ = spec.element_nodes[e]
        ts = spec.nodes[locals_, 0]
        j_local = int(np.nonzero(locals_ == node)[0][0])
        others = np.delete(ts, j_local)
        lag = npoly.polyfromroots(others) / np.prod(ts[j_local] - others)
        lo, hi = float(ts[0]), float(ts[-1])
        deriv = lag
        for order in range(k + 1):
            fm = fs[order]
            term = npoly.polyval(hi, deriv) * npoly.polyval(hi, fm)
            term -= npoly.polyval(lo, deriv) * npoly.polyval(lo, fm)
            total += (-1.0) ** order * term
            deriv = npoly.polyder(deriv) if len(deriv) > 1 else np.zeros(1)
    return float(total)


# ---------------------------------------------------------------------------
# linear-solver stand-in and error propagation

def _theorem_cost(s: int, kappa: float, eps: float) -> float:
    eps = max(eps, 1e-16)
    return s * kappa * (1.0 + math.log(max(s * kappa / eps, 1.0))) ** 2


def simulated_qle(M: SparseSymMatrix, b: Statevector, eps_l: float, rng_seed: int, ledger=None) -> Statevector:
    """Behavioral stand-in for the linear-equation subroutine.

    Returns the exact normalized solution of M x = b (sparse direct solve)
    perturbed by a seeded random unit vector in its orthogonal complement,
    scaled so the l2 distance to the exact state is exactly ``eps_l``. The
    analytic oracle cost of one subroutine call, with kappa from the cached
    ``M.extremes()``, is appended to ``ledger`` when given.
    """
    if not 0.0 <= eps_l < 1.0:
        raise ValidationError(f"eps_l must be in [0, 1), got {eps_l}")
    n = M.n
    x = M.solve(b.amplitudes[:n])
    nx = np.linalg.norm(x)
    if nx == 0:
        raise ValidationError("zero solution state")
    out = np.zeros(b.dim)
    out[:n] = x / nx

    if eps_l > 0.0:
        block = n if n >= 2 else b.dim
        if block < 2:
            raise ValidationError("cannot perturb a one-dimensional state")
        rng = np.random.default_rng(rng_seed)
        base = out[:block]
        w = rng.standard_normal(block)
        w -= (w @ base) * base
        nw = np.linalg.norm(w)
        while nw < 1e-12:
            w = rng.standard_normal(block)
            w -= (w @ base) * base
            nw = np.linalg.norm(w)
        theta = 2.0 * math.asin(eps_l / 2.0)
        out[:block] = math.cos(theta) * base + math.sin(theta) * (w / nw)

    if ledger is not None:
        kappa = estimate_condition_number(M)
        cost = _theorem_cost(M.s, kappa, eps_l)
        ledger.append(
            ResourceEstimate(
                pipeline="quantum",
                oracle_calls={"P_M": cost, "P_b": cost},
                runtime_model=cost,
                notes={"call": "qle", "eps_l": eps_l, "kappa": kappa},
            )
        )
    return Statevector(out, n_active=n)


def input_error_propagation(M: SparseSymMatrix, b, e) -> float:
    """Exact l2 distance between the normalized solutions for right-hand
    sides b and b + e. Callers compare it against the bound 2 ||e|| kappa."""
    bvec = b.amplitudes[: M.n] if isinstance(b, Statevector) else np.asarray(b, dtype=float)
    evec = np.asarray(e, dtype=float)
    if np.linalg.norm(evec) >= 1.0:
        raise ValidationError("perturbation must have norm < 1")
    x = M.solve(bvec)
    y = M.solve(bvec + evec)
    if np.linalg.norm(e) == 0:
        return 0.0
    return float(np.linalg.norm(x / np.linalg.norm(x) - y / np.linalg.norm(y)))


def apply_sparse_nonunitary(P: SparseSymMatrix, psi: Statevector, rng_seed: int):
    """Probabilistic application of a sparse symmetric operator.

    Succeeds with probability ||P psi||^2 / (s^2 ||P||_max^2), returning the
    normalized image; on failure the input state is returned unchanged.
    """
    y = P @ psi.amplitudes[: P.n]
    ny = float(np.linalg.norm(y))
    if ny == 0.0:
        return psi, False
    pmax = P.max_abs()
    if pmax == 0.0:
        return psi, False
    p = min((ny / (P.s * pmax)) ** 2, 1.0)
    rng = np.random.default_rng(rng_seed)
    if rng.random() < p:
        out = np.zeros(psi.dim)
        out[: P.n] = y / ny
        return Statevector(out, n_active=P.n), True
    return psi, False


def build_r_state(mesh: Mesh, spec: BasisSpec, r_coeffs):
    """Normalized state with amplitudes proportional to <phi_i, r>, plus the
    normalization alpha = (sum_i <phi_i, r>^2)^(1/2)."""
    load = assemble_load(mesh, spec, r_coeffs)
    alpha = load.norm()
    if alpha < 1e-300:
        raise ValidationError("r is orthogonal to every basis function")
    return Statevector.from_vector(load.values), float(alpha)


def hadamard_test_estimate(
    u_state: Statevector,
    r_state: Statevector,
    eps_out: float,
    budget: SampleBudget,
    medians: int = 1,
    eps_l: float = 0.0,
) -> float:
    """Estimate <u~|r> from +-1 samples whose expectation is the overlap.

    Each shot measures a solver-output state cos(theta) u + sin(theta) w at
    l2 distance ``eps_l`` from ``u_state`` (theta = 2 asin(eps_l / 2)), with
    w uniform on the unit sphere orthogonal to u. Since w and -w are equally
    likely, the outcomes are iid with P(+1) = (1 + cos(theta) <u|r>) / 2, so
    each mean is drawn as one binomial over 2*ceil(1/eps_out^2) shots
    (Hoeffding sizing for the 2/3 success target); ``medians`` must be >= 1,
    and above 1 switches on median-of-means amplification. Every shot
    consumes one use of the state preparation.
    """
    if eps_out <= 0:
        raise ValidationError("eps_out must be positive")
    if not 0.0 <= eps_l < 1.0:
        raise ValidationError("eps_l must be in [0, 1)")
    shots = 2 * math.ceil(1.0 / eps_out**2)
    theta = 2.0 * math.asin(eps_l / 2.0)
    p = 0.5 * (1.0 + float(np.clip(math.cos(theta) * u_state.inner(r_state), -1.0, 1.0)))
    means = 2.0 * budget.binomial(shots, p, size=medians) / shots - 1.0
    return float(np.median(means))


def swap_test_estimate(psi: Statevector, phi: Statevector, shots: int, rng_seed: int) -> float:
    """Estimate |<psi|phi>|^2 from Bernoulli samples of the swap test, whose
    'same' probability is 1/2 + |<psi|phi>|^2 / 2."""
    if psi.dim != phi.dim:
        raise ValidationError("dimension mismatch")
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    p_same = 0.5 + 0.5 * psi.inner(phi) ** 2
    k = np.random.default_rng(rng_seed).binomial(shots, p_same)
    return float(2.0 * k / shots - 1.0)


def estimate_norm(M: SparseSymMatrix, b: Statevector, eps_n_rel: float, budget: SampleBudget, ledger=None) -> float:
    """Estimate ||M^{-1} b|| by sampling the acceptance event of the
    norm-estimation subroutine at its exact probability p = ||A^{-1}b||^2 /
    kappa^2 (A = M / lambda_max) and inverting kappa * sqrt(p).

    Relative error <= eps_n_rel with probability >= 2/3 by construction of
    the shot count. The analytic oracle cost is appended to ``ledger``.
    """
    if eps_n_rel <= 0:
        raise ValidationError("eps_n_rel must be positive")
    lam_min, lam_max = M.extremes()
    kap = lam_max / lam_min
    x = lam_max * M.solve(b.amplitudes[: M.n])
    p = min(float(x @ x) / kap**2, 1.0)
    if p < ACCEPTANCE_FLOOR:
        raise SimulationFloorError(
            f"acceptance probability {p:.3e} below the simulable floor; consider preconditioning"
        )
    shots = max(8, math.ceil(2.0 * (1.0 - p) / (p * eps_n_rel**2)))
    p_hat = int(budget.binomial(shots, p)[0]) / shots
    if ledger is not None:
        entry = norm_estimation_cost(M.s, kap, eps_n_rel)
        entry.notes.update(
            {
                "call": "norm_estimation",
                "empirical_shots": shots,
                "model_inv_eps_exponent": 1,
                "empirical_inv_eps_exponent": 2,
            }
        )
        ledger.append(entry)
    return float(kap * math.sqrt(p_hat) / lam_max)


@dataclass
class FunctionalEstimate:
    """End-to-end output of the sampling pipeline plus its run record."""

    value: float
    exact_value_discrete: float
    alpha: float
    n_tilde: float
    r_tilde: float
    u_tilde_norm: float
    budget_split: ErrorBudget
    h: float
    n_elements: int
    n_dofs: int
    exact_mode: bool
    ledger: list = field(default_factory=list)

    def to_dict(self):
        return {
            "value": self.value,
            "exact_value_discrete": self.exact_value_discrete,
            "alpha": self.alpha,
            "n_tilde": self.n_tilde,
            "r_tilde": self.r_tilde,
            "u_tilde_norm": self.u_tilde_norm,
            "budget": self.budget_split.to_dict(),
            "h": self.h,
            "n_elements": self.n_elements,
            "n_dofs": self.n_dofs,
            "exact_mode": self.exact_mode,
            "ledger": [entry.to_dict() for entry in self.ledger],
        }


def estimate_functional(problem: ProblemSpec, eps: float, budget: SampleBudget, exact_mode: bool = False) -> FunctionalEstimate:
    """Estimate R = int r u with additive error <= eps ||r|| (probability
    >= 2/3) by the three-step pipeline: estimate the solution norm, estimate
    the overlap <r|u~> from solver-output samples, output alpha * N~ * R~.

    ``exact_mode`` zeroes the solver, norm and measurement errors so only
    the discretisation term remains.
    """
    sob = derive_sobolev(problem, max_order=problem.k + 1)
    if eps > sob.l2_norm:
        raise UnsupportedConfigurationError(f"assumes eps <= ||u|| (eps={eps}, ||u||={sob.l2_norm})")
    n, h = mesh_size(problem, 2.0 * discretisation_share(eps, sob.l2_norm))
    mesh, spec, M, b_raw = discretize(problem, n)
    r_state, alpha = build_r_state(mesh, spec, problem.r_array())
    r_norm = poly_l2_norm(problem.r_array(), problem.d)

    u_tilde = M.solve(b_raw)
    u_norm = float(np.linalg.norm(u_tilde))
    split = split_budget(eps, sob, alpha, u_norm, r_norm)
    split.h = h
    split.n_dofs = spec.n_dofs

    ledger: list = []
    r_load_values = alpha * r_state.amplitudes[: spec.n_dofs]
    exact_discrete = float(r_load_values @ u_tilde)  # = <u~, r> in L2

    if exact_mode:
        n_tilde = u_norm
        r_tilde = float((r_state.amplitudes[: spec.n_dofs] @ u_tilde) / u_norm)
        value = alpha * n_tilde * r_tilde
    else:
        b_state = Statevector.from_vector(b_raw)
        b_norm = float(np.linalg.norm(b_raw))
        eps_n_rel = split.eps_n / u_norm
        n_tilde = b_norm * estimate_norm(M, b_state, eps_n_rel, budget, ledger=ledger)
        u_state = Statevector.from_vector(u_tilde)
        eps_l_eff = min(split.eps_l, 0.9)
        qle_cost = _theorem_cost(M.s, estimate_condition_number(M), max(eps_l_eff, 1e-16))
        uses_before = budget.uses_of_state_prep
        r_tilde = hadamard_test_estimate(u_state, r_state, split.eps_out, budget, eps_l=eps_l_eff)
        uses = budget.uses_of_state_prep - uses_before
        ledger.append(
            ResourceEstimate(
                pipeline="quantum",
                oracle_calls={"P_M": qle_cost * uses, "P_b": qle_cost * uses},
                runtime_model=qle_cost * uses,
                notes={
                    "call": "overlap_estimation",
                    "state_prep_uses": uses,
                    "model_uses_per_estimate": 1.0 / split.eps_out,
                    "input_state_assumption": "exact |f~> preparation",
                },
            )
        )
        value = alpha * n_tilde * r_tilde

    return FunctionalEstimate(
        value=float(value),
        exact_value_discrete=exact_discrete,
        alpha=alpha,
        n_tilde=float(n_tilde),
        r_tilde=float(r_tilde),
        u_tilde_norm=u_norm,
        budget_split=split,
        h=h,
        n_elements=mesh.n_elements,
        n_dofs=spec.n_dofs,
        exact_mode=exact_mode,
        ledger=ledger,
    )
