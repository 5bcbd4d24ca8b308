"""Error-budget planning and the analytic runtime model.

``model_costs`` is the one place where the model's size N, its condition
number kappa and the runtime of the four pipelines are computed. All
asymptotic formulas are evaluated with every hidden constant set to 1
and reported as model values; empirical comparisons elsewhere regress
exponents (log-log slopes), never absolute values. Polylog factors are
fixed to the squared-log form ``polylog`` for determinism. Every cost,
of a pipeline here or of one call in ``quantum``'s ledger, is built once
by ``cost_entry`` as the dict that the artifacts emit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedConfigurationError, ValidationError


@dataclass(frozen=True)
class SobolevData:
    """L2 norm and Sobolev seminorms of a function, orders 0..len-1.

    seminorms[0] is the L2 norm; the Sobolev m-norm is the sum of the
    seminorms up to order m.
    """

    seminorms: tuple

    def __post_init__(self):
        if len(self.seminorms) < 2:
            raise ValidationError("need at least orders 0 and 1")
        if any(s < 0 for s in self.seminorms):
            raise ValidationError("seminorms must be nonnegative")

    @property
    def l2_norm(self) -> float:
        return self.seminorms[0]

    @property
    def sobolev_1_norm(self) -> float:
        return self.seminorms[0] + self.seminorms[1]

    def seminorm(self, m: int) -> float:
        if m >= len(self.seminorms):
            raise ValidationError(f"seminorm of order {m} not available")
        return self.seminorms[m]


def cost_entry(pipeline: str, oracle_calls: dict, runtime_model: float, exponent_terms: tuple, notes: dict) -> dict:
    """Oracle-call counts and runtime-model terms of one pipeline or call, as
    emitted. Its 1/eps exponent is the largest of ``exponent_terms``, None
    when there are none."""
    return {
        "pipeline": pipeline,
        "oracle_calls": oracle_calls,
        "runtime_model": runtime_model,
        "exponent_of_inv_eps": str(max(exponent_terms)) if exponent_terms else None,
        "exponent_terms": [str(t) for t in exponent_terms],
        "notes": notes,
    }


# the row sparsity s every pipeline of the runtime model is priced at
SPARSITY = 3


def polylog(arg: float) -> float:
    """The squared-log polylog factor (1 + ln(max(arg, 1)))^2."""
    return (1.0 + math.log(max(arg, 1.0))) ** 2


def discretisation_share(eps: float, u_norm: float) -> float:
    """eps_d = eps (1 - c) / (3 (1 + c)) with c = eps / (3 ||u||): the share
    of eps that ``split_budget`` leaves to the discretisation error."""
    c = eps / (3.0 * u_norm)
    return eps * (1.0 - c) / (3.0 * (1.0 + c))


def split_budget(
    eps: float,
    sobolev: SobolevData,
    alpha: float,
    u_tilde_norm: float,
    r_norm: float,
) -> dict:
    """Split a target accuracy eps*||r|| into the three sufficient shares,
    returned as {eps, eps_d, eps_n, eps_l, eps_out, eps_cg}: discretisation,
    norm-estimation, linear-solve, output-measurement and CG shares, in
    units of ||r||.

    With c = eps / (3 ||u||) the returned values make the worst-case error
    identity sum to exactly eps*||r||:

        eps_d * ||r|| * (1 + eps_n/||u~||)  =  eps ||r|| (1 - c) / 3
        ||u|| ||r|| eps_n / ||u~||          =  eps ||r|| / 3
        alpha (||u~|| + eps_n)(eps_l+eps_out) = eps ||r|| (1 + c) / 3

    Requires eps <= ||u|| (the simplifying assumption the final bound uses).
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    u_norm = sobolev.l2_norm
    if eps > u_norm:
        raise UnsupportedConfigurationError(
            f"budget split assumes eps <= ||u|| (eps={eps}, ||u||={u_norm})"
        )
    if alpha <= 0 or u_tilde_norm <= 0 or r_norm <= 0:
        raise ValidationError("alpha, ||u~|| and ||r|| must be positive")
    eps_n = eps * u_tilde_norm / (3.0 * u_norm)
    eps_l = eps_out = eps * r_norm / (6.0 * alpha * u_tilde_norm)
    eps_d = discretisation_share(eps, u_norm)
    terms = (
        eps_d * r_norm * (1.0 + eps_n / u_tilde_norm),
        u_norm * r_norm * eps_n / u_tilde_norm,
        alpha * (u_tilde_norm + eps_n) * (eps_l + eps_out),
    )
    # non-finite inputs, and shares or terms that overflow or fall below the
    # smallest normal double, would fail the identity by range, not by algebra
    if not all(2.0**-1022 <= v < math.inf for v in (eps_n, eps_l, eps_d, *terms)):
        raise ValidationError(f"the budget split leaves double-precision range (alpha {alpha}, ||u~|| {u_tilde_norm}, ||r|| {r_norm})")
    total = terms[0] + terms[1] + terms[2]
    assert abs(total - eps * r_norm) <= 1e-12 * eps * r_norm
    return {"eps": eps, "eps_d": eps_d, "eps_n": eps_n, "eps_l": eps_l, "eps_out": eps_out, "eps_cg": eps / 2.0}


def model_costs(d: int, k: int, eps: float, sobolev: SobolevData):
    """Model size N = (|u|_{k+1}/eps)^(d/(k+1)), condition number kappa =
    (|u|_{k+1}/eps)^(2/(k+1)) and the runtime model of each of the four
    pipelines, for ``plan`` and ``resources`` alike. With s = ``SPARSITY``
    and N rounded up:

        classical          N s sqrt(kappa) ln(1/eps_cg), eps_cg = eps/2
        classical_precond  the same at kappa = 1
        quantum            (s kappa^2 ||u|| + sqrt(s) kappa ||u||_1)/eps polylog(s kappa/eps)
        quantum_precond    ||u||_1/eps polylog(s/eps)

    Returns (N, kappa, {pipeline: ``cost_entry`` dict}); the 1/eps exponents
    come from ``exponent_table``. eps must lie in (0, 2): at eps >= 2 the
    CG term ln(1/eps_cg) is zero or negative, and so would be the classical
    costs, so such an eps is refused (ValidationError).
    """
    exponents = exponent_table(d, k)  # refuses d or k below 1 before any power
    sem = sobolev.seminorm(k + 1)
    eps_cg = eps / 2.0
    if not (sem > 0 and 0 < eps_cg < 1):
        raise ValidationError(f"need |u|_{k + 1} > 0 and 0 < eps < 2, got {sem} and {eps}")
    try:
        n_model = (sem / eps) ** (d / (k + 1))
        kappa_model = (sem / eps) ** (2.0 / (k + 1))
    except OverflowError:  # a float power past double range
        n_model = kappa_model = math.inf
    if not (n_model < math.inf and 0.0 < kappa_model < math.inf):
        raise ValidationError(f"the model size N = {n_model} or condition number {kappa_model} leaves double-precision range at eps = {eps}")
    n_cg = max(1, math.ceil(n_model))
    s = SPARSITY
    costs = {}
    # kappa = 1 after preconditioning, so only N carries a power of 1/eps
    for pipeline, kappa in (("classical", kappa_model), ("classical_precond", 1.0)):
        try:
            value = n_cg * s * math.sqrt(kappa) * math.log(1.0 / eps_cg)
        except OverflowError:  # n s past double range
            value = math.inf
        if not math.isfinite(value):
            raise ValidationError(f"the classical model cost overflows at N = {n_cg}")
        costs[pipeline] = cost_entry(pipeline, {"matvec": float(n_cg * s)}, value, exponents[pipeline], {})
    u_norm, u_1 = sobolev.l2_norm, sobolev.sobolev_1_norm
    try:
        quantum = (s * kappa_model**2 * u_norm + math.sqrt(s) * kappa_model * u_1) / eps * polylog(s * kappa_model / eps)
    except OverflowError:  # kappa**2 past double range
        quantum = math.inf
    for pipeline, kappa, value in (("quantum", kappa_model, quantum), ("quantum_precond", 1.0, u_1 / eps * polylog(s / eps))):
        if not math.isfinite(value):
            raise ValidationError(f"the quantum model cost overflows at eps = {eps}")
        costs[pipeline] = cost_entry(pipeline, {"P_M": value, "P_b": value}, value, exponents[pipeline], {"kappa_model": kappa})
    return n_model, kappa_model, costs


def exponent_table(d: int, k: int) -> dict:
    """Closed-form 1/eps exponents of the four pipelines (exact rationals)."""
    if d < 1 or k < 1:
        raise ValidationError("d and k must be >= 1")
    return {
        "classical": (Fraction(d + 1, k + 1),),
        "classical_precond": (Fraction(d, k + 1),),
        "quantum": (Fraction(k + 5, k + 1), Fraction(k + 3, k + 1)),
        "quantum_precond": (Fraction(1),),
    }
