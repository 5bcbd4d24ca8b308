"""Error-budget planning and the analytic runtime model.

All asymptotic formulas are evaluated with every hidden constant set to 1
and reported as model values; empirical comparisons elsewhere regress
exponents (log-log slopes), never absolute values. Polylog factors are
fixed to the squared-log form (1 + ln(arg))^2 for determinism.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass
class ErrorBudget:
    """Decomposition of a target accuracy eps (in units of ||r||) into
    discretisation, norm-estimation, linear-solve, output-measurement and
    CG shares."""

    eps: float
    eps_d: float
    eps_n: float
    eps_l: float
    eps_out: float
    eps_cg: float
    h: float | None = None
    n_dofs: int | None = None

    def to_dict(self):
        return {
            "eps": self.eps,
            "eps_d": self.eps_d,
            "eps_n": self.eps_n,
            "eps_l": self.eps_l,
            "eps_out": self.eps_out,
            "eps_cg": self.eps_cg,
            "h": self.h,
            "n_dofs": self.n_dofs,
        }


@dataclass
class ResourceEstimate:
    """Oracle-call counts and runtime-model terms for one pipeline."""

    pipeline: str
    oracle_calls: dict = field(default_factory=dict)
    runtime_model: float = 0.0
    exponent_of_inv_eps: Fraction | None = None
    exponent_terms: tuple = ()
    notes: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "pipeline": self.pipeline,
            "oracle_calls": dict(self.oracle_calls),
            "runtime_model": self.runtime_model,
            "exponent_of_inv_eps": (
                str(self.exponent_of_inv_eps) if self.exponent_of_inv_eps is not None else None
            ),
            "exponent_terms": [str(t) for t in self.exponent_terms],
            "notes": dict(self.notes),
        }


def _polylog(arg: float) -> float:
    return (1.0 + math.log(max(arg, 1.0))) ** 2


def choose_mesh_size(eps: float, seminorm_k1: float, k: int) -> float:
    """Mesh size h = (eps / (2 |u|_{k+1}))^(1/(k+1)).

    The factor 2 reserves half the target for the solver; the true
    discretisation constant is mesh-family dependent and taken as 1.
    ``problems.mesh_size`` turns h into a subdivision count, and
    ``problems.discretize`` caps the mesh.
    """
    if eps <= 0 or seminorm_k1 <= 0:
        raise ValidationError("eps and the seminorm must be positive")
    return (eps / (2.0 * seminorm_k1)) ** (1.0 / (k + 1))


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
) -> ErrorBudget:
    """Split a target accuracy eps*||r|| into the three sufficient shares.

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
    return ErrorBudget(eps=eps, eps_d=eps_d, eps_n=eps_n, eps_l=eps_l, eps_out=eps_out, eps_cg=eps / 2.0)


def classical_cost(n: int, s: int, kappa: float, eps_cg: float, d: int, k: int) -> ResourceEstimate:
    """Conjugate-gradient runtime model N s sqrt(kappa) ln(1/eps_cg)."""
    if n <= 0 or s <= 0 or kappa <= 0 or eps_cg <= 0:
        raise ValidationError("all parameters must be positive")
    try:
        value = n * s * math.sqrt(kappa) * math.log(1.0 / eps_cg)
    except OverflowError:  # n s past double range
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"the classical model cost overflows at N = {n}")
    exponent = Fraction(d + 1, k + 1)
    return ResourceEstimate(
        pipeline="classical",
        oracle_calls={"matvec": float(n * s)},
        runtime_model=value,
        exponent_of_inv_eps=exponent,
        exponent_terms=(exponent,),
    )


def quantum_cost(d: int, k: int, eps: float, sobolev: SobolevData, s: int, preconditioned: bool) -> ResourceEstimate:
    """Sampling-pipeline runtime model.

    Unpreconditioned: (s k^2 ||u|| + sqrt(s) k ||u||_1)/eps with kappa =
    (|u|_{k+1}/eps)^(2/(k+1)), giving 1/eps exponents (k+5)/(k+1) and
    (k+3)/(k+1). Preconditioned: ||u||_1/eps with exponent 1.
    """
    if d < 1 or k < 1:
        raise ValidationError("d and k must be >= 1")
    if eps <= 0 or s <= 0:
        raise ValidationError("eps and s must be positive")
    u_norm = sobolev.l2_norm
    u_1 = sobolev.sobolev_1_norm
    if preconditioned:
        value = u_1 / eps * _polylog(s / eps)
        exps = (Fraction(1),)
        kappa = 1.0
    else:
        sem = sobolev.seminorm(k + 1)
        kappa = (sem / eps) ** (2.0 / (k + 1))
        try:
            value = (s * kappa**2 * u_norm + math.sqrt(s) * kappa * u_1) / eps * _polylog(s * kappa / eps)
        except OverflowError:  # kappa**2 past double range
            value = math.inf
        exps = (Fraction(k + 5, k + 1), Fraction(k + 3, k + 1))
    if not math.isfinite(value):
        raise ValidationError(f"the quantum model cost overflows at eps = {eps}")
    return ResourceEstimate(
        pipeline="quantum_precond" if preconditioned else "quantum",
        oracle_calls={"P_M": value, "P_b": value},
        runtime_model=value,
        exponent_of_inv_eps=max(exps),
        exponent_terms=exps,
        notes={"kappa_model": kappa},
    )


def norm_estimation_cost(s: int, kappa: float, eps: float) -> ResourceEstimate:
    """Oracle counts for the solution-norm estimation subroutine:
    P_A calls (s kappa^2 / eps) polylog(s kappa / eps), P_b calls kappa/eps."""
    if s <= 0 or kappa <= 0 or eps <= 0:
        raise ValidationError("all parameters must be positive")
    pa = (s * kappa**2 / eps) * _polylog(s * kappa / eps)
    pb = kappa / eps
    return ResourceEstimate(
        pipeline="quantum",
        oracle_calls={"P_A": pa, "P_b": pb},
        runtime_model=pa,
        exponent_of_inv_eps=Fraction(1),
        exponent_terms=(Fraction(1),),
    )


def qle_cost(s: int, kappa: float, eps: float) -> float:
    """Oracle calls of one quantum linear-equation solve to accuracy eps,
    s kappa polylog(s kappa / eps); eps is clamped at 1e-16."""
    return s * kappa * _polylog(s * kappa / max(eps, 1e-16))


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
