"""Problem specifications and analytic helpers for polynomial data.

The continuous model problem is

    diffusion * Lap(u) - reaction * u = f

on [0,1] (u(0) = u'(1) = 0) or [0,1]^2 (u = 0 on the boundary). The
assembled system is M u~ = b with M from the positive bilinear form and
b = -(load of f), which keeps M positive semidefinite while matching the
sign convention of the model problem (f = -1 gives u = x - x^2/2 in 1D).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import UnsupportedConfigurationError, ValidationError
from .resources import SobolevData


@dataclass(frozen=True)
class ProblemSpec:
    """One boundary value problem instance plus run parameters.

    ``f`` and ``r`` are polynomial coefficients: a flat low-to-high list in
    1D, a nested list c[i][j] of x^i y^j in 2D. ``sobolev`` optionally
    overrides the solution seminorms when they are known analytically.
    """

    d: int
    k: int
    diffusion: float
    reaction: float
    f: tuple
    r: tuple
    eps: float
    seed: int = 0
    sobolev: SobolevData | None = None

    def __post_init__(self):
        if self.d not in range(1, 9):
            raise ValidationError(f"d must be in 1..8, got {self.d}")
        if self.eps <= 0:
            raise ValidationError("eps must be positive")
        if self.diffusion <= 0 or self.reaction < 0:
            raise ValidationError("need diffusion > 0 and reaction >= 0")
        if self.d == 1 and self.k not in (1, 2, 3):
            raise ValidationError("1D degree must be 1..3")
        if self.d == 2 and self.k != 1:
            raise ValidationError("2D supports k = 1 only")

    @property
    def assembled(self) -> bool:
        """Whether this problem can be meshed and solved (d <= 2), as
        opposed to resource-model-only dimensions."""
        return self.d in (1, 2)

    def f_array(self) -> np.ndarray:
        return _coeff_array(self.f, self.d)

    def r_array(self) -> np.ndarray:
        return _coeff_array(self.r, self.d)

    def to_dict(self) -> dict:
        out = {
            "d": self.d,
            "k": self.k,
            "pde": {"diffusion": self.diffusion, "reaction": self.reaction},
            "f": _coeff_list(self.f),
            "r": _coeff_list(self.r),
            "eps": self.eps,
            "seed": self.seed,
        }
        if self.sobolev is not None:
            out["sobolev"] = list(self.sobolev.seminorms)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def sha256(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @classmethod
    def from_dict(cls, payload: dict) -> "ProblemSpec":
        if not isinstance(payload, dict):
            raise ValidationError(f"problem spec must be a JSON object, got {type(payload).__name__}")
        try:
            pde = payload.get("pde", {})
            sob = payload.get("sobolev")
            return cls(
                d=int(payload["d"]),
                k=int(payload["k"]),
                diffusion=float(pde.get("diffusion", 1.0)),
                reaction=float(pde.get("reaction", 0.0)),
                f=_freeze(payload["f"]),
                r=_freeze(payload["r"]),
                eps=float(payload["eps"]),
                seed=int(payload.get("seed", 0)),
                sobolev=SobolevData(tuple(float(s) for s in sob)) if sob else None,
            )
        except ValidationError:
            raise
        except KeyError as exc:
            raise ValidationError(f"problem spec missing field {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValidationError(f"problem spec field of the wrong type or shape: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ProblemSpec":
        return cls.from_dict(json.loads(text))


def _freeze(coeffs):
    arr = np.asarray(coeffs, dtype=float)
    if arr.ndim == 1:
        return tuple(float(c) for c in arr)
    return tuple(tuple(float(c) for c in row) for row in arr)


def _coeff_list(coeffs):
    if coeffs and isinstance(coeffs[0], tuple):
        return [list(row) for row in coeffs]
    return list(coeffs)


def _coeff_array(coeffs, d) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=float)
    if d == 1 and arr.ndim != 1:
        raise ValidationError("1D data must be a flat coefficient list")
    if d == 2 and arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr


# ---------------------------------------------------------------------------
# polynomial calculus

def poly_l2_norm_sq(coeffs, d: int) -> float:
    """Exact integral of p^2 over the unit interval or square."""
    c = _coeff_array(coeffs, d)
    if d == 1:
        sq = np.convolve(c, c)
        return float(sum(sq[i] / (i + 1) for i in range(len(sq))))
    # int x^(i+k) y^(j+l) = 1/((i+k+1)(j+l+1)): Hilbert matrices on each side
    hx, hy = (1.0 / (np.arange(m)[:, None] + np.arange(m)[None, :] + 1.0) for m in c.shape)
    return float((c * (hx @ c @ hy)).sum())


def poly_l2_norm(coeffs, d: int) -> float:
    return float(np.sqrt(max(poly_l2_norm_sq(coeffs, d), 0.0)))


def analytic_solution_1d(f_coeffs, diffusion: float = 1.0) -> np.ndarray:
    """Exact polynomial solution of diffusion * u'' = f, u(0) = u'(1) = 0."""
    c = np.asarray(f_coeffs, dtype=float) / diffusion
    f1 = npoly.polyint(c)           # antiderivative, zero constant
    up = f1.copy()
    up[0] -= npoly.polyval(1.0, f1)  # u'(1) = 0
    u = npoly.polyint(up)            # u(0) = 0
    return u


def sobolev_from_poly(u_coeffs, max_order: int) -> SobolevData:
    """Exact Sobolev seminorms of a 1D polynomial, orders 0..max_order."""
    semis = []
    q = np.asarray(u_coeffs, dtype=float)
    for _ in range(max_order + 1):
        semis.append(poly_l2_norm(q, 1))
        q = npoly.polyder(q) if len(q) > 1 else np.zeros(1)
    return SobolevData(tuple(semis))


def exact_functional_1d(u_coeffs, r_coeffs) -> float:
    """Exact int_0^1 r(x) u(x) dx for polynomial u and r."""
    prod = np.convolve(np.asarray(u_coeffs, float), np.asarray(r_coeffs, float))
    return float(sum(prod[i] / (i + 1) for i in range(len(prod))))


def derive_sobolev(problem: ProblemSpec, max_order: int | None = None) -> SobolevData:
    """Solution Sobolev data: the explicit override if present, else the
    analytic polynomial solution (1D, reaction = 0)."""
    if problem.sobolev is not None:
        return problem.sobolev
    if problem.d == 1 and problem.reaction == 0.0:
        u = analytic_solution_1d(problem.f_array(), problem.diffusion)
        return sobolev_from_poly(u, max_order if max_order is not None else problem.k + 1)
    raise UnsupportedConfigurationError(
        "solution seminorms are required: supply the 'sobolev' field for "
        "problems without an analytic polynomial solution"
    )
