"""Problem specifications and analytic helpers for polynomial data.

The continuous model problem is

    diffusion * Lap(u) - reaction * u = f

on [0,1] (u(0) = u'(1) = 0) or [0,1]^2 (u = 0 on the boundary). The
assembled system is M u~ = b with M from the positive bilinear form and
b = -(load of f), which keeps M positive semidefinite while matching the
sign convention of the model problem (f = -1 gives u = x - x^2/2 in 1D).

Every report discretises through ``mesh_size`` and ``discretize``. The one
mesh-size rule, in ``mesh_size``: h = (eps / (2 |u|_{k+1}))^(1/(k+1)) and
n = ceil(sqrt(d) / h) subdivisions per side, sqrt(d) being the unit cube's
diameter, so no cell is wider than h. The factor 2 reserves half the target
for the solver; the true discretisation constant is mesh-family dependent
and taken as 1. ``discretize`` refuses meshes of more than ``MAX_CELLS``
cells before it allocates anything.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .assembly import BilinearForm, SparseSymMatrix, assemble_load, assemble_stiffness, coefficient_array
from .errors import CapExceededError, UnsupportedConfigurationError, ValidationError, count_text
from .mesh import BasisSpec, Mesh
from .resources import SobolevData

# largest mesh discretize builds, in cells of the n^d grid
MAX_CELLS = 200_000


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
        numbers = {"eps": self.eps, "diffusion": self.diffusion, "reaction": self.reaction, "f": self.f, "r": self.r}
        if self.sobolev is not None:
            numbers["sobolev"] = self.sobolev.seminorms
        for name, value in numbers.items():
            if not np.all(np.isfinite(np.asarray(value, dtype=float))):
                raise ValidationError(f"{name} must be finite")
        for name in ("f", "r"):
            if np.asarray(getattr(self, name), dtype=float).size == 0:
                raise ValidationError(f"{name} needs at least one coefficient")
        if self.d not in range(1, 9):
            raise ValidationError(f"d must be in 1..8, got {self.d}")
        if self.eps <= 0:
            raise ValidationError("eps must be positive")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
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

    @cached_property
    def solution_sobolev(self) -> SobolevData:
        """Solution Sobolev data: the explicit override if present, else the
        seminorms of orders 0..k+1 of the analytic polynomial solution (1D,
        reaction = 0). Derived once per spec object, on first use."""
        if self.sobolev is not None:
            return self.sobolev
        if self.d == 1 and self.reaction == 0.0:
            with np.errstate(over="ignore", invalid="ignore"):  # f / diffusion may overflow: refused by the norms
                return sobolev_from_poly(analytic_solution_1d(self.f_array(), self.diffusion), self.k + 1)
        raise UnsupportedConfigurationError(
            "solution seminorms are required: supply the 'sobolev' field for "
            "problems without an analytic polynomial solution"
        )

    def f_array(self) -> np.ndarray:
        return coefficient_array(self.f, self.d)

    def r_array(self) -> np.ndarray:
        return coefficient_array(self.r, self.d)

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
                d=_integer("d", payload["d"]),
                k=_integer("k", payload["k"]),
                diffusion=float(pde.get("diffusion", 1.0)),
                reaction=float(pde.get("reaction", 0.0)),
                f=_freeze(payload["f"]),
                r=_freeze(payload["r"]),
                eps=float(payload["eps"]),
                seed=_integer("seed", payload.get("seed", 0)),
                sobolev=SobolevData(tuple(float(s) for s in sob)) if sob else None,
            )
        except ValidationError:
            raise
        except KeyError as exc:
            raise ValidationError(f"problem spec missing field {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValidationError(f"problem spec field of the wrong type or shape: {exc}") from exc


def _integer(name, value) -> int:
    """int(value), refusing the booleans and fractions int() would accept."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _freeze(coeffs):
    arr = np.asarray(coeffs, dtype=float)
    if arr.ndim == 1:
        return tuple(float(c) for c in arr)
    return tuple(tuple(float(c) for c in row) for row in arr)


def _coeff_list(coeffs):
    if coeffs and isinstance(coeffs[0], tuple):
        return [list(row) for row in coeffs]
    return list(coeffs)


# ---------------------------------------------------------------------------
# polynomial calculus

def poly_l2_norm_sq(coeffs, d: int) -> float:
    """Exact integral of p^2 over the unit interval or square. Raises
    ValidationError where it leaves double-precision range."""
    c = coefficient_array(coeffs, d)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        if d == 1:
            sq = np.convolve(c, c)
            value = float(sum(sq[i] / (i + 1) for i in range(len(sq))))
        else:
            # int x^(i+k) y^(j+l) = 1/((i+k+1)(j+l+1)): Hilbert matrices on each side
            hx, hy = (1.0 / (np.arange(m)[:, None] + np.arange(m)[None, :] + 1.0) for m in c.shape)
            value = float((c * (hx @ c @ hy)).sum())
    if not np.isfinite(value):
        raise ValidationError("the L2 norm of a polynomial (the data or the analytic solution) leaves double-precision range")
    return value


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


# ---------------------------------------------------------------------------
# discretisation

def mesh_size(problem: ProblemSpec, eps: float) -> tuple[int, float]:
    """Subdivisions per side n and mesh size h for target accuracy ``eps``,
    by the size rule in the module docstring. A nonpositive eps or
    seminorm is refused, and so is an h that is zero or not finite (the
    seminorm overflowed, or eps underflowed against it)."""
    seminorm = problem.solution_sobolev.seminorm(problem.k + 1)
    if eps <= 0 or seminorm <= 0:
        raise ValidationError("eps and the seminorm must be positive")
    h = (eps / (2.0 * seminorm)) ** (1.0 / (problem.k + 1))
    if not 0.0 < h < np.inf:
        raise ValidationError(f"the size rule gives h = {h}: the data's scale is out of double-precision range")
    return max(1, int(np.ceil(np.sqrt(problem.d) / h))), h


def discretize(problem: ProblemSpec, n: int) -> tuple[BasisSpec, SparseSymMatrix, np.ndarray]:
    """(spec, M, b): the degree-k basis on the mesh of n subdivisions per
    side (``spec.mesh``), its stiffness matrix M and b = -(load of f).
    Raises ValidationError for resource-model-only dimensions and for meshes
    without free dofs, and CapExceededError for over-cap meshes."""
    if not problem.assembled:
        raise ValidationError(f"d={problem.d} cannot be assembled (resource model only)")
    cells = n**problem.d
    if cells > MAX_CELLS:
        raise CapExceededError(f"mesh would need {count_text(cells)} cells (cap {MAX_CELLS})", required=cells)
    spec = BasisSpec(Mesh(problem.d, n), problem.k)
    if spec.n_dofs == 0:
        raise ValidationError(f"{n} subdivision(s) per side leave no free dofs (every node is on the Dirichlet boundary)")
    M = assemble_stiffness(spec, BilinearForm(problem.diffusion, problem.reaction))
    b = -assemble_load(spec, problem.f_array())
    return spec, M, b
