"""Seeded workload definitions for the qfemlab benchmark.

A workload fixes the problem sizes; the seed draws the polynomial data
(``f`` and ``r`` coefficients) and the per-spec sampling seeds. The
program under test only ever sees the generated spec files.

Sizes are pinned without trusting the program's own size rules: in 1D the
data ``f`` is rescaled so that the Sobolev quantity that sets the mesh (or
the shot count) has a fixed value, computed here from the analytic
solution; in 2D the spec carries an explicit ``sobolev`` field, which the
program uses for mesh sizing.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

SPEC_DIR = Path(__file__).resolve().parent / "specs"


def base_spec(name: str) -> dict:
    """One of the checked-in reference specs (p1, p1k2, p2)."""
    return json.loads((SPEC_DIR / f"{name}.json").read_text())


@dataclass(frozen=True)
class Op:
    """One CLI invocation: subcommand, spec payload, extra arguments."""

    kind: str
    spec: dict
    args: tuple = ()
    label: str = ""


# ---------------------------------------------------------------------------
# 1D polynomial calculus (independent of qfemlab)

def solution_1d(f, diffusion: float = 1.0) -> np.ndarray:
    """Coefficients of u with diffusion * u'' = f, u(0) = u'(1) = 0."""
    g = npoly.polyint(np.asarray(f, dtype=float) / diffusion)
    g[0] -= npoly.polyval(1.0, g)
    return npoly.polyint(g)


def l2_norm_1d(c) -> float:
    sq = npoly.polyint(npoly.polymul(c, c))
    return float(np.sqrt(npoly.polyval(1.0, sq)))


def seminorm_1d(c, order: int) -> float:
    return l2_norm_1d(npoly.polyder(np.asarray(c, dtype=float), order))


def exact_functional_1d(f, r, diffusion: float = 1.0) -> float:
    """int_0^1 r u for the analytic solution u of the 1D model problem."""
    prod = npoly.polyint(npoly.polymul(solution_1d(f, diffusion), r))
    return float(npoly.polyval(1.0, prod))


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _eps_for_n(n: int, k: int) -> float:
    """eps for which h = (eps / (2 |u|_{k+1}))^(1/(k+1)) gives ceil(1/h) = n
    when |u|_{k+1} = 1."""
    return 2.0 * (1.0 / (n - 0.5)) ** (k + 1)


def _f_2d(rng) -> list:
    """Coefficients c[i][j] of x^i y^j (degree <= 1 in each variable) around
    p2's f = -1, scaled so that the projection of f on the first Dirichlet
    mode sin(pi x) sin(pi y) equals that of f = -1. This pins ||u~||, and
    with it the simulate shot count, up to the higher modes."""
    c = np.array([[-1.0, 0.0], [0.0, 0.0]]) + rng.uniform(-0.25, 0.25, (2, 2))
    m = np.array([2.0, 1.0]) / np.pi  # int_0^1 x^i sin(pi x) dx, i = 0, 1
    return (c * (-4.0 / np.pi**2) / (m @ c @ m)).tolist()


# ---------------------------------------------------------------------------
# workloads

FEM2D_EPS = 5.1e-4        # with |u|_2 = 2: n = 126 per side, 15,625 dofs
CG1D_ELEMENTS = {1: 1000, 2: 500, 3: 300}  # about 1,000 dofs for each k
DENSE2D_SIM_EPS = 7.3e-3  # 1,764 dofs; convergence --levels 3 solves 3,969
SAMPLE1D_U_NORM = 0.2     # ||u||_L2 after rescaling f
SAMPLE1D_SHOTS = {1: 480_000, 2: 430_000}  # overlap shots ~ 72 ||u||^2 / eps^2


def fem2d_ops(rng) -> list[Op]:
    base = base_spec("p2")
    ops = []
    for i in range(5):
        spec = {
            **base,
            "f": _f_2d(rng),
            "r": [[rng.uniform(0.8, 1.2), rng.uniform(-0.2, 0.2)], [rng.uniform(-0.2, 0.2), 0.0]],
            "eps": FEM2D_EPS,
            "seed": _seed(rng),
        }
        ops.append(Op("solve", spec, label=f"p2-like #{i}"))
    return ops


def cg1d_ops(rng) -> list[Op]:
    ops = []
    for rep in range(3):
        for k, n in CG1D_ELEMENTS.items():
            f = rng.uniform(0.5, 1.5, 4) * rng.choice([-1.0, 1.0], 4)
            f = f / seminorm_1d(solution_1d(f), k + 1)  # |u|_{k+1} = 1 fixes n
            spec = {
                "d": 1,
                "k": k,
                "pde": {"diffusion": 1.0, "reaction": 0.0},
                "f": f.tolist(),
                "r": [rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)],
                "eps": _eps_for_n(n, k),
                "seed": _seed(rng),
            }
            ops.append(Op("solve", spec, label=f"k={k} n={n} #{rep}"))
    return ops


def dense2d_ops(rng) -> list[Op]:
    base = base_spec("p2")
    ops = []
    for i in range(5):
        spec = {**base, "f": _f_2d(rng), "seed": _seed(rng)}
        ops.append(Op("convergence", spec, ("--levels", "3"), label=f"p2-like #{i}"))
        ops.append(Op("simulate", {**spec, "eps": DENSE2D_SIM_EPS}, label=f"p2-like #{i}"))
    return ops


def sample1d_ops(rng) -> list[Op]:
    p1, p1k2 = base_spec("p1"), base_spec("p1k2")
    ops = []
    for i in range(20):
        for base, k in ((p1, 1), (p1k2, 2)):
            f = np.zeros(max(len(base["f"]), 2))
            f[: len(base["f"])] = base["f"]
            if k == 1:
                f[1] += rng.uniform(-0.5, 0.5)
                r = [rng.uniform(0.8, 1.2), rng.uniform(-0.2, 0.2)]
            else:
                f += rng.uniform(-1.0, 1.0, len(f)) * np.arange(1, len(f) + 1)
                r = (np.asarray(base["r"], dtype=float) + rng.uniform(-0.2, 0.2, len(base["r"]))).tolist()
            f *= SAMPLE1D_U_NORM / l2_norm_1d(solution_1d(f))  # ||u|| fixes the shot count
            spec = {
                **base,
                "f": f.tolist(),
                "r": r,
                "eps": SAMPLE1D_U_NORM * float(np.sqrt(72.0 / SAMPLE1D_SHOTS[k])),
                "seed": _seed(rng),
            }
            ops.append(Op("simulate", spec, label=f"k={k} #{i}"))
    return ops


def probe_ops() -> list[Op]:
    """CLI default paths run once per run, untimed (ROADMAP baseline rows)."""
    return [
        Op("simulate", base_spec("p1"), label="probe simulate p1"),
        Op("simulate", base_spec("p1k2"), label="probe simulate p1k2"),
        Op("lowerbound", {}, ("--mode", "hybrid"), label="probe lowerbound --mode hybrid"),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_ops: object

    def ops(self, seed: int) -> list[Op]:
        return self.make_ops(np.random.default_rng([seed, _WORKLOAD_IDS[self.name]]))


# fem2d is not listed in BENCHMARK.json: its run-level op times drift with
# the host more than any bound allows (see README.md)
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fem2d",
            "solve on 2D P1 reaction-diffusion at 15,625 dofs: per-element assembly loops "
            "dominate, CG is small and no dense matrix is built",
            fem2d_ops,
        ),
        Workload(
            "cg1d",
            "solve on 1D k=1..3 at about 1,000 dofs (kappa ~ 1e6): CG with per-step Ritz "
            "eigenvalues is over 90% of the op, assembly is milliseconds",
            cg1d_ops,
        ),
        Workload(
            "dense2d",
            "2D convergence --levels 3 (3,969-dof reference) and simulate at 1,764 dofs: "
            "dense solve and eigvalsh on to_dense() dominate",
            dense2d_ops,
        ),
        Workload(
            "sample1d",
            "1D k=1,2 simulate drawing ~0.45M overlap shots on about 30 dofs: per-shot state "
            "sampling dominates time and memory",
            sample1d_ops,
        ),
    )
}
_WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}
