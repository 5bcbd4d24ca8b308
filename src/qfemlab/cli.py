"""Command-line front end: problem ingestion, experiment orchestration, and
machine-readable result emission.

Subcommands: solve, convergence, simulate, resources, lowerbound, plan.
Exit codes: 0 success, 2 validation error, 3 non-convergence, 4 budget or
cap exceeded (a shot budget, the mesh cell cap, the simulable acceptance
floor, or memory running out). Every artifact embeds the spec hash, the
seed and the package version; identical inputs reproduce outputs
bit-identically in exact modes and distribution-identically (same seed,
same values) in sampling modes.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import __version__
from .assembly import assemble_load, element_quadrature_1d
from .errors import (
    BudgetExceededError,
    CapExceededError,
    NonConvergenceError,
    SimulationFloorError,
    ValidationError,
)
from .lowerbounds import BumpOracle, hybrid_experiment, make_blackbox_pair, oracle_search_demo
from .mesh import evaluate_discrete
from .problems import ProblemSpec, analytic_solution_1d, derive_sobolev, discretize, mesh_size
from .quantum import SampleBudget, estimate_functional
from .resources import SobolevData, classical_cost, exponent_table, quantum_cost
from .solver import conjugate_gradient, estimate_condition_number


def _meta(problem: ProblemSpec | None, seed: int) -> dict:
    return {
        "spec_sha256": problem.sha256() if problem is not None else None,
        "seed": seed,
        "version": __version__,
    }


def solve_report(problem: ProblemSpec) -> dict:
    """Mesh, assemble and CG-solve; emit the functional sum_i u_i <phi_i, r>
    plus iteration and conditioning diagnostics."""
    mesh, spec, M, b = discretize(problem, mesh_size(problem, problem.eps)[0])
    report = conjugate_gradient(M, b, tol=problem.eps / 2.0)
    if not report.converged:
        raise NonConvergenceError("conjugate gradient hit its cap", partial=report.to_dict())
    r_load = assemble_load(mesh, spec, problem.r_array()).values
    functional = float(r_load @ report.solution)
    kappa = estimate_condition_number(M)
    return {
        "meta": _meta(problem, problem.seed),
        "n_elements": mesh.n_elements,
        "n_dofs": spec.n_dofs,
        "h": mesh.h,
        "functional": functional,
        "cg": report.to_dict(),
        "kappa_estimate": kappa,
        "solution": report.solution.tolist(),
    }


def _l2_norm_1d(mesh, p: int, diff) -> float:
    """sqrt(int_0^1 diff(x)^2 dx) with a p-point Gauss rule on each element
    of a 1D mesh; ``diff`` maps a flat array of quadrature points to values."""
    xq, ws = element_quadrature_1d(mesh, p)
    sq = diff(xq.ravel()).reshape(xq.shape) ** 2
    # one dot product per element and a running sum in element order, as an
    # element loop adds them (sq @ ws and a pairwise .sum() round differently)
    return float(np.sqrt(np.cumsum(mesh.h * (sq[:, None] @ ws[:, None])[:, 0, 0])[-1]))


def _l2_error_against_fine(mesh_c, spec_c, coeffs_c, mesh_f, spec_f, coeffs_f) -> float:
    """L2 distance between a coarse and fine discrete solution, integrated
    on the fine mesh (exact: both are piecewise linear on fine triangles
    when the fine subdivision is a multiple of the coarse)."""
    if mesh_c.dimension == 1:
        return _l2_norm_1d(
            mesh_f, 4, lambda xq: evaluate_discrete(mesh_f, spec_f, coeffs_f, xq) - evaluate_discrete(mesh_c, spec_c, coeffs_c, xq)
        )
    # 2D: edge-midpoint rule per fine triangle (exact for quadratics)
    tri_pts = mesh_f.vertices[mesh_f.elements]  # (ne, 3, 2)
    mids = 0.5 * (tri_pts + np.roll(tri_pts, -1, axis=1))  # (ne, 3, 2)
    pts = mids.reshape(-1, 2)
    diff = evaluate_discrete(mesh_f, spec_f, coeffs_f, pts) - evaluate_discrete(mesh_c, spec_c, coeffs_c, pts)
    area = 0.5 / (mesh_f.n * mesh_f.n)
    total = area / 3.0 * float((diff**2).sum())
    return float(np.sqrt(total))


def convergence_report(problem: ProblemSpec, levels: int, n0: int = 4) -> dict:
    """L2 errors across mesh refinements and the fitted log-log slope.

    Uses the analytic polynomial solution when available (1D, reaction = 0),
    otherwise a reference solve on a 4x finer mesh.
    """
    if levels < 3:
        raise ValidationError("need at least 3 refinement levels")
    ns = [n0 * 2**i for i in range(levels)]
    analytic = problem.d == 1 and problem.reaction == 0.0
    if analytic:
        u_poly = analytic_solution_1d(problem.f_array(), problem.diffusion)
    else:
        mesh_f, spec_f, M_f, b_f = discretize(problem, 4 * ns[-1])
        coeffs_f = M_f.solve(b_f)
        del M_f, b_f  # free the reference factorisation before the coarse levels
    rows = []
    for n in ns:
        mesh, spec, M, b = discretize(problem, n)
        coeffs = M.solve(b)
        if analytic:
            p = max(10, 2 * (len(u_poly) + spec.k))
            error = _l2_norm_1d(mesh, p, lambda xq: npoly.polyval(xq, u_poly) - evaluate_discrete(mesh, spec, coeffs, xq))
        else:
            error = _l2_error_against_fine(mesh, spec, coeffs, mesh_f, spec_f, coeffs_f)
        rows.append({"n": n, "h": mesh.h, "error": error})
    hs = np.array([row["h"] for row in rows])
    errs = np.array([row["error"] for row in rows])
    if np.any(errs <= 0) or np.any(errs < 1e-14):
        raise ValidationError(
            "errors at rounding level; the solution is exactly representable, no rate to fit"
        )
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    return {
        "meta": _meta(problem, problem.seed),
        "levels": rows,
        "fitted_slope": slope,
        "reference": "analytic" if analytic else "fine-mesh solve",
    }


def simulate_report(problem: ProblemSpec, exact: bool = False, shots_cap: int = 10**12) -> dict:
    budget = SampleBudget(shots=shots_cap, rng_seed=problem.seed)
    est = estimate_functional(problem, problem.eps, budget, exact_mode=exact)
    out = est.to_dict()
    out["meta"] = _meta(problem, problem.seed)
    out["uses_of_state_prep"] = budget.uses_of_state_prep
    return out


def plan_report(problem: ProblemSpec) -> dict:
    """Mesh size, model costs and, when assemblable, the budget split that
    ``simulate`` runs with."""
    sob = derive_sobolev(problem, max_order=problem.k + 1)
    sem = sob.seminorm(problem.k + 1)
    n_model = (sem / problem.eps) ** (problem.d / (problem.k + 1))
    kappa_model = (sem / problem.eps) ** (2.0 / (problem.k + 1))
    out = {
        "meta": _meta(problem, problem.seed),
        "h": mesh_size(problem, problem.eps)[1],
        "n_model": n_model,
        "kappa_model": kappa_model,
        "classical": classical_cost(max(1, int(n_model)), 3, kappa_model, problem.eps / 2.0, d=problem.d, k=problem.k).to_dict(),
        "quantum": quantum_cost(problem.d, problem.k, problem.eps, sob, 3, preconditioned=False).to_dict(),
        "quantum_precond": quantum_cost(problem.d, problem.k, problem.eps, sob, 3, preconditioned=True).to_dict(),
    }
    if problem.assembled:
        est = estimate_functional(problem, problem.eps, SampleBudget(rng_seed=problem.seed), exact_mode=True)
        out["budget"] = est.budget_split.to_dict()
    return out


def resources_table(dims, degrees, eps_list, sobolev=None) -> list[dict]:
    """Model exponents and values for every pipeline over a (d, k, eps) grid."""
    sob = sobolev or SobolevData((1.0, 1.0, 1.0, 1.0, 1.0))
    rows = []
    for d in dims:
        for k in degrees:
            table = exponent_table(d, k)
            for eps in eps_list:
                sem = sob.seminorm(k + 1)
                kappa_model = (sem / eps) ** (2.0 / (k + 1))
                n_model = (sem / eps) ** (d / (k + 1))
                entries = {
                    "classical": classical_cost(max(1, int(np.ceil(n_model))), 3, kappa_model, eps / 2.0, d=d, k=k),
                    "classical_precond": classical_cost(max(1, int(np.ceil(n_model))), 3, 1.0, eps / 2.0, d=d, k=k),
                    "quantum": quantum_cost(d, k, eps, sob, 3, preconditioned=False),
                    "quantum_precond": quantum_cost(d, k, eps, sob, 3, preconditioned=True),
                }
                entries["classical_precond"].exponent_of_inv_eps = table["classical_precond"][0]
                entries["classical_precond"].exponent_terms = table["classical_precond"]
                for pipeline, est in entries.items():
                    rows.append(
                        {
                            "pipeline": pipeline,
                            "d": d,
                            "k": k,
                            "eps": eps,
                            "exponent": "+".join(str(t) for t in table[pipeline]),
                            "model_value": est.runtime_model,
                            "oracle_counts": ";".join(
                                f"{name}={val:.6e}" for name, val in sorted(est.oracle_calls.items())
                            ),
                        }
                    )
    return rows


def lowerbound_hybrid_table(t_list, eps_list, draws, dim=16, trials=2000, seed=0, exact: bool = False) -> list[dict]:
    rows = []
    for T in t_list:
        for eps in eps_list:
            worst = 0.0
            bound = 0.5 + T * eps / np.sqrt(2.0)
            for rep in range(draws):
                pair = make_blackbox_pair(dim, eps, T, rng_seed=seed + 1000 * rep + 17 * T)
                res = hybrid_experiment(pair, trials=0 if exact else trials, rng_seed=seed + rep)
                worst = max(worst, res.exact_probability)
            rows.append(
                {
                    "T": T,
                    "eps_sep": eps,
                    "exact_advantage": worst - 0.5,
                    "bound": bound,
                    "violations": int(worst > bound),
                }
            )
    return rows


def lowerbound_bump_table(n_list, per_n=8, seed=0) -> list[dict]:
    rows = []
    rng = np.random.default_rng(seed)
    for n in n_list:
        for _ in range(per_n):
            y0 = int(rng.integers(0, n))
            oracle = BumpOracle(n, y0)
            res = oracle_search_demo(oracle, strategy="deterministic_scan")
            rows.append(
                {
                    "N": n,
                    "y0": y0,
                    "answer": int(res.answer),
                    "correct": int(res.answer == (y0 < n / 2)),
                    "queries": res.queries,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# emission

def _rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _emit(payload, args, default_name: str):
    if isinstance(payload, list):
        text = _rows_to_csv(payload) if args.format == "csv" else json.dumps(payload, indent=2, sort_keys=True)
        suffix = ".csv" if args.format == "csv" else ".json"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
        suffix = ".json"
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / (default_name + suffix)
        path.write_text(text)
        print(str(path))
    else:
        print(text.rstrip("\n"))


def _load_problem(args) -> ProblemSpec:
    try:
        text = Path(args.spec).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read spec file: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    problem = ProblemSpec.from_dict(payload)
    if args.seed is not None:
        problem = ProblemSpec.from_dict({**problem.to_dict(), "seed": args.seed})
    return problem


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qfemlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_spec=True):
        if needs_spec:
            p.add_argument("--spec", required=True, help="problem spec JSON file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--exact", action="store_true", help="exact-expectation mode for sampling estimators")
        p.add_argument("--out", default=None, help="output directory (default: stdout)")
        p.add_argument("--format", choices=["json", "csv"], default="json")

    common(sub.add_parser("solve", help="mesh, assemble, CG-solve"))
    p_conv = sub.add_parser("convergence", help="refinement study with fitted slope")
    common(p_conv)
    p_conv.add_argument("--levels", type=int, default=4)
    common(sub.add_parser("simulate", help="run the sampling pipeline end to end"))
    common(sub.add_parser("plan", help="mesh size, budget split and model costs"))

    p_res = sub.add_parser("resources", help="runtime-model table over (d, k, eps)")
    common(p_res, needs_spec=False)
    p_res.add_argument("--dims", type=_int_list, default=[1, 2, 3, 4])
    p_res.add_argument("--degrees", type=_int_list, default=[1, 2, 3])
    p_res.add_argument("--eps", type=_float_list, default=[0.01])

    p_lb = sub.add_parser("lowerbound", help="distinguishability / bump-search demos")
    common(p_lb, needs_spec=False)
    p_lb.add_argument("--mode", choices=["hybrid", "bump"], required=True)
    p_lb.add_argument("--T", type=_int_list, default=[1, 2, 4, 8])
    p_lb.add_argument("--eps-sep", type=_float_list, default=[0.01, 0.05, 0.1])
    p_lb.add_argument("--draws", type=int, default=50)
    p_lb.add_argument("--dim", type=int, default=16)
    p_lb.add_argument("--N", type=_int_list, default=[16, 64, 256])
    p_lb.add_argument("--per-n", type=int, default=8)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            _emit(solve_report(_load_problem(args)), args, "solve")
        elif args.command == "convergence":
            _emit(convergence_report(_load_problem(args), args.levels), args, "convergence")
        elif args.command == "simulate":
            _emit(simulate_report(_load_problem(args), exact=args.exact), args, "simulate")
        elif args.command == "plan":
            _emit(plan_report(_load_problem(args)), args, "plan")
        elif args.command == "resources":
            _emit(resources_table(args.dims, args.degrees, args.eps), args, "resources")
        elif args.command == "lowerbound":
            seed = args.seed if args.seed is not None else 0
            if args.mode == "hybrid":
                rows = lowerbound_hybrid_table(args.T, args.eps_sep, args.draws, dim=args.dim, seed=seed, exact=args.exact)
            else:
                rows = lowerbound_bump_table(args.N, per_n=args.per_n, seed=seed)
            _emit(rows, args, f"lowerbound_{args.mode}")
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except (BudgetExceededError, CapExceededError, SimulationFloorError) as exc:
        print(f"budget/cap exceeded: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
