"""Command-line front end: problem ingestion, experiment orchestration, and
machine-readable result emission.

Subcommands: solve, convergence, simulate, resources, lowerbound, plan.
Each takes ``--out DIR`` (default: stdout) and only the flags it reads;
any other flag exits 2. solve, convergence, simulate and plan read
``--spec`` and ``--seed``; convergence also reads ``--levels`` and simulate
``--exact``. resources reads ``--format json|csv`` and its grid flags.
lowerbound reads ``--mode``, ``--seed``, ``--format json|csv`` and the grid
flags of its mode; a flag of the other mode exits 2.
Exit codes: 0 success, 2 validation error, 3 non-convergence, 4 budget or
cap exceeded (a shot budget, the mesh cell cap, the simulable acceptance
floor, or memory running out). Every artifact embeds the spec hash, the
seed and the package version; at a fixed BLAS thread count, identical
inputs reproduce outputs bit-identically in exact modes and
distribution-identically (same seed, same values) in sampling modes.
solve's ``kappa_estimate`` and the ledger's modelled costs use an upper
bound on the condition number: lambda_min to rounding level over an upper
bound on lambda_max, certified with a relative 1e-12 margin. lambda_min
comes from one LOPCG loop in 1D and 2D, preconditioned by the band factor
or the sine transform; only 2D matrices past the class bound (about
reaction > 2.4 diffusion n^2) read it by shift-invert ARPACK instead.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import __version__
from .assembly import _reference_values_at, assemble_gram, assemble_load, element_quadrature_1d, poly_degree
from .errors import (
    BudgetExceededError,
    CapExceededError,
    NonConvergenceError,
    SimulationFloorError,
    ValidationError,
)
from .lowerbounds import BumpOracle, aligned_probability, hybrid_experiment, make_blackbox_pair, oracle_search_demo
from .mesh import prolongation
from .problems import MAX_CELLS, ProblemSpec, analytic_solution_1d, discretize, mesh_size
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
    r_load = assemble_load(mesh, spec, problem.r_array())
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        functional = float(r_load @ report.solution)
    if not np.isfinite(functional):
        raise ValidationError("the functional leaves double-precision range")
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


def convergence_report(problem: ProblemSpec, levels: int) -> dict:
    """L2 errors across mesh refinements, from 4 subdivisions per side
    doubling at each level, and the fitted log-log slope.

    Uses the analytic polynomial solution when available (1D, reaction = 0),
    integrated by Gauss quadrature on each element; the discrete solution's
    values at the Gauss points come from the reference basis table the loads
    use. A solution of degree <= k is reproduced exactly by the discrete one,
    so it has no rate to fit and is refused. Otherwise the reference
    is a solve u_f on a 4x finer mesh, in which every level is nested: with
    the prolongation P of a level's solution u_c onto the fine basis and the
    fine Gram matrix G_f, the error is sqrt(e^T G_f e) for e = u_f - P u_c,
    the exact L2 distance of the two discrete solutions. No point evaluation
    is needed.
    """
    if levels < 3:
        raise ValidationError("need at least 3 refinement levels")
    ns = [4 * 2**i for i in range(levels)]
    analytic = problem.d == 1 and problem.reaction == 0.0
    if analytic:
        u_poly = analytic_solution_1d(problem.f_array(), problem.diffusion)
        if poly_degree(u_poly) <= problem.k:
            raise ValidationError(f"the solution has degree <= k = {problem.k}, so every level reproduces it; no rate to fit")

        def error(mesh, spec, coeffs):
            p = max(10, 2 * (len(u_poly) + spec.k))
            nodal = np.zeros(spec.n_nodes)
            nodal[spec.dof_nodes] = coeffs
            # element e's local node a is node e k + a; (n_elements, p), in
            # the point order of element_quadrature_1d
            element_nodes = np.arange(mesh.n)[:, None] * spec.k + np.arange(spec.k + 1)
            uh = (nodal[element_nodes] @ _reference_values_at(spec.k, p)).ravel()
            return _l2_norm_1d(mesh, p, lambda xq: npoly.polyval(xq, u_poly) - uh)
    else:
        mesh_f, spec_f, M_f, b_f = discretize(problem, 4 * ns[-1])
        coeffs_f = M_f.solve(b_f)
        del M_f, b_f  # free the reference matrix (and its 1D band factor) before anything else runs
        gram_f = assemble_gram(mesh_f, spec_f)

        def error(mesh, spec, coeffs):
            e = coeffs_f - prolongation(spec, spec_f, coeffs)
            return float(np.sqrt(max(e @ (gram_f @ e), 0.0)))  # >= 0 up to rounding
    rows = []
    for n in ns:
        mesh, spec, M, b = discretize(problem, n)
        rows.append({"n": n, "h": mesh.h, "error": error(mesh, spec, M.solve(b))})
    hs = np.array([row["h"] for row in rows])
    errs = np.array([row["error"] for row in rows])
    if np.any(errs <= 0):
        raise ValidationError("zero errors; the solution is exactly representable, no rate to fit")
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    return {
        "meta": _meta(problem, problem.seed),
        "levels": rows,
        "fitted_slope": slope,
        "reference": "analytic" if analytic else "fine-mesh solve",
    }


def simulate_report(problem: ProblemSpec, exact: bool = False) -> dict:
    budget = SampleBudget(rng_seed=problem.seed)
    est = estimate_functional(problem, problem.eps, budget, exact_mode=exact)
    out = est.to_dict()
    out["meta"] = _meta(problem, problem.seed)
    out["uses_of_state_prep"] = budget.uses_of_state_prep
    return out


def _model_costs(d: int, k: int, eps: float, sob: SobolevData):
    """Model size N, condition number kappa and the cost of each of the four
    pipelines, for ``plan`` and ``resources`` alike. N is rounded up."""
    sem = sob.seminorm(k + 1)
    try:
        n_model = (sem / eps) ** (d / (k + 1))
        kappa_model = (sem / eps) ** (2.0 / (k + 1))
    except OverflowError:  # a float power past double range
        n_model = kappa_model = np.inf
    if not (np.isfinite(n_model) and np.isfinite(kappa_model)):
        raise ValidationError(f"the model size N = {n_model} or condition number {kappa_model} overflows at eps = {eps}")
    n_cg = max(1, int(np.ceil(n_model)))
    # kappa = 1 after preconditioning, so only N carries a power of 1/eps
    precond_terms = exponent_table(d, k)["classical_precond"]
    costs = {
        "classical": classical_cost(n_cg, 3, kappa_model, eps / 2.0, d=d, k=k),
        "classical_precond": dataclasses.replace(
            classical_cost(n_cg, 3, 1.0, eps / 2.0, d=d, k=k),
            pipeline="classical_precond",
            exponent_of_inv_eps=precond_terms[0],
            exponent_terms=precond_terms,
        ),
        "quantum": quantum_cost(d, k, eps, sob, 3, preconditioned=False),
        "quantum_precond": quantum_cost(d, k, eps, sob, 3, preconditioned=True),
    }
    return n_model, kappa_model, costs


def plan_report(problem: ProblemSpec) -> dict:
    """Mesh size, model costs and, when assemblable, the budget split that
    ``simulate`` runs with."""
    n_model, kappa_model, costs = _model_costs(problem.d, problem.k, problem.eps, problem.solution_sobolev)
    out = {
        "meta": _meta(problem, problem.seed),
        "h": mesh_size(problem, problem.eps)[1],
        "n_model": n_model,
        "kappa_model": kappa_model,
        **{pipeline: est.to_dict() for pipeline, est in costs.items()},
    }
    if problem.assembled:
        est = estimate_functional(problem, problem.eps, SampleBudget(rng_seed=problem.seed), exact_mode=True)
        out["budget"] = est.budget_split.to_dict()
    return out


def resources_table(dims, degrees, eps_list) -> list[dict]:
    """Model exponents and values for every pipeline over a (d, k, eps) grid,
    with every Sobolev seminorm of the solution taken as 1."""
    if not all(np.isfinite(eps) and eps > 0 for eps in eps_list):
        raise ValidationError(f"every --eps must be finite and > 0, got {eps_list}")
    sob = SobolevData((1.0, 1.0, 1.0, 1.0, 1.0))
    rows = []
    for d in dims:
        for k in degrees:
            for eps in eps_list:
                for pipeline, est in _model_costs(d, k, eps, sob)[2].items():
                    rows.append(
                        {
                            "pipeline": pipeline,
                            "d": d,
                            "k": k,
                            "eps": eps,
                            "exponent": "+".join(str(t) for t in est.exponent_terms),
                            "model_value": est.runtime_model,
                            "oracle_counts": ";".join(
                                f"{name}={val:.6e}" for name, val in sorted(est.oracle_calls.items())
                            ),
                        }
                    )
    return rows


def lowerbound_hybrid_table(t_list=None, eps_list=None, draws=None, dim=None, seed=0) -> list[dict]:
    """Exact worst advantage over ``draws`` random pairs per (T, eps), next
    to the exact advantage of the aligned interleaving and the bound; a row
    violates the bound if either advantage exceeds it.
    Arguments left None take the CLI defaults: T 1,2,4,8, eps 0.01,0.05,0.1, 50 draws, dim 16."""
    t_list = [1, 2, 4, 8] if t_list is None else t_list
    eps_list = [0.01, 0.05, 0.1] if eps_list is None else eps_list
    draws = 50 if draws is None else draws
    dim = 16 if dim is None else dim
    if seed < 0 or draws < 1 or any(T < 0 for T in t_list):
        raise ValidationError(f"need --seed >= 0, --draws >= 1 and every --T >= 0, got {seed}, {draws}, {t_list}")
    rows = []
    for T in t_list:
        for eps in eps_list:
            worst = 0.0
            bound = 0.5 + T * eps / np.sqrt(2.0)
            for rep in range(draws):
                pair = make_blackbox_pair(dim, eps, T, rng_seed=seed + 1000 * rep + 17 * T)
                worst = max(worst, hybrid_experiment(pair).exact_probability)
            aligned = aligned_probability(eps, T)
            rows.append(
                {
                    "T": T,
                    "eps_sep": eps,
                    "exact_advantage": worst - 0.5,
                    "aligned_advantage": aligned - 0.5,
                    "bound": bound,
                    "violations": int(max(worst, aligned) > bound),
                }
            )
    return rows


def lowerbound_bump_table(n_list=None, per_n=None, seed=0) -> list[dict]:
    """Bump-search answers and query counts, ``per_n`` random bumps per N.
    Arguments left None take the CLI defaults: N 16,64,256 and 8 per N.
    A search scans floor(N/2) cells; more than ``MAX_CELLS`` cells over the
    whole table are refused."""
    n_list = [16, 64, 256] if n_list is None else n_list
    per_n = 8 if per_n is None else per_n
    if seed < 0 or per_n < 1 or any(n < 2 for n in n_list):
        raise ValidationError(f"need --seed >= 0, --per-n >= 1 and every --N >= 2, got {seed}, {per_n}, {n_list}")
    cells = per_n * sum(n // 2 for n in n_list)
    if cells > MAX_CELLS:
        raise CapExceededError(f"bump searches would scan {cells} cells (cap {MAX_CELLS})", required=cells)
    rows = []
    rng = np.random.default_rng(seed)
    for n in n_list:
        for _ in range(per_n):
            y0 = int(rng.integers(0, n))
            oracle = BumpOracle(n, y0)
            res = oracle_search_demo(oracle)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing never changes it."""
    parser = argparse.ArgumentParser(prog="qfemlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, spec=False, seed=False, table=False):
        p = sub.add_parser(name, help=summary)
        if spec:
            p.add_argument("--spec", required=True, help="problem spec JSON file")
        if seed:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory (default: stdout)")
        if table:
            p.add_argument("--format", choices=["json", "csv"], default="json")
        return p

    command("solve", "mesh, assemble, CG-solve", spec=True, seed=True)
    command("convergence", "refinement study with fitted slope", spec=True, seed=True).add_argument("--levels", type=int, default=4)
    p_sim = command("simulate", "run the sampling pipeline end to end", spec=True, seed=True)
    p_sim.add_argument("--exact", action="store_true", help="exact-expectation mode for sampling estimators")
    command("plan", "mesh size, budget split and model costs", spec=True, seed=True)

    p_res = command("resources", "runtime-model table over (d, k, eps)", table=True)
    p_res.add_argument("--dims", type=_int_list, default=[1, 2, 3, 4])
    p_res.add_argument("--degrees", type=_int_list, default=[1, 2, 3])
    p_res.add_argument("--eps", type=_float_list, default=[0.01])

    p_lb = command("lowerbound", "distinguishability / bump-search demos", seed=True, table=True)
    p_lb.add_argument("--mode", choices=["hybrid", "bump"], required=True)
    # every mode flag defaults to None, so main can tell a flag of the other
    # mode from its absence; the table functions fill in the defaults
    p_lb.add_argument("--T", type=_int_list, help="hybrid mode (default 1,2,4,8)")
    p_lb.add_argument("--eps-sep", type=_float_list, help="hybrid mode (default 0.01,0.05,0.1)")
    p_lb.add_argument("--draws", type=int, help="hybrid mode (default 50)")
    p_lb.add_argument("--dim", type=int, help="hybrid mode (default 16)")
    p_lb.add_argument("--N", type=_int_list, help="bump mode (default 16,64,256)")
    p_lb.add_argument("--per-n", type=int, help="bump mode (default 8)")
    return parser


# for each lowerbound mode, the flags (by dest) that only the other mode reads
_OTHER_MODE_FLAGS = {
    "hybrid": {"N": "--N", "per_n": "--per-n"},
    "bump": {"T": "--T", "eps_sep": "--eps-sep", "draws": "--draws", "dim": "--dim"},
}


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
            given = [flag for dest, flag in _OTHER_MODE_FLAGS[args.mode].items() if getattr(args, dest) is not None]
            if given:
                raise ValidationError(f"{', '.join(given)} not read by --mode {args.mode}")
            seed = args.seed if args.seed is not None else 0
            if args.mode == "hybrid":
                rows = lowerbound_hybrid_table(args.T, args.eps_sep, args.draws, dim=args.dim, seed=seed)
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
