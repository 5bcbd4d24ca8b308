"""The 2D sine-transform preconditioner C = diffusion * K5 + reaction/n^2 * I:
its DST-I solve, the bound C/4 <= M <= C behind preconditioned CG, and the
a-priori bound nu <= lambda_min <= 4 nu that is every 2D matrix's
lambda_min, checked against dense and factored references."""
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, eigsh, splu

import qfemlab
from qfemlab import (
    BasisSpec,
    BilinearForm,
    Mesh,
    NonConvergenceError,
    ValidationError,
    assemble_load,
    assemble_stiffness,
    cli,
    conjugate_gradient,
)
from qfemlab.assembly import SineTransformPreconditioner

EPS = np.finfo(float).eps
GRID = [(n, reaction) for n in (2, 3, 8, 16, 32) for reaction in (0.0, 1.0, 1000.0)]


def system(n, reaction, diffusion=1.0):
    spec = BasisSpec(Mesh(2, n), 1)
    M = assemble_stiffness(spec, BilinearForm(diffusion, reaction))
    return M, -assemble_load(spec, [[-1.0, 0.5], [0.3, 0.0]])


def lumped(n, reaction, diffusion):
    """C, densely: pure-diffusion P1 on this grid is the five-point stencil."""
    return diffusion * system(n, 0.0)[0].csr.toarray() + reaction / n**2 * np.eye((n - 1) ** 2)


@pytest.mark.parametrize("n,reaction", GRID)
def test_preconditioner_inverts_stencil_plus_lumped_mass(n, reaction):
    C = lumped(n, reaction, diffusion=0.3)
    v = np.random.default_rng(n).standard_normal(C.shape[0])
    x = SineTransformPreconditioner(n, 0.3, reaction)(v)
    ref = np.linalg.solve(C, v)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.array_equal(SineTransformPreconditioner(n, 0.3, reaction)(v[:, None])[:, 0], x)


@pytest.mark.parametrize("diffusion", [1.0, 0.3])
@pytest.mark.parametrize("n,reaction", GRID)
def test_preconditioned_spectrum_lies_in_quarter_to_one(n, reaction, diffusion):
    # kappa(C^{-1} M) <= 4: the certificate and the cap of preconditioned CG rest on it
    M = system(n, reaction, diffusion)[0]
    mu = scipy.linalg.eigh(M.csr.toarray(), lumped(n, reaction, diffusion), eigvals_only=True)
    assert 0.25 * (1.0 - 1e-12) <= mu.min() and mu.max() <= 1.0 + 1e-12
    if reaction == 0.0:  # C = M
        assert np.allclose(mu, 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 8, 16, 32])
def test_pure_diffusion_pcg_converges_in_one_step(n):
    M, b = system(n, 0.0)
    report = conjugate_gradient(M, b, tol=1e-12, precond=M._precond)
    assert report.converged and report.iterations == 1
    assert report.lambda_min_estimate == 0.25  # the bound on the spectrum of C^{-1} M


@pytest.mark.parametrize("n,reaction", GRID)
def test_2d_solve_matches_dense_solve(n, reaction):
    M, b = system(n, reaction)
    x_ref = np.linalg.solve(M.csr.toarray(), b)
    assert np.linalg.norm(M.solve(b) - x_ref) <= 1e-13 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("reaction", [1.0, 1000.0])
def test_pcg_certificate_bounds_the_true_energy_error(reaction):
    M, b = system(32, reaction)
    exact = np.linalg.solve(M.csr.toarray(), b)
    for tol in (1e-1, 1e-2, 1e-4, 1e-8):
        report = conjugate_gradient(M, b, tol=tol, precond=M._precond)
        diff = report.solution - exact
        true_rel = np.sqrt(diff @ M.matvec(diff)) / np.sqrt(exact @ M.matvec(exact))
        assert report.converged and report.final_energy_error_estimate <= tol
        assert true_rel <= report.final_energy_error_estimate * (1.0 + 1e-12), tol


def test_2d_solve_raises_at_the_pcg_cap(monkeypatch):
    def capped(M, b, **kwargs):
        return conjugate_gradient(M, b, **kwargs, cap=1)

    monkeypatch.setattr(qfemlab.solver, "conjugate_gradient", capped)
    M, b = system(16, 1.0)
    with pytest.raises(NonConvergenceError, match="rounding level"):
        M.solve(b)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rhs_is_refused_before_iterating(bad):
    M, b = system(16, 1.0)
    b[5] = bad
    with pytest.raises(ValidationError, match="right-hand side is not finite"):
        M.solve(b)
    with pytest.raises(ValidationError, match="right-hand side is not finite"):
        conjugate_gradient(M, b)


def assert_brackets(nu, lam_min, lam_max, ratio=4.0):
    """nu <= lambda_min <= ratio * nu, for a reference lambda_min (eigvalsh
    or shift-invert Lanczos) accurate to O(eps ||M||) absolute."""
    rounding = 16 * EPS * lam_max
    assert nu <= lam_min + rounding and lam_min <= ratio * nu + rounding, (nu, lam_min)


def shift_invert_lambda_min(M):
    """lambda_min by shift-invert Lanczos on a sparse LU factor."""
    csc = M.csr.tocsc()
    inv = LinearOperator(csc.shape, matvec=splu(csc).solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(M.n)
    return eigsh(csc, k=1, sigma=0.0, OPinv=inv, v0=v0, return_eigenvectors=False)[0]


@pytest.mark.parametrize("n,reaction", GRID)
def test_lambda_min_matches_dense(n, reaction):
    # extremes() takes the a-priori nu, and lambda_min <= lambda_min(C) <= 4 nu
    M = system(n, reaction)[0]
    ev = np.linalg.eigvalsh(M.csr.toarray())
    lam_min = M.extremes()[0]
    assert lam_min == M._precond.lambda_min_bound
    assert_brackets(lam_min, ev[0], ev[-1])
    c_min = np.linalg.eigvalsh(lumped(n, reaction, 1.0))[0]
    assert ev[0] <= c_min + 16 * EPS * ev[-1] and c_min <= 4 * lam_min * (1.0 + 1e-12)


BOUND_REACTIONS = [0.0, *np.logspace(-2, 9, 45)]


@pytest.mark.parametrize("diffusion", [1.0, 0.3, 1e-3])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 16, 32, 64])
def test_lambda_min_bound_brackets_the_dense_lambda_min(n, diffusion):
    # nu <= lambda_min <= 4 nu holds for every reaction; on this grid
    # lambda_min <= 2 nu was measured (0.50 at n = 2, a single dof, and at
    # least 0.667 for n >= 3). eigvalsh up to n = 16, shift-invert Lanczos
    # (0.1 s a solve at n = 64, so every fifth reaction there) above
    for reaction in BOUND_REACTIONS[::5] if n == 64 else BOUND_REACTIONS:
        M = system(n, reaction, diffusion)[0]
        nu = SineTransformPreconditioner(n, diffusion, reaction).lambda_min_bound
        if n <= 16:
            ev = np.linalg.eigvalsh(M.csr.toarray())
            lam_min, lam_max = ev[0], ev[-1]
        else:
            lam_min, lam_max = shift_invert_lambda_min(M), M.extremes()[1]
        assert_brackets(nu, lam_min, lam_max, ratio=2.0)


@pytest.mark.parametrize("reaction", [0.0, 1.0, 1000.0])
@pytest.mark.parametrize("n", [64, 126])
def test_lambda_min_matches_factored_shift_invert(n, reaction):
    M = system(n, reaction)[0]
    lam_min, lam_max = M.extremes()
    assert lam_min == M._precond.lambda_min_bound
    assert_brackets(lam_min, shift_invert_lambda_min(M), lam_max)


def _count_calls(monkeypatch, name, owner=qfemlab.assembly):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(0)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def boundary(n):
    """The largest reaction (diffusion 1) at which the lowest eigenvector of
    M lies in the symmetry class of the lowest sine mode; past it,
    lambda_min belongs to another class."""
    k11, k12 = 4 - 4 * np.cos(np.pi / n), 4 - 2 * np.cos(np.pi / n) - 2 * np.cos(2 * np.pi / n)
    return 4 * n**2 * (1 - k11 / k12)


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_mass_dominates_the_two_bounds_behind_nu(n):
    # the two mass bounds whose convex combinations give nu:
    # Mass >= I / 4n^2 (element mass >= 1/4 lumped) and
    # Mass = (I + S/6) / 2n^2 >= (4/3 I - K5/6) / 2n^2, as S = 4 - K5 + P
    # with P, the NE-SW paths, >= -2
    K5 = system(n, 0.0)[0].csr.toarray()
    mass = system(n, 1.0)[0].csr.toarray() - K5
    eye = np.eye(len(K5))
    for lower in (eye / 4, (4 / 3 * eye - K5 / 6) / 2):
        assert np.linalg.eigvalsh(mass - lower / n**2).min() >= -1e-14 / n**2


@pytest.mark.parametrize(
    "n,reaction",
    [(20, 1.0), (64, 1000.0), (8, 0.99 * boundary(8)), (16, 0.99 * boundary(16)), (16, 1.01 * boundary(16)),
     (16, 1000.0), (4, 1e4), (5, 1e4), (20, 1e4), (20, 1e6)],
)
def test_2d_lambda_min_is_nu_without_a_loop_or_a_factor(monkeypatch, n, reaction):
    """On either side of ``boundary``, where the lowest eigenvector changes
    symmetry class, and far from it, extremes() takes the closed-form nu:
    it runs no eigenvalue loop and factors nothing."""
    runs, factors = (_count_calls(monkeypatch, name) for name in ("lowest_eigenvalue", "cholesky_banded"))
    M = system(n, reaction)[0]
    ev = np.linalg.eigvalsh(M.csr.toarray())
    lam_min = M.extremes()[0]
    assert runs == factors == []
    assert lam_min == M._precond.lambda_min_bound
    assert_brackets(lam_min, ev[0], ev[-1])


@pytest.mark.parametrize("n", [64, 126])
def test_high_reaction_matches_factored_references(n):
    # at reaction 1e6 the solve and the a-priori lambda_min are checked
    # against a sparse LU factor and shift-invert Lanczos on it
    M, b = system(n, 1e6)
    x_ref = splu(M.csr.tocsc()).solve(b)
    assert np.linalg.norm(M.solve(b) - x_ref) <= 1e-13 * np.linalg.norm(x_ref)
    ref = shift_invert_lambda_min(M)
    nu = M.extremes()[0]
    assert nu <= ref * (1.0 + 1e-13) and ref <= 4 * nu


@pytest.mark.parametrize("n,reaction", [(n, r) for n in (8, 16, 32, 64) for r in (0.0, 1.0, 1e2, 1e3, 1e4, 1e6, 1e8)])
def test_2d_cg_certificate_bounds_the_true_error(n, reaction):
    # plain CG certifies ||r|| / sqrt(nu) >= ||r|| / sqrt(lambda_min)
    M, b = system(n, reaction)
    assert M.extremes()[0] == M._precond.lambda_min_bound
    exact = splu(M.csr.tocsc()).solve(b)
    for tol in (1e-1, 1e-4, 1e-8):
        report = conjugate_gradient(M, b, tol=tol)
        diff = report.solution - exact
        true_rel = np.sqrt(diff @ M.matvec(diff)) / np.sqrt(exact @ M.matvec(exact))
        assert report.converged and report.final_energy_error_estimate <= tol
        assert true_rel <= report.final_energy_error_estimate * (1.0 + 1e-12), tol


TINY_1D = {"d": 1, "k": 1, "pde": {"diffusion": 1, "reaction": 0}, "f": [-1], "r": [1], "eps": 1e-2}
TINY_2D = {
    "d": 2, "k": 1, "pde": {"diffusion": 1, "reaction": 1}, "f": [[-1]], "r": [[1]], "eps": 5e-2,
    "sobolev": [0.05, 0.3, 2.0],
}


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_stalled_lobpcg_exits_three_without_a_warning(monkeypatch, tmp_path, capsys, command):
    # a Rayleigh-Ritz step that keeps x where it is: every LOPCG step stalls
    # until the 1000-step cap. Only 1D runs the loop, one band solve a step
    steps = _count_calls(monkeypatch, "cho_solve_banded")
    monkeypatch.setattr(qfemlab.assembly, "eigh", lambda a, b, **kwargs: (np.diag(a), np.eye(len(a))))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(TINY_1D))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--spec", str(spec)]) == 3
    assert "LOPCG eigenvalue iteration did not converge" in capsys.readouterr().err
    assert len(steps) >= 1000


HIGH_REACTION_2D = {**TINY_2D, "pde": {"diffusion": 1, "reaction": 1e6}, "sobolev": [0.05, 0.3, 499]}


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_2d_reports_run_no_eigenvalue_loop_and_no_factor(monkeypatch, tmp_path, capsys, command):
    # TINY_2D at reaction 1, and at reaction 1e6, past ``boundary``: solve
    # meshes n = 200 (39,601 dofs) and simulate 119,716 dofs. lambda_min is
    # nu, with no eigenvalue loop and no factor, and each report takes
    # about 0.1 s
    runs, factors = (_count_calls(monkeypatch, name) for name in ("lowest_eigenvalue", "cholesky_banded"))
    for payload, n in ((TINY_2D, None), (HIGH_REACTION_2D, 200)):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload))
        start = time.perf_counter()
        assert cli.main([command, "--spec", str(spec), "--out", str(tmp_path)]) == 0
        assert time.perf_counter() - start < 2.0
        assert capsys.readouterr().err == "" and runs == factors == []
        if command == "solve" and n is not None:
            report = json.loads((tmp_path / "solve.json").read_text())
            assert report["n_dofs"] == (n - 1) ** 2 and report["cg"]["converged"]
            assert report["cg"]["lambda_min_estimate"] == SineTransformPreconditioner(n, 1.0, 1e6).lambda_min_bound


def test_2d_cap_fits_one_gib_within_three_seconds():
    """At the cell cap (n = 447, 198,916 dofs) with reaction 1000, discretize,
    solve and extremes() run under a 1 GiB address-space limit. lambda_min
    is nu, which brackets this matrix's lambda_min, 0.005103487140072 as an
    iterative eigensolver finds it."""
    code = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from qfemlab import ProblemSpec, discretize
spec = ProblemSpec.from_dict({"d": 2, "k": 1, "pde": {"diffusion": 1, "reaction": 1000}, "f": [[-1]],
                              "r": [[1]], "eps": 1e-2, "sobolev": [0.05, 0.3, 2.0]})
t0 = time.perf_counter()
_, M, b = discretize(spec, 447)
x = M.solve(b)
lam_min, lam_max = M.extremes()
print(time.perf_counter() - t0, M.n, np.linalg.norm(b - M.matvec(x)) / np.linalg.norm(b), lam_min)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(qfemlab.__file__).resolve().parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seconds, dofs, residual, lam_min = map(float, proc.stdout.split())
    assert dofs == 446**2 and residual <= 1e-12
    assert_brackets(lam_min, 0.005103487140072, 8.0)
    assert seconds < 3.0
