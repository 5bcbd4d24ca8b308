"""The 2D sine-transform preconditioner C = diffusion * K5 + reaction/n^2 * I:
its DST-I solve, the bound C/4 <= M <= C behind preconditioned CG, and the
LOPCG lambda_min it drives, checked against dense and factored references."""
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, eigsh, splu

import qfemlab
from qfemlab import (
    BilinearForm,
    NonConvergenceError,
    ValidationError,
    assemble_load,
    assemble_stiffness,
    build_basis,
    build_square_triangulation,
    cli,
    conjugate_gradient,
)
from qfemlab.assembly import SineTransformPreconditioner

EPS = np.finfo(float).eps
GRID = [(n, reaction) for n in (2, 3, 8, 16, 32) for reaction in (0.0, 1.0, 1000.0)]


def system(n, reaction, diffusion=1.0):
    mesh = build_square_triangulation(n)
    spec = build_basis(mesh, 1)
    M = assemble_stiffness(mesh, spec, BilinearForm(diffusion, reaction))
    return M, -assemble_load(mesh, spec, [[-1.0, 0.5], [0.3, 0.0]])


def lumped(n, reaction, diffusion):
    """C, densely: pure-diffusion P1 on this grid is the five-point stencil."""
    return diffusion * system(n, 0.0)[0].to_dense() + reaction / n**2 * np.eye((n - 1) ** 2)


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
    mu = scipy.linalg.eigh(M.to_dense(), lumped(n, reaction, diffusion), eigvals_only=True)
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
    x_ref = np.linalg.solve(M.to_dense(), b)
    assert np.linalg.norm(M.solve(b) - x_ref) <= 1e-13 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("reaction", [1.0, 1000.0])
def test_pcg_certificate_bounds_the_true_energy_error(reaction):
    M, b = system(32, reaction)
    exact = np.linalg.solve(M.to_dense(), b)
    for tol in (1e-1, 1e-2, 1e-4, 1e-8):
        report = conjugate_gradient(M, b, tol=tol, precond=M._precond)
        diff = report.solution - exact
        true_rel = np.sqrt(diff @ (M @ diff)) / np.sqrt(exact @ (M @ exact))
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


@pytest.mark.parametrize("n,reaction", GRID)
def test_lambda_min_matches_dense(n, reaction):
    M = system(n, reaction)[0]
    ev = np.linalg.eigvalsh(M.to_dense())
    lam_min = M.extremes()[0]
    # eigvalsh is accurate to O(eps ||M||) absolute, about 3e-13 relative at n = 32
    assert abs(lam_min - ev[0]) <= 1e-13 * ev[0] + 16 * EPS * ev[-1]


@pytest.mark.parametrize("reaction", [0.0, 1.0, 1000.0])
@pytest.mark.parametrize("n", [64, 126])
def test_lambda_min_matches_factored_shift_invert(n, reaction):
    M = system(n, reaction)[0]
    csc = M.csr.tocsc()
    inv = LinearOperator(csc.shape, matvec=splu(csc).solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(M.n)
    ref = eigsh(csc, k=1, sigma=0.0, OPinv=inv, v0=v0, return_eigenvectors=False)[0]
    assert M.extremes()[0] == pytest.approx(ref, rel=1e-13, abs=0.0)


def _count_calls(monkeypatch, name, owner=qfemlab.assembly):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(0)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def boundary(n):
    """The largest reaction (diffusion 1) at which the class bound holds."""
    k11, k12 = 4 - 4 * np.cos(np.pi / n), 4 - 2 * np.cos(np.pi / n) - 2 * np.cos(2 * np.pi / n)
    return 4 * n**2 * (1 - k11 / k12)


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_mass_bound_behind_the_class_switch(n):
    # R Mass >= (R / n^2)(I - K5 / 4): with the symmetry classes, it decides
    # when LOPCG from the symmetric start reaches lambda_min
    K5 = system(n, 0.0)[0].to_dense()
    mass = system(n, 1.0)[0].to_dense() - K5
    gap = np.linalg.eigvalsh(mass - (np.eye(len(K5)) - K5 / 4) / n**2)
    assert gap.min() >= -1e-14 / n**2


@pytest.mark.parametrize(
    "n,reaction",
    [(20, 1.0), (64, 1000.0), (8, 0.99 * boundary(8)), (16, 0.99 * boundary(16)), (16, 1.01 * boundary(16)),
     (16, 1000.0), (4, 1e4), (5, 1e4), (20, 1e4), (20, 1e6)],
)
def test_lambda_min_method_follows_the_class_bound(monkeypatch, n, reaction):
    """With reaction >> diffusion n^2 the lowest eigenvector can lie outside
    the symmetry class of sin(pi a/n) sin(pi b/n), which LOPCG from that
    start cannot leave (alone it reads 0.5 % high at n = 4, reaction 1e4).
    There extremes() keeps the band factor and shift-invert ARPACK."""
    runs = _count_calls(monkeypatch, "lowest_eigenvalue")
    factors, arpack = (_count_calls(monkeypatch, name) for name in ("cholesky_banded", "eigsh"))
    M = system(n, reaction)[0]
    ev = np.linalg.eigvalsh(M.to_dense())
    assert abs(M.extremes()[0] - ev[0]) <= 1e-13 * ev[0] + 16 * EPS * ev[-1]
    by_lobpcg = reaction <= boundary(n)
    assert M._precond.class_holds_lambda_min == by_lobpcg
    assert (len(runs), len(factors), len(arpack)) == ((1, 0, 0) if by_lobpcg else (0, 1, 1))


@pytest.mark.parametrize("n", [64, 126])
def test_high_reaction_matches_factored_references(n):
    # reaction 1e6 is far past the class bound; LOBPCG took 500-1,300
    # iterations here, where shift-invert ARPACK on the band factor converges
    M, b = system(n, 1e6)
    csc = M.csr.tocsc()
    lu = splu(csc)
    x_ref = lu.solve(b)
    assert np.linalg.norm(M.solve(b) - x_ref) <= 1e-13 * np.linalg.norm(x_ref)
    inv = LinearOperator(csc.shape, matvec=lu.solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(M.n)
    ref = eigsh(csc, k=1, sigma=0.0, OPinv=inv, v0=v0, return_eigenvectors=False)[0]
    assert M.extremes()[0] == pytest.approx(ref, rel=1e-13, abs=0.0)


TINY_2D = {
    "d": 2, "k": 1, "pde": {"diffusion": 1, "reaction": 1}, "f": [[-1]], "r": [[1]], "eps": 5e-2,
    "sobolev": [0.05, 0.3, 2.0],
}


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_stalled_lobpcg_exits_three_without_a_warning(monkeypatch, tmp_path, capsys, command):
    # a Rayleigh-Ritz step that keeps x where it is: every LOPCG step stalls
    # until the 1000-step cap
    steps = _count_calls(monkeypatch, "__call__", SineTransformPreconditioner)
    monkeypatch.setattr(qfemlab.assembly, "eigh", lambda a, b, **kwargs: (np.diag(a), np.eye(len(a))))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(TINY_2D))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--spec", str(spec)]) == 3
    assert "LOPCG eigenvalue iteration did not converge" in capsys.readouterr().err
    assert len(steps) >= 1000  # simulate's PCG solve applies C^{-1} too


@pytest.mark.parametrize("n", [16, 64, 126])
def test_lambda_min_just_inside_the_class_bound_matches_the_factored_oracle(monkeypatch, n):
    # the clustered low spectrum near the bound is LOPCG's slowest regime
    # (83 steps at n = 64, 157 at n = 126); each step applies C^{-1} once
    steps = _count_calls(monkeypatch, "__call__", SineTransformPreconditioner)
    M = system(n, 0.99 * boundary(n))[0]
    lam_min = M.extremes()[0]
    assert 0 < len(steps) < 1000
    csc = M.csr.tocsc()
    inv = LinearOperator(csc.shape, matvec=splu(csc).solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(M.n)
    ref = eigsh(csc, k=1, sigma=0.0, OPinv=inv, v0=v0, return_eigenvectors=False)[0]
    assert lam_min == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_2d_cap_fits_one_gib_within_three_seconds():
    """At the cell cap (n = 447, 198,916 dofs) with reaction 1000, discretize,
    solve and extremes() run under a 1 GiB address-space limit. The band
    Cholesky factor with ARPACK needed 852 MB peak and 12 s here, and raised
    MemoryError under this limit."""
    code = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from qfemlab import ProblemSpec, discretize
spec = ProblemSpec.from_dict({"d": 2, "k": 1, "pde": {"diffusion": 1, "reaction": 1000}, "f": [[-1]],
                              "r": [[1]], "eps": 1e-2, "sobolev": [0.05, 0.3, 2.0]})
t0 = time.perf_counter()
mesh, basis, M, b = discretize(spec, 447)
x = M.solve(b)
lam_min, lam_max = M.extremes()
print(time.perf_counter() - t0, M.n, np.linalg.norm(b - M @ x) / np.linalg.norm(b), lam_min)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(qfemlab.__file__).resolve().parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seconds, dofs, residual, lam_min = map(float, proc.stdout.split())
    assert dofs == 446**2 and residual <= 1e-12
    assert lam_min == pytest.approx(0.005103487140072, rel=1e-12)
    assert seconds < 3.0
