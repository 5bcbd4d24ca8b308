import numpy as np
import pytest

from qfemlab import (
    BilinearForm,
    SparseSymMatrix,
    ValidationError,
    assemble_load,
    assemble_stiffness,
    build_basis,
    build_interval_mesh,
    conjugate_gradient,
    estimate_condition_number,
    spai_preconditioner,
)


def poisson_system(n, k=1, f=(-1.0,)):
    mesh = build_interval_mesh(n)
    spec = build_basis(mesh, k)
    M = assemble_stiffness(mesh, spec, BilinearForm())
    b = -assemble_load(mesh, spec, list(f)).values
    return M, b


def test_identity_converges_in_one_iteration():
    M = SparseSymMatrix.identity(7)
    b = np.arange(1.0, 8.0)
    rep = conjugate_gradient(M, b, tol=1e-12)
    assert rep.converged
    assert rep.iterations == 1
    assert np.allclose(rep.solution, b, atol=1e-14)


def test_matches_dense_solve_in_energy_norm():
    M, b = poisson_system(64)
    rep = conjugate_gradient(M, b, tol=1e-12)
    exact = np.linalg.solve(M.to_dense(), b)
    diff = rep.solution - exact
    energy = np.sqrt(diff @ (M @ diff)) / np.sqrt(exact @ (M @ exact))
    assert rep.converged
    assert energy <= 1e-10


def test_iterations_vs_kappa_slope():
    iters, kappas = [], []
    for n in (16, 32, 64, 128, 256):
        M, b = poisson_system(n)
        rep = conjugate_gradient(M, b, tol=1e-8)
        assert rep.converged
        ev = np.linalg.eigvalsh(M.to_dense())
        iters.append(rep.iterations)
        kappas.append(ev[-1] / ev[0])
    slope = np.polyfit(np.log(kappas), np.log(iters), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.1)


def test_energy_error_monotone_against_dense_oracle():
    M, b = poisson_system(48)
    rep = conjugate_gradient(M, b, tol=1e-10, collect_iterates=True)
    exact = np.linalg.solve(M.to_dense(), b)
    errs = [np.sqrt((x - exact) @ (M @ (x - exact))) for x in rep.iterates]
    assert all(errs[i + 1] <= errs[i] * (1 + 1e-12) for i in range(len(errs) - 1))


@pytest.mark.parametrize("n", [64, 256])
def test_spai_strictly_reduces_iterations(n):
    M, b = poisson_system(n)
    plain = conjugate_gradient(M, b, tol=1e-8)
    pre = conjugate_gradient(M, b, tol=1e-8, precond=spai_preconditioner(M))
    assert pre.converged
    assert pre.iterations < plain.iterations
    exact = np.linalg.solve(M.to_dense(), b)
    diff = pre.solution - exact
    energy = np.sqrt(diff @ (M @ diff)) / np.sqrt(exact @ (M @ exact))
    assert energy <= 1e-7


def test_deterministic_reruns_bit_identical():
    M, b = poisson_system(32)
    a = conjugate_gradient(M, b, tol=1e-10)
    c = conjugate_gradient(M, b, tol=1e-10)
    assert np.array_equal(a.solution, c.solution)
    assert a.iterations == c.iterations


def test_cap_returns_nonconvergence_report_with_best_iterate():
    M, b = poisson_system(48)
    rep = conjugate_gradient(M, b, tol=1e-12, cap=5)
    assert not rep.converged
    assert rep.iterations == 5
    assert rep.solution.shape == b.shape
    assert np.linalg.norm(b - M @ rep.solution) == pytest.approx(rep.residual_norm)


def test_matvec_count_tracks_iterations():
    M, b = poisson_system(32)
    rep = conjugate_gradient(M, b, tol=1e-10)
    assert rep.matvec_count == rep.iterations


def test_non_spd_preconditioner_falls_back_to_normal_equations():
    M, b = poisson_system(16)
    # an indefinite (but symmetric) preconditioner
    bad = np.diag(np.concatenate([np.ones(8), -np.ones(8)]))
    rep = conjugate_gradient(M, b, tol=1e-10, precond=SparseSymMatrix.from_dense(bad))
    exact = np.linalg.solve(M.to_dense(), b)
    assert rep.converged
    assert np.allclose(rep.solution, exact, atol=1e-6 * np.abs(exact).max())


def test_condition_number_identity():
    assert estimate_condition_number(SparseSymMatrix.identity(5)) == pytest.approx(1.0, abs=1e-9)


def test_condition_number_diagonal():
    M = SparseSymMatrix.from_dense(np.diag([1.0, 4.0]))
    assert estimate_condition_number(M) == pytest.approx(4.0, rel=1e-9)


def test_condition_number_poisson_matches_dense():
    for k in (1, 2, 3):
        M, _ = poisson_system(64, k=k)
        ev = np.linalg.eigvalsh(M.to_dense())
        assert estimate_condition_number(M) == pytest.approx(ev[-1] / ev[0], rel=1e-9)


def test_condition_number_indefinite_raises():
    M = SparseSymMatrix.from_dense(np.diag([2.0, -1.0, 3.0]))
    with pytest.raises(ValidationError):
        estimate_condition_number(M)


def test_tolerance_validation():
    M, b = poisson_system(8)
    with pytest.raises(ValidationError):
        conjugate_gradient(M, b, tol=0.0)
