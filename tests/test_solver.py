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
    build_square_triangulation,
    conjugate_gradient,
    estimate_condition_number,
    spai_preconditioner,
)


def poisson_system(n, k=1, f=(-1.0,), d=1):
    mesh = build_interval_mesh(n) if d == 1 else build_square_triangulation(n)
    spec = build_basis(mesh, k)
    M = assemble_stiffness(mesh, spec, BilinearForm())
    b = -assemble_load(mesh, spec, list(f) if d == 1 else [list(f)]).values
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
    iterations = conjugate_gradient(M, b, tol=1e-10).iterations
    iterates = [conjugate_gradient(M, b, tol=1e-10, cap=j).solution for j in range(1, iterations + 1)]
    exact = np.linalg.solve(M.to_dense(), b)
    errs = [np.sqrt((x - exact) @ (M @ (x - exact))) for x in iterates]
    assert all(errs[i + 1] <= errs[i] * (1 + 1e-12) for i in range(len(errs) - 1))


@pytest.mark.parametrize("preconditioned", [False, True], ids=["plain", "spai"])
@pytest.mark.parametrize(
    "d, n, k", [(1, 64, 1), (1, 64, 2), (1, 64, 3), (2, 32, 1), (1, 3, 1), (1, 2, 2), (1, 2, 3)]
)
def test_certificate_is_sound(d, n, k, preconditioned):
    """The reported lambda_min never exceeds the true one, so the reported
    relative certificate bounds the true relative energy error at every
    stop; a Ritz value (1.0007 lambda_min on 2D n = 32 at tol 1e-1)
    breaks the first assertion.

    The coarse 1D meshes are where the symmetrised least-squares SPAI is
    indefinite; CG with that P reported convergence at true relative
    energy errors of 1.02-1.19 at tol 1e-1 and 1e-2.

    The bound holds up to rounding: plain CG on 1D P1 reaches the exact
    solution at step n, where the recursively updated residual falls below
    b - M x (certificate 5.5e-16 against a true 1.3e-14 at n = 64). The
    1e-12 allowance covers that floor and is far below every tol here."""
    M, b = poisson_system(n, k=k, d=d)
    dense = M.to_dense()
    lam_min = np.linalg.eigvalsh(dense)[0]
    exact = np.linalg.solve(dense, b)
    precond = spai_preconditioner(M) if preconditioned else None
    for tol in (1e-1, 1e-2, 1e-4):
        rep = conjugate_gradient(M, b, tol=tol, precond=precond)
        assert rep.converged
        assert rep.lambda_min_estimate <= lam_min * (1 + 1e-10), tol
        diff = rep.solution - exact
        true_rel = np.sqrt(diff @ (M @ diff)) / np.sqrt(exact @ (M @ exact))
        assert true_rel <= rep.final_energy_error_estimate + 1e-12, tol
        assert rep.final_energy_error_estimate <= tol, tol


def test_zero_rhs_returns_before_factorising():
    singular = SparseSymMatrix.from_dense(np.zeros((3, 3)))
    rep = conjugate_gradient(singular, np.zeros(3), precond=singular)
    assert rep.converged and rep.iterations == 0
    assert np.array_equal(rep.solution, np.zeros(3))


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


def test_non_spd_preconditioner_rejected():
    M, b = poisson_system(16)
    # an indefinite (but symmetric) preconditioner
    bad = np.diag(np.concatenate([np.ones(8), -np.ones(8)]))
    with pytest.raises(ValidationError, match="positive definite"):
        conjugate_gradient(M, b, tol=1e-10, precond=SparseSymMatrix.from_dense(bad))


@pytest.mark.parametrize("cap", [0, -3])
def test_cap_below_one_rejected(cap):
    M, b = poisson_system(8)
    with pytest.raises(ValidationError, match="cap"):
        conjugate_gradient(M, b, tol=1e-8, cap=cap)


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
