import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfemlab.assembly
from qfemlab import (
    BasisSpec,
    BilinearForm,
    Mesh,
    ValidationError,
    assemble_load,
    assemble_stiffness,
    conjugate_gradient,
    CGReport,
)
from matrices import sym_matrix


def poisson_system(n, k=1, f=(-1.0,), d=1):
    spec = BasisSpec(Mesh(d, n), k)
    M = assemble_stiffness(spec, BilinearForm())
    b = -assemble_load(spec, list(f) if d == 1 else [list(f)])
    return M, b


def test_identity_converges_in_one_iteration():
    M = sym_matrix(np.eye(7))
    b = np.arange(1.0, 8.0)
    rep = conjugate_gradient(M, b, tol=1e-12)
    assert rep.converged
    assert rep.iterations == 1
    assert np.allclose(rep.solution, b, atol=1e-14)


def test_matches_dense_solve_in_energy_norm():
    M, b = poisson_system(64)
    rep = conjugate_gradient(M, b, tol=1e-12)
    exact = np.linalg.solve(M.csr.toarray(), b)
    diff = rep.solution - exact
    energy = np.sqrt(diff @ M.matvec(diff)) / np.sqrt(exact @ M.matvec(exact))
    assert rep.converged
    assert energy <= 1e-10


def test_iterations_vs_kappa_slope():
    iters, kappas = [], []
    for n in (16, 32, 64, 128, 256):
        M, b = poisson_system(n)
        rep = conjugate_gradient(M, b, tol=1e-8)
        assert rep.converged
        ev = np.linalg.eigvalsh(M.csr.toarray())
        iters.append(rep.iterations)
        kappas.append(ev[-1] / ev[0])
    slope = np.polyfit(np.log(kappas), np.log(iters), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.1)


def test_energy_error_monotone_against_dense_oracle():
    M, b = poisson_system(48)
    iterations = conjugate_gradient(M, b, tol=1e-10).iterations
    iterates = [conjugate_gradient(M, b, tol=1e-10, cap=j).solution for j in range(1, iterations + 1)]
    exact = np.linalg.solve(M.csr.toarray(), b)
    errs = [np.sqrt((x - exact) @ M.matvec(x - exact)) for x in iterates]
    assert all(errs[i + 1] <= errs[i] * (1 + 1e-12) for i in range(len(errs) - 1))


@pytest.mark.parametrize(
    "d, n, k", [(1, 64, 1), (1, 64, 2), (1, 64, 3), (2, 32, 1), (1, 3, 1), (1, 2, 2), (1, 2, 3)]
)
def test_certificate_is_sound(d, n, k):
    """The reported lambda_min never exceeds the true one, so the reported
    relative certificate bounds the true relative energy error at every
    stop; a Ritz value (1.0007 lambda_min on 2D n = 32 at tol 1e-1)
    breaks the first assertion.

    The bound holds up to rounding: plain CG on 1D P1 reaches the exact
    solution at step n, where the recursively updated residual falls below
    b - M x (certificate 5.5e-16 against a true 1.3e-14 at n = 64). The
    1e-12 allowance covers that floor and is far below every tol here."""
    M, b = poisson_system(n, k=k, d=d)
    dense = M.csr.toarray()
    lam_min = np.linalg.eigvalsh(dense)[0]
    exact = np.linalg.solve(dense, b)
    for tol in (1e-1, 1e-2, 1e-4):
        rep = conjugate_gradient(M, b, tol=tol)
        assert rep.converged
        assert rep.lambda_min_estimate <= lam_min * (1 + 1e-10), tol
        diff = rep.solution - exact
        true_rel = np.sqrt(diff @ M.matvec(diff)) / np.sqrt(exact @ M.matvec(exact))
        assert true_rel <= rep.final_energy_error_estimate + 1e-12, tol
        assert rep.final_energy_error_estimate <= tol, tol


def test_zero_rhs_returns_before_factorising():
    singular = sym_matrix(np.zeros((3, 3)))
    rep = conjugate_gradient(singular, np.zeros(3))
    assert rep.converged and rep.iterations == rep.matvec_count == 0
    assert rep.final_energy_error_estimate == rep.residual_norm == 0.0
    assert np.array_equal(rep.solution, np.zeros(3))


def reference_cg(M, b, tol, precond=None, cap=None):
    """Textbook CG (PCG with ``precond``), out of place: each step's M p is
    a fresh ``csr @ p`` through scipy, x + alpha p, r - alpha M p and z +
    beta p are new vectors, and it takes two reductions per step: ||r||
    (r^T z with a preconditioner) and r.z."""
    lam_min, lam_max = M.extremes() if precond is None else (0.25, 1.0)
    sqrt_lam = np.sqrt(lam_min)
    if cap is None:
        cap = max(50, int(np.ceil(10.0 * np.sqrt(lam_max / lam_min) * np.log(1.0 / tol))))
    x = np.zeros(M.n)
    r = b.copy()
    z = r if precond is None else precond(r)
    p = z.copy()
    rz = float(r @ z)
    for j in range(1, cap + 1):
        Ap = M.csr @ p
        alpha = rz / float(p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        z = r if precond is None else precond(r)
        rz_new = float(r @ z)
        rnorm = float(np.linalg.norm(r) if precond is None else np.sqrt(rz_new))
        energy_of_x = float(b @ x)
        err_bound = rnorm / sqrt_lam
        if energy_of_x > 0 and err_bound <= tol * np.sqrt(energy_of_x):
            return CGReport(x, j, err_bound / np.sqrt(energy_of_x), j, True, lam_min, rnorm)
        if j >= cap:
            rel = err_bound / np.sqrt(energy_of_x) if energy_of_x > 0 else np.inf
            return CGReport(x, j, rel, j, False, lam_min, rnorm)
        p = z + (rz_new / rz if rz != 0 else 0.0) * p
        rz = rz_new


@pytest.mark.parametrize("tol", [1e-2, 1e-6, 1e-10])
@pytest.mark.parametrize("d, n, k", [(1, 1000, 1), (1, 500, 2), (1, 300, 3), (2, 43, 1)])
def test_single_reduction_loop_matches_reference_bit_for_bit(d, n, k, tol):
    """One r.r per step gives the same iterates as ||r|| and r.z computed
    apart, at the benchmark's 1D sizes and at 1,764 dofs in 2D."""
    M, b = poisson_system(n, k=k, f=(0.7, -1.2, 0.9, -1.1) if d == 1 else (-1.0, 0.5), d=d)
    rep, ref = conjugate_gradient(M, b, tol=tol), reference_cg(M, b, tol)
    assert rep.solution.tobytes() == ref.solution.tobytes()
    assert rep.to_dict() == ref.to_dict()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    half_bandwidth=st.integers(0, 3),
    margin=st.floats(1e-4, 1.0),
    tol_exponent=st.floats(2.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_cg_matches_reference_on_random_banded_spd(n, half_bandwidth, margin, tol_exponent, seed):
    """Random symmetric band matrices, strictly diagonally dominant by a
    relative ``margin`` (so SPD, with kappa up to about 2 / margin), and
    tolerances from 1e-2 to 1e-12."""
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for offset in range(1, min(half_bandwidth, n - 1) + 1):
        band = rng.standard_normal(n - offset)
        a += np.diag(band, offset) + np.diag(band, -offset)
    a += np.diag(np.abs(a).sum(axis=1) * (1.0 + margin) + margin)
    M, b = sym_matrix(a), rng.standard_normal(n)
    tol = 10.0 ** -tol_exponent
    rep, ref = conjugate_gradient(M, b, tol=tol), reference_cg(M, b, tol)
    assert rep.solution.tobytes() == ref.solution.tobytes()
    assert rep.to_dict() == ref.to_dict()


@pytest.mark.parametrize("k, n", [(1, 1000), (2, 500), (3, 300)])
def test_cg_matches_reference_at_the_benchmark_tolerances(k, n):
    """The 1D CG solves of the benchmark, at its sizes and tolerances
    tol = (n - 1/2)^-(k+1): about 1,000 dofs and 700 to 1,200 steps."""
    M, b = poisson_system(n, k=k, f=(0.7, -1.2, 0.9, -1.1))
    tol = (n - 0.5) ** -(k + 1)
    rep, ref = conjugate_gradient(M, b, tol=tol), reference_cg(M, b, tol)
    assert ref.converged and rep.iterations == ref.iterations > 500
    assert rep.solution.tobytes() == ref.solution.tobytes()
    assert rep.to_dict() == ref.to_dict()


def test_pcg_matches_reference_bit_for_bit():
    # with reaction, C = K5 + R/n^2 I is not M, and PCG takes 15 steps
    spec = BasisSpec(Mesh(2, 43), 1)
    M = assemble_stiffness(spec, BilinearForm(1.0, 1e4))
    b = -assemble_load(spec, [[-1.0, 0.5]])
    rep = conjugate_gradient(M, b, tol=1e-14, precond=M._precond)
    ref = reference_cg(M, b, 1e-14, M._precond)
    assert ref.converged and rep.iterations == ref.iterations > 10
    assert rep.solution.tobytes() == ref.solution.tobytes()
    assert rep.to_dict() == ref.to_dict()


@pytest.mark.parametrize("d, cap", [(1, 5), (1, 200), (2, 1)])
def test_capped_runs_match_reference_bit_for_bit(d, cap):
    """A run stopped by its cap, PCG in 2D."""
    M, b = poisson_system(300 if d == 1 else 43, k=2 if d == 1 else 1, f=(0.7, -1.2, 0.9) if d == 1 else (-1.0, 0.5), d=d)
    precond = M._precond if d == 2 else None
    rep = conjugate_gradient(M, b, tol=1e-14, cap=cap, precond=precond)
    ref = reference_cg(M, b, 1e-14, precond, cap)
    assert not rep.converged and rep.iterations == ref.iterations == cap
    assert rep.solution.tobytes() == ref.solution.tobytes()
    assert rep.to_dict() == ref.to_dict()


def test_indefinite_preconditioner_ends_in_a_report_or_a_refusal():
    # r^T C^{-1} r < 0 has no square root; the run must not raise ValueError
    M, b = poisson_system(64)
    try:
        rep = conjugate_gradient(M, b, cap=5, precond=lambda v: -v)
    except ValidationError:
        return
    assert not rep.converged and np.isnan(rep.residual_norm)


def test_deterministic_reruns_bit_identical():
    M, b = poisson_system(32)
    a = conjugate_gradient(M, b, tol=1e-10)
    c = conjugate_gradient(M, b, tol=1e-10)
    assert np.array_equal(a.solution, c.solution)
    assert a.iterations == c.iterations
    assert not np.shares_memory(a.solution, c.solution)  # no buffer outlives a call


def test_cap_returns_nonconvergence_report_with_best_iterate():
    M, b = poisson_system(48)
    rep = conjugate_gradient(M, b, tol=1e-12, cap=5)
    assert not rep.converged
    assert rep.iterations == 5
    assert rep.solution.shape == b.shape
    assert np.linalg.norm(b - M.matvec(rep.solution)) == pytest.approx(rep.residual_norm)


def test_matvec_count_tracks_iterations():
    M, b = poisson_system(32)
    rep = conjugate_gradient(M, b, tol=1e-10)
    assert rep.matvec_count == rep.iterations


@pytest.mark.parametrize("cap", [0, -3])
def test_cap_below_one_rejected(cap):
    M, b = poisson_system(8)
    with pytest.raises(ValidationError, match="cap"):
        conjugate_gradient(M, b, tol=1e-8, cap=cap)


def kappa_of(M):
    lam_min, lam_max = M.extremes()
    return lam_max / lam_min


def test_condition_number_identity():
    assert kappa_of(sym_matrix(np.eye(5))) == pytest.approx(1.0, abs=1e-9)


def test_condition_number_diagonal():
    M = sym_matrix(np.diag([1.0, 4.0]))
    assert kappa_of(M) == pytest.approx(4.0, rel=1e-9)


def test_condition_number_poisson_matches_dense():
    for k in (1, 2, 3):
        M, _ = poisson_system(64, k=k)
        ev = np.linalg.eigvalsh(M.csr.toarray())
        kappa = ev[-1] / ev[0]
        # exact lambda_min over an upper bound on lambda_max
        assert kappa * (1.0 - 1e-9) <= kappa_of(M) <= kappa * (1.0 + 1e-3)


def test_condition_number_indefinite_raises():
    M = sym_matrix(np.diag([2.0, -1.0, 3.0]))
    with pytest.raises(ValidationError):
        M.extremes()


def test_lambda_min_rounded_to_zero_or_below_is_refused():
    # the band factor exists, but the Rayleigh quotient of the lowest
    # eigenvector rounds below zero; the certificate divides by its root
    M = sym_matrix([[0.2839828307756081, -0.30910350467508757], [-0.30910350467508757, 0.33644631381929463]])
    assert M.is_spd() and M.extremes()[0] <= 0.0
    for cap in (None, 5):
        with pytest.raises(ValidationError, match="lambda_min <= 0"):
            conjugate_gradient(M, np.ones(2), cap=cap)


def test_tolerance_validation():
    M, b = poisson_system(8)
    with pytest.raises(ValidationError):
        conjugate_gradient(M, b, tol=0.0)


def test_cg_counts_one_matvec_per_iteration(monkeypatch):
    # each CG step is one kernel call through the product bound to p and M p
    calls = []
    kernel = qfemlab.assembly.csr_matvec

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    M, b = poisson_system(200, k=2)
    M.extremes()  # cached: its products are not CG's
    monkeypatch.setattr(qfemlab.assembly, "csr_matvec", counted)
    rep = conjugate_gradient(M, b, tol=1e-8)
    assert rep.converged and len(calls) == rep.iterations == rep.matvec_count
