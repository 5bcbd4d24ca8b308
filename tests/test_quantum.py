import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from qfemlab import (
    BilinearForm,
    BudgetExceededError,
    ProblemSpec,
    SampleBudget,
    SimulationFloorError,
    SparseSymMatrix,
    UnsupportedConfigurationError,
    ValidationError,
    assemble_gram,
    assemble_load,
    assemble_stiffness,
    build_basis,
    build_interval_mesh,
    build_r_state,
    estimate_functional,
    estimate_norm,
    hadamard_test_estimate,
)


def poisson(n, f=(-1.0,), k=1):
    mesh = build_interval_mesh(n)
    spec = build_basis(mesh, k)
    M = assemble_stiffness(mesh, spec, BilinearForm())
    b = -assemble_load(mesh, spec, list(f))
    return mesh, spec, M, b


def unit(vec):
    v = np.asarray(vec, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# functional-measurement states

def test_r_state_uniform_interior():
    mesh, spec, _, _ = poisson(16)
    state, alpha = build_r_state(mesh, spec, [1.0])
    assert len(state) == spec.n_dofs
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(state[:-1], state[0], atol=1e-14)
    expected_alpha = np.sqrt((spec.n_dofs - 1) * mesh.h**2 + (mesh.h / 2) ** 2)
    assert alpha == pytest.approx(expected_alpha, abs=1e-14)


def test_r_state_single_tent_matches_gram_row():
    """Loads take polynomial data, so tents are checked where they are
    polynomials: r = x is the half tent of a one-element mesh, whose state
    is its Gram row, and on eight elements r = x = sum_j x_j phi_j, whose
    load is the Gram rows weighted by the node values x_j."""
    mesh, spec, _, _ = poisson(1)
    W = assemble_gram(mesh, spec).to_dense()
    state, alpha = build_r_state(mesh, spec, [0.0, 1.0])
    assert np.array_equal(state, [1.0])
    assert alpha == pytest.approx(W[0, 0], abs=1e-15)

    mesh, spec, _, _ = poisson(8)
    W = assemble_gram(mesh, spec).to_dense()
    load = W @ (mesh.h * np.arange(1, spec.n_dofs + 1))
    state, alpha = build_r_state(mesh, spec, [0.0, 1.0])
    assert np.allclose(state, load / np.linalg.norm(load), atol=1e-12)
    assert alpha == pytest.approx(np.linalg.norm(load), abs=1e-12)


def test_r_state_alpha_bounded_by_gram_norm():
    mesh, spec, _, _ = poisson(32)
    W = assemble_gram(mesh, spec).to_dense()
    bound = np.sqrt(np.linalg.norm(W, 2))
    rng = np.random.default_rng(0)
    for _ in range(10):
        coeffs = rng.uniform(-1, 1, size=5)
        _, alpha = build_r_state(mesh, spec, coeffs)
        r_norm = np.sqrt(np.trapezoid(npoly.polyval(np.linspace(0, 1, 20001), coeffs) ** 2, dx=1 / 20000))
        assert alpha / r_norm <= bound * (1 + 1e-3)


def test_r_state_rejects_zero_function():
    mesh, spec, _, _ = poisson(8)
    with pytest.raises(ValidationError):
        build_r_state(mesh, spec, [0.0])


# ---------------------------------------------------------------------------
# overlap and norm estimation

def test_hadamard_identical_states():
    s = unit([1.0, 2.0, 3.0, 0.0])
    budget = SampleBudget(rng_seed=0)
    assert hadamard_test_estimate(s, s, 0.05, budget) == pytest.approx(1.0, abs=0.05)


def test_hadamard_orthogonal_states():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    budget = SampleBudget(rng_seed=1)
    assert abs(hadamard_test_estimate(a, b, 0.05, budget)) <= 0.05


def test_hadamard_known_overlap_coverage():
    # With 2*ceil(1/eps^2) = 800 shots and overlap 0.6 the per-seed success
    # probability is ~0.93 (binomial, +-1 outcomes), so demand >= 87/100:
    # three sigma below the expected 93.
    a = np.array([1.0, 0.0])
    b = np.array([0.6, 0.8])
    hits = 0
    for seed in range(100):
        budget = SampleBudget(rng_seed=seed)
        if abs(hadamard_test_estimate(a, b, 0.05, budget) - 0.6) <= 0.05:
            hits += 1
    assert hits >= 87


def test_hadamard_consumes_budget_and_raises_when_exhausted():
    s = unit([1.0, 1.0])
    budget = SampleBudget(shots=100, rng_seed=0)
    with pytest.raises(BudgetExceededError):
        hadamard_test_estimate(s, s, 0.01, budget)
    budget = SampleBudget(rng_seed=0)
    hadamard_test_estimate(s, s, 0.1, budget)
    assert budget.uses_of_state_prep == 2 * 100
    # a target of 1 or more takes one pair of shots, also where its square
    # overflows; one whose square underflows to 0 has no countable shots
    budget = SampleBudget(rng_seed=0)
    hadamard_test_estimate(s, s, 1e200, budget)
    assert budget.uses_of_state_prep == 2
    with pytest.raises(BudgetExceededError):
        hadamard_test_estimate(s, s, 1e-200, budget)


def test_norm_estimation_identity():
    M = SparseSymMatrix.identity(4)
    b = unit([1.0, 1.0, 1.0, 1.0])
    budget = SampleBudget(rng_seed=0)
    assert estimate_norm(M, M.solve(b), 0.05, budget) == pytest.approx(1.0, abs=0.05)


def test_norm_estimation_scaled_diagonal():
    M = SparseSymMatrix.from_dense(np.diag([0.5, 0.5, 0.5, 0.5]))
    b = unit([1.0, 1.0, 1.0, 1.0])
    budget = SampleBudget(rng_seed=0)
    assert estimate_norm(M, M.solve(b), 0.05, budget) == pytest.approx(2.0, rel=0.1)


def test_norm_estimation_poisson_coverage():
    _, _, M, b_raw = poisson(32)
    b = unit(b_raw)
    truth = np.linalg.norm(np.linalg.solve(M.to_dense(), b))
    x = M.solve(b)
    hits = 0
    for seed in range(30):
        budget = SampleBudget(rng_seed=seed)
        if abs(estimate_norm(M, x, 0.03, budget) - truth) <= 0.03 * truth:
            hits += 1
    assert hits >= 20  # 2/3 of seeds


def test_norm_estimation_floor():
    M = SparseSymMatrix.from_dense(np.diag([1.0, 1e-8]))
    b = np.array([1.0, 0.0])
    with pytest.raises(SimulationFloorError, match=r"acceptance probability 1\.000e-16 below the simulable floor 1e-09$"):
        estimate_norm(M, M.solve(b), 0.1, budget=SampleBudget(rng_seed=0))


def test_norm_estimation_empirical_shots_scale_inverse_eps_squared():
    _, _, M, b_raw = poisson(16)
    b = unit(b_raw)
    shots = []
    eps_list = [0.1, 0.05, 0.02, 0.01]
    ledger = []
    for eps in eps_list:
        budget = SampleBudget(rng_seed=0)
        estimate_norm(M, M.solve(b), eps, budget, ledger=ledger)
        shots.append(budget.uses_of_state_prep)
    slope = np.polyfit(np.log(1.0 / np.asarray(eps_list)), np.log(shots), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)
    # the analytic model charges only 1/eps; the ledger annotates the gap
    assert ledger[-1].notes["model_inv_eps_exponent"] == 1
    assert ledger[-1].notes["empirical_inv_eps_exponent"] == 2
    pa = [entry.oracle_calls["P_b"] for entry in ledger]
    model_slope = np.polyfit(np.log(1.0 / np.asarray(eps_list)), np.log(pa), 1)[0]
    assert model_slope == pytest.approx(1.0, abs=0.05)


# ---------------------------------------------------------------------------
# end-to-end functional estimation

PROB = ProblemSpec(d=1, k=1, diffusion=1.0, reaction=0.0, f=(-1.0,), r=(1.0,), eps=0.02)


def test_functional_poisson_known_value():
    budget = SampleBudget(rng_seed=7)
    est = estimate_functional(PROB, 0.01, budget)
    assert abs(est.value - 1.0 / 3.0) <= 0.01


def test_functional_exact_mode_leaves_only_discretisation():
    est = estimate_functional(PROB, 0.02, SampleBudget(rng_seed=0), exact_mode=True)
    assert est.value == pytest.approx(est.exact_value_discrete, abs=1e-12)
    assert abs(est.value - 1.0 / 3.0) <= est.budget_split.eps_d


def exact_functional_1d(u_coeffs, r_coeffs) -> float:
    """Exact int_0^1 r(x) u(x) dx for polynomial u and r."""
    prod = np.convolve(np.asarray(u_coeffs, float), np.asarray(r_coeffs, float))
    return float(sum(prod[i] / (i + 1) for i in range(len(prod))))


def test_functional_orthogonal_r():
    # r odd around x = 1/2 up to normalization picked to kill <u, r>
    from qfemlab.problems import analytic_solution_1d

    u = analytic_solution_1d([-1.0])
    # find c with <u, x - c> = 0
    num = exact_functional_1d(u, [0.0, 1.0])
    den = exact_functional_1d(u, [1.0])
    r = (-num / den, 1.0)
    assert abs(exact_functional_1d(u, r)) < 1e-15
    prob = ProblemSpec(d=1, k=1, diffusion=1.0, reaction=0.0, f=(-1.0,), r=r, eps=0.02)
    budget = SampleBudget(rng_seed=1)
    est = estimate_functional(prob, 0.02, budget)
    from qfemlab.problems import poly_l2_norm

    assert abs(est.value) <= 0.02 * poly_l2_norm(r, 1)


def test_functional_success_rate():
    ok = 0
    for seed in range(60):
        budget = SampleBudget(rng_seed=seed)
        est = estimate_functional(PROB, 0.02, budget)
        if abs(est.value - 1.0 / 3.0) <= 0.02:
            ok += 1
    assert ok >= 40  # 2/3 of 60


def test_functional_budget_tracking():
    budget = SampleBudget(rng_seed=0)
    est = estimate_functional(PROB, 0.02, budget)
    prep_uses = sum(e.notes.get("state_prep_uses", 0) for e in est.ledger)
    assert budget.uses_of_state_prep >= prep_uses > 0


def test_functional_rejects_eps_above_solution_norm():
    with pytest.raises(UnsupportedConfigurationError):
        estimate_functional(PROB, 1.0, SampleBudget(rng_seed=0))


def test_rescaling_identity():
    # alpha * ||u~|| * <r|u~> equals sum_i u~_i <phi_i, r>
    mesh, spec, M, b_raw = poisson(16)
    u = np.linalg.solve(M.to_dense(), b_raw)
    r_state, alpha = build_r_state(mesh, spec, [1.0])
    lhs = alpha * np.linalg.norm(u) * (r_state @ (u / np.linalg.norm(u)))
    r_load = assemble_load(mesh, spec, [1.0])
    assert lhs == pytest.approx(float(r_load @ u), abs=1e-12)


def _per_shot_overlap_means(u, r, eps_l, shots, runs, rng):
    """Reference sampler: every shot measures its own state at l2 distance
    eps_l from u, perturbed along a uniform direction orthogonal to u."""
    w = rng.standard_normal((runs, shots, len(u)))
    w -= (w @ u)[..., None] * u
    w /= np.linalg.norm(w, axis=-1, keepdims=True)
    theta = 2.0 * np.arcsin(eps_l / 2.0)
    states = np.cos(theta) * u + np.sin(theta) * w
    assert np.allclose(np.linalg.norm(states - u, axis=-1), eps_l, atol=1e-12)
    p = 0.5 * (1.0 + states @ r)
    outcomes = np.where(rng.random((runs, shots)) < p, 1.0, -1.0)
    return outcomes.mean(axis=1)


def test_hadamard_binomial_matches_per_shot_states():
    u = unit([1.0, 2.0, 3.0, 4.0, 0.5, -1.0])
    r = unit([2.0, -1.0, 1.0, 3.0, 1.0, 0.0])
    eps_l, eps_out, runs = 0.6, 0.25, 2500
    shots = 2 * int(np.ceil(1.0 / eps_out**2))
    binomial = np.array(
        [hadamard_test_estimate(u, r, eps_out, SampleBudget(rng_seed=seed), eps_l=eps_l) for seed in range(runs)]
    )
    per_shot = _per_shot_overlap_means(u, r, eps_l, shots, runs, np.random.default_rng(7))

    theta = 2.0 * np.arcsin(eps_l / 2.0)
    p = 0.5 * (1.0 + np.cos(theta) * (u @ r))
    sd = np.sqrt(4.0 * p * (1.0 - p) / shots)
    se_mean = sd / np.sqrt(runs)
    se_sd = sd / np.sqrt(2.0 * (runs - 1))
    for means in (binomial, per_shot):
        assert abs(0.5 * (1.0 + means.mean()) - p) <= 4.0 * se_mean / 2.0
        assert abs(means.std(ddof=1) - sd) <= 4.0 * se_sd
    assert abs(binomial.mean() - per_shot.mean()) <= 4.0 * np.sqrt(2.0) * se_mean
    assert abs(binomial.std(ddof=1) - per_shot.std(ddof=1)) <= 4.0 * np.sqrt(2.0) * se_sd


def test_hadamard_charges_every_shot():
    s = unit([1.0, 2.0, 3.0, 4.0])
    budget = SampleBudget(rng_seed=0)
    hadamard_test_estimate(s, s, 0.1, budget, eps_l=0.2)
    assert budget.uses_of_state_prep == 2 * 100


@pytest.mark.parametrize("shots", [0, -1])
def test_sample_budget_binomial_rejects_empty_draws(shots):
    budget = SampleBudget(rng_seed=0)
    with pytest.raises(ValidationError):
        budget.binomial(shots, 0.5)
    assert budget.uses_of_state_prep == 0


def test_sample_budget_binomial_charges_and_matches_rng_stream():
    budget = SampleBudget(rng_seed=5)
    rng = np.random.default_rng(5)
    # one count per call, from the stream a size-1 draw takes as well
    assert budget.binomial(328, 0.3) == rng.binomial(328, 0.3, size=1)[0]
    assert budget.binomial(35, 0.9) == rng.binomial(35, 0.9)
    assert budget.uses_of_state_prep == 328 + 35


def test_hadamard_rejects_bad_eps_l():
    s = unit([1.0, 2.0])
    with pytest.raises(ValidationError):
        hadamard_test_estimate(s, s, 0.1, SampleBudget(rng_seed=0), eps_l=1.0)
