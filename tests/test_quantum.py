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
    Statevector,
    UnsupportedConfigurationError,
    ValidationError,
    WeightOracle,
    apply_sparse_nonunitary,
    assemble_gram,
    assemble_load,
    assemble_stiffness,
    build_basis,
    build_interval_mesh,
    build_r_state,
    build_square_triangulation,
    darboux_load_entry,
    estimate_functional,
    estimate_norm,
    exact_weight_S,
    grover_rudolph_prepare,
    hadamard_test_estimate,
    input_error_propagation,
    simulated_qle,
    swap_test_estimate,
)


def poisson(n, f=(-1.0,), k=1):
    mesh = build_interval_mesh(n)
    spec = build_basis(mesh, k)
    M = assemble_stiffness(mesh, spec, BilinearForm())
    b = -assemble_load(mesh, spec, list(f)).values
    return mesh, spec, M, b


# ---------------------------------------------------------------------------
# Statevector

def test_statevector_padding_and_norm():
    s = Statevector.from_vector([3.0, 4.0, 0.0])
    assert s.dim == 4 and s.n_active == 3
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValidationError):
        Statevector(np.array([0.5, 0.5]))  # not normalized
    with pytest.raises(ValidationError):
        Statevector.from_vector(np.zeros(4))


def test_statevector_csv(tmp_path):
    s = Statevector.from_vector([1.0, 1.0])
    path = tmp_path / "state.csv"
    s.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,amplitude"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# prefix-weight state preparation

def test_uniform_weights_give_uniform_state():
    n = 4
    oracle = WeightOracle(n, lambda p: 2.0 ** (-len(p)), lambda i: 1.0)
    state = grover_rudolph_prepare(oracle, n)
    assert np.allclose(state.amplitudes, 2.0 ** (-n / 2), atol=1e-14)


def test_single_path_weights_give_basis_state():
    n, target = 5, 19

    def w(prefix):
        bits = tuple((target >> (n - 1 - i)) & 1 for i in range(len(prefix)))
        return 1.0 if prefix == bits else 0.0

    state = grover_rudolph_prepare(WeightOracle(n, w, lambda i: 1.0), n)
    expected = np.zeros(2**n)
    expected[target] = 1.0
    assert np.array_equal(state.amplitudes, expected)


def test_exact_oracles_reach_machine_fidelity():
    rng = np.random.default_rng(123)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        target = rng.standard_normal(2**n)
        target /= np.linalg.norm(target)
        oracle = WeightOracle.exact_for_state(target)
        state = grover_rudolph_prepare(oracle, n)
        assert abs(state.amplitudes @ target) >= 1.0 - 1e-12


def test_oracle_subadditivity_holds_on_exact_oracles():
    rng = np.random.default_rng(5)
    target = rng.standard_normal(2**6)
    oracle = WeightOracle.exact_for_state(target)
    for k in range(6):
        for v in range(2**k):
            prefix = tuple((v >> (k - 1 - i)) & 1 for i in range(k))
            w = oracle.weight(prefix)
            w0 = oracle.weight(prefix + (0,))
            w1 = oracle.weight(prefix + (1,))
            assert w == pytest.approx(w0 + w1, abs=1e-12)


def test_inconsistent_oracle_rejected():
    oracle = WeightOracle(3, lambda p: 1.0, lambda i: 1.0)  # children do not split the parent
    with pytest.raises(ValidationError):
        grover_rudolph_prepare(oracle, 3)


def test_negative_weight_rejected():
    oracle = WeightOracle(3, lambda p: 1.0 if not p else (-1.0 if p[0] else 2.0), lambda i: 1.0)
    with pytest.raises(ValidationError):
        grover_rudolph_prepare(oracle, 3)


def test_qubit_cap():
    oracle = WeightOracle(15, lambda p: 2.0 ** (-len(p)), lambda i: 1.0)
    with pytest.raises(ValidationError):
        grover_rudolph_prepare(oracle, 15)


def test_noisy_oracle_error_scales_with_accuracy():
    rng = np.random.default_rng(2)
    for eps in (1e-2, 1e-3):
        for trial in range(5):
            n = int(rng.integers(3, 11))
            target = rng.standard_normal(2**n)
            target /= np.linalg.norm(target)
            noisy = WeightOracle.exact_for_state(target).with_noise(eps**2 / 2**n, seed=trial)
            state = grover_rudolph_prepare(noisy, n)
            assert np.linalg.norm(state.amplitudes - target) <= 10 * eps


def test_prepared_load_state_matches_direct_normalization():
    mesh, spec, _, _ = poisson(16)
    f = [0.5, -1.0, 2.0]
    load = assemble_load(mesh, spec, f).values
    padded = np.zeros(16)
    padded[: len(load)] = load
    oracle = WeightOracle.exact_for_state(padded)
    state = grover_rudolph_prepare(oracle, 4)
    assert np.linalg.norm(state.amplitudes - padded / np.linalg.norm(padded)) <= 1e-10


# ---------------------------------------------------------------------------
# closed-form weights and endpoint-sum loads

def test_weight_sum_constant_f():
    mesh, spec, _, _ = poisson(16)
    h = mesh.h
    # interior dofs all carry load h
    assert exact_weight_S(mesh, spec, [1.0], 2, 9) == pytest.approx(8 * h * h, abs=1e-15)


def test_weight_sum_empty_range():
    mesh, spec, _, _ = poisson(16)
    assert exact_weight_S(mesh, spec, [1.0], 7, 3) == 0.0


@pytest.mark.parametrize("f", [[1.0], [0.0, 1.0], [0.5, -1.0, 2.0, 0.0, 1.0], [0.0] * 8 + [1.0]])
def test_weight_sum_full_range_is_load_norm(f):
    mesh, spec, _, _ = poisson(16)
    load = assemble_load(mesh, spec, f)
    assert exact_weight_S(mesh, spec, f, 0, spec.n_dofs - 1) == pytest.approx(load.norm() ** 2, abs=1e-12)


def test_weight_sum_split_additivity():
    mesh, spec, _, _ = poisson(32)
    f = [0.3, 1.0, -0.4]
    full = exact_weight_S(mesh, spec, f, 0, spec.n_dofs - 1)
    for m in (0, 5, 17, 30):
        parts = exact_weight_S(mesh, spec, f, 0, m) + exact_weight_S(mesh, spec, f, m + 1, spec.n_dofs - 1)
        assert parts == pytest.approx(full, abs=1e-15)


def test_weight_sum_requires_uniform_tents():
    mesh = build_interval_mesh(8)
    spec = build_basis(mesh, 2)
    with pytest.raises(UnsupportedConfigurationError):
        exact_weight_S(mesh, spec, [1.0], 0, 3)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_darboux_matches_quadrature(k):
    mesh = build_interval_mesh(8)
    spec = build_basis(mesh, k)
    f = [0.3, -1.0, 0.7, 0.2]
    anti = [list(f)]
    for _ in range(k + 1):
        anti.append(list(npoly.polyint(anti[-1])))
    anti = anti[1:]
    load = assemble_load(mesh, spec, f).values
    for i in range(spec.n_dofs):
        assert darboux_load_entry(spec, anti, i) == pytest.approx(load[i], abs=1e-12)


def test_darboux_simple_cases():
    mesh = build_interval_mesh(4)
    spec = build_basis(mesh, 1)
    h = mesh.h
    anti_one = [[0.0, 1.0], [0.0, 0.0, 0.5]]
    assert darboux_load_entry(spec, anti_one, 0) == pytest.approx(h, abs=1e-14)
    anti_zero = [[0.0], [0.0]]
    assert darboux_load_entry(spec, anti_zero, 1) == 0.0
    anti_x = [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 1.0 / 6.0]]
    assert darboux_load_entry(spec, anti_x, 0) == pytest.approx(h * 0.25, abs=1e-14)


def test_darboux_requires_full_chain():
    mesh = build_interval_mesh(4)
    spec = build_basis(mesh, 2)
    with pytest.raises(ValidationError):
        darboux_load_entry(spec, [[0.0, 1.0]], 0)
    # broken chain
    with pytest.raises(ValidationError):
        darboux_load_entry(spec, [[0.0, 1.0], [1.0, 2.0], [0.0, 0.0, 0.5]], 0)


# ---------------------------------------------------------------------------
# linear-solver stand-in

def test_qle_identity_exact():
    M = SparseSymMatrix.identity(8)
    b = Statevector.from_vector(np.arange(1.0, 9.0))
    out = simulated_qle(M, b, 0.0, 0)
    assert np.allclose(out.amplitudes, b.amplitudes, atol=1e-14)


def test_qle_exact_matches_dense():
    _, _, M, b_raw = poisson(32)
    b = Statevector.from_vector(b_raw)
    out = simulated_qle(M, b, 0.0, 0)
    exact = np.linalg.solve(M.to_dense(), b.amplitudes[: M.n])
    exact /= np.linalg.norm(exact)
    assert np.linalg.norm(out.amplitudes[: M.n] - exact) <= 1e-12


@pytest.mark.parametrize("eps_l", [0.01, 0.1, 0.5])
def test_qle_perturbation_distance_is_exact(eps_l):
    _, _, M, b_raw = poisson(16)
    b = Statevector.from_vector(b_raw)
    exact = np.linalg.solve(M.to_dense(), b.amplitudes[: M.n])
    exact /= np.linalg.norm(exact)
    for seed in range(5):
        out = simulated_qle(M, b, eps_l, seed)
        dist = np.linalg.norm(out.amplitudes[: M.n] - exact)
        assert dist == pytest.approx(eps_l, abs=1e-12)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_qle_ledger_records_cost():
    _, _, M, b_raw = poisson(8)
    ledger = []
    simulated_qle(M, Statevector.from_vector(b_raw), 0.1, 0, ledger=ledger)
    assert len(ledger) == 1
    assert ledger[0].oracle_calls["P_M"] > 0
    assert ledger[0].notes["call"] == "qle"


def test_qle_rejects_bad_eps():
    _, _, M, b_raw = poisson(8)
    with pytest.raises(ValidationError):
        simulated_qle(M, Statevector.from_vector(b_raw), 1.0, 0)


# ---------------------------------------------------------------------------
# input error propagation

def test_propagation_zero_perturbation():
    _, _, M, b_raw = poisson(8)
    assert input_error_propagation(M, b_raw, np.zeros(M.n)) == 0.0


def test_propagation_identity_bounded_by_two_eps():
    M = SparseSymMatrix.identity(8)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(8)
    b /= np.linalg.norm(b)
    for _ in range(20):
        e = rng.standard_normal(8)
        e *= 1e-2 / np.linalg.norm(e)
        assert input_error_propagation(M, b, e) <= 2e-2 + 1e-12


def test_propagation_never_exceeds_bound_poisson():
    _, _, M, b_raw = poisson(32)
    ev = np.linalg.eigvalsh(M.to_dense())
    kappa = ev[-1] / ev[0]
    rng = np.random.default_rng(7)
    for _ in range(100):
        e = rng.standard_normal(M.n)
        e *= 1e-3 / np.linalg.norm(e)
        assert input_error_propagation(M, b_raw, e) <= 2 * 1e-3 * kappa


def test_propagation_rejects_large_perturbation():
    _, _, M, b_raw = poisson(8)
    with pytest.raises(ValidationError):
        input_error_propagation(M, b_raw, np.ones(M.n))


# ---------------------------------------------------------------------------
# probabilistic operator application

def test_nonunitary_identity_always_succeeds():
    eye = SparseSymMatrix.identity(4)
    psi = Statevector.from_vector([1.0, 2.0, -1.0, 0.5])
    out, ok = apply_sparse_nonunitary(eye, psi, 0)
    assert ok
    assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-14)


def test_nonunitary_annihilated_state_always_fails():
    P = SparseSymMatrix.from_dense(np.diag([1.0, 0.0]))
    psi = Statevector(np.array([0.0, 1.0]))
    out, ok = apply_sparse_nonunitary(P, psi, 0)
    assert not ok
    assert out is psi


def test_nonunitary_success_frequency_within_3_sigma():
    P = SparseSymMatrix.from_dense(np.array([[0.6, 0.2], [0.2, 0.3]]))
    psi = Statevector(np.array([1.0, 0.0]))
    y = P.to_dense() @ psi.amplitudes
    p = np.linalg.norm(y) ** 2 / (P.s**2 * P.max_abs() ** 2)
    trials = 10_000
    wins = sum(apply_sparse_nonunitary(P, psi, seed)[1] for seed in range(trials))
    sigma = np.sqrt(p * (1 - p) * trials)
    assert abs(wins - p * trials) <= 3 * sigma


# ---------------------------------------------------------------------------
# functional-measurement states

def test_r_state_uniform_interior():
    mesh, spec, _, _ = poisson(16)
    state, alpha = build_r_state(mesh, spec, [1.0])
    active = state.amplitudes[: spec.n_dofs]
    assert np.allclose(active[:-1], active[0], atol=1e-14)
    expected_alpha = np.sqrt((spec.n_dofs - 1) * mesh.h**2 + (mesh.h / 2) ** 2)
    assert alpha == pytest.approx(expected_alpha, abs=1e-14)


def test_r_state_single_tent_matches_gram_row():
    mesh, spec, _, _ = poisson(8)
    W = assemble_gram(mesh, spec).to_dense()
    j = 3
    xj = mesh.h * (j + 1)

    def tent(x):
        return np.maximum(0.0, 1.0 - np.abs(np.asarray(x) - xj) / mesh.h)

    state, alpha = build_r_state(mesh, spec, tent)
    expected = W[j] / np.linalg.norm(W[j])
    assert np.allclose(state.amplitudes[: spec.n_dofs], expected, atol=1e-12)
    assert alpha == pytest.approx(np.linalg.norm(W[j]), abs=1e-12)


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
    s = Statevector.from_vector([1.0, 2.0, 3.0, 0.0])
    budget = SampleBudget(rng_seed=0)
    assert hadamard_test_estimate(s, s, 0.05, budget) == pytest.approx(1.0, abs=0.05)


def test_hadamard_orthogonal_states():
    a = Statevector(np.array([1.0, 0.0]))
    b = Statevector(np.array([0.0, 1.0]))
    budget = SampleBudget(rng_seed=1)
    assert abs(hadamard_test_estimate(a, b, 0.05, budget)) <= 0.05


def test_hadamard_known_overlap_coverage():
    # With 2*ceil(1/eps^2) = 800 shots and overlap 0.6 the per-seed success
    # probability is ~0.93 (binomial, +-1 outcomes), so demand >= 87/100:
    # three sigma below the expected 93.
    a = Statevector(np.array([1.0, 0.0]))
    b = Statevector(np.array([0.6, 0.8]))
    hits = 0
    for seed in range(100):
        budget = SampleBudget(rng_seed=seed)
        if abs(hadamard_test_estimate(a, b, 0.05, budget) - 0.6) <= 0.05:
            hits += 1
    assert hits >= 87


def test_hadamard_consumes_budget_and_raises_when_exhausted():
    s = Statevector.from_vector([1.0, 1.0])
    budget = SampleBudget(shots=100, rng_seed=0)
    with pytest.raises(BudgetExceededError):
        hadamard_test_estimate(s, s, 0.01, budget)
    budget = SampleBudget(rng_seed=0)
    hadamard_test_estimate(s, s, 0.1, budget)
    assert budget.uses_of_state_prep == 2 * 100


def test_hadamard_median_of_means():
    a = Statevector(np.array([1.0, 0.0]))
    b = Statevector(np.array([0.6, 0.8]))
    budget = SampleBudget(rng_seed=3)
    est = hadamard_test_estimate(a, b, 0.1, budget, medians=5)
    assert est == pytest.approx(0.6, abs=0.1)


def test_swap_test_identical():
    s = Statevector.from_vector([1.0, -1.0])
    assert swap_test_estimate(s, s, 2000, 0) == pytest.approx(1.0, abs=0.05)


def test_swap_test_orthogonal():
    a = Statevector(np.array([1.0, 0.0]))
    b = Statevector(np.array([0.0, 1.0]))
    est = swap_test_estimate(a, b, 10_000, 0)
    # same-frequency ~ 1/2 means the squared-overlap estimate is ~0
    assert abs(est) <= 3 * 2.0 / np.sqrt(10_000)


def test_swap_test_quarter_overlap():
    a = Statevector(np.array([1.0, 0.0]))
    b = Statevector(np.array([0.5, np.sqrt(0.75)]))
    shots = 20_000
    p = 0.5 + 0.5 * 0.25
    sigma = np.sqrt(p * (1 - p) / shots)
    est = swap_test_estimate(a, b, shots, 1)
    assert abs(est - 0.25) <= 3 * 2 * sigma


def test_norm_estimation_identity():
    M = SparseSymMatrix.identity(4)
    b = Statevector.from_vector([1.0, 1.0, 1.0, 1.0])
    budget = SampleBudget(rng_seed=0)
    assert estimate_norm(M, b, 0.05, budget) == pytest.approx(1.0, abs=0.05)


def test_norm_estimation_scaled_diagonal():
    M = SparseSymMatrix.from_dense(np.diag([0.5, 0.5, 0.5, 0.5]))
    b = Statevector.from_vector([1.0, 1.0, 1.0, 1.0])
    budget = SampleBudget(rng_seed=0)
    assert estimate_norm(M, b, 0.05, budget) == pytest.approx(2.0, rel=0.1)


def test_norm_estimation_poisson_coverage():
    _, _, M, b_raw = poisson(32)
    b = Statevector.from_vector(b_raw)
    truth = np.linalg.norm(np.linalg.solve(M.to_dense(), b.amplitudes[: M.n]))
    hits = 0
    for seed in range(30):
        budget = SampleBudget(rng_seed=seed)
        if abs(estimate_norm(M, b, 0.03, budget) - truth) <= 0.03 * truth:
            hits += 1
    assert hits >= 20  # 2/3 of seeds


def test_norm_estimation_floor():
    M = SparseSymMatrix.from_dense(np.diag([1.0, 1e-8]))
    b = Statevector(np.array([1.0, 0.0]))
    with pytest.raises(SimulationFloorError):
        estimate_norm(M, b, 0.1, budget=SampleBudget(rng_seed=0))


def test_norm_estimation_empirical_shots_scale_inverse_eps_squared():
    _, _, M, b_raw = poisson(16)
    b = Statevector.from_vector(b_raw)
    shots = []
    eps_list = [0.1, 0.05, 0.02, 0.01]
    ledger = []
    for eps in eps_list:
        budget = SampleBudget(rng_seed=0)
        estimate_norm(M, b, eps, budget, ledger=ledger)
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


def test_functional_orthogonal_r():
    # r odd around x = 1/2 up to normalization picked to kill <u, r>
    from qfemlab.problems import analytic_solution_1d, exact_functional_1d

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
    lhs = alpha * np.linalg.norm(u) * (r_state.amplitudes[: spec.n_dofs] @ (u / np.linalg.norm(u)))
    r_load = assemble_load(mesh, spec, [1.0]).values
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
    u = Statevector.from_vector([1.0, 2.0, 3.0, 4.0, 0.5, -1.0])
    r = Statevector.from_vector([2.0, -1.0, 1.0, 3.0, 1.0, 0.0])
    eps_l, eps_out, runs = 0.6, 0.25, 2500
    shots = 2 * int(np.ceil(1.0 / eps_out**2))
    binomial = np.array(
        [hadamard_test_estimate(u, r, eps_out, SampleBudget(rng_seed=seed), eps_l=eps_l) for seed in range(runs)]
    )
    per_shot = _per_shot_overlap_means(u.amplitudes, r.amplitudes, eps_l, shots, runs, np.random.default_rng(7))

    theta = 2.0 * np.arcsin(eps_l / 2.0)
    p = 0.5 * (1.0 + np.cos(theta) * u.inner(r))
    sd = np.sqrt(4.0 * p * (1.0 - p) / shots)
    se_mean = sd / np.sqrt(runs)
    se_sd = sd / np.sqrt(2.0 * (runs - 1))
    for means in (binomial, per_shot):
        assert abs(0.5 * (1.0 + means.mean()) - p) <= 4.0 * se_mean / 2.0
        assert abs(means.std(ddof=1) - sd) <= 4.0 * se_sd
    assert abs(binomial.mean() - per_shot.mean()) <= 4.0 * np.sqrt(2.0) * se_mean
    assert abs(binomial.std(ddof=1) - per_shot.std(ddof=1)) <= 4.0 * np.sqrt(2.0) * se_sd


def test_hadamard_charges_every_shot_and_median():
    s = Statevector.from_vector([1.0, 2.0, 3.0, 4.0])
    budget = SampleBudget(rng_seed=0)
    hadamard_test_estimate(s, s, 0.1, budget, medians=3, eps_l=0.2)
    assert budget.uses_of_state_prep == 3 * 2 * 100


@pytest.mark.parametrize("medians", [0, -2])
def test_hadamard_rejects_medians_below_one_without_charging(medians):
    s = Statevector.from_vector([1.0, 2.0])
    budget = SampleBudget(rng_seed=0)
    with pytest.raises(ValidationError):
        hadamard_test_estimate(s, s, 0.1, budget, medians=medians)
    assert budget.uses_of_state_prep == 0


@pytest.mark.parametrize("shots, size", [(0, 1), (-1, 1), (10, 0), (10, -2)])
def test_sample_budget_binomial_rejects_empty_draws(shots, size):
    budget = SampleBudget(rng_seed=0)
    with pytest.raises(ValidationError):
        budget.binomial(shots, 0.5, size=size)
    assert budget.uses_of_state_prep == 0


def test_sample_budget_binomial_charges_and_matches_rng_stream():
    budget = SampleBudget(rng_seed=5)
    rng = np.random.default_rng(5)
    assert budget.binomial(328, 0.3)[0] == rng.binomial(328, 0.3)
    assert np.array_equal(budget.binomial(35, 0.9, size=4), rng.binomial(35, 0.9, size=4))
    assert budget.uses_of_state_prep == 328 + 35 * 4


def test_hadamard_rejects_bad_eps_l():
    s = Statevector.from_vector([1.0, 2.0])
    with pytest.raises(ValidationError):
        hadamard_test_estimate(s, s, 0.1, SampleBudget(rng_seed=0), eps_l=1.0)
