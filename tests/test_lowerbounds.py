import math

import numpy as np
import pytest

from qfemlab import ValidationError, hybrid_experiment, make_blackbox_pair
from qfemlab.cli import lowerbound_hybrid_table
from qfemlab.lowerbounds import completion_operators, orthonormal_completions


@pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, 1.0])
def test_completions_are_orthonormal(eps):
    pair = make_blackbox_pair(16, eps, 1, rng_seed=3)
    psi, phi = pair.psi.amplitudes, pair.phi.amplitudes
    phi_p, psi_p = orthonormal_completions(psi, phi)
    assert np.linalg.norm(phi_p) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(psi_p) == pytest.approx(1.0, abs=1e-14)
    assert abs(psi @ phi_p) <= 1e-13
    assert abs(phi @ psi_p) <= 1e-13


def test_completion_of_parallel_states_rejected():
    psi = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        orthonormal_completions(psi, -psi)


@pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_completion_operators_differ_by_a_rotation_of_size_eps(eps, seed):
    pair = make_blackbox_pair(16, eps, 1, rng_seed=seed)
    psi, phi = pair.psi.amplitudes, pair.phi.amplitudes
    a_psi, a_phi = completion_operators(psi, phi)
    assert np.array_equal(a_psi[:, 0], psi)
    assert np.array_equal(a_phi[:, 0], phi)
    # A_phi = R A_psi with R a rotation (det +1), not a reflection
    assert np.linalg.det(a_phi @ a_psi.T) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(a_psi - a_phi, 2) == pytest.approx(pair.eps_sep, abs=1e-12)
    assert pair.eps_sep == pytest.approx(eps, abs=1e-12)


def test_default_grid_passes_gate_and_bound():
    # the CLI's default hybrid grid, draw by draw
    for T in (1, 2, 4, 8):
        for eps in (0.01, 0.05, 0.1):
            bound = 0.5 + T * eps / math.sqrt(2.0)
            for rep in range(50):
                pair = make_blackbox_pair(16, eps, T, rng_seed=1000 * rep + 17 * T)
                res = hybrid_experiment(pair, trials=0, rng_seed=rep)
                assert 0.5 <= res.exact_probability <= bound


def test_default_table_has_no_violations():
    rows = lowerbound_hybrid_table([1, 2, 4, 8], [0.01, 0.05, 0.1], 50, exact=True)
    assert len(rows) == 12
    assert all(row["violations"] == 0 for row in rows)
    assert all(0.0 <= row["exact_advantage"] <= row["bound"] - 0.5 for row in rows)


def test_zero_trials_skips_sampling():
    pair = make_blackbox_pair(16, 0.1, 4, rng_seed=5)
    res = hybrid_experiment(pair, trials=0, rng_seed=0)
    assert math.isnan(res.empirical_probability)
    assert res.exact_probability == hybrid_experiment(pair, trials=10, rng_seed=0).exact_probability


def test_empirical_probability_tracks_exact():
    pair = make_blackbox_pair(16, 0.5, 4, rng_seed=11)
    trials = 20_000
    res = hybrid_experiment(pair, trials=trials, rng_seed=0)
    sd = math.sqrt(res.exact_probability * (1.0 - res.exact_probability) / trials)
    assert abs(res.empirical_probability - res.exact_probability) <= 4.0 * sd
    assert res.exact_probability <= res.bound
