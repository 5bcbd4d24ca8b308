import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfemlab import ValidationError, cli, hybrid_experiment, make_blackbox_pair
from qfemlab.cli import lowerbound_hybrid_table
from qfemlab.lowerbounds import aligned_probability, completion_operators, orthonormal_completions


@pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, 1.0])
def test_completions_are_orthonormal(eps):
    pair = make_blackbox_pair(16, eps, 1, rng_seed=3)
    psi, phi = pair.psi, pair.phi
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
    psi, phi = pair.psi, pair.phi
    a_psi, a_phi = completion_operators(psi, phi)
    assert np.array_equal(a_psi[:, 0], psi)
    assert np.array_equal(a_phi[:, 0], phi)
    # A_phi = R A_psi with R a rotation (det +1), not a reflection
    assert np.linalg.det(a_phi @ a_psi.T) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(a_psi - a_phi, 2) == pytest.approx(pair.eps_sep, abs=1e-12)
    assert pair.eps_sep == pytest.approx(eps, abs=1e-12)


@pytest.mark.parametrize("eps", [1e-10, 1e-8, 1e-6, 1e-4])
def test_nearby_states_complete_to_orthogonal_operators(eps):
    # completion_operators raises unless both operators are orthogonal to 1e-12
    for seed in range(20):
        pair = make_blackbox_pair(16, eps, 1, rng_seed=seed)
        completion_operators(pair.psi, pair.phi)
        assert 0.0 <= hybrid_experiment(pair).exact_probability - 0.5 <= eps / math.sqrt(2.0)


def test_no_preparation_gives_no_advantage(capsys):
    argv = ["lowerbound", "--mode", "hybrid", "--T", "0,1,3,16", "--eps-sep", "0,0.3,1.5"]
    assert cli.main([*argv, "--draws", "4", "--dim", "8", "--seed", "2", "--format", "csv"]) == 0
    header, *lines = capsys.readouterr().out.strip().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert len(rows) == 12 and all(row["violations"] == "0" for row in rows)
    assert all(float(row["exact_advantage"]) == 0.0 for row in rows if row["T"] == "0")


def test_default_grid_passes_gate_and_bound():
    # the CLI's default hybrid grid, draw by draw
    for T in (1, 2, 4, 8):
        for eps in (0.01, 0.05, 0.1):
            bound = 0.5 + T * eps / math.sqrt(2.0)
            for rep in range(50):
                pair = make_blackbox_pair(16, eps, T, rng_seed=1000 * rep + 17 * T)
                res = hybrid_experiment(pair)
                assert 0.5 <= res.exact_probability <= bound


def test_default_table_has_no_violations():
    rows = lowerbound_hybrid_table([1, 2, 4, 8], [0.01, 0.05, 0.1], 50)
    assert len(rows) == 12
    assert all(row["violations"] == 0 for row in rows)
    assert all(0.0 <= row["exact_advantage"] <= row["bound"] - 0.5 for row in rows)


DEFAULT_GRID = [(T, eps) for T in (1, 2, 4, 8) for eps in (0.01, 0.05, 0.1)]


@pytest.mark.parametrize("T, eps", DEFAULT_GRID)
def test_aligned_interleaving_turns_by_theta_per_use(T, eps):
    theta = 2.0 * math.asin(eps / 2.0)
    assert aligned_probability(eps, T) - 0.5 == pytest.approx(0.5 * math.sin(T * theta), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 64), st.floats(1e-10, 1.99))
def test_aligned_advantage_is_within_a_constant_of_the_bound(T, eps):
    aligned = aligned_probability(eps, T)
    bound = 0.5 + T * eps / math.sqrt(2.0)
    assert aligned <= bound
    if T * 2.0 * math.asin(eps / 2.0) <= math.pi / 4:
        assert aligned - 0.5 >= 0.6 * (bound - 0.5)


def test_table_reports_the_aligned_column():
    rows = lowerbound_hybrid_table([0, 1, 8], [0.0, 0.1], 2)
    assert [row["aligned_advantage"] for row in rows] == [
        aligned_probability(eps, T) - 0.5 for T in (0, 1, 8) for eps in (0.0, 0.1)
    ]
    # no preparation used, or two equal states: nothing to tell apart
    assert all(row["aligned_advantage"] == 0.0 for row in rows if row["T"] == 0 or row["eps_sep"] == 0.0)


def test_aligned_advantage_above_the_bound_is_a_violation(monkeypatch):
    monkeypatch.setattr(cli, "aligned_probability", lambda eps, T: 1.0)
    rows = lowerbound_hybrid_table([1], [0.05, 1.0], 2)
    assert [row["violations"] for row in rows] == [1, 0]  # the bound at eps = 1 is above 1
