from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qfemlab.errors import UnsupportedConfigurationError
from qfemlab.resources import SobolevData, exponent_table, split_budget

positive = st.floats(1e-6, 1e6)


@given(positive, st.floats(1e-6, 1.0), positive, positive, positive)
def test_split_budget_identity(u_norm, eps_share, alpha, u_tilde_norm, r_norm):
    eps = eps_share * u_norm
    b = split_budget(eps, SobolevData((u_norm, 1.0)), alpha, u_tilde_norm, r_norm)
    c = eps / (3.0 * u_norm)
    terms = (
        b["eps_d"] * r_norm * (1.0 + b["eps_n"] / u_tilde_norm),
        u_norm * r_norm * b["eps_n"] / u_tilde_norm,
        alpha * (u_tilde_norm + b["eps_n"]) * (b["eps_l"] + b["eps_out"]),
    )
    shares = (eps * r_norm * (1.0 - c) / 3.0, eps * r_norm / 3.0, eps * r_norm * (1.0 + c) / 3.0)
    for term, share in zip(terms, shares):
        assert term == pytest.approx(share, rel=1e-12)
    assert sum(terms) == pytest.approx(eps * r_norm, rel=1e-12)
    assert b["eps_l"] == b["eps_out"] and b["eps_cg"] == eps / 2.0


@given(positive, st.floats(1.0 + 1e-9, 1e3))
def test_split_budget_needs_eps_below_u_norm(u_norm, ratio):
    assume(ratio * u_norm > u_norm)
    with pytest.raises(UnsupportedConfigurationError):
        split_budget(ratio * u_norm, SobolevData((u_norm, 1.0)), 1.0, 1.0, 1.0)


@given(st.integers(1, 8), st.integers(1, 6))
def test_exponent_table_orderings(d, k):
    table = exponent_table(d, k)
    assert table["classical"][0] - table["classical_precond"][0] == Fraction(1, k + 1)
    assert table["quantum_precond"] == (1,)
    assert table["quantum"][0] > table["quantum"][1] > 1
    # (k+5)/(k+1) < (d+1)/(k+1): the quantum exponent beats plain CG's exactly when d > k + 4
    assert (table["quantum"][0] < table["classical"][0]) == (d > k + 4)
