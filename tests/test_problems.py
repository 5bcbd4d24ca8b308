import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfemlab import problems
from qfemlab.assembly import assemble_load
from qfemlab.cli import main
from qfemlab.errors import CapExceededError, ValidationError
from qfemlab.problems import ProblemSpec, discretize, mesh_size

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
positive = st.floats(1e-6, 1e6)
coeffs_1d = st.lists(finite, min_size=1, max_size=4)
coeffs_2d = st.integers(1, 3).flatmap(lambda m: st.lists(st.lists(finite, min_size=m, max_size=m), min_size=1, max_size=3))


@st.composite
def specs(draw, d=st.integers(1, 8)):
    d = draw(d)
    data = coeffs_2d if d == 2 else coeffs_1d
    return ProblemSpec.from_dict(
        {
            "d": d,
            "k": 1 if d == 2 else draw(st.integers(1, 3)),
            "pde": {"diffusion": draw(positive), "reaction": draw(st.floats(0.0, 1e6))},
            "f": draw(data),
            "r": draw(data),
            "eps": draw(positive),
            "seed": draw(st.integers(0, 2**63 - 1)),
            "sobolev": draw(st.none() | st.lists(st.floats(1e-3, 1e3), min_size=5, max_size=5)),
        }
    )


@given(specs())
def test_spec_json_round_trip(spec):
    again = ProblemSpec.from_dict(json.loads(spec.to_json()))
    assert again == spec
    assert again.to_json() == spec.to_json()
    assert again.sha256() == spec.sha256()


@given(specs(d=st.sampled_from([1, 2])), st.floats(1e-9, 1.0))
def test_mesh_size_rule(spec, eps):
    spec = ProblemSpec.from_dict({**spec.to_dict(), "sobolev": [1.0, 1.0, 2.0, 3.0, 5.0]})
    n, h = mesh_size(spec, eps)
    assert h == (eps / (2.0 * spec.sobolev.seminorm(spec.k + 1))) ** (1.0 / (spec.k + 1))
    # cells of side 1/n have diameter sqrt(d)/n: at most h, and n is the least such count
    diameter = math.sqrt(spec.d)
    assert diameter / n <= h * (1 + 1e-12)
    assert n == 1 or diameter / (n - 1) > h * (1 - 1e-12)


@given(positive, positive, st.integers(1, 3))
def test_mesh_size_formula(eps, seminorm, k):
    spec = ProblemSpec.from_dict({"d": 1, "k": k, "f": [-1], "r": [1], "eps": 0.1, "sobolev": [1.0] * (k + 1) + [seminorm]})
    h = mesh_size(spec, eps)[1]
    assert h == (eps / (2.0 * seminorm)) ** (1.0 / (k + 1))
    assert mesh_size(spec, eps / 2.0)[1] < h


@pytest.mark.parametrize("eps, seminorm", [(0.0, 1.0), (-1.0, 1.0), (0.1, 0.0)])
def test_mesh_size_rejects_nonpositive(eps, seminorm):
    spec = ProblemSpec.from_dict({"d": 1, "k": 1, "f": [-1], "r": [1], "eps": 0.1, "sobolev": [1.0, 1.0, seminorm]})
    with pytest.raises(ValidationError, match="must be positive"):
        mesh_size(spec, eps)


@settings(max_examples=20, deadline=None)
@given(specs(d=st.sampled_from([1, 2])), st.integers(2, 12))
def test_discretize_spd_and_sign(spec, n):
    basis, M, b = discretize(spec, n)
    assert basis.mesh.n_elements == (n if spec.d == 1 else 2 * n * n)
    assert M.n == basis.n_dofs == len(b)
    assert M.is_spd()
    np.testing.assert_array_equal(b, -assemble_load(basis, spec.f_array()))


def test_discretize_rejects_model_only_dimension():
    spec = ProblemSpec.from_dict({"d": 3, "k": 1, "f": [-1], "r": [1], "eps": 0.1})
    with pytest.raises(ValidationError):
        discretize(spec, 2)


def test_discretize_rejects_mesh_without_free_dofs():
    spec = ProblemSpec.from_dict({"d": 2, "k": 1, "f": [[-1]], "r": [[1]], "eps": 0.1})
    with pytest.raises(ValidationError, match="no free dofs"):
        discretize(spec, 1)  # the four vertices are all on the Dirichlet boundary
    assert discretize(spec, 2)[0].n_dofs == 1  # the centre vertex


class Built(Exception):
    pass


@pytest.mark.parametrize("d, n", [(1, 200_000), (2, 447)])
def test_cell_cap_boundary(monkeypatch, d, n):
    """n^d = MAX_CELLS or just under passes the cap, one more subdivision
    raises before any mesh is built."""
    built = []

    def builder(d, n):
        built.append(n)
        raise Built

    monkeypatch.setattr(problems, "Mesh", builder)
    spec = ProblemSpec.from_dict({"d": d, "k": 1, "f": [-1], "r": [1], "eps": 0.1})
    with pytest.raises(Built):
        discretize(spec, n)
    with pytest.raises(CapExceededError) as info:
        discretize(spec, n + 1)
    assert info.value.required == (n + 1) ** d > problems.MAX_CELLS
    assert built == [n]


OVER_CAP_2D = {
    "d": 2, "k": 1, "pde": {"diffusion": 1, "reaction": 0},
    "f": [[-1]], "r": [[1]], "eps": 1e-9, "sobolev": [1, 1, 1],
}


@pytest.mark.parametrize(
    "argv",
    [("solve",), ("simulate",), ("simulate", "--exact"), ("plan",), ("convergence", "--levels", "14")],
)
def test_over_cap_2d_exit_four(capsys, tmp_path, argv):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(OVER_CAP_2D))
    code = main([argv[0], "--spec", str(path), *argv[1:]])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.startswith("budget/cap exceeded") and "Traceback" not in err

