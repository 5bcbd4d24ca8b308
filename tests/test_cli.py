import json

import pytest

from qfemlab.cli import main

TINY_1D = {"d": 1, "k": 1, "pde": {"diffusion": 1, "reaction": 0}, "f": [-1], "r": [1], "eps": 1e-2}
TINY_1D_K2 = {"d": 1, "k": 2, "pde": {"diffusion": 1, "reaction": 0}, "f": [0, 0, -12], "r": [1, 1], "eps": 1e-2}
TINY_2D = {
    "d": 2, "k": 1, "pde": {"diffusion": 1, "reaction": 1},
    "f": [[-1]], "r": [[1]], "eps": 5e-2, "sobolev": [0.05, 0.3, 2.0],
}
MODEL_ONLY_3D = {
    "d": 3, "k": 1, "pde": {"diffusion": 1, "reaction": 0},
    "f": [-1], "r": [1], "eps": 1e-2, "sobolev": [0.1, 0.3, 1.0],
}
# the ROADMAP baseline specs whose simulate runs once needed O(shots x dofs) memory
P1 = {"d": 1, "k": 1, "pde": {"diffusion": 1, "reaction": 0}, "f": [-1], "r": [1], "eps": 1e-3}
P1K2 = {"d": 1, "k": 2, "pde": {"diffusion": 1, "reaction": 0}, "f": [0, 0, -12], "r": [1, 1], "eps": 1e-4}


@pytest.fixture
def spec_file(tmp_path):
    def write(payload, name="spec.json"):
        path = tmp_path / name
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.mark.parametrize("spec", [TINY_1D, TINY_1D_K2, TINY_2D])
def test_solve_plan_simulate_exit_zero(capsys, spec_file, spec):
    path = spec_file(spec)
    solved = run_json(capsys, "solve", "--spec", path)
    assert solved["cg"]["converged"]
    assert solved["kappa_estimate"] >= 1.0
    assert "budget" in run_json(capsys, "plan", "--spec", path)
    sim = run_json(capsys, "simulate", "--spec", path)
    assert sim["uses_of_state_prep"] > 0
    exact = run_json(capsys, "simulate", "--spec", path, "--exact")
    assert exact["uses_of_state_prep"] == 0
    assert exact["value"] == pytest.approx(exact["exact_value_discrete"], rel=1e-12)


@pytest.mark.parametrize("spec", [TINY_1D, TINY_2D])
def test_convergence_exit_zero(capsys, spec_file, spec):
    art = run_json(capsys, "convergence", "--spec", spec_file(spec), "--levels", "3")
    assert len(art["levels"]) == 3
    assert art["fitted_slope"] == pytest.approx(2.0, abs=0.3)


def test_model_only_dimension(capsys, spec_file):
    path = spec_file(MODEL_ONLY_3D)
    assert "quantum" in run_json(capsys, "plan", "--spec", path)
    for command in ("solve", "simulate"):
        code, _, err = run(capsys, command, "--spec", path)
        assert code == 2
        assert "Traceback" not in err


def test_resources_json_and_csv(capsys):
    rows = run_json(capsys, "resources", "--dims", "1,2", "--degrees", "1", "--eps", "0.1,0.01")
    assert len(rows) == 2 * 2 * 4
    code, out, _ = run(capsys, "resources", "--dims", "1", "--degrees", "1,2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("pipeline,")
    assert len(lines) == 1 + 2 * 4


@pytest.mark.parametrize("extra", [(), ("--exact",)])
def test_lowerbound_hybrid_defaults_exit_zero(capsys, extra):
    rows = run_json(capsys, "lowerbound", "--mode", "hybrid", *extra)
    assert len(rows) == 12
    assert all(row["violations"] == 0 for row in rows)


def test_lowerbound_bump_exit_zero(capsys):
    rows = run_json(capsys, "lowerbound", "--mode", "bump", "--N", "8,16", "--per-n", "3")
    assert len(rows) == 6
    assert all(row["correct"] == 1 for row in rows)


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[]",
        json.dumps({**TINY_1D, "eps": -1}),
        json.dumps({**TINY_1D, "k": 5}),
        json.dumps({**TINY_1D, "f": [[[-1]]]}),
        json.dumps({**TINY_1D, "pde": [1, 0]}),
        json.dumps({key: val for key, val in TINY_1D.items() if key != "r"}),
    ],
)
def test_malformed_spec_exit_two(capsys, spec_file, text):
    path = spec_file(text)
    for command in ("solve", "simulate", "plan"):
        code, out, err = run(capsys, command, "--spec", path)
        assert code == 2
        assert out == ""
        assert err.startswith("validation error")


def test_missing_spec_and_bad_levels_exit_two(capsys, spec_file, tmp_path):
    code, _, _ = run(capsys, "solve", "--spec", str(tmp_path / "absent.json"))
    assert code == 2
    code, _, _ = run(capsys, "convergence", "--spec", spec_file(TINY_1D), "--levels", "2")
    assert code == 2


@pytest.mark.parametrize("spec, uses", [(P1, 10_204_003), (P1K2, 35_158_328_836)])
def test_simulate_baseline_specs_exit_zero(capsys, spec_file, spec, uses):
    art = run_json(capsys, "simulate", "--spec", spec_file(spec))
    assert art["uses_of_state_prep"] == uses
    ledger_uses = sum(e["notes"].get("empirical_shots", 0) + e["notes"].get("state_prep_uses", 0) for e in art["ledger"])
    assert ledger_uses == uses


def test_fixed_seed_rerun_byte_identical(capsys, spec_file, tmp_path):
    path = spec_file(TINY_1D_K2)
    outputs = []
    for rep in range(2):
        out_dir = tmp_path / f"run{rep}"
        for argv in (
            ("simulate", "--spec", path, "--seed", "7"),
            ("solve", "--spec", path),
            ("lowerbound", "--mode", "hybrid", "--draws", "3", "--seed", "7"),
        ):
            code, _, _ = run(capsys, *argv, "--out", str(out_dir))
            assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert sorted(outputs[0]) == ["lowerbound_hybrid.json", "simulate.json", "solve.json"]
    assert outputs[0] == outputs[1]
    other_seed = run_json(capsys, "simulate", "--spec", path, "--seed", "8")
    assert other_seed["meta"]["seed"] == 8
