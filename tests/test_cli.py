import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import numpy as np
import scipy.sparse

from pointwise import elements, evaluate, vertices
import qfemlab.assembly
from qfemlab import cli
from qfemlab.assembly import element_quadrature_1d
from qfemlab.cli import main
from qfemlab.errors import CapExceededError
from qfemlab.problems import MAX_CELLS, ProblemSpec, analytic_solution_1d, discretize, mesh_size

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
    plan = run_json(capsys, "plan", "--spec", path)
    sim = run_json(capsys, "simulate", "--spec", path)
    assert sim["uses_of_state_prep"] > 0
    assert plan["budget"] == sim["budget"]
    exact = run_json(capsys, "simulate", "--spec", path, "--exact")
    assert exact["uses_of_state_prep"] == 0
    assert exact["value"] == pytest.approx(exact["exact_value_discrete"], rel=1e-12)


@pytest.mark.parametrize("spec", [TINY_1D, TINY_1D_K2, TINY_2D])
def test_solve_lambda_min_and_kappa_share_one_source(capsys, spec_file, spec):
    art = run_json(capsys, "solve", "--spec", spec_file(spec))
    problem = ProblemSpec.from_dict(spec)
    M = discretize(problem, mesh_size(problem, problem.eps)[0])[1]
    lam_max = M.extremes()[1]
    assert art["kappa_estimate"] * art["cg"]["lambda_min_estimate"] == pytest.approx(lam_max, rel=1e-12)


def test_solve_without_free_dofs_exit_two(capsys, spec_file):
    # the size rule gives one cell per side, so all four vertices are Dirichlet nodes
    spec = {
        "d": 2, "k": 1, "pde": {"diffusion": 1.0, "reaction": 0.0}, "f": [[1.0]], "r": [[1.0]],
        "eps": 4.0, "seed": 1, "sobolev": [1, 1, 1],
    }
    code, out, err = run(capsys, "solve", "--spec", spec_file(spec))
    assert code == 2
    assert out == ""
    assert err.startswith("validation error") and "no free dofs" in err


@pytest.mark.parametrize("spec", [TINY_1D, TINY_2D])
def test_convergence_exit_zero(capsys, spec_file, spec):
    art = run_json(capsys, "convergence", "--spec", spec_file(spec), "--levels", "3")
    assert len(art["levels"]) == 3
    assert art["fitted_slope"] == pytest.approx(2.0, abs=0.3)


def test_2d_reports_build_no_mesh_arrays_and_no_scipy_eigensolver(capsys, spec_file):
    # 2D assembly, loads, solves and the prolongation work from n alone
    path = spec_file(TINY_2D)
    assert run_json(capsys, "convergence", "--spec", path, "--levels", "3")["reference"] == "fine-mesh solve"
    assert run_json(capsys, "simulate", "--spec", path, "--seed", "7")["uses_of_state_prep"] > 0
    assert "lobpcg" not in vars(qfemlab.assembly)


@pytest.mark.parametrize("spec", [TINY_1D, TINY_2D], ids=["1d", "2d"])
@pytest.mark.parametrize("command", [("solve",), ("simulate",), ("convergence", "--levels", "3")])
def test_reports_make_no_scipy_sparse_products(monkeypatch, capsys, spec_file, spec, command):
    # products with M are one kernel call each, past scipy's sparse dispatch
    def forbidden(*_args, **_kwargs):
        raise AssertionError("scipy sparse matrix-vector product")

    monkeypatch.setattr(scipy.sparse._compressed._cs_matrix, "_matmul_vector", forbidden)
    run_json(capsys, command[0], "--spec", spec_file(spec), *command[1:])


# finite specs the validator accepts whose data, or the mesh sizes, model
# costs and shot counts derived from them, leave double-precision range
OUT_OF_RANGE = {
    "2d-diffusion": ({**TINY_2D, "pde": {"diffusion": 1e-300, "reaction": 0}}, ("simulate", "plan")),
    "1d-r": ({**TINY_1D, "r": [1e300]}, ("simulate", "plan")),
    "1d-diffusion": ({**TINY_1D, "pde": {"diffusion": 1e-300, "reaction": 0}}, ("solve", "simulate", "plan")),
    "1d-f": ({**TINY_1D, "f": [-1e300]}, ("solve", "simulate", "plan")),
    "1d-eps": ({**TINY_1D, "eps": 1e-300}, ("plan",)),
    "1d-sobolev": ({**TINY_1D, "sobolev": [1e300, 1, 1]}, ("simulate",)),
    "1d-overlap-shots": ({**TINY_1D, "eps": 1e-300, "sobolev": [1e-300, 1, 1e-300]}, ("simulate",)),
    "3d-eps": ({**MODEL_ONLY_3D, "eps": 1e-250}, ("plan",)),
    # a given ||u|| of 1e300 against a computed ||u~|| near 1e-120 underflows a budget share
    "2d-budget-share": (
        {**TINY_2D, "pde": {"diffusion": 1e150, "reaction": 0}, "f": [[-1e30]], "r": [[1e30]], "sobolev": [1e300, 1, 1]},
        ("simulate", "plan"),
    ),
    # CG's iterate overflows (2D), or the functional of a finite solution does (1D)
    "2d-cg-overflow": (
        {
            "d": 2, "k": 1, "pde": {"diffusion": 2.83e-278, "reaction": 0},
            "f": [[-1.0e39, 1.58], [2.9e-294, -1.4e-209]], "r": [[-3.9e142, 1.4e-160], [1.98, -1.4e206]],
            "eps": 0.404, "sobolev": [0.08, 2.6e293, 0.134],
        },
        ("solve", "convergence"),
    ),
    "1d-functional": (
        {"d": 1, "k": 1, "pde": {"diffusion": 4.8e-163, "reaction": 0}, "f": [-1e-40], "r": [-1.4e189], "eps": 1e118},
        ("solve",),
    ),
    # a convergence error overflows: the analytic L2 error's square (1D), the
    # fine-mesh e^T G e, or the analytic solution itself
    "1d-analytic-error": (
        {"d": 1, "k": 1, "pde": {"diffusion": 5.87e10, "reaction": 0}, "eps": 1.76e248, "f": [2.02e229], "r": [-2.9e-183, 2.6e-261]},
        ("convergence",),
    ),
    "1d-fine-mesh-error": (
        {
            "d": 1, "k": 2, "pde": {"diffusion": 1.0, "reaction": 4e-168}, "eps": 1e-3,
            "f": [1.75e169, -3.8e-9], "r": [1.0], "sobolev": [1, 1, 1, 1],
        },
        ("convergence",),
    ),
    "1d-analytic-solution": (
        {"d": 1, "k": 1, "pde": {"diffusion": 3.79e-41, "reaction": 0}, "eps": 4.7e-47, "f": [2.89e280, 9.4e-66], "r": [-3.8e-93]},
        ("convergence",),
    ),
}


# the suite turns numpy's RuntimeWarnings into errors, so these runs also
# show that the data is refused before any overflow warning
@pytest.mark.parametrize(
    "name, command", [(name, command) for name, (_, commands) in OUT_OF_RANGE.items() for command in commands]
)
def test_out_of_range_specs_exit_without_traceback(capsys, spec_file, name, command):
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--spec", spec_file(OUT_OF_RANGE[name][0]))
    assert code in (2, 4) and out == "" and "Traceback" not in err and "Warning" not in err, err
    assert len(err.splitlines()) == 1, err
    assert time.perf_counter() - start < 2.0


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
    assert out.endswith("\n") and not out.endswith("\n\n")
    lines = out.strip().splitlines()
    assert lines[0].startswith("pipeline,")
    assert len(lines) == 1 + 2 * 4


def test_runtime_models_are_positive_just_below_eps_two(capsys, spec_file):
    rows = run_json(capsys, "resources", "--dims", "1,2,3", "--degrees", "1,2", "--eps", "1.999")
    assert len(rows) == 3 * 2 * 4 and all(row["model_value"] > 0 for row in rows)
    plan = run_json(capsys, "plan", "--spec", spec_file({**MODEL_ONLY_3D, "eps": 1.999}))
    assert all(plan[name]["runtime_model"] > 0 for name in ("classical", "classical_precond", "quantum", "quantum_precond"))


@pytest.mark.parametrize(
    "spec",
    [
        {**TINY_1D, "eps": 0.03, "sobolev": [1, 1, 1, 1, 1]},
        {**TINY_1D_K2, "eps": 0.03, "sobolev": [1, 1, 1, 1, 1]},
        {**TINY_2D, "eps": 0.03, "sobolev": [1, 1, 1, 1, 1]},
    ],
    ids=["1d", "1d-k2", "2d"],
)
def test_plan_prices_every_pipeline_as_resources_does(capsys, spec_file, spec):
    # resources takes every seminorm as 1, so the spec's sobolev field does too
    plan = run_json(capsys, "plan", "--spec", spec_file(spec))
    rows = run_json(capsys, "resources", "--dims", str(spec["d"]), "--degrees", str(spec["k"]), "--eps", "0.03")
    assert [row["pipeline"] for row in rows] == ["classical", "classical_precond", "quantum", "quantum_precond"]
    for row in rows:
        est = plan[row["pipeline"]]
        assert est["pipeline"] == row["pipeline"]
        assert est["runtime_model"] == row["model_value"]
        assert "+".join(est["exponent_terms"]) == row["exponent"]
        assert ";".join(f"{name}={val:.6e}" for name, val in sorted(est["oracle_calls"].items())) == row["oracle_counts"]


# each subcommand registers only the flags it reads
UNREAD_FLAGS = [
    ("solve", "--spec", "{tiny_1d}", "--exact"),
    ("solve", "--spec", "{tiny_1d}", "--format", "csv"),
    ("plan", "--spec", "{tiny_1d}", "--exact"),
    ("resources", "--seed", "3"),
    ("lowerbound", "--mode", "hybrid", "--exact"),
    ("lowerbound", "--mode", "bump", "--exact"),
]


@pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=" ".join)
def test_unread_flags_are_rejected(capsys, spec_file, argv):
    path = spec_file(TINY_1D)
    code, out, err = run(capsys, *(path if arg == "{tiny_1d}" else arg for arg in argv))
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err and "Traceback" not in err


# a list value that starts with "-" and is not a plain number reads as a
# flag; written --flag=value it parses, and its range check decides
NEGATIVE_LIST_ARGV = [
    (("resources", "--eps", "-inf"), ("resources", "--eps=-inf")),
    (("resources", "--dims", "-1,1"), ("resources", "--dims=-1,1")),
    (("resources", "--eps", "-1,0.1"), ("resources", "--eps=-1,0.1")),
    (("lowerbound", "--mode", "hybrid", "--T", "-1,2"), ("lowerbound", "--mode", "hybrid", "--T=-1,2")),
    (("lowerbound", "--mode", "hybrid", "--eps-sep", "-0.1,0.1"), ("lowerbound", "--mode", "hybrid", "--eps-sep=-0.1,0.1")),
    (("lowerbound", "--mode", "bump", "--N", "-1,2"), ("lowerbound", "--mode", "bump", "--N=-1,2")),
]


@pytest.mark.parametrize("spaced, joined", NEGATIVE_LIST_ARGV, ids=lambda argv: " ".join(argv))
def test_negative_list_values_exit_two_on_one_line(capsys, spaced, joined):
    for argv in (spaced, joined):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("validation error: ") and err.count("\n") == 1, (argv, err)
    assert "expected one argument" in run(capsys, *spaced)[2]
    assert "expected one argument" not in run(capsys, *joined)[2]


@pytest.mark.parametrize("argv", [(), ("frob",), ("solve",), ("resources", "--eps", "x"), ("simulate", "--spec")])
def test_usage_errors_exit_two_on_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("validation error: ") and err.count("\n") == 1, err


def test_lowerbound_hybrid_defaults_exit_zero(capsys):
    rows = run_json(capsys, "lowerbound", "--mode", "hybrid")
    assert len(rows) == 12
    assert all(row["violations"] == 0 for row in rows)


@pytest.mark.parametrize("flag, value", [("--N", "100000000000"), ("--per-n", "1000000000")])
def test_lowerbound_bump_over_the_cell_cap_exits_four(capsys, flag, value):
    # per_n * sum(N // 2) cells of 8 queries each, refused before the first one
    start = time.perf_counter()
    code, out, err = run(capsys, "lowerbound", "--mode", "bump", flag, value)
    assert code == 4 and out == "" and "cells" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ("--draws", "1000000000"),
        ("--T", "100000", "--dim", "2"),  # under the per-map floor, tiny maps still add up
        ("--T", "3000", "--dim", "1024", "--draws", "1"),  # 25 GB of maps per pair
        ("--T", "8200", "--dim", "64", "--draws", "1", "--eps-sep", "0.1"),  # under the work cap, over 256 MiB
    ],
)
def test_lowerbound_hybrid_over_its_cap_exits_four(monkeypatch, capsys, argv):
    # |eps| * draws * sum(T + 1) maps and a pair's memory are priced before the first map
    built = []
    monkeypatch.setattr(cli, "make_blackbox_pair", lambda *args, **kwargs: built.append(0))
    start = time.perf_counter()
    code, out, err = run(capsys, "lowerbound", "--mode", "hybrid", *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 4 and out == "" and built == []
    assert err.startswith("budget/cap exceeded: hybrid table") and len(err.splitlines()) == 1


HUGE = str(10**4000)  # 4,001 digits: int() parses it, str() of its square raises


@pytest.mark.parametrize(
    "argv",
    [
        ("convergence", "--spec", "{tiny_2d}", "--levels", "14000"),
        ("convergence", "--spec", "{tiny_1d}", "--levels", "3000000"),  # its list of sizes alone ran past 10 s
        ("lowerbound", "--mode", "hybrid", "--T", HUGE, "--draws", HUGE),
        ("lowerbound", "--mode", "bump", "--N", HUGE, "--per-n", HUGE),
    ],
    ids=["convergence-2d", "convergence-1d", "hybrid", "bump"],
)
def test_huge_counts_exit_four_on_one_line(capsys, spec_file, argv):
    # a cap count of any size is formatted without raising, and --levels is
    # refused before the mesh sizes are listed
    specs = {"{tiny_1d}": spec_file(TINY_1D), "{tiny_2d}": spec_file(TINY_2D, name="tiny_2d.json")}
    start = time.perf_counter()
    code, out, err = run(capsys, *(specs.get(arg, arg) for arg in argv))
    assert time.perf_counter() - start < 2.0
    assert code == 4 and out == ""
    assert err.startswith("budget/cap exceeded") and len(err.splitlines()) == 1


@pytest.mark.parametrize("spec, levels", [({**TINY_1D, "pde": {"diffusion": 1, "reaction": 1}, "sobolev": [1, 1, 1]}, 14), (TINY_2D, 5)], ids=["1d", "2d"])
def test_convergence_levels_cap_boundary(monkeypatch, spec, levels):
    # the reference mesh, built first, at the last --levels under MAX_CELLS;
    # one more level is refused before any mesh
    built = []

    def discretize(problem, n):
        built.append(n)
        raise CapExceededError("sentinel")

    monkeypatch.setattr(cli, "discretize", discretize)
    problem = ProblemSpec.from_dict(spec)
    with pytest.raises(CapExceededError, match="sentinel"):
        cli.convergence_report(problem, levels)
    assert built[0] ** problem.d <= MAX_CELLS < (2 * built[0]) ** problem.d
    with pytest.raises(CapExceededError, match=r"2\^\d+ cells"):
        cli.convergence_report(problem, levels + 1)
    assert len(built) == 1


def test_lowerbound_hybrid_accepts_a_table_at_its_work_cap():
    # 2^32 / 64^3 = 16,384 maps of dim 2 fill the work cap exactly; one more is refused
    T = cli.MAX_HYBRID_WORK // cli.HYBRID_MAP_FLOOR**3 - 1
    assert len(cli.lowerbound_hybrid_table([T], [0.1], 1, dim=2)) == 1
    with pytest.raises(CapExceededError, match="16385 maps"):
        cli.lowerbound_hybrid_table([T + 1], [0.1], 1, dim=2)


def test_lowerbound_oversized_dim_exits_two_before_allocating(capsys):
    # the 2^10 cap is checked before the T+1 = 9 maps of 32 MB each are built
    t0 = time.perf_counter()
    code, out, err = run(capsys, "lowerbound", "--mode", "hybrid", "--dim", "2048", "--T", "8")
    assert time.perf_counter() - t0 < 2.0
    assert code == 2 and out == ""
    assert err.startswith("validation error") and "cap" in err


def test_memory_error_exit_four(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 128. GiB")

    monkeypatch.setattr(cli, "lowerbound_hybrid_table", exhausted)
    code, out, err = run(capsys, "lowerbound", "--mode", "hybrid", "--dim", "131072")
    assert code == 4
    assert out == ""
    assert err.startswith("out of memory") and "Traceback" not in err


# Out-of-range arguments: each must exit 2 with a validation error, not a
# traceback (eps <= 0 or NaN divides or powers badly, a negative seed reaches
# numpy's seeding) and not an exit 0 with empty or meaningless rows.
BAD_ARGV = [
    ("resources", "--eps", "0"),
    ("resources", "--eps", "-1"),
    ("resources", "--eps", "nan"),
    ("resources", "--degrees", "-1"),
    ("resources", "--degrees", "0"),
    ("resources", "--dims", "0"),
    # the classical model prices CG at ln(2/eps), zero or negative from eps = 2 on
    ("resources", "--eps", "2"),
    ("resources", "--eps", "3"),
    ("resources", "--eps", "0.01,3"),
    ("plan", "--spec", "{model_only_eps_3}"),
    ("simulate", "--spec", "{seed_minus_one}"),
    ("simulate", "--spec", "{tiny_1d}", "--seed", "-1"),
    ("lowerbound", "--mode", "hybrid", "--seed", "-3"),
    ("lowerbound", "--mode", "hybrid", "--T", "-1"),
    ("lowerbound", "--mode", "hybrid", "--draws", "0"),
    ("lowerbound", "--mode", "hybrid", "--draws", "-1"),
    ("lowerbound", "--mode", "bump", "--seed", "-3"),
    ("lowerbound", "--mode", "bump", "--N", "0"),
    ("lowerbound", "--mode", "bump", "--per-n", "0"),
    ("lowerbound", "--mode", "bump", "--per-n", "-1"),
]


@pytest.mark.parametrize("argv", BAD_ARGV, ids=" ".join)
def test_invalid_arguments_exit_two(capsys, spec_file, argv):
    specs = {
        "{tiny_1d}": spec_file(TINY_1D),
        "{seed_minus_one}": spec_file({**TINY_1D, "seed": -1}, name="seed.json"),
        "{model_only_eps_3}": spec_file({**MODEL_ONLY_3D, "eps": 3.0}, name="eps3.json"),
    }
    code, out, err = run(capsys, *(specs.get(arg, arg) for arg in argv))
    assert code == 2, err
    assert out == ""
    assert err.startswith("validation error") and "Traceback" not in err


# each flag of the mode not chosen exits 2 instead of being ignored
CROSS_MODE_ARGV = [
    ("--mode", "bump", "--T", "3"),
    ("--mode", "bump", "--eps-sep", "0.1"),
    ("--mode", "bump", "--draws", "0"),
    ("--mode", "bump", "--draws", "5"),
    ("--mode", "bump", "--dim", "5"),
    ("--mode", "hybrid", "--N", "7"),
    ("--mode", "hybrid", "--per-n", "2"),
]


@pytest.mark.parametrize("argv", CROSS_MODE_ARGV, ids=" ".join)
def test_lowerbound_flag_of_other_mode_exit_two(capsys, argv):
    code, out, err = run(capsys, "lowerbound", *argv)
    assert code == 2, err
    assert out == ""
    assert err.startswith("validation error") and argv[2] in err


def test_lowerbound_defaults_fill_in_for_absent_flags(capsys):
    explicit = ("--T", "1,2,4,8", "--eps-sep", "0.01,0.05,0.1", "--draws", "3", "--dim", "16")
    assert run_json(capsys, "lowerbound", "--mode", "hybrid", "--draws", "3") == run_json(capsys, "lowerbound", "--mode", "hybrid", *explicit)
    assert run_json(capsys, "lowerbound", "--mode", "bump") == run_json(capsys, "lowerbound", "--mode", "bump", "--N", "16,64,256", "--per-n", "8")


def test_lowerbound_bump_exit_zero(capsys):
    rows = run_json(capsys, "lowerbound", "--mode", "bump", "--N", "8,16", "--per-n", "3")
    assert len(rows) == 6
    assert all(row["correct"] == 1 for row in rows)


def test_lowerbound_bump_odd_n_is_correct(capsys):
    # for odd N the middle cell straddles x = 1/2; the scan covers the first
    # floor(N/2) cells, so the middle one counts as the upper half
    rows = run_json(capsys, "lowerbound", "--mode", "bump", "--N", "3,5,7,9", "--per-n", "12")
    assert len(rows) == 48
    assert any(row["y0"] == row["N"] // 2 for row in rows)
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


@pytest.mark.parametrize(
    "spec_bytes,argv",
    [
        (None, ("solve", "--spec", "{spec}", "--out", "{file}/x")),
        (None, ("resources", "--out", "{file}")),
        (b"[" * 100_000 + b"]" * 100_000, ("solve", "--spec", "{spec}")),
        (b"\xff\xfe{", ("solve", "--spec", "{spec}")),
    ],
    ids=["out-below-a-file", "out-is-a-file", "spec-nests-too-deeply", "spec-not-utf8"],
)
def test_unwritable_out_and_unreadable_spec_exit_two(capsys, tmp_path, spec_bytes, argv):
    spec, file = tmp_path / "spec.json", tmp_path / "file"
    spec.write_bytes(json.dumps(TINY_1D).encode() if spec_bytes is None else spec_bytes)
    file.write_text("kept")
    code, out, err = run(capsys, *(arg.format(spec=spec, file=file) for arg in argv))
    assert (code, out) == (2, ""), err
    assert err.startswith("validation error: ") and err.count("\n") == 1, err
    assert file.read_text() == "kept"


@pytest.mark.parametrize(
    "field",
    [{"f": []}, {"f": [[]]}, {"r": []}, {"r": [[]]}],
    ids=["f-empty", "f-empty-row", "r-empty", "r-empty-row"],
)
@pytest.mark.parametrize("base", [TINY_1D, TINY_2D], ids=["1d", "2d"])
def test_empty_coefficient_list_exit_two(capsys, spec_file, base, field):
    path = spec_file({**base, **field})
    for argv in (("solve",), ("simulate",), ("plan",), ("convergence", "--levels", "3")):
        code, out, err = run(capsys, argv[0], "--spec", path, *argv[1:])
        assert code == 2, err
        assert out == ""
        assert err.startswith("validation error") and "Traceback" not in err


NON_FINITE = [float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "field",
    [
        lambda bad: {"eps": bad},
        lambda bad: {"pde": {"diffusion": bad, "reaction": 0}},
        lambda bad: {"pde": {"diffusion": 1, "reaction": bad}},
        lambda bad: {"f": [bad]},
        lambda bad: {"r": [1, bad]},
        lambda bad: {"sobolev": [0.1, bad, 1.0]},
    ],
    ids=["eps", "diffusion", "reaction", "f", "r", "sobolev"],
)
def test_non_finite_spec_number_exit_two(capsys, spec_file, field, bad):
    # json.dumps writes NaN, Infinity and -Infinity, which json.loads accepts
    path = spec_file(json.dumps({**TINY_1D, **field(bad)}))
    for command in ("solve", "simulate", "plan"):
        code, out, err = run(capsys, command, "--spec", path)
        assert code == 2, err
        assert out == ""
        assert err.startswith("validation error")


@pytest.mark.parametrize(
    "field",
    [{"seed": 7.9}, {"seed": True}, {"d": 1.9}, {"d": True}, {"k": 1.5}, {"k": True}],
    ids=["seed-fraction", "seed-bool", "d-fraction", "d-bool", "k-fraction", "k-bool"],
)
def test_non_integral_spec_integer_exit_two(capsys, spec_file, field):
    path = spec_file(json.dumps({**TINY_1D, **field}))
    for command in ("solve", "simulate", "plan"):
        code, out, err = run(capsys, command, "--spec", path)
        assert code == 2, err
        assert out == ""
        assert err.startswith("validation error")


def test_integral_float_spec_integers_accepted(capsys, spec_file):
    as_ints = spec_file({**TINY_1D, "seed": 7}, name="ints.json")
    as_floats = spec_file({**TINY_1D, "d": 1.0, "k": 1.0, "seed": 7.0}, name="floats.json")
    for command in ("solve", "simulate", "plan"):
        assert run_json(capsys, command, "--spec", as_floats) == run_json(capsys, command, "--spec", as_ints)


def pointwise_errors(problem, levels):
    """The L2 distance of each level's solution from the fine reference,
    by point evaluation on the fine mesh: the 4-point Gauss rule per element
    in 1D, the edge-midpoint rule per triangle in 2D (exact for the
    piecewise polynomial differences of degree <= 6 and 2)."""
    ns = [4 * 2**i for i in range(levels)]
    spec_f, M_f, b_f = discretize(problem, 4 * ns[-1])
    mesh_f = spec_f.mesh
    coeffs_f = M_f.solve(b_f)
    if problem.d == 1:
        xq, ws = element_quadrature_1d(mesh_f, 4)
        pts, weights = xq.ravel(), np.tile(ws * mesh_f.h, mesh_f.n_elements)
    else:
        tri = vertices(mesh_f)[elements(mesh_f)]
        pts = (0.5 * (tri + np.roll(tri, -1, axis=1))).reshape(-1, 2)
        weights = np.full(len(pts), 0.5 / mesh_f.n**2 / 3.0)
    fine = evaluate(mesh_f, spec_f, coeffs_f, pts)
    errors = []
    for n in ns:
        spec, M, b = discretize(problem, n)
        errors.append(float(np.sqrt(weights @ (fine - evaluate(spec.mesh, spec, M.solve(b), pts)) ** 2)))
    return errors


def reaction_1d(k, f):
    return {"d": 1, "k": k, "pde": {"diffusion": 0.7, "reaction": 2.5}, "f": f, "r": [1], "eps": 1e-2}


@pytest.mark.parametrize(
    "spec, rel",
    [
        (TINY_2D, 1e-10),
        ({**TINY_2D, "pde": {"diffusion": 0.3, "reaction": 0}}, 1e-10),
        *((reaction_1d(k, f), 1e-10) for k in (1, 2) for f in ([-1], [0.3, -2, 1.5])),
        # k = 3 errors reach 1.4e-8, where both measures carry about 1e-10 of
        # rounding: against the exact rational L2 distance the pointwise
        # measure is off by up to 6e-11 and the Gram form by up to 1.1e-10
        *((reaction_1d(3, f), 1e-9) for f in ([-1], [0.3, -2, 1.5])),
    ],
)
def test_convergence_errors_match_pointwise_measure(spec, rel):
    problem = ProblemSpec.from_dict(spec)
    levels = [row["error"] for row in cli.convergence_report(problem, levels=3)["levels"]]
    assert levels == pytest.approx(pointwise_errors(problem, 3), rel=rel)


def _polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _polyadd(a, b):
    return [x + y for x, y in zip(a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b)))]


def exact_l2_errors(problem, levels):
    """The L2 distance of each level's solution from the analytic one, in
    rational arithmetic: the float coefficients of u and the float nodal
    values of u_h are taken exactly, both are written on each element as
    polynomials in the local coordinate t = n x - e, and (u - u_h)^2 is
    integrated over the element exactly. Only the final square root rounds."""
    u = [Fraction(c) for c in analytic_solution_1d(problem.f_array(), problem.diffusion)]
    k = problem.k
    # the Lagrange polynomial of node j/k in t: prod_{m != j} (k t - m) / (j - m)
    lagrange = []
    for j in range(k + 1):
        lj = [Fraction(1)]
        for m in range(k + 1):
            if m != j:
                lj = _polymul(lj, [Fraction(-m, j - m), Fraction(k, j - m)])
        lagrange.append(lj)
    errors = []
    for n in (4 * 2**i for i in range(levels)):
        spec, M, b = discretize(problem, n)
        nodal = [Fraction(0)] * spec.n_nodes
        for node, c in zip(spec.dof_nodes, M.solve(b)):
            nodal[node] = Fraction(c)
        total = Fraction(0)
        for e in range(n):
            diff = [Fraction(0)]
            for c in reversed(u):  # u((e + t) / n) by Horner's rule
                diff = _polyadd(_polymul(diff, [Fraction(e, n), Fraction(1, n)]), [c])
            for j, lj in enumerate(lagrange):
                diff = _polyadd(diff, [-nodal[e * k + j] * c for c in lj])
            total += sum(c / (i + 1) for i, c in enumerate(_polymul(diff, diff))) / n
        errors.append(math.sqrt(total))
    return errors


@pytest.mark.parametrize("diffusion", [1.0, 0.3])
@pytest.mark.parametrize(
    "k, f",
    # u has degree len(f) + 1, which must exceed k for a rate to exist
    [(k, f) for k in (1, 2, 3) for f in ([-1], [0.3, -2, 1.5], [0, 0, -12], [1, -3, 0, 0, 0, 2]) if len(f) + 1 > k],
)
def test_analytic_convergence_errors_match_exact_rational_distance(k, f, diffusion):
    problem = ProblemSpec.from_dict({**TINY_1D, "k": k, "f": f, "pde": {"diffusion": diffusion, "reaction": 0}})
    art = cli.convergence_report(problem, levels=3)
    assert art["reference"] == "analytic"
    errors = [row["error"] for row in art["levels"]]
    assert errors == pytest.approx(exact_l2_errors(problem, 3), rel=0, abs=1e-15)


@pytest.mark.parametrize("k, f", [(2, [-1]), (3, [-1]), (3, [1, 2])])
def test_convergence_of_representable_solution_exit_two(capsys, spec_file, k, f):
    # u has degree <= k, so every level reproduces it and the errors are
    # rounding noise with no rate in them
    code, out, err = run(capsys, "convergence", "--spec", spec_file({**TINY_1D, "k": k, "f": f}), "--levels", "3")
    assert code == 2, out
    assert out == ""
    assert err.startswith("validation error")


def test_parser_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()
    code = "import qfemlab.cli as c; print(c.build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "0"


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


# Artifacts checked in under tests/golden/: any change to them shows up in review.
# Rewrite them from the current program with
# `PYTHONPATH=src python tests/test_cli.py --rewrite-goldens`, which prints
# one line per file: whether it changed, the largest relative change over
# its float leaves, and whether any other leaf changed. Without arguments
# the script prints its usage and exits 2.
# `python tests/test_cli.py --compare DIR_A DIR_B` prints the same line for
# every file under two artifact directories, matched by relative path, and
# writes nothing; it exits 1 when any file changed or exists on one side
# only, and 0 when every file is unchanged. `python tests/test_cli.py --dump
# DIR` writes the artifacts of perfbench's seed-1 ops and of plan and
# resources into DIR (see ``dump_artifacts``); dumps from two checkouts,
# compared, show what a change moved.
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_SPECS = {"tiny_1d": TINY_1D, "tiny_1d_k2": TINY_1D_K2, "tiny_2d": TINY_2D}
GOLDEN_RUNS = {
    "solve": ("solve",),
    "convergence": ("convergence", "--levels", "3"),
    "simulate_seed7": ("simulate", "--seed", "7"),
    "simulate_exact": ("simulate", "--exact"),
    "plan": ("plan",),
}
# runs that read no spec; each is checked in as <name>.json, or <name>.csv
# when it asks for csv
GOLDEN_TABLES = {
    "lowerbound_hybrid_draws3_seed7": ("lowerbound", "--mode", "hybrid", "--draws", "3", "--seed", "7"),
    "lowerbound_bump": ("lowerbound", "--mode", "bump"),
    "resources": ("resources",),
    "resources_csv": ("resources", "--format", "csv"),
}


def golden_path(spec_name: str | None, run_name: str) -> Path:
    if spec_name:
        return GOLDEN_DIR / f"{spec_name}_{run_name}.json"
    return GOLDEN_DIR / (f"{run_name}.csv" if "csv" in GOLDEN_TABLES[run_name] else f"{run_name}.json")


def golden_artifact(spec_name: str | None, run_name: str, tmp_dir: Path) -> bytes:
    """The artifact of a spec's run, or of a table run when ``spec_name`` is None."""
    if spec_name is None:
        argv = list(GOLDEN_TABLES[run_name])
    else:
        path = tmp_dir / "spec.json"
        path.write_text(json.dumps(GOLDEN_SPECS[spec_name]))
        command, *extra = GOLDEN_RUNS[run_name]
        argv = [command, "--spec", str(path), *extra]
    assert main([*argv, "--out", str(tmp_dir / "out")]) == 0
    (artifact,) = (tmp_dir / "out").iterdir()
    return artifact.read_bytes()


@pytest.mark.parametrize("run_name", GOLDEN_RUNS)
@pytest.mark.parametrize("spec_name", GOLDEN_SPECS)
def test_artifacts_match_golden(capsys, tmp_path, spec_name, run_name):
    assert golden_artifact(spec_name, run_name, tmp_path) == golden_path(spec_name, run_name).read_bytes()


def test_2d_goldens_on_a_cold_and_a_warm_cache(capsys, tmp_path):
    """In one process, every tiny_2d golden's bytes, whether its run meets
    empty caches or the entries of the same runs before. Every cache of the
    assembly module, found by its ``cache_clear``, is cleared, so that a
    cache added later starts cold too."""
    caches = [value for value in vars(qfemlab.assembly).values() if hasattr(value, "cache_clear")]
    assert qfemlab.assembly._stencil_csr in caches
    for cache in caches:
        cache.cache_clear()
    for state in ("cold", "warm"):
        for run_name in GOLDEN_RUNS:
            tmp_dir = tmp_path / state / run_name
            tmp_dir.mkdir(parents=True)
            assert golden_artifact("tiny_2d", run_name, tmp_dir) == golden_path("tiny_2d", run_name).read_bytes(), (state, run_name)


@pytest.mark.parametrize("run_name", GOLDEN_TABLES)
def test_tables_match_golden(capsys, tmp_path, run_name):
    assert golden_artifact(None, run_name, tmp_path) == golden_path(None, run_name).read_bytes()


# finite doubles where float repr changes notation or digit count: either
# side of 1e-5, 1e-4 and 1e16, the subnormals, the ends of the range
REPR_EDGES = [
    v
    for c in (1e-5, 1e-4, 1e16, 1e300, 1e-300, 2.2250738585072014e-308, 1.7976931348623157e308)
    for v in (math.nextafter(c, 0.0), c, math.nextafter(c, math.inf))
    if math.isfinite(v)
]
SOLUTION_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),  # subnormal
    st.integers(-(2**60), 2**60).map(float),
    st.sampled_from(REPR_EDGES + [-v for v in REPR_EDGES]),
)


@settings(max_examples=40, deadline=None)
@given(solution=arrays(np.float64, st.integers(1, 3000), elements=SOLUTION_VALUES))
def test_spliced_solution_is_the_bytes_json_writes(solution):
    # a "solution" key nested deeper, and keys on either side of it
    payload = {"cg": {"solution": 0.5}, "n_dofs": len(solution), "solution": solution.tolist(), "tail": [1.5, "x"]}
    want = json.dumps(payload, indent=2, sort_keys=True)
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(stdout):
        cli._emit(payload, argparse.Namespace(out=tmp), "solve")
        assert (Path(tmp) / "solve.json").read_bytes() == want.encode()
        cli._emit(payload, argparse.Namespace(out=None), "solve")
    assert stdout.getvalue().split("\n", 1)[1] == want + "\n"


@pytest.mark.parametrize(
    "solution",
    [[], [math.nan], [1.0, math.inf], [-math.inf], [1, 2.0], [True], [[1.0]], ["1.0"], None, 1.0],
    ids=repr,
)
def test_a_solution_not_of_finite_floats_goes_through_json(solution):
    payload = {"a": 1, "solution": solution, "z": 2}
    assert cli._dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)


def golden_diff(old, new) -> tuple[float, bool]:
    """Largest relative change over the float leaves of two JSON trees, and
    whether any other leaf (integer, string, boolean, null) or the shape of
    the tree changed."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        parts = [golden_diff(old[key], new[key]) for key in old]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        parts = [golden_diff(a, b) for a, b in zip(old, new)]
    elif type(old) is float and type(new) is float:
        return (abs(new - old) / max(abs(old), abs(new)) if old != new else 0.0), False
    else:
        return 0.0, type(old) is not type(new) or old != new
    return max((rel for rel, _ in parts), default=0.0), any(other for _, other in parts)


def test_golden_diff_separates_floats_from_other_leaves():
    assert golden_diff({"a": [1.0, 2, "x"]}, {"a": [1.0, 2, "x"]}) == (0.0, False)
    assert golden_diff({"a": [1.0, 2]}, {"a": [1.5, 2]}) == (0.5 / 1.5, False)
    assert golden_diff({"a": [1.0, 2]}, {"a": [1.0, 3]})[1]
    assert golden_diff({"a": "x"}, {"a": "y"})[1]
    assert golden_diff({"a": 1.0}, {"a": 1})[1]
    assert golden_diff({"a": [1.0]}, {"a": [1.0, 2.0]})[1]
    assert golden_diff({"a": 1.0}, {"b": 1.0})[1]


def diff_line(name: str, old: bytes | None, new: bytes | None) -> str:
    """One report line on how an artifact ``name`` went from ``old`` to ``new``
    (None: absent on that side)."""
    if old is None or new is None:
        return f"{name}: {'new' if old is None else 'removed'}"
    if old == new:
        return f"{name}: unchanged"
    try:
        rel, other = golden_diff(json.loads(old), json.loads(new))
    except ValueError:  # not JSON, such as a CSV table
        return f"{name}: changed; not JSON"
    return (
        f"{name}: changed; largest relative float change {rel:.2e}; "
        f"integer, string or shape changes: {'yes' if other else 'none'}"
    )


def compare_dirs(dir_a: Path, dir_b: Path) -> list[str]:
    """``diff_line`` for every file under either directory, by relative path."""
    files = [{p.relative_to(d).as_posix(): p for p in d.rglob("*") if p.is_file()} for d in (dir_a, dir_b)]
    return [
        diff_line(name, *(side[name].read_bytes() if name in side else None for side in files))
        for name in sorted(files[0].keys() | files[1].keys())
    ]


DUMP_WORKLOADS = ("fem2d", "cg1d", "dense2d", "sample1d")


def dump_artifacts(out_dir: Path):
    """Write the artifact of every seed-1 op of perfbench's fem2d, cg1d,
    dense2d and sample1d workloads as <workload>/<op index>/<command>.json
    (fem2d's five 2D solves at 15,625 dofs are the largest), plan on
    each golden spec as plan/<spec name>/plan.json, and the default
    resources table as resources/json/resources.json and
    resources/csv/resources.csv. The ops come from ``perfbench/workloads.py``,
    loaded from its file and left as it is."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    runs = [
        (f"{name}/{i:02d}", [op.kind], op.spec, op.args)
        for name in DUMP_WORKLOADS
        for i, op in enumerate(workloads.WORKLOADS[name].ops(1))
    ]
    runs += [(f"plan/{name}", ["plan"], payload, ()) for name, payload in GOLDEN_SPECS.items()]
    runs += [(f"resources/{fmt}", ["resources", "--format", fmt], None, ()) for fmt in ("json", "csv")]
    # main prints each artifact's path; keep it off the caller's stdout
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for where, argv, payload, args in runs:
            if payload is not None:
                spec_path = Path(tmp) / "spec.json"
                spec_path.write_text(json.dumps(payload))
                argv = [*argv, "--spec", str(spec_path)]
            assert main([*argv, *args, "--out", str(out_dir / where)]) == 0, where


def test_dumps_at_fixed_seeds_are_identical(tmp_path):
    dump_artifacts(tmp_path / "a")
    dump_artifacts(tmp_path / "b")
    lines = compare_dirs(tmp_path / "a", tmp_path / "b")
    assert len(lines) == 5 + 9 + 10 + 40 + len(GOLDEN_SPECS) + 2
    assert [line for line in lines if not line.endswith(": unchanged")] == []


def test_compare_dirs_reports_each_artifact_and_writes_nothing(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    (a / "sub").mkdir(parents=True)
    (b / "sub").mkdir(parents=True)
    (a / "same.json").write_text('{"x": 1.0}')
    (b / "same.json").write_text('{"x": 1.0}')
    (a / "sub" / "moved.json").write_text('{"x": 1.0, "n": 3}')
    (b / "sub" / "moved.json").write_text('{"x": 1.5, "n": 3}')
    (a / "gone.csv").write_text("a,b\n")
    (b / "table.csv").write_text("a,b\n")
    before = sorted(tmp_path.rglob("*"))
    assert compare_dirs(a, b) == [
        "gone.csv: removed",
        "same.json: unchanged",
        "sub/moved.json: changed; largest relative float change 3.33e-01; integer, string or shape changes: none",
        "table.csv: new",
    ]
    assert sorted(tmp_path.rglob("*")) == before


USAGE = """usage: python tests/test_cli.py --rewrite-goldens
       python tests/test_cli.py --dump DIR
       python tests/test_cli.py --compare DIR_A DIR_B"""


def test_bare_invocation_prints_usage_and_writes_nothing():
    before = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in GOLDEN_DIR.iterdir()}
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", USAGE + "\n")
    assert {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in GOLDEN_DIR.iterdir()} == before


def test_compare_exits_one_exactly_when_an_artifact_differs(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()

    def compare():
        proc = subprocess.run([sys.executable, __file__, "--compare", str(a), str(b)], capture_output=True, text=True, env=env)
        assert proc.stdout == "\n".join(compare_dirs(a, b)) + "\n" and proc.stderr == ""
        return proc.returncode

    (a / "x.json").write_text('{"x": 1.0}')
    (b / "x.json").write_text('{"x": 1.0}')
    assert compare() == 0
    (b / "x.json").write_text('{"x": 2.0}')
    assert compare() == 1
    (b / "x.json").write_text('{"x": 1.0}')
    (b / "extra.csv").write_text("a,b\n")
    assert compare() == 1
    (b / "extra.csv").unlink()
    (a / "sub").mkdir()
    (a / "sub" / "gone.json").write_text("{}")
    assert compare() == 1


def rewrite_goldens():
    """Write every golden artifact from the current program, printing one
    ``diff_line`` per file."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    cases = [(spec_name, run_name) for spec_name in GOLDEN_SPECS for run_name in GOLDEN_RUNS]
    for spec_name, run_name in cases + [(None, run_name) for run_name in GOLDEN_TABLES]:
        # main prints the artifact's temporary path; keep it off the report
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            artifact = golden_artifact(spec_name, run_name, Path(tmp))
        path = golden_path(spec_name, run_name)
        old = path.read_bytes() if path.exists() else None
        path.write_bytes(artifact)
        print(diff_line(path.name, old, artifact))


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--rewrite-goldens"]:
        rewrite_goldens()
    elif args[:1] == ["--dump"] and len(args) == 2:
        dump_artifacts(Path(args[1]))
    elif args[:1] == ["--compare"] and len(args) == 3:
        lines = compare_dirs(Path(args[1]), Path(args[2]))
        print("\n".join(lines))
        raise SystemExit(0 if all(line.endswith(": unchanged") for line in lines) else 1)
    else:
        print(USAGE, file=sys.stderr)
        raise SystemExit(2)
