"""Sparse-only linear algebra: cached factorisation, SPD certificate and
spectral extremes of SparseSymMatrix, checked against dense references."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import qfemlab
from qfemlab import (
    BilinearForm,
    ProblemSpec,
    SparseSymMatrix,
    Statevector,
    ValidationError,
    assemble_load,
    assemble_stiffness,
    build_basis,
    build_interval_mesh,
    build_square_triangulation,
    cli,
    conjugate_gradient,
    simulated_qle,
    spai_preconditioner,
)
from qfemlab.assembly import _gauss01

REL = 1e-9


def system(d, n, k=1, reaction=0.0):
    mesh = build_interval_mesh(n) if d == 1 else build_square_triangulation(n)
    spec = build_basis(mesh, k)
    M = assemble_stiffness(mesh, spec, BilinearForm(diffusion=1.0, reaction=reaction))
    load = assemble_load(mesh, spec, [-1.0] if d == 1 else [[-1.0]])
    return M, -load.values


CASES = [
    (1, 1, 1, 0.0),  # one dof
    (1, 2, 1, 0.0),  # two dofs
    (1, 1, 2, 0.0),  # two dofs, quadratic
    (1, 1000, 1, 0.0),
    (1, 400, 2, 1.0),
    (1, 300, 3, 0.0),
    (2, 2, 1, 1.0),  # one interior dof
    (2, 3, 1, 1.0),
    (2, 40, 1, 1.0),
]


@pytest.mark.parametrize("d,n,k,reaction", CASES)
def test_solve_and_extremes_match_dense(d, n, k, reaction):
    M, b = system(d, n, k, reaction)
    dense = M.to_dense()
    x_ref = np.linalg.solve(dense, b)
    ev = np.linalg.eigvalsh(dense)
    x = M.solve(b)
    assert np.linalg.norm(x - x_ref) <= REL * np.linalg.norm(x_ref)
    lam_min, lam_max = M.extremes()
    assert lam_min == pytest.approx(ev[0], rel=REL)
    assert lam_max == pytest.approx(ev[-1], rel=REL)
    assert M.is_spd()


def _random_symmetric(rng, n, spd):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.1, 10.0, n)
    if not spd:
        lam[rng.integers(0, n)] *= -1.0
    a = (q * lam) @ q.T
    return 0.5 * (a + a.T)


def test_pivot_certificate_matches_dense_on_random_matrices():
    rng = np.random.default_rng(7)
    seen = {True: 0, False: 0}
    for trial in range(300):
        n = int(rng.integers(1, 15))
        kind = trial % 3
        if kind == 0:
            a = _random_symmetric(rng, n, spd=True)
        elif kind == 1:
            a = _random_symmetric(rng, n, spd=False)
        else:  # sparse, often with zero diagonal entries
            a = sp.random(n, n, density=0.4, random_state=int(rng.integers(1 << 30))).toarray()
            a = a + a.T + np.diag(rng.choice([0.0, 1.0, -1.0], n) * rng.uniform(0.5, 2.0, n))
        ev = np.linalg.eigvalsh(a)
        if np.min(np.abs(ev)) < 1e-8:  # numerically singular: no clean answer
            continue
        truth = bool(ev[0] > 0)
        assert SparseSymMatrix.from_dense(a).is_spd() == truth, (trial, ev)
        seen[truth] += 1
    assert seen[True] > 50 and seen[False] > 50


def test_indefinite_matrix_solves_but_has_no_extremes():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])  # zero diagonal forces a row swap
    M = SparseSymMatrix.from_dense(a)
    assert not M.is_spd()
    assert np.allclose(M.solve([1.0, 2.0]), [2.0, 1.0])
    with pytest.raises(ValidationError, match="indefinite"):
        M.extremes()


@pytest.mark.parametrize("a", [np.ones((2, 2)), np.zeros((3, 3)), np.diag([1.0, 0.0, 2.0])])
def test_singular_matrix_raises(a):
    M = SparseSymMatrix.from_dense(a)
    assert not M.is_spd()
    with pytest.raises(ValidationError, match="singular"):
        M.solve(np.ones(M.n))
    with pytest.raises(ValidationError, match="singular"):
        M.extremes()
    b = Statevector.from_vector(np.ones(M.n) if M.n > 2 else [1.0, 0.0])
    with pytest.raises(ValidationError, match="singular"):
        simulated_qle(M, b, 0.1, rng_seed=0)


def test_extremes_bit_identical_on_equal_matrices():
    first = system(2, 30, reaction=1.0)[0].extremes()
    second_matrix = system(2, 30, reaction=1.0)[0]
    assert second_matrix.extremes() == first
    assert second_matrix.extremes() == first  # cached


@pytest.mark.parametrize("n", [64, 256])
def test_preconditioned_cg_certificate_is_sound(n):
    M, b = system(1, n)
    tol = 1e-6
    rep = conjugate_gradient(M, b, tol=tol, precond=spai_preconditioner(M))
    assert rep.converged
    assert rep.lambda_min_estimate == M.extremes()[0]
    x_ref = np.linalg.solve(M.to_dense(), b)
    err = x_ref - rep.solution
    assert np.sqrt(err @ (M @ err)) <= tol * np.sqrt(b @ x_ref)


# ---------------------------------------------------------------------------
# no dense algebra on the report paths

SPEC_1D = {"d": 1, "k": 2, "pde": {"diffusion": 1, "reaction": 0}, "f": [0, 0, -12], "r": [1, 1], "eps": 0.02}
SPEC_1D_REACTION = {
    "d": 1, "k": 1, "pde": {"diffusion": 1, "reaction": 1}, "f": [-1], "r": [1], "eps": 0.05,
    "sobolev": [0.1, 0.3, 1.0],
}
SPEC_2D = {
    "d": 2, "k": 1, "pde": {"diffusion": 1, "reaction": 1}, "f": [[-1]], "r": [[1]], "eps": 0.05,
    "sobolev": [0.05, 0.3, 2.0],
}


def _forbid(*_args, **_kwargs):
    raise AssertionError("dense linear algebra on a sparse-only path")


@pytest.mark.parametrize("payload", [SPEC_1D, SPEC_1D_REACTION, SPEC_2D], ids=["1d", "1d-reaction", "2d"])
def test_reports_make_no_dense_calls(monkeypatch, payload):
    problem = ProblemSpec.from_dict(payload)
    # Gauss-Legendre nodes come from a small eigenproblem (numpy's leggauss);
    # build the cached reference rules first so only the FEM algebra is guarded
    for p in range(1, 33):
        _gauss01(p)
    for name in ("solve", "eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, _forbid)
    monkeypatch.setattr(SparseSymMatrix, "to_dense", _forbid)
    assert cli.solve_report(problem)["cg"]["converged"]
    assert len(cli.convergence_report(problem, levels=3)["levels"]) == 3
    out = cli.simulate_report(problem)
    assert out["n_dofs"] >= 1
    assert "budget" in cli.plan_report(problem)


@pytest.mark.parametrize("command", [["simulate"], ["convergence", "--levels", "3"], ["plan"]])
def test_cli_reruns_write_identical_bytes(tmp_path, command):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC_2D))
    outputs = []
    for run in range(2):
        out_dir = tmp_path / f"run{run}"
        assert cli.main([*command, "--spec", str(spec), "--out", str(out_dir)]) == 0
        (artifact,) = out_dir.iterdir()
        outputs.append(artifact.read_bytes())
    assert outputs[0] == outputs[1]


def test_import_leaves_scipy_signal_unloaded():
    code = "import sys, qfemlab; print('scipy.signal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(qfemlab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "False"
