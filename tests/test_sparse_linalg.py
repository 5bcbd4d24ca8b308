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
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator, eigsh, splu

import qfemlab
from qfemlab import (
    BasisSpec,
    BilinearForm,
    Mesh,
    ProblemSpec,
    SampleBudget,
    SparseSymMatrix,
    ValidationError,
    assemble_load,
    assemble_stiffness,
    cli,
    discretize,
    estimate_norm,
)
from qfemlab.assembly import _gauss01
from matrices import sym_matrix

REL = 1e-9
# extremes() bounds lambda_max from above; on FEM matrices the bound sits
# within 1.7e-2 of it (2D n = 12, 1D n = 10) and much closer at larger n
FEM_GAP = 2e-2


def system(d, n, k=1, reaction=0.0):
    spec = BasisSpec(Mesh(d, n), k)
    M = assemble_stiffness(spec, BilinearForm(diffusion=1.0, reaction=reaction))
    load = assemble_load(spec, [-1.0] if d == 1 else [[-1.0]])
    return M, -load


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
    dense = M.csr.toarray()
    x_ref = np.linalg.solve(dense, b)
    ev = np.linalg.eigvalsh(dense)
    x = M.solve(b)
    assert np.linalg.norm(x - x_ref) <= REL * np.linalg.norm(x_ref)
    lam_min, lam_max = M.extremes()
    if d == 1:
        assert lam_min == pytest.approx(ev[0], rel=REL)
    else:  # the a-priori nu <= lambda_min <= 4 nu
        assert lam_min <= ev[0] * (1.0 + REL) and ev[0] <= 4.0 * lam_min
    assert ev[-1] <= lam_max <= (1.0 + FEM_GAP) * ev[-1]
    assert M.is_spd()


@pytest.mark.parametrize(
    "a",
    [3.0 * np.eye(5), np.array([[2.0, 1.0], [1.0, 2.0]]), np.diag([1.0, 5.0, 2.0, 5.0, 5.0])],
    ids=["3I", "2x2", "tied-diagonal"],
)
def test_lambda_max_where_collatz_wielandt_bound_is_tight(a):
    # the Collatz-Wielandt bound equals lambda_max here; the margin keeps it above
    lam_min, lam_max = sym_matrix(a).extremes()
    ev = np.linalg.eigvalsh(a)
    assert ev[-1] <= lam_max <= (1.0 + 2e-12) * ev[-1]
    assert lam_min == pytest.approx(ev[0], rel=1e-12)


@pytest.mark.parametrize("diffusion", [1.0, 0.3])
@pytest.mark.parametrize("n", [3, 5, 12, 45, 65])
def test_extremes_match_closed_form_2d(n, diffusion):
    # pure-diffusion P1 on the Dirichlet square is diffusion times the
    # five-point Laplacian, with eigenvalues 4 sin^2(p pi / 2n) + 4 sin^2(q pi / 2n)
    mesh = Mesh(2, n)
    M = assemble_stiffness(BasisSpec(mesh, 1), BilinearForm(diffusion, 0.0))
    lam_min, lam_max = M.extremes()
    assert lam_min == pytest.approx(8.0 * diffusion * np.sin(np.pi / (2 * n)) ** 2, rel=1e-12)
    exact_max = 8.0 * diffusion * np.cos(np.pi / (2 * n)) ** 2
    assert exact_max <= lam_max <= (1.0 + FEM_GAP) * exact_max


def test_lambda_max_bound_clears_rounding_on_2d_n3():
    # the unraised Collatz-Wielandt ratio lands one ulp below lambda_max here
    mesh = Mesh(2, 3)
    M = assemble_stiffness(BasisSpec(mesh, 1), BilinearForm(1.0, 0.0))
    lam_max = M.extremes()[1]
    assert lam_max >= np.linalg.eigvalsh(M.csr.toarray())[-1]
    assert lam_max >= 8.0 * np.cos(np.pi / 6) ** 2


# lambda_min of a matrix with condition number kappa is found to about
# kappa * 1e-16 relative (3e-11 at n = 1000), so 1e-12 holds up to n of a few hundred
@pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 45, 100, 201])
def test_extremes_match_closed_form_1d(n):
    # P1 with u(0) = u'(1) = 0 is n tridiag(-1, 2, -1) with a last diagonal
    # entry of 1: eigenvalues n (2 - 2 cos((2j - 1) pi / (2n + 1))), j = 1..n
    mesh = Mesh(1, n)
    lam_min, lam_max = assemble_stiffness(BasisSpec(mesh, 1), BilinearForm()).extremes()

    def eigenvalue(j):
        return n * (2.0 - 2.0 * np.cos((2 * j - 1) * np.pi / (2 * n + 1)))

    assert lam_min == pytest.approx(eigenvalue(1), rel=1e-12)
    assert eigenvalue(n) <= lam_max <= (1.0 + FEM_GAP) * eigenvalue(n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.floats(0.05, 0.6), st.floats(1e-3, 10.0), st.integers(0, 2**32 - 1))
def test_extremes_match_dense_on_random_sparse_spd(n, density, gap, seed):
    rng = np.random.default_rng(seed)
    entries = np.triu(rng.uniform(-1.0, 1.0, (n, n)) * (rng.random((n, n)) < density), 1)
    b = entries + entries.T
    a = b + (gap - np.linalg.eigvalsh(b)[0]) * np.eye(n)  # lambda_min(a) = gap
    ev = np.linalg.eigvalsh(a)
    lam_min, lam_max = sym_matrix(a).extremes()
    assert lam_min == pytest.approx(ev[0], rel=1e-10)
    # the ratio never rises under iteration, so the bound stays below the
    # first step's max row sum of |a| (up to the 1e-12 margin); with mixed
    # off-diagonal signs it can sit far above lambda_max
    assert ev[-1] <= lam_max <= (1.0 + 2e-12) * np.abs(a).sum(axis=1).max()


def _count_factorisations(monkeypatch):
    """The shape of every band factored from here on."""
    calls = []
    cholesky_banded = qfemlab.assembly.cholesky_banded

    def counting_cholesky_banded(band, **kwargs):
        calls.append(band.shape)
        return cholesky_banded(band, **kwargs)

    monkeypatch.setattr(qfemlab.assembly, "cholesky_banded", counting_cholesky_banded)
    return calls


def _count_calls(monkeypatch, name):
    """One entry per call of ``qfemlab.assembly.<name>`` from here on."""
    calls = []
    original = getattr(qfemlab.assembly, name)

    def counting(*args, **kwargs):
        calls.append(0)
        return original(*args, **kwargs)

    monkeypatch.setattr(qfemlab.assembly, name, counting)
    return calls


def test_extremes_factors_a_fresh_matrix_once(monkeypatch):
    # 1D lambda_min is the LOPCG loop on the band factor: one band solve per
    # step (4 here), and a second call reads the cache
    calls = _count_factorisations(monkeypatch)
    solves = _count_calls(monkeypatch, "cho_solve_banded")
    M = system(1, 300, k=3)[0]
    M.extremes()
    steps = len(solves)
    M.extremes()
    assert len(calls) == 1
    assert 0 < len(solves) == steps <= 8


def _assemble_1d(k, n, diffusion, reaction):
    mesh = Mesh(1, n)
    return assemble_stiffness(BasisSpec(mesh, k), BilinearForm(diffusion, reaction))


# every (k, diffusion, reaction) at about 300 dofs, and at 2,000 dofs with
# diffusion 1e-3, which also covers reaction / diffusion up to 1e9
LOOP_GRID = [
    (k, dofs, diffusion, reaction)
    for k in (1, 2, 3)
    for dofs, diffusions in ((300, (1.0, 1e-3)), (2000, (1e-3,)))
    for diffusion in diffusions
    for reaction in (0.0, 1.0, 1e2, 1e4, 1e6)
]


@pytest.mark.parametrize("k,dofs,diffusion,reaction", LOOP_GRID)
def test_1d_lambda_min_matches_dense_at_the_rounding_floor(k, dofs, diffusion, reaction):
    # a Rayleigh quotient x^T M x carries rounding of about kappa eps relative
    M = _assemble_1d(k, dofs // k, diffusion, reaction)
    ev = np.linalg.eigvalsh(M.csr.toarray())
    lam_min = M.extremes()[0]
    assert abs(lam_min - ev[0]) <= 10.0 * (ev[-1] / ev[0]) * np.finfo(float).eps * ev[0]


@pytest.mark.parametrize("k,n", [(1, 20_000), (3, 20_000), (1, 200_000)], ids=["k1-20k", "k3-20k", "k1-cap"])
def test_1d_loop_converges_under_its_cap_on_large_meshes(monkeypatch, k, n):
    # the 200,000-cell mesh is the 1D cell cap; kappa eps reaches 3.5e-5 there
    solves = _count_calls(monkeypatch, "cho_solve_banded")
    M = _assemble_1d(k, n, 1.0, 0.0)
    lam_min, lam_max = M.extremes()
    assert 0 < len(solves) < 1000
    lu = splu(M.csr.tocsc())
    inv = LinearOperator(M.csr.shape, matvec=lu.solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(M.n)
    ref = eigsh(M.csr, k=1, sigma=0.0, OPinv=inv, v0=v0, return_eigenvectors=False)[0]
    assert abs(lam_min - ref) <= 10.0 * lam_max * np.finfo(float).eps


@pytest.mark.parametrize("scale", [2.0**-600, 2.0**600], ids=["tiny", "huge"])
@pytest.mark.parametrize("d,k,n,reaction", [(1, 2, 50, 0.0), (1, 1, 50, 1.0), (2, 1, 8, 0.0), (2, 1, 8, 1.0)])
def test_lambda_min_scales_with_the_matrix(d, k, n, reaction, scale):
    # the residual norms of the LOPCG loop square entries of M's size: at
    # 2^-600 they underflowed to 0 and the loop stopped at its start (3e-5
    # high in 1D), at 2^600 they overflowed and it never stopped
    spec = BasisSpec(Mesh(d, n), k)
    unit, scaled = (assemble_stiffness(spec, BilinearForm(c, c * reaction)) for c in (1.0, scale))
    assert scaled.extremes()[0] == pytest.approx(scale * unit.extremes()[0], rel=1e-10, abs=0.0)


def _random_symmetric(rng, n, spd):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.1, 10.0, n)
    if not spd:
        lam[rng.integers(0, n)] *= -1.0
    a = (q * lam) @ q.T
    return 0.5 * (a + a.T)


def test_cholesky_certificate_matches_dense_on_random_matrices():
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
        assert sym_matrix(a).is_spd() == truth, (trial, ev)
        seen[truth] += 1
    assert seen[True] > 50 and seen[False] > 50


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 30).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
    st.floats(0.0, 1.0),
    st.floats(1e-3, 2.0),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_band_factor_matches_dense_on_random_banded_matrices(shape, density, margin, spd, seed):
    n, bw = shape
    rng = np.random.default_rng(seed)
    # half-bandwidth at most bw, with zero gaps (whole diagonals too) inside the band
    distance = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    keep = (distance <= bw) & (rng.random(n) < density)[distance] & (rng.random((n, n)) < 0.8)
    entries = np.triu(rng.uniform(-1.0, 1.0, (n, n)) * keep)
    b = entries + np.triu(entries, 1).T
    # lambda_min of a is +margin or -margin
    a = b + ((margin if spd else -margin) - np.linalg.eigvalsh(b)[0]) * np.eye(n)
    ev = np.linalg.eigvalsh(a)
    assume(np.abs(ev).min() >= 1e-8)  # numerically singular: no clean answer
    M = sym_matrix(a)
    assert M.is_spd() == bool(ev[0] > 0)
    if ev[0] > 0:
        rhs = rng.standard_normal(n)
        x_ref = np.linalg.solve(a, rhs)
        assert np.linalg.norm(M.solve(rhs) - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("reaction", [0.0, 1.0])
@pytest.mark.parametrize("d,k,n", [(1, 1, 2), (1, 1, 300), (1, 2, 2), (1, 2, 150), (1, 3, 2), (1, 3, 100), (2, 1, 3), (2, 1, 4), (2, 1, 43)])
def test_discretize_matrices_have_the_numbering_bandwidth(monkeypatch, d, k, n, reaction):
    one = [1.0] if d == 1 else [[1.0]]
    problem = ProblemSpec.from_dict({"d": d, "k": k, "pde": {"diffusion": 1.0, "reaction": reaction}, "f": one, "r": one, "eps": 0.1})
    M = discretize(problem, n)[1]
    rows = np.repeat(np.arange(M.n), np.diff(M.csr.indptr))
    # 1D: an element couples k + 1 consecutive dofs. 2D: the free vertices
    # are numbered row by row, n - 1 to a row, so the north-east neighbour is
    # n dofs on; pure diffusion gives the five-point stencil, which stops at
    # the north neighbour, n - 1 on
    bw = k if d == 1 else (n if reaction else n - 1)
    assert int((M.csr.indices - rows).max()) == bw
    bands = _count_factorisations(monkeypatch)
    assert M.is_spd()
    assert bands == [(bw + 1, M.n)]


def test_indefinite_matrix_has_no_solve_or_extremes(monkeypatch):
    calls = _count_factorisations(monkeypatch)
    M = sym_matrix([[0.0, 1.0], [1.0, 0.0]])  # a zero first pivot
    assert not M.is_spd()
    with pytest.raises(ValidationError, match="indefinite"):
        M.solve([1.0, 2.0])
    with pytest.raises(ValidationError, match="indefinite"):
        M.extremes()
    assert len(calls) == 1  # the failure is cached too


@pytest.mark.parametrize(
    "a", [np.ones((2, 2)), np.zeros((3, 3)), np.diag([1.0, 0.0, 2.0]), np.zeros((1, 1)), np.diag([2.0, 3.0, 0.0])]
)
def test_singular_matrix_raises(a):
    M = sym_matrix(a)
    assert not M.is_spd()
    with pytest.raises(ValidationError, match="singular"):
        M.solve(np.ones(M.n))
    with pytest.raises(ValidationError, match="singular"):
        M.extremes()
    # M.solve raises above, so any vector stands in for M^{-1} b
    with pytest.raises(ValidationError, match="singular"):
        estimate_norm(M, np.ones(M.n), 0.1, SampleBudget(rng_seed=0), ledger=[])


@pytest.mark.parametrize("value", [-2.0, -1e-300])
def test_negative_one_by_one_is_indefinite(value):
    M = sym_matrix([[value]])
    assert not M.is_spd()
    for call in (lambda: M.solve([1.0]), M.extremes):
        with pytest.raises(ValidationError, match="indefinite"):
            call()


def test_positive_one_by_one_solves_and_has_extremes():
    M = sym_matrix([[4.0]])
    assert M.is_spd()
    assert M.solve([2.0]) == pytest.approx([0.5], rel=1e-15)
    lam_min, lam_max = M.extremes()
    assert lam_min == 4.0 and 4.0 <= lam_max <= 4.0 * (1.0 + 2e-12)


def test_solve_rejects_non_finite_output():
    # the factor exists, but the solution overflows, or b is at fault
    M = sym_matrix(np.diag([1e-300, 1.0]))
    assert M.is_spd()
    with pytest.raises(ValidationError, match="solution overflows"):
        M.solve([1e300, 1.0])
    with pytest.raises(ValidationError, match="right-hand side is not finite"):
        M.solve([np.nan, 1.0])


def test_constructor_leaves_the_callers_matrix_alone():
    # unsorted column indices, which canonicalising sorts in place
    a = sp.csr_array((np.array([1.0, 2.0, 2.0, 1.0]), np.array([1, 0, 1, 0]), np.array([0, 2, 4])), shape=(2, 2))
    M = sym_matrix(a)
    assert np.array_equal(a.indices, [1, 0, 1, 0]) and np.array_equal(a.data, [1.0, 2.0, 2.0, 1.0])
    assert not np.shares_memory(a.data, M.csr.data)
    lam = M.extremes()
    a.data[:] = 9.0  # a later write by the caller reaches neither M nor its cache
    assert np.array_equal(M.csr.toarray(), [[2.0, 1.0], [1.0, 2.0]])
    assert M.extremes() == lam
    assert lam[0] == pytest.approx(1.0, rel=1e-12) and 3.0 <= lam[1] <= 3.0 * (1.0 + 2e-12)


def test_extremes_bit_identical_on_equal_matrices():
    first = system(2, 30, reaction=1.0)[0].extremes()
    second_matrix = system(2, 30, reaction=1.0)[0]
    assert second_matrix.extremes() == first
    assert second_matrix.extremes() == first  # cached


# ---------------------------------------------------------------------------
# products with M: scipy's private CSR kernel, called directly, must give
# what csr @ x gives

PRODUCT_MATRICES = {
    "1d-k1": lambda: system(1, 1000)[0],
    "1d-k2-reaction": lambda: system(1, 500, k=2, reaction=3.0)[0],
    "1d-k3": lambda: system(1, 300, k=3)[0],
    "1d-k2": lambda: system(1, 40, k=2)[0],
    "2d": lambda: system(2, 43, reaction=1.0)[0],
}


@pytest.mark.parametrize("name", PRODUCT_MATRICES)
def test_products_are_csr_products_bitwise(name):
    M = PRODUCT_MATRICES[name]()
    rng = np.random.default_rng(3)
    wide = rng.standard_normal(3 * M.n)
    vectors = {
        "random": wide[:M.n].copy(),
        "strided": wide[::3],
        "integers": rng.integers(-5, 6, M.n),
        "positive": rng.uniform(0.5, 1.5, M.n),
    }
    for label, x in vectors.items():
        assert M.matvec(x).tobytes() == (M.csr @ x).tobytes(), label
    w = vectors["positive"]  # the |M| products of extremes()
    absolute = M._product(np.abs(M.csr.data), w)
    assert absolute.tobytes() == (abs(M.csr) @ w).tobytes()


@pytest.mark.parametrize("name", PRODUCT_MATRICES)
def test_product_into_out_matches_a_fresh_product_bitwise(name):
    M = PRODUCT_MATRICES[name]()
    rng = np.random.default_rng(4)
    x = rng.standard_normal(M.n)
    want = M.matvec(x).tobytes()
    rows = np.full((2, M.n), np.nan)  # stale values are overwritten, not added to
    strided = np.full(3 * M.n, np.nan)[::3]
    for out in (np.full(M.n, np.nan), rows[1], strided):
        assert M.product_into(x, out)() is out
        assert out.tobytes() == want
    # rows beside each other, as CG keeps p and M p: the product reads the
    # values x holds at each call
    product = M.product_into(rows[0], rows[1])
    for _ in range(3):
        rows[0] = rng.standard_normal(M.n)
        assert product().tobytes() == M.matvec(rows[0]).tobytes()


def test_product_refuses_a_bad_out():
    # the kernel reads x and writes through out's pointer with no bounds check
    M = system(1, 10)[0]
    x = np.ones(M.n)
    wide = np.zeros(2 * M.n)
    bad = {
        "short": np.zeros(M.n - 1),
        "long": np.zeros(M.n + 1),
        "column": np.zeros((M.n, 1)),
        "float32": np.zeros(M.n, dtype=np.float32),
        "int64": np.zeros(M.n, dtype=np.int64),
        "list": [0.0] * M.n,
    }
    for label, v in bad.items():
        with pytest.raises(ValidationError, match="out must be"):
            M.product_into(x, v)
        with pytest.raises(ValidationError, match="x must be"):
            M.product_into(v, np.zeros(M.n))
    wide[:M.n] = 1.0
    for out in (x, wide[1:M.n + 1]):
        source = x if out is x else wide[:M.n]
        with pytest.raises(ValidationError, match="overlaps"):
            M.product_into(source, out)
    assert np.array_equal(x, np.ones(M.n)) and np.array_equal(wide[:M.n], np.ones(M.n))


def test_product_refuses_a_vector_of_another_length():
    M = system(1, 10)[0]
    for x in (np.ones(M.n + 1), np.ones((M.n, 1))):
        with pytest.raises(ValidationError, match="shape"):
            M.matvec(x)


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
    monkeypatch.setattr(sp.csr_array, "toarray", _forbid)
    assert cli.solve_report(problem)["cg"]["converged"]
    assert len(cli.convergence_report(problem, levels=3)["levels"]) == 3
    out = cli.simulate_report(problem)
    assert out["n_dofs"] >= 1
    assert "budget" in cli.plan_report(problem)


@pytest.mark.parametrize("payload", [SPEC_1D, SPEC_2D], ids=["1d", "2d"])
@pytest.mark.parametrize("report", ["solve_report", "convergence_report", "simulate_report"])
def test_reports_factor_each_assembled_matrix_once(monkeypatch, payload, report):
    """solve and simulate assemble one matrix, convergence one per level plus,
    in 2D, a reference and its Gram matrix (SPEC_1D has the analytic
    solution). 1D factors each once and reads lambda_min by the LOPCG loop,
    one band solve per step; 2D solves by sine-transform preconditioned CG,
    takes the closed-form lambda_min bound, and factors nothing."""
    calls = _count_factorisations(monkeypatch)
    solves = _count_calls(monkeypatch, "cho_solve_banded")
    matrices = []
    init = SparseSymMatrix.__init__

    def counting_init(self, csr):
        matrices.append(self)
        init(self, csr)

    monkeypatch.setattr(SparseSymMatrix, "__init__", counting_init)
    args = (3,) if report == "convergence_report" else ()
    getattr(cli, report)(ProblemSpec.from_dict(payload), *args)
    assert len(matrices) == (3 + 2 * (payload["d"] == 2) if report == "convergence_report" else 1)
    if payload["d"] == 2:
        assert calls == [] and solves == []
    else:
        assert len(calls) == len(matrices)
        # convergence solves once per level and reads no lambda_min; simulate
        # solves once besides the loop's steps
        loop_steps = len(solves) - {"solve_report": 0, "convergence_report": 3, "simulate_report": 1}[report]
        assert loop_steps == 0 if report == "convergence_report" else 0 < loop_steps <= 10


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


def test_reports_leave_scipy_fft_unloaded(tmp_path):
    # importing scipy.fft costs about 100 ms and 3.5 MB; the 2D sine transform
    # is a BLAS product, so neither a 1D nor a 2D report loads it
    for name, payload in (("1d", SPEC_1D), ("2d", SPEC_2D)):
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    code = f"""
import sys, qfemlab.cli as cli
loaded = []
for name in ("1d", "2d"):
    assert cli.main(["solve", "--spec", {str(tmp_path)!r} + f"/{{name}}.json", "--out", {str(tmp_path)!r}]) == 0
    loaded.append("scipy.fft" in sys.modules)
print(loaded)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(qfemlab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip().splitlines()[-1] == "[False, False]"


def test_cli_import_leaves_scipy_sparse_linalg_unloaded():
    # lambda_min needs no ARPACK and no report factors by SuperLU: neither may
    # enter through a module-level import
    code = "import sys, qfemlab.cli; print('scipy.sparse.linalg' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(qfemlab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "False"


def test_import_leaves_scipy_integrate_unloaded():
    code = "import sys, qfemlab; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(qfemlab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "False"
