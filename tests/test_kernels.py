"""Stencil kernels against per-element reference loops.

Each reference below is the element-by-element form of a kernel. A 1D node
belongs to at most two elements, so every 1D matrix entry and load value
sums at most two terms, the same in any order, and those comparisons are
exact (bits, ``np.array_equal``). The 2D load is a vertex-grid
stencil that sums in another order, so it is compared within 4e-15 times
the load of the coefficients' absolute values, which bounds |f| since
x, y >= 0. The 2D stencil build uses the exact reference-triangle matrices,
where the element loop takes gradients from vertex coordinates i/n that are
rounded, so it is compared at 1e-14 relative, with the same sparsity
pattern.
"""
import math
import os
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qfemlab
from pointwise import element_nodes, elements, vertices
from qfemlab import BasisSpec, BilinearForm, Mesh, assemble_gram, assemble_load, assemble_stiffness
from qfemlab.assembly import MAX_POLY_DEGREE, _duffy_rule, _gauss01, _reference_matrices, _reference_values_at, poly_degree
from qfemlab.cli import _l2_norm_1d

coeff = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def loads(draw):
    """(d, n, k, f) with f polynomial coefficients."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 40 if d == 1 else 10))
    k = draw(st.integers(1, 3)) if d == 1 else 1
    if d == 1:
        f = draw(st.lists(coeff, min_size=1, max_size=9))
    else:
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        f = draw(st.lists(st.lists(coeff, min_size=b, max_size=b), min_size=a, max_size=a))
    return d, n, k, f


def reference_load(mesh, spec, f):
    out = np.zeros(spec.n_dofs)
    deg = poly_degree(f)
    if mesh.dimension == 1:
        p = max(spec.k + 1, (spec.k + deg) // 2 + 2)
        xs, ws = _gauss01(p)
        basis_vals = _reference_values_at(spec.k, p)
        h = mesh.h
        for e in range(mesh.n_elements):
            fq = np.polynomial.polynomial.polyval(vertices(mesh)[elements(mesh)[e, 0], 0] + h * xs, f)
            contrib = h * basis_vals @ (ws * fq)
            for a, ia in enumerate(spec.node_dofs[element_nodes(spec)[e]]):
                if ia >= 0:
                    out[ia] += contrib[a]
        return out
    ref_pts, ref_w = _duffy_rule(max(2, (deg + 1) // 2 + 2))
    area = 0.5 / (mesh.n * mesh.n)
    lam = np.column_stack([1.0 - ref_pts[:, 0] - ref_pts[:, 1], ref_pts[:, 0], ref_pts[:, 1]])
    for e in range(mesh.n_elements):
        pts = vertices(mesh)[element_nodes(spec)[e]]
        xq = pts[0, 0] + ref_pts[:, 0] * (pts[1, 0] - pts[0, 0]) + ref_pts[:, 1] * (pts[2, 0] - pts[0, 0])
        yq = pts[0, 1] + ref_pts[:, 0] * (pts[1, 1] - pts[0, 1]) + ref_pts[:, 1] * (pts[2, 1] - pts[0, 1])
        contrib = 2.0 * area * (lam * (ref_w * np.polynomial.polynomial.polyval2d(xq, yq, f))[:, None]).sum(axis=0)
        for a, ia in enumerate(spec.node_dofs[element_nodes(spec)[e]]):
            if ia >= 0:
                out[ia] += contrib[a]
    return out


@settings(max_examples=60, deadline=None)
@given(loads())
# a 1D case where (h * B) @ v and h * (B @ v) round differently
@example((1, 3, 2, [1.0, 3.0]))
def test_batched_load_matches_element_loop(case):
    d, n, k, f = case
    mesh = Mesh(d, n)
    spec = BasisSpec(mesh, k)
    load, ref = assemble_load(spec, f), reference_load(mesh, spec, f)
    if d == 1:
        assert np.array_equal(load, ref)
    else:
        # x, y >= 0, so the load of |c| bounds the load of |f|; below the
        # smallest normal number, rounding errors are absolute
        scale = reference_load(mesh, spec, abs(np.asarray(f))) + np.finfo(float).tiny
        assert np.all(abs(load - ref) <= 4e-15 * scale)


def exact_vertex_loads(n, a, b):
    """int x^a y^b phi_v for every vertex v of the n x n triangulation, in
    Fraction arithmetic. On a triangle, x and y are linear in the barycentric
    coordinates l, and int l0^p l1^q l2^r = 2|T| p! q! r! / (p + q + r + 2)!,
    with 2|T| = 1/n^2."""
    out = [Fraction(0)] * (n + 1) ** 2
    for corners in elements(Mesh(2, n)).tolist():
        # vertex (i, j) is node j (n + 1) + i, at (i/n, j/n)
        coords = [[Fraction(v % (n + 1), n) for v in corners], [Fraction(v // (n + 1), n) for v in corners]]
        poly = {(0, 0, 0): Fraction(1)}  # x^a y^b as {exponents of l: coefficient}
        for xs in [coords[0]] * a + [coords[1]] * b:
            product = defaultdict(Fraction)
            for exps, coef in poly.items():
                for slot in range(3):
                    if xs[slot]:
                        product[exps[:slot] + (exps[slot] + 1,) + exps[slot + 1:]] += coef * xs[slot]
            poly = product
        for slot, node in enumerate(corners):
            for exps, coef in poly.items():
                e = [p + (s == slot) for s, p in enumerate(exps)]
                moment = Fraction(math.prod(map(math.factorial, e)), math.factorial(sum(e) + 2))
                out[node] += coef * moment / n**2
    return np.array([float(v) for v in out])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_2d_load_exact_for_every_monomial_up_to_degree_8(n):
    spec = BasisSpec(Mesh(2, n), 1)
    for a in range(MAX_POLY_DEGREE + 1):
        for b in range(MAX_POLY_DEGREE + 1 - a):
            c = np.zeros((a + 1, b + 1))
            c[a, b] = 1.0
            exact = exact_vertex_loads(n, a, b)
            load = assemble_load(spec, c)
            assert np.all(abs(load - exact[spec.dof_nodes]) <= 4e-15 * exact.max()), (a, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(1, 5), st.integers(1, 5), st.data())
def test_2d_load_mirrors_with_transposed_coefficients(n, rows, cols, data):
    # the triangulation is symmetric about the diagonal y = x, so the load of
    # f(y, x), whose coefficients are c^T, is the load of f mirrored
    c = np.array(data.draw(st.lists(st.lists(coeff, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))
    spec = BasisSpec(Mesh(2, n), 1)
    load = assemble_load(spec, c).reshape(n - 1, n - 1)  # the interior vertices, row by row
    mirrored = assemble_load(spec, c.T).reshape(n - 1, n - 1).T
    assert np.all(abs(load - mirrored) <= 1e-15 * (assemble_load(spec, abs(c)).max(initial=0.0) + np.finfo(float).tiny))


def run_load_subprocess(code, **env):
    """Run ``code`` with qfemlab importable and return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(qfemlab.__file__).resolve().parents[1]), **env}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=60).stdout


def test_2d_load_at_the_cap_fits_in_one_gib():
    # a degree-8 f on the n = 447 triangulation, the largest the validator
    # accepts, under a 1 GiB address-space limit
    code = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from qfemlab import BasisSpec, Mesh, assemble_load
spec = BasisSpec(Mesh(2, 447), 1)
c = np.zeros((9, 9))
c[8, 0] = c[4, 4] = c[0, 8] = 1.0
start = time.perf_counter()
assemble_load(spec, c)
print(time.perf_counter() - start)
"""
    assert float(run_load_subprocess(code, OPENBLAS_NUM_THREADS="1")) < 3.0


def test_2d_load_bits_do_not_depend_on_blas_threads():
    code = """
import hashlib
import numpy as np
from qfemlab import BasisSpec, Mesh, assemble_load
f = np.arange(25.0).reshape(5, 5) % 7 - 3.0  # degree 8
print(hashlib.sha256(assemble_load(BasisSpec(Mesh(2, 126), 1), f).tobytes()).hexdigest())
"""
    digests = {run_load_subprocess(code, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")}
    assert len(digests) == 1


def reference_bilinear_2d(mesh, spec, diffusion, reaction):
    """M from one element matrix per element, its gradients taken from the
    vertex coordinates, summed over elements by a COO build; exact zero
    sums are dropped."""
    area = 0.5 / (mesh.n * mesh.n)
    pts = vertices(mesh)[element_nodes(spec)]  # (n_elements, 3, 2)
    # gradient of barycentric function a from the vertices b, c that follow it
    pb, pc = np.roll(pts, -1, axis=1), np.roll(pts, -2, axis=1)
    g = np.stack([pb[..., 1] - pc[..., 1], pc[..., 0] - pb[..., 0]], axis=-1) / (2.0 * area)
    local = diffusion * np.einsum("eak,ebk->eab", g, g) * area + reaction * area / 12.0 * (1.0 + np.eye(3))
    gids = spec.node_dofs[element_nodes(spec)]
    rows, cols = np.broadcast_to(gids[:, :, None], local.shape), np.broadcast_to(gids[:, None, :], local.shape)
    keep = (rows >= 0) & (cols >= 0)
    out = sp.coo_array((local[keep], (rows[keep], cols[keep])), shape=(spec.n_dofs, spec.n_dofs)).tocsr()
    out.eliminate_zeros()
    return out


def assert_matches_reference(M, ref):
    """Same CSR pattern and row width, entries equal to 1e-14 relative."""
    assert np.array_equal(M.csr.indptr, ref.indptr) and np.array_equal(M.csr.indices, ref.indices)
    assert M.s == (int(np.diff(ref.indptr).max()) if M.n else 0)
    np.testing.assert_allclose(M.csr.data, ref.data, rtol=1e-14, atol=1e-14 * abs(ref.data).max(initial=0.0))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 12),
    st.floats(1e-3, 1e3),
    st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
)
# meshes whose vertex coordinates i/n are inexact, so the reference rounds
@example(5, 1.0, 1.0)
@example(43, 1.0, 1.0)
def test_batched_bilinear_2d_matches_element_loop(n, diffusion, reaction):
    mesh = Mesh(2, n)
    spec = BasisSpec(mesh, 1)
    M = assemble_stiffness(spec, BilinearForm(diffusion, reaction))
    assert_matches_reference(M, reference_bilinear_2d(mesh, spec, diffusion, reaction))
    if n > 1:
        # pure diffusion gives the five-point stencil exactly on interior nodes
        P = assemble_stiffness(spec, BilinearForm(diffusion, 0.0)).csr
        rows = np.repeat(np.arange(P.shape[0]), np.diff(P.indptr))
        assert np.all(P.data[P.indices == rows] == 4.0 * diffusion)
        assert np.all(P.data[P.indices != rows] == -diffusion)


def test_stencil_matches_element_loop_on_every_size():
    # the stiffness with and without reaction and the Gram matrix, n = 2..64
    for n in range(2, 65):
        mesh = Mesh(2, n)
        spec = BasisSpec(mesh, 1)
        for diffusion, reaction in ((1.0, 0.0), (0.37, 2.5)):
            M = assemble_stiffness(spec, BilinearForm(diffusion, reaction))
            assert_matches_reference(M, reference_bilinear_2d(mesh, spec, diffusion, reaction))
        G = assemble_gram(spec)
        assert_matches_reference(G, reference_bilinear_2d(mesh, spec, 0.0, 1.0))


def reference_bilinear_1d(mesh, spec, diffusion, reaction):
    """M from the exact element matrix, added entry by entry over the
    elements in element order; exact zero sums are dropped. Returns
    (indptr, indices, data) of the CSR rows, columns ascending."""
    kref, mref = _reference_matrices(spec.k)
    local = diffusion * kref / mesh.h + reaction * mref * mesh.h
    entries = defaultdict(float)
    for e in range(mesh.n_elements):
        gids = spec.node_dofs[element_nodes(spec)[e]]
        for a, ia in enumerate(gids):
            for b, ib in enumerate(gids):
                if ia >= 0 and ib >= 0:
                    entries[int(ia), int(ib)] += local[a, b]
    kept = sorted(ij for ij, v in entries.items() if v != 0.0)
    rows = np.array([i for i, _ in kept], dtype=int)
    indptr = np.searchsorted(rows, np.arange(spec.n_dofs + 1))
    return indptr, np.array([j for _, j in kept], dtype=int), np.array([entries[ij] for ij in kept])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 60),
    st.one_of(st.just((0.0, 1.0)), st.tuples(st.floats(1e-3, 1e3), st.one_of(st.just(0.0), st.floats(1e-3, 1e6)))),
)
def test_bilinear_1d_matches_element_loop_bitwise(k, n, form):
    # every entry sums at most two element terms, so the stencil build and
    # the element loop agree bit for bit; (0, 1) is the Gram matrix
    diffusion, reaction = form
    mesh = Mesh(1, n)
    spec = BasisSpec(mesh, k)
    M = assemble_gram(spec) if diffusion == 0.0 else assemble_stiffness(spec, BilinearForm(diffusion, reaction))
    indptr, indices, data = reference_bilinear_1d(mesh, spec, diffusion, reaction)
    assert np.array_equal(M.csr.indptr, indptr) and np.array_equal(M.csr.indices, indices)
    assert M.csr.data.tobytes() == data.tobytes()
    dense = M.csr.toarray()
    assert np.array_equal(dense.view(np.uint64), dense.T.view(np.uint64))


@given(st.integers(1, 30))
def test_batched_builders_match_loops(n):
    def vid(i, j):
        return j * (n + 1) + i

    expected = []
    for j in range(n):
        for i in range(n):
            expected.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            expected.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
    assert np.array_equal(elements(Mesh(2, n)), np.asarray(expected))
    mesh = Mesh(1, n)
    for k in (1, 2, 3):
        expected = np.array([[e * k + j for j in range(k + 1)] for e in range(n)])
        assert np.array_equal(element_nodes(BasisSpec(mesh, k)), expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(2, 12), st.floats(-10.0, 10.0))
def test_l2_norm_1d_matches_element_loop(n, p, freq):
    mesh = Mesh(1, n)

    def diff(xq):
        return np.cos(freq * xq) - xq**2

    xs, ws = _gauss01(p)
    total = 0.0
    for e in range(mesh.n_elements):
        xq = vertices(mesh)[elements(mesh)[e, 0], 0] + mesh.h * xs
        total += mesh.h * float(ws @ diff(xq) ** 2)
    assert _l2_norm_1d(mesh, p, diff) == float(np.sqrt(total))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.integers(2, 30),
    st.integers(1, 3),
    st.floats(1e-3, 1e3),
    st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
)
def test_stiffness_and_gram_symmetric_psd(d, n, k, diffusion, reaction):
    spec = BasisSpec(Mesh(d, n if d == 1 else min(n, 10)), k if d == 1 else 1)
    for matrix in (assemble_stiffness(spec, BilinearForm(diffusion, reaction)), assemble_gram(spec)):
        dense = matrix.csr.toarray()
        assert np.array_equal(dense, dense.T)
        eig = np.linalg.eigvalsh(dense)
        assert eig[0] >= -1e-12 * eig[-1]
        assert matrix.is_spd()
