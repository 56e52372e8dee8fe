import json

import numpy as np
import pytest
import scipy.linalg

from rosepencil import verify
from rosepencil.cli import main
from rosepencil.polymat import MatrixPolynomial, PolyMatrix
from rosepencil.realize import (Realization, make_structured_realization,
                                system_matrix)
from rosepencil.pencils import BlockPencil, GfprRecipe, fiedler_pencil, gfpr
from rosepencil.structured import (cauchy_maslov_index,
                                   skew_symmetric_linearization,
                                   symmetric_linearization)
from rosepencil.verify import (VerificationFailure, _qz, backward_errors,
                               det_proportionality, eig_multiset,
                               infinity_structure, minimal_basis_degree_sweep,
                               normal_rank, nullspace_at, pencil_eigenvalues)
from conftest import all_permutations, det_poly, \
    gaussian_skew_symmetric_realization, ints, make_realization, poly, \
    zero_corner_realization
from lemma_oracles import appendix_witnesses, argument_principle_count, \
    backward_errors_loop, eig_clusters_loop, elimination_witness, lambda_alpha, \
    multiset_distance, omega_alpha, product_equal


def test_det_poly_known():
    P = PolyMatrix([np.array([[0, 1], [0, 0]], dtype=complex),
                    np.eye(2, dtype=complex)])  # [[lam, 1], [0, lam]]
    dp = det_poly(P)
    assert dp.degree == 2
    for x in (0.3, -1.2, 0.5 + 0.8j):
        assert abs(dp(x) - x ** 2) <= 1e-9


def test_det_poly_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        det_poly(PolyMatrix([np.ones((2, 3))]))


def test_det_proportionality(rng):
    S = poly(rng, 2, 3, ns_top=True)
    L = PolyMatrix(2.0 * S.coeffs)
    rep = det_proportionality(L, S)
    assert abs(rep.constant - 4.0) <= 1e-8
    assert rep.deviation <= 1e-10
    other = poly(rng, 2, 2, ns_top=True)
    with pytest.raises(VerificationFailure, match="not proportional"):
        det_proportionality(other, S)
    singular = PolyMatrix(S.coeffs.copy())
    singular.coeffs[:, :, -1] = 0
    with pytest.raises(VerificationFailure, match="zero or non-finite"):
        det_proportionality(singular, S)


def _large_pencil(kind, rng, m, n, r):
    re = make_realization("general", rng, m=m, n=n, r=r, ns_top=True)
    if kind == "fp":
        return fiedler_pencil(tuple(rng.permutation(m)), re), re
    h = int(rng.integers(0, m))
    sigma = tuple(int(v) for v in rng.permutation(h + 1))
    tau = tuple(int(v) for v in rng.permutation(np.arange(-m, -h)))
    return gfpr(GfprRecipe(m=m, sigma=sigma, tau=tau), re), re


@pytest.mark.parametrize("kind", ["fp", "gfpr"])
@pytest.mark.parametrize("m,n,r", [(6, 7, 6), (8, 7, 10)])
def test_determinant_checks_large_pencils(kind, m, n, r, rng):
    # N = 48 and 66, past the sizes where an interpolated determinant
    # fails its own held-out validation
    L, re = _large_pencil(kind, rng, m, n, r)
    S = system_matrix(re)
    assert det_proportionality(L, S).deviation <= 1e-10
    rep = infinity_structure(L, S)
    assert rep.consistent and rep.inf_count == 0


def test_det_proportionality_n204(rng):
    re = make_realization("general", rng, m=50, n=4, r=4, ns_top=True)
    L = fiedler_pencil(tuple(rng.permutation(50)), re)
    assert L.size == 204
    assert det_proportionality(L, system_matrix(re)).deviation <= 1e-10


def _relative_sigma_min(M):
    s = np.linalg.svd(M, compute_uv=False)
    return s[-1] / s[0]


def test_pencil_eigenvalues_vs_oracles(rng):
    # checked against rank drops, the interpolated determinant and the
    # argument principle, none of which runs QZ; the second pencil has a
    # constant last column, so it also has an eigenvalue at infinity
    X = ints(rng, 5, 5)
    Y_regular = ints(rng, 5, 5) + 6 * np.eye(5)
    Y_inf = Y_regular.copy()
    Y_inf[:, -1] = 0
    for Y in (Y_regular, Y_inf):
        eigs = eig_multiset(pencil_eigenvalues(X, Y))
        assert all(_relative_sigma_min(X + z * Y) <= 1e-10 for z in eigs)
        assert len(eigs) == det_poly(PolyMatrix([X, Y])).degree
        mods = sorted(abs(z) for z in eigs)
        k = int(np.argmax(np.diff(mods)))
        R = (mods[k] + mods[k + 1]) / 2
        assert argument_principle_count(X, Y, radius=R) == k + 1


@pytest.mark.parametrize("m,n,r", [(6, 7, 6), (8, 7, 10)])
def test_pencil_eigenvalues_large_fiedler(m, n, r, rng):
    # N = mn + r = 48 and 66, all eigenvalues finite
    re = make_realization("general", rng, m=m, n=n, r=r, ns_top=True)
    L = fiedler_pencil(tuple(rng.permutation(m)), re)
    S = system_matrix(re)
    eigs = eig_multiset(pencil_eigenvalues(L.X, L.Y))
    assert len(eigs) == m * n + r
    assert all(_relative_sigma_min(S(z)) <= 1e-10 for z in eigs)


def test_pencil_eigenvalue_multiplicity():
    X = np.diag([1.0, 1.0, -2.0]).astype(complex)
    Y = np.eye(3, dtype=complex)
    pairs = dict(pencil_eigenvalues(X, Y))
    assert len(pairs) == 2
    z1 = min(pairs, key=lambda z: abs(z + 1))
    assert abs(z1 + 1) <= 1e-8 and pairs[z1] == 2


def test_pencil_eigenvalues_real_data_real_qz(rng):
    # a builder-made pencil is stored complex; with no nonzero imaginary
    # part it runs real QZ, exactly as its float64 copy does
    re = make_realization("general", rng, m=4, n=3, r=2, ns_top=True)
    L = fiedler_pencil((2, 0, 3, 1), re)
    assert L.X.dtype == complex
    pairs = pencil_eigenvalues(L.X, L.Y)
    assert pairs == pencil_eigenvalues(L.X.real.copy(), L.Y.real.copy())
    assert sum(k for _, k in pairs) == L.size
    found = dict(pairs)
    real = [z for z in found if abs(z.imag) <= 1e-8 * (1 + abs(z))]
    assert real and all(z.imag == 0.0 for z in real)
    nonreal = [z for z in found if z.imag != 0.0]
    assert nonreal
    for z in nonreal:
        assert found.get(z.conjugate()) == found[z]


def test_pencil_eigenvalues_complex_data(rng):
    X = ints(rng, 5, 5)
    Y = ints(rng, 5, 5) + 6 * np.eye(5)
    X[1, 3] += 0.5j
    eigs = eig_multiset(pencil_eigenvalues(X, Y))
    ref = scipy.linalg.eigvals(-X, Y)
    assert multiset_distance(eigs, ref) <= 1e-10 * (1 + max(abs(ref)))
    # the spectrum is not closed under conjugation
    assert multiset_distance(eigs, np.conj(ref)) > 1e-6


def test_pencil_eigenvalues_identically_singular():
    X = np.zeros((2, 2), dtype=complex)
    with pytest.raises(VerificationFailure):
        pencil_eigenvalues(X, X)


def _qz_case(kind):
    """A 9 x 9 pair (A, B) with seeded Gaussian entries: real (with
    complex-conjugate eigenvalues), complex, or real with B singular; or
    a real 140 x 140 pair, past the size where LAPACK's blocked QR needs
    the workspace that the lwork query returns."""
    g = np.random.default_rng(31).normal
    k = 140 if kind == "large" else 9
    A, B = g(size=(k, k)), g(size=(k, k))
    if kind == "complex":
        A, B = A + 1j * g(size=(9, 9)), B + 1j * g(size=(9, 9))
    elif kind == "singular":
        B[:, 4] = 0.0
    return A, B


@pytest.mark.parametrize("vectors", [False, True])
@pytest.mark.parametrize("kind", ["real", "complex", "singular", "large"])
def test_qz_kernel_matches_scipy(kind, vectors):
    """One ggev call gives scipy.linalg.eig's alpha and beta bit for bit,
    and its vectors as unit columns; scipy serves here as the oracle."""
    A, B = _qz_case(kind)
    alpha, beta, vl, vr = _qz(A, B, vectors)
    if vectors:
        (ra, rb), rl, rr = scipy.linalg.eig(A, B, left=True, right=True,
                                            homogeneous_eigvals=True)
    else:
        ra, rb = scipy.linalg.eig(A, B, right=False, homogeneous_eigvals=True)
        assert vl is None and vr is None
    assert alpha.dtype == beta.dtype == complex
    assert alpha.tobytes() == ra.tobytes() and beta.tobytes() == rb.tobytes()
    if kind in ("real", "large"):
        assert (alpha.imag > 0).any()      # a conjugate pair
    if kind == "singular":
        assert np.abs(beta).min() <= 1e-12 * np.abs(beta).max()   # at infinity
    if vectors:
        for v, ref in ((vl, rl), (vr, rr)):
            assert v.dtype == ref.dtype
            assert np.abs(np.linalg.norm(v, axis=0) - 1.0).max() <= 1e-14
            assert np.abs(v - ref).max() <= 1e-13


@pytest.mark.parametrize("seed", range(6))
def test_eig_clusters_match_the_sorted_loop(seed):
    """The lexsort order and the merge over Python complex values give the
    sorted loop's clusters bit for bit: means, indices and order, on
    pencils with repeated eigenvalues (clusters of two and three),
    conjugate pairs, an eigenvalue at infinity, and complex data."""
    g = np.random.default_rng(seed).normal
    d = np.array([2.0, 2.0, 2.0, -1.0, -1.0, 0.5, 3.0, 0.0])
    T, S = g(size=(8, 8)), g(size=(8, 8))
    cases = [(T @ np.diag(d) @ S, T @ S), (g(size=(12, 12)), g(size=(12, 12)))]
    Y = T @ np.diag([1.0] * 7 + [0.0]) @ S
    cases.append((T @ np.diag(d + 1.0) @ S, Y))
    cases.append((g(size=(10, 10)) + 1j * g(size=(10, 10)), g(size=(10, 10))))
    for X, Y in cases:
        got = verify._eig_clusters(X, Y)[0]
        want = eig_clusters_loop(X, Y)
        assert [(complex(z).real.hex(), complex(z).imag.hex(), idx) for z, idx in got] \
            == [(complex(z).real.hex(), complex(z).imag.hex(), [int(i) for i in idx])
                for z, idx in want]
    assert max(len(idx) for z, idx in verify._eig_clusters(*cases[0])[0]) == 3


def test_no_scipy_eig_in_the_library(monkeypatch, tmp_path, capsys):
    """pencil_eigenvalues, cauchy_maslov_index and `rosepencil verify`
    run their QZ without scipy.linalg.eig or eigvals.  The residue at
    each pole of B^T (lam - A)^{-1} B is b_i b_i^T, so the index is 3."""
    def refused(*args, **kwargs):
        raise AssertionError("scipy.linalg.eig or eigvals was called")

    monkeypatch.setattr(scipy.linalg, "eig", refused)
    monkeypatch.setattr(scipy.linalg, "eigvals", refused)
    g = np.random.default_rng(8).normal
    A, B = _qz_case("real")
    assert sum(k for _, k in pencil_eigenvalues(A, B)) == 9
    S = g(size=(2, 2))
    P = MatrixPolynomial([np.eye(2), S + S.T])
    re = make_structured_realization("symmetric", P, np.diag([1.0, -2.0, 3.0]),
                                     g(size=(3, 2)))
    assert cauchy_maslov_index(re) == cauchy_maslov_index(
        symmetric_linearization(re, 0)) == 3
    paths = [str(tmp_path / f) for f in ("prob.json", "pencil.json", "verify.json")]
    with open(paths[0], "w") as fh:
        json.dump({"realization": {
            "kind": "general", "P": [g(size=(2, 2)).tolist() for _ in range(3)],
            "C": g(size=(2, 2)).tolist(), "E": np.eye(2).tolist(),
            "A": g(size=(2, 2)).tolist(), "B": g(size=(2, 2)).tolist()},
            "recipe": {"sigma": [1, 0]}}, fh)
    for argv in (["build", "--kind", "fp", "--problem", paths[0], "--out", paths[1]],
                 ["verify", "--problem", paths[0], "--pencil", paths[1],
                  "--out", paths[2]]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0, capsys.readouterr().err
    with open(paths[2]) as fh:
        assert json.load(fh)["ok"] is True


def test_non_finite_input_is_refused_before_lapack(monkeypatch):
    X, Y = _qz_case("real")
    X[3, 5] = np.nan
    re = make_structured_realization(
        "symmetric", MatrixPolynomial([np.eye(2), np.eye(2)]),
        np.diag([1.0, -2.0]), np.eye(2))
    A = re.A.copy()
    A[0, 0] = np.inf
    re = Realization(re.P, C=re.C, E=re.E, A=A, B=re.B, structure="symmetric")

    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK was reached")

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", no_lapack)
    monkeypatch.setattr(scipy.linalg._decomp, "get_lapack_funcs", no_lapack)
    with pytest.raises(ValueError, match="infs or NaNs"):
        pencil_eigenvalues(X, Y)
    with pytest.raises(ValueError, match="infs or NaNs"):
        cauchy_maslov_index(re)


def test_argument_principle_oracle(rng):
    X = ints(rng, 4, 4)
    Y = ints(rng, 4, 4) + 5 * np.eye(4)
    eigs = eig_multiset(pencil_eigenvalues(X, Y))
    R = 7.5
    inside = sum(1 for z in eigs if abs(z) < R)
    assert argument_principle_count(X, Y, radius=R) == inside


def test_multiset_distance():
    assert multiset_distance([1, 2], [2.0, 1.0]) == 0.0
    assert multiset_distance([1], [1, 2]) == float("inf")
    assert abs(multiset_distance([0, 10], [0.1, 10]) - 0.1) <= 1e-12


def test_nullspace_at():
    M = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    Z = nullspace_at(M)
    assert Z.shape == (2, 1)
    assert np.linalg.norm(M @ Z) <= 1e-10
    assert nullspace_at(np.eye(3)).shape == (3, 0)
    assert nullspace_at(np.zeros((2, 2))).shape == (2, 2)


def _nullspace_economic(M, tol=1e-10):
    """Reference for nullspace_at: the same formula on the R of an
    economic-mode pivoted QR, whose Q is formed and thrown away."""
    M = np.asarray(M, dtype=complex)
    cols = M.shape[1]
    _, R, piv = scipy.linalg.qr(M, mode="economic", pivoting=True)
    d = np.abs(np.diag(R))
    rank = int(np.sum(d > tol * d[0]))
    W = np.zeros((cols, cols - rank), dtype=complex)
    W[piv[:rank]] = -scipy.linalg.solve_triangular(R[:rank, :rank], R[:rank, rank:])
    W[piv[rank:]] = np.eye(cols - rank)
    return np.linalg.qr(W)[0]


@pytest.mark.parametrize("deficiency", [0, 1, 2])
@pytest.mark.parametrize("shape", [(7, 7), (9, 6), (5, 8)])
def test_nullspace_at_matches_economic_mode(rng, deficiency, shape):
    rows, cols = shape
    rank = min(rows, cols) - deficiency
    M = ((rng.normal(size=(rows, rank)) + 1j * rng.normal(size=(rows, rank)))
         @ rng.normal(size=(rank, cols)))
    Z = nullspace_at(M)
    assert Z.shape == (cols, cols - rank)
    assert np.array_equal(Z, _nullspace_economic(M))
    assert np.linalg.norm(M @ Z) <= 1e-10 * np.linalg.norm(M)


def test_normal_rank(rng):
    W = PolyMatrix([np.array([[0.0, -1.0]]), np.array([[1.0, 0.0]])])
    assert normal_rank(W) == 1
    full = poly(rng, 3, 2, ns_top=True)
    assert normal_rank(full) == 3


def test_degree_sweep_known():
    # [lam, -1] has right minimal basis (1, lam)^T of degree 1
    W = PolyMatrix([np.array([[0.0, -1.0]]), np.array([[1.0, 0.0]])])
    bundle = minimal_basis_degree_sweep(W)
    assert bundle.degrees == (1,)
    v = bundle.data
    for lam in (0.5, -1.3, 0.2 + 0.9j):
        assert np.linalg.norm(W(lam) @ v(lam)) <= 1e-8


def test_degree_sweep_trivial_nullspace(rng):
    with pytest.raises(ValueError, match="trivial"):
        minimal_basis_degree_sweep(poly(rng, 2, 2, ns_top=True))


def test_infinity_structure(rng, monkeypatch):
    def no_qz(*args, **kwargs):
        raise AssertionError("infinity_structure ran QZ")

    for module, name in ((verify, "_qz"), (scipy.linalg, "eig"),
                         (scipy.linalg, "eigvals")):
        monkeypatch.setattr(module, name, no_qz)
    re = make_realization("general", rng, m=3, ns_top=True)
    L = fiedler_pencil((0, 1, 2), re)
    rep = infinity_structure(L, system_matrix(re))
    assert rep.consistent
    assert rep.multiplicities == rep.sys_multiplicities == ()
    assert rep.inf_count == rep.sys_inf_count == 0
    assert rep.leading_rank == L.X.shape[0]


def test_staircase_nilpotent_leading_coefficient():
    # I + lam N with N nilpotent of rank 1: the reversal N + mu I has one
    # Jordan block of size 2 and one of size 1 at mu = 0
    N = np.zeros((3, 3), dtype=complex)
    N[0, 1] = 1.0
    rep = infinity_structure(BlockPencil(np.eye(3, dtype=complex), N, 1, 3, 0))
    assert rep.multiplicities == (2, 1)
    assert rep.inf_count == 3 and rep.leading_rank == 1
    # Y = 0: three infinite eigenvalues, each of multiplicity 1; against
    # the system matrix I + lam N the count agrees, the structure does not
    re = Realization(MatrixPolynomial([np.eye(3, dtype=complex), N]),
                     C=np.zeros((3, 0)), E=np.zeros((0, 0)),
                     A=np.zeros((0, 0)), B=np.zeros((0, 3)))
    rep = infinity_structure(BlockPencil(np.eye(3, dtype=complex),
                                         np.zeros((3, 3), dtype=complex),
                                         1, 3, 0), system_matrix(re))
    assert rep.multiplicities == (1, 1, 1)
    assert rep.inf_count == 3 and rep.leading_rank == 0
    assert rep.sys_multiplicities == (2, 1) and rep.sys_inf_count == 3
    assert not rep.consistent


def _singular_top_realizations(m, count, seed):
    """General integer realizations with n = 3 whose A_m has rank 1 or 2,
    alternately, and whose det S is not identically zero."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        k = 1 + len(out) % 2
        re = make_realization("general", rng, n=3, m=m)
        top = ints(rng, 3, k) @ ints(rng, k, 3)
        if np.linalg.matrix_rank(top) != k:
            continue
        re = Realization(MatrixPolynomial([re.P.coeff(j) for j in range(m)]
                                          + [top]),
                         C=re.C, E=re.E, A=re.A, B=re.B)
        try:
            pencil_eigenvalues(fiedler_pencil(tuple(range(m)), re))
        except VerificationFailure:
            continue
        out.append(re)
    return out


@pytest.mark.parametrize("m", [3, 4])
def test_infinity_structure_singular_top_census(m):
    # every FP of realizations with a singular A_m: the staircase
    # multiplicities sum to N - (finite QZ eigenvalues) and match the
    # companion form's
    seen = set()
    for re in _singular_top_realizations(m, 5, seed={3: 106, 4: 105}[m]):
        S = system_matrix(re)
        for alpha in all_permutations(m):
            L = fiedler_pencil(alpha, re)
            rep = infinity_structure(L, S)
            finite = sum(k for _, k in pencil_eigenvalues(L))
            assert rep.consistent, (alpha, rep)
            assert rep.inf_count == L.X.shape[0] - finite, (alpha, rep)
            seen.add(rep.multiplicities)
    assert seen == {(1,), (1, 1), (2, 1)}


def test_infinity_structure_counts_infinite_eigenvalues():
    # X + lam Y = diag(lam - 1, lam - 2, 1, 1): the last 2 x 2 block is
    # constant, so N - deg det = 2, and the companion-form count of the
    # same matrix polynomial agrees
    X = np.diag([-1.0, -2.0, 1.0, 1.0]).astype(complex)
    Y = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    rep = infinity_structure(BlockPencil(X, Y, 1, 4, 0))
    assert rep.inf_count == 2 and rep.leading_rank == 2
    re = Realization(MatrixPolynomial([X, Y]), C=np.zeros((4, 0)),
                     E=np.zeros((0, 0)), A=np.zeros((0, 0)), B=np.zeros((0, 4)))
    rep = infinity_structure(BlockPencil(X, Y, 1, 4, 0), system_matrix(re))
    assert rep.consistent and rep.sys_inf_count == 2


def test_infinity_structure_refuses_singular_pencil(rng):
    # the FP of a singular G has det L = 0 identically; counting finite
    # eigenvalues there would report every eigenvalue as infinite
    re = zero_corner_realization(rng, 3, 2, 3)
    L = fiedler_pencil((0, 1, 2), re)
    with pytest.raises(VerificationFailure, match="singular"):
        infinity_structure(L, system_matrix(re))


def test_backward_errors_skew_symmetric_large_eigenvalue():
    # a skew-symmetric build with an eigenvalue near 93 and a small
    # leading coefficient: the unscaled ratio sigma_min / sigma_max of
    # S(z) is ~0.1 there, the backward error is at rounding level
    re = gaussian_skew_symmetric_realization(32009, 9, 2, 2)
    L = skew_symmetric_linearization(re, 0)
    S = system_matrix(re)
    eigs = eig_multiset(pencil_eigenvalues(L))
    assert max(abs(z) for z in eigs) > 90
    assert max(backward_errors(S, eigs)) <= 1e-12
    # a point off the spectrum has a backward error of order one
    assert backward_errors(S, [0.5 + 0.5j])[0] > 1e-3


def test_stacked_backward_errors_match_loop(rng):
    """One stacked SVD per distinct value (per conjugate pair for real
    S) gives the per-eigenvalue loop's backward errors, in input order."""
    re = make_realization("general", rng, m=3)
    S = system_matrix(re)
    eigs = eig_multiset(pencil_eigenvalues(fiedler_pencil((0, 1, 2), re)))
    assert any(z.imag != 0 for z in eigs)  # real QZ gives exact conjugate pairs
    off = [0.5 + 0.5j, 0.5 - 0.5j, -2.0, 0j]
    n = 3
    Sc = PolyMatrix([rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                     for _ in range(3)])
    cases = [(S, eigs), (S, eigs[::-1] + eigs[:3] + off + off), (S, []),
             (Sc, off + [z.conjugate() for z in off] + off), (Sc, [])]
    for M, zs in cases:
        got, want = backward_errors(M, zs), backward_errors_loop(M, zs)
        assert isinstance(got, list) and len(got) == len(want) == len(zs)
        assert np.max(np.abs(np.subtract(got, want)), initial=0.0) <= 1e-12
    # for complex S the conjugate of a point is another point
    etas = backward_errors(Sc, [1 + 1j, 1 - 1j])
    assert abs(etas[0] - etas[1]) > 1e-6


def test_appendix_witnesses_all_m3(rng):
    P = poly(rng, 2, 3)
    for alpha in all_permutations(3):
        rep = appendix_witnesses(alpha, P)
        assert rep.ok, (alpha, rep)
        assert max(rep.lambda_residual, rep.omega_residual,
                   rep.corollary_residual) <= 1e-10


def test_elimination_identity_exact(rng):
    for _ in range(10):
        m = int(rng.integers(2, 5))
        perm = tuple(rng.permutation(m))
        lam_a = lambda_alpha(perm, 2)
        ome_a = omega_alpha(perm, 2)
        assert elimination_witness(lam_a, ome_a, m, 2) == 0.0


def test_product_equal_commutation(rng):
    P = poly(rng, 2, 4)
    assert product_equal((0, 2), (2, 0), P)
    assert product_equal((1, 3), (3, 1), P)
    re = make_realization("general", rng, m=4)
    assert product_equal((0, 2), (2, 0), re)
    assert not product_equal((0, 1), (1, 0), re)
    with pytest.raises(ValueError):
        product_equal((0,), (0,), re, a1=(np.eye(2),))
