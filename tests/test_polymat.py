import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rosepencil.polymat import (MatrixPolynomial, PolyMatrix,
                                block_transpose_dense, quasi_identity_diagonal,
                                quasi_identity_matrix, structure_check)
from conftest import ints, make_realization, poly, square
from lemma_oracles import block_transpose_loop, elementary_matrix, \
    fiedler_matrix_P, fiedler_matrix_S, horner_shift, lambda_alpha, omega_alpha


def test_polymat_eval_and_ops(rng):
    A = [ints(rng, 2, 2) for _ in range(4)]
    P = PolyMatrix(A)
    lam = 1.3 - 0.7j
    want = sum(A[k] * lam ** k for k in range(4))
    assert np.allclose(P(lam), want)
    Q = PolyMatrix([ints(rng, 2, 2) for _ in range(2)])
    assert np.allclose((P @ Q)(lam), P(lam) @ Q(lam))
    assert np.allclose((P + Q)(lam), P(lam) + Q(lam))
    assert np.allclose((P - Q)(lam), P(lam) - Q(lam))
    assert np.allclose((-P)(lam), -P(lam))
    assert np.allclose(P.transpose()(lam), P(lam).T)
    assert np.allclose(P.subs_neg()(lam), P(-lam))
    assert np.allclose(P.conj_transpose()(lam), P(np.conj(lam)).conj().T)


def test_matrix_polynomial_rev_horner(rng):
    P = poly(rng, 2, 3)
    lam = 0.4 + 1.1j
    assert np.allclose(P.rev()(lam), lam ** 3 * P(1.0 / lam))
    assert np.allclose(horner_shift(P, 0)(lam), P.coeff(3))
    assert horner_shift(P, 3).equals(P)
    # P_{k+1} = lam * P_k + A_{m-k-1}
    for k in range(3):
        want = lam * horner_shift(P, k)(lam) + P.coeff(3 - k - 1)
        assert np.allclose(horner_shift(P, k + 1)(lam), want)


def test_trim():
    P = PolyMatrix([np.eye(2), np.zeros((2, 2))])
    assert P.trim().degree == 0


@given(st.integers(-4, 3), st.integers(-4, 3))
@settings(max_examples=60, deadline=None)
def test_elementary_commutation(i, j):
    # M_i(X) and M_j(Y) commute whenever ||i| - |j|| >= 2
    if abs(abs(i) - abs(j)) < 2:
        return
    rng = np.random.default_rng(abs(17 * i + j))
    X, Y = ints(rng, 2, 2), ints(rng, 2, 2)
    A = elementary_matrix(i, X, 4, 2)
    B = elementary_matrix(j, Y, 4, 2)
    assert np.array_equal(A @ B, B @ A)


def test_elementary_inverse(rng):
    X = square(rng, 2, nonsingular=True)
    # M_0 and M_{-m} invert by inverting X; the window factors satisfy
    # M_i(X)^{-1} = M_{-i}(-X)
    for i in (0, -4):
        M = elementary_matrix(i, X, 4, 2)
        Minv = elementary_matrix(i, np.linalg.inv(X), 4, 2)
        assert np.allclose(M @ Minv, np.eye(8))
    for i in (1, 3):
        M = elementary_matrix(i, X, 4, 2)
        Minv = elementary_matrix(-i, -X, 4, 2)
        assert np.array_equal(M @ Minv, np.eye(8))


def test_fiedler_matrix_assignments(rng):
    P = poly(rng, 2, 3)
    assert np.array_equal(fiedler_matrix_P(2, P),
                          elementary_matrix(2, -P.coeff(2), 3, 2))
    assert np.array_equal(fiedler_matrix_P(-1, P),
                          elementary_matrix(-1, P.coeff(1), 3, 2))


def test_fiedler_matrix_S_blocks(rng):
    re = make_realization("general", rng, m=3)
    m, n, r = re.m, re.n, re.r
    M0 = fiedler_matrix_S(0, re)
    assert np.array_equal(M0[(m - 1) * n: m * n, m * n:], -re.C)
    assert np.array_equal(M0[m * n:, (m - 1) * n: m * n], -re.B)
    assert np.array_equal(M0[m * n:, m * n:], -re.A)
    Mm = fiedler_matrix_S(-m, re)
    assert np.array_equal(Mm[m * n:, m * n:], -re.E)
    M1 = fiedler_matrix_S(1, re)
    assert np.array_equal(M1[m * n:, m * n:], np.eye(r))


def test_block_transpose(rng):
    M = ints(rng, 6, 6)
    BT = block_transpose_dense(M, 3, 2)
    assert np.array_equal(block_transpose_dense(BT, 3, 2), M)
    assert np.array_equal(BT[0:2, 2:4], M[2:4, 0:2])
    assert np.array_equal(BT[0:2, 0:2], M[0:2, 0:2])
    for m, n in ((1, 1), (1, 3), (4, 1), (3, 2), (5, 3)):
        M = rng.normal(size=(m * n, m * n)) + 1j * rng.normal(size=(m * n, m * n))
        BT = block_transpose_dense(M, m, n)
        assert np.array_equal(BT, block_transpose_loop(M, m, n))
        assert not np.shares_memory(BT, M)


def test_structure_check_tags(rng):
    S = square(rng, 3, "sym")
    K = square(rng, 3, "skew")
    assert structure_check([S], "symmetric", exact=True)
    assert not structure_check([K], "symmetric")
    assert structure_check([K], "skew-symmetric", exact=True)
    # T-even: even coefficients symmetric, odd skew
    assert structure_check([S, K, S], "t-even", exact=True)
    assert not structure_check([K, S], "t-even")
    assert structure_check([K, S, K], "t-odd", exact=True)
    P = PolyMatrix([S, K])
    assert structure_check(P, "t-even")


def test_structure_check_aliases():
    # the kind names are not structure tags: STRUCTURED_KINDS gives each
    # kind's tag, and a name that is not a tag is refused
    S = np.eye(2)
    for name in ("hamiltonian", "skew-hamiltonian", "totally-positive"):
        with pytest.raises(ValueError):
            structure_check([S], name)


def test_quasi_identity():
    Q = quasi_identity_matrix((1, -1), 2, 3)
    assert np.array_equal(np.diag(Q), [1, 1, -1, -1, 1, 1, 1])
    assert np.array_equal(Q @ Q, np.eye(7))
    assert np.array_equal(quasi_identity_diagonal((1, -1), 2, 3), np.diag(Q))


def test_lambda_omega_shapes():
    alpha = (1, 0, 2)
    L = lambda_alpha(alpha, 2)
    W = omega_alpha(alpha, 2)
    lam = 0.3 + 0.8j
    assert L(lam).shape == (6, 2)
    assert W(lam).shape == (2, 6)
    # every nonzero block is a pure power of lam times I
    for k in range(3):
        blk = L.coeffs[:, 2 * k: 2 * k + 2, :]
        nz = [d for d in range(blk.shape[0]) if np.any(blk[d])]
        assert len(nz) <= 1
        for d in nz:
            assert np.array_equal(blk[d], np.eye(2))
    for k in range(3):
        blk = W.coeffs[:, :, 2 * k: 2 * k + 2]
        nz = [d for d in range(blk.shape[0]) if np.any(blk[d])]
        assert len(nz) <= 1
