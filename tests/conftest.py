"""Shared integer-instance factories for the test suite."""

import itertools

import numpy as np
import pytest

from rosepencil.pencils import _fiedler_product_S, _resolve_assignment
from rosepencil.polymat import MatrixPolynomial, elementary_matrix
from rosepencil.realize import Realization, j_matrix, \
    make_structured_realization


def ints(rng, rows, cols, lo=-3, hi=3):
    return rng.integers(lo, hi + 1, size=(rows, cols)).astype(complex)


def square(rng, k, kind="any", nonsingular=False):
    for _ in range(200):
        M = ints(rng, k, k)
        if kind == "sym":
            M = M + M.T
        elif kind == "skew":
            M = M - M.T
        if not nonsingular or abs(np.linalg.det(M)) > 0.5:
            return M
    raise RuntimeError(f"no nonsingular integer {kind} matrix of size {k}")


_PARITY = {
    "general": lambda j: "any",
    "symmetric": lambda j: "sym",
    "t-even": lambda j: "sym" if j % 2 == 0 else "skew",
    "hamiltonian": lambda j: "sym" if j % 2 == 0 else "skew",
    "t-odd": lambda j: "skew" if j % 2 == 0 else "sym",
    "skew-hamiltonian": lambda j: "skew",
    "skew-symmetric": lambda j: "skew",
}


def poly(rng, n, m, kind="general", ns_top=False):
    par = _PARITY[kind]
    coeffs = [square(rng, n, par(j), nonsingular=(ns_top and j == m))
              for j in range(m + 1)]
    return MatrixPolynomial(coeffs)


def make_realization(kind, rng, n=2, r=2, m=3, ns_top=False):
    """Random integer realization of the given kind; r is even for the
    J-based kinds."""
    P = poly(rng, n, m, kind, ns_top=ns_top)
    B = ints(rng, r, n)
    if kind == "general":
        return Realization(P, C=ints(rng, n, r),
                           E=square(rng, r, nonsingular=True),
                           A=square(rng, r), B=B)
    if kind == "symmetric":
        return make_structured_realization(
            kind, P, square(rng, r, "sym"), B,
            E=square(rng, r, "sym", nonsingular=True))
    if kind == "t-even":
        return make_structured_realization(
            kind, P, square(rng, r, "sym"), B,
            E=square(rng, r, "skew", nonsingular=True))
    if kind == "t-odd":
        return make_structured_realization(kind, P, square(rng, r, "skew"), B)
    if kind == "skew-symmetric":
        return make_structured_realization(
            kind, P, square(rng, r, "skew"), B,
            E=square(rng, r, "skew", nonsingular=True))
    J = j_matrix(r // 2)
    if kind == "hamiltonian":
        return make_structured_realization(
            kind, P, J.T @ square(rng, r, "sym"), B)
    if kind == "skew-hamiltonian":
        return make_structured_realization(
            kind, P, J.T @ square(rng, r, "skew"), B)
    raise ValueError(kind)


def zero_corner_realization(rng, n=2, r=2, m=3, kind="general"):
    """Singular instance: last polynomial row+column and the matching
    C row / B column vanish, so e_n spans both rational null spaces."""
    re = make_realization(kind, rng, n=n, r=r, m=m)
    coeffs = []
    for j in range(m + 1):
        A = re.P.coeff(j).copy()
        A[-1, :] = 0
        A[:, -1] = 0
        coeffs.append(A)
    P = MatrixPolynomial(coeffs)
    B = re.B.copy()
    B[:, -1] = 0
    C = re.C.copy()
    C[-1, :] = 0
    return Realization(P, C=C, E=re.E, A=re.A, B=B,
                       structure=re.structure)


def product_gfpr(recipe, re):
    """Test oracle for ``gfpr``: the (X, Y) of the defining product
    M_{tau1}(Y1) M_{sigma1}(X1) (lam M^S_tau - M^S_sigma)
    M_{sigma2}(X2) M_{tau2}(Y2), each factor diag(M_i(X_i), I_r)."""
    mn = re.m * re.n

    def factors(t, mats):
        out = np.eye(mn + re.r, dtype=complex)
        for i, X in zip(t, _resolve_assignment(t, mats, re.P)):
            F = np.eye(mn + re.r, dtype=complex)
            F[:mn, :mn] = elementary_matrix(i, X, re.m, re.n)
            out = out @ F
        return out

    left = factors(recipe.tau1, recipe.Y1) @ factors(recipe.sigma1, recipe.X1)
    right = factors(recipe.sigma2, recipe.X2) @ factors(recipe.tau2, recipe.Y2)
    return (left @ (-_fiedler_product_S(recipe.sigma, re)) @ right,
            left @ _fiedler_product_S(recipe.tau, re) @ right)


def all_permutations(m):
    return itertools.permutations(range(m))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
