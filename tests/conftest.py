"""Shared integer-instance factories for the test suite."""

import itertools

import numpy as np
import pytest

from dataclasses import dataclass

from rosepencil.pencils import _resolve_assignment
from rosepencil.polymat import MatrixPolynomial, PolyMatrix
from rosepencil.realize import Realization, j_matrix, \
    make_structured_realization
from rosepencil.verify import VerificationFailure
from lemma_oracles import _fiedler_product_S, elementary_matrix


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


def gaussian_skew_symmetric_realization(seed, m, n, r):
    """Skew-symmetric realization with Gaussian data, drawn from
    default_rng(seed) in a fixed order: P_0..P_m, B, A, then E = J + noise
    (n and r even keep the skew leading coefficient and E nonsingular)."""
    rng = np.random.default_rng(seed)

    def skew(k):
        M = rng.normal(size=(k, k))
        return (M - M.T) / 2

    P = MatrixPolynomial([skew(n).astype(complex) for _ in range(m + 1)])
    B = rng.normal(size=(r, n))
    A = skew(r)
    E = j_matrix(r // 2) + 0.2 * skew(r)
    return make_structured_realization("skew-symmetric", P, A, B, E=E)


# ---------------------------------------------------------------------------
# determinant interpolation: a small-N test oracle independent of LAPACK's
# determinant ratios

def _as_polymat(M):
    if isinstance(M, PolyMatrix):
        return M
    if hasattr(M, "as_poly"):
        return M.as_poly()
    return PolyMatrix.constant(np.asarray(M, dtype=complex))


def _degree_bound(M):
    if hasattr(M, "re"):  # SystemMatrix
        return M.re.n * M.re.m + M.re.r
    if hasattr(M, "X") and hasattr(M, "Y"):  # BlockPencil
        return M.X.shape[0]
    pm = _as_polymat(M)
    return pm.degree * pm.shape[0]


def _chebyshev_nodes(count, radius):
    k = np.arange(count)
    return radius * np.cos(np.pi * (2 * k + 1) / (2 * count))


def _divided_differences(x, f):
    a = np.array(f, dtype=complex)
    for j in range(1, len(x)):
        a[j:] = (a[j:] - a[j - 1:-1]) / (x[j:] - x[:-j])
    return a


def _newton_eval(x, a, lam):
    out = a[-1]
    for k in range(len(a) - 2, -1, -1):
        out = out * (lam - x[k]) + a[k]
    return out


@dataclass(frozen=True)
class DetPolynomial:
    nodes: np.ndarray          # interpolation nodes
    newton: np.ndarray         # divided-difference coefficients
    degree: int                # significant degree
    scale: float               # max |det| over the fit nodes

    def __call__(self, lam):
        return _newton_eval(self.nodes, self.newton, lam)


def det_poly(M, degree_bound=None, tol=1e-8, radius=2.0):
    """Interpolate det(M(lam)): LU determinants at degree_bound + 1 scaled
    Chebyshev nodes, Newton divided differences, and 5 held-out nodes for
    validation.  Reliable for N up to about 25."""
    pm = _as_polymat(M)
    if pm.shape[0] != pm.shape[1]:
        raise ValueError("det_poly needs a square input")
    bound = _degree_bound(M) if degree_bound is None else degree_bound
    nodes = _chebyshev_nodes(bound + 1, radius)
    vals = np.array([np.linalg.det(pm(x)) for x in nodes])
    a = _divided_differences(nodes, vals)
    amax = float(np.max(np.abs(a))) if len(a) else 0.0
    deg = len(a) - 1
    while deg > 0 and abs(a[deg]) <= tol * amax:
        deg -= 1
    scale = float(np.max(np.abs(vals))) if len(vals) else 0.0
    dp = DetPolynomial(nodes=nodes, newton=a, degree=deg, scale=scale)

    held = radius * (0.83 + 0.11 * np.arange(5)) * np.exp(1j * (0.7 + np.arange(5)))
    for x in held:
        ref = np.linalg.det(pm(x))
        err = abs(dp(x) - ref)
        denom = max(scale, abs(ref), 1e-300)
        if err > 1e3 * tol * denom:
            raise VerificationFailure(
                f"det interpolation failed held-out validation at {x}: "
                f"relative residual {err / denom:.3e}")
    return dp


def all_permutations(m):
    return itertools.permutations(range(m))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
