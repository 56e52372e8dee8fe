"""Numeric oracles and proxy checks, on LAPACK.

Unimodular equivalence of a pencil to its system matrix is checked by
proxy: det L(z) / det S(z), by slogdet at seeded random points, must be
constant.  Eigenvalues come from QZ, one direct call of LAPACK ggev
(dggev when the data is real, zggev otherwise), and are judged by their
backward error.  The structure at infinity is the list of partial
multiplicities at infinity, read off a staircase of SVDs on the reversed
pencil (Van Dooren 1979) without any QZ, and checked against the same
list for a companion form of S.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .pencils import fiedler_pencil
from .polymat import PolyMatrix

__all__ = [
    "det_proportionality", "DetProportionality", "pencil_eigenvalues",
    "backward_errors", "nullspace_at", "minimal_basis_degree_sweep",
    "infinity_structure", "InfinityReport", "VerificationFailure",
]


class VerificationFailure(RuntimeError):
    """A numeric oracle check failed beyond its stated tolerance."""


# ---------------------------------------------------------------------------
# determinant proportionality

def _as_polymat(M):
    if isinstance(M, PolyMatrix):
        return M
    if hasattr(M, "as_poly"):
        return M.as_poly()
    return PolyMatrix.constant(np.asarray(M, dtype=complex))


_DET_SEED = 7       # fixed evaluation points: the check is deterministic
_DET_POINTS = 4


@dataclass(frozen=True)
class DetProportionality:
    constant: complex
    deviation: float


def det_proportionality(L, S, tol=1e-8):
    """Check det L(lam) = c * det S(lam): log det L(z) - log det S(z), by
    slogdet at seeded random complex z, must be constant in modulus (log
    scale) and in phase to within tol.  A zero or non-finite determinant
    is refused."""
    rng = np.random.default_rng(_DET_SEED)
    logs, phases = [], []
    for _ in range(_DET_POINTS):
        z = complex(rng.normal(), rng.normal())
        sL, lL = np.linalg.slogdet(L(z))
        sS, lS = np.linalg.slogdet(S(z))
        if sL == 0 or sS == 0 or not np.isfinite(lL + lS):
            raise VerificationFailure(
                f"zero or non-finite determinant at {z:.3f}: singular input")
        logs.append(lL - lS)
        phases.append(sL / sS)
    dev = float(max(max(logs) - min(logs),
                    max(abs(p - phases[0]) for p in phases)))
    if dev > tol:
        raise VerificationFailure(
            f"determinants not proportional: ratio spread {dev:.3e}")
    return DetProportionality(constant=complex(phases[0] * np.exp(logs[0])),
                              deviation=dev)


# ---------------------------------------------------------------------------
# pencil eigenvalues

def _real_if_real(X, Y):
    """X and Y as complex arrays, or as their real parts when neither has
    a nonzero imaginary part, whatever the dtype: real data runs real
    LAPACK."""
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    if X.imag.any() or Y.imag.any():
        return X, Y
    return X.real, Y.real


def _qz(A, B, vectors=False):
    """(alpha, beta, vl, vr) of the pencil (A, B) by one LAPACK ggev:
    dggev for real data, zggev for complex.  alpha and beta are complex,
    as scipy.linalg.eig(A, B, homogeneous_eigvals=True) gives them, bit
    for bit; with vectors, vl and vr hold the left and right
    eigenvectors as unit columns (complex once real QZ finds a conjugate
    pair), else they are None.  Non-finite input is a ValueError."""
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("array must not contain infs or NaNs")
    ggev, = scipy.linalg.get_lapack_funcs(("ggev",), (A, B))
    lwork = int(ggev(A, B, lwork=-1)[-2][0].real)  # the query scipy makes
    *ab, vl, vr, _, info = ggev(A, B, compute_vl=vectors, compute_vr=vectors,
                                lwork=lwork)
    if info:
        raise np.linalg.LinAlgError(
            f"generalized eig algorithm (ggev) did not converge (LAPACK info={info})")
    if len(ab) == 3:
        alphar, alphai, beta = ab
        ab = alphar + 1j * alphai, beta.astype(complex)
        if vectors and alphai.any():
            # dggev stores the vectors of a conjugate pair j, j + 1
            # (alphai[j] > 0) as the real and imaginary parts of the
            # vector of j, in columns j and j + 1
            j = np.flatnonzero(alphai > 0)
            vl, vr = vl.astype(complex), vr.astype(complex)
            for v in (vl, vr):
                v.imag[:, j] = v.real[:, j + 1]
                v[:, j + 1] = v[:, j].conj()
    if not vectors:
        return *ab, None, None
    return *ab, vl / np.linalg.norm(vl, axis=0), vr / np.linalg.norm(vr, axis=0)


def _eig_clusters(X, Y, cluster_tol=1e-6, vectors=False):
    """The finite eigenvalues of pencil_eigenvalues as (mean, indices)
    clusters, each value joining the cluster before it when within
    cluster_tol (relative) of its running mean, and with vectors the
    left and right eigenvectors (unit columns).  The one QZ is _qz on
    (-X, Y); the finite values are visited in the order of their real,
    then imaginary parts, each rounded to 8 decimals."""
    X, Y = _real_if_real(X, Y)
    alpha, beta, vl, vr = _qz(-X, Y, vectors)
    if X.dtype != complex:
        # real QZ lists a conjugate pair as j (imaginary part > 0), j + 1,
        # with betas that may differ; mirror j onto j + 1 so the pair is
        # exact
        j = np.flatnonzero(alpha.imag > 0)
        alpha[j + 1], beta[j + 1] = alpha[j].conj(), beta[j]
    if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
        raise VerificationFailure("QZ returned non-finite eigenvalues")
    tol = math.sqrt(np.finfo(float).eps)
    a = np.abs(alpha) / max(float(np.linalg.norm(X)), 1e-300)
    b = np.abs(beta) / max(float(np.linalg.norm(Y)), 1e-300)
    if np.any((a <= tol) & (b <= tol)):
        raise VerificationFailure("singular pencil: determinant vanishes identically")
    fin = np.flatnonzero(b > tol)
    z = alpha[fin] / beta[fin]
    order = np.lexsort((np.round(z.imag, 8), np.round(z.real, 8)))
    out = []
    for i, zi in zip(fin[order].tolist(), z[order].tolist()):
        if out and abs(zi - out[-1][0]) <= cluster_tol * (1.0 + abs(zi)):
            zc, idx = out[-1]
            # numpy divides by a reciprocal, Python's complex division
            # does not: the mean stays in numpy's arithmetic, bit for bit
            zc = (np.complex128(zc) * len(idx) + zi) / (len(idx) + 1)
            out[-1] = (zc, idx + [i])
        else:
            out.append((zi, [i]))
    return out, vl, vr


def pencil_eigenvalues(X, Y=None, cluster_tol=1e-6):
    """Finite eigenvalues of the pencil X + lam Y with multiplicities.

    QZ on (-X, Y) gives pairs (alpha, beta) with lam = alpha / beta.  With
    a = |alpha| / ||X|| and b = |beta| / ||Y||, a pair with a and b both
    at most sqrt(eps) makes the pencil numerically singular, and a pair
    with only b that small is an eigenvalue at infinity.  Finite
    eigenvalues within cluster_tol (relative) are merged.  Data with no
    nonzero imaginary part, whatever its dtype, goes through real QZ, so
    conjugate pairs are exact and real eigenvalues have imaginary part 0."""
    if Y is None:
        X, Y = X.X, X.Y
    if np.shape(X)[0] == 0:
        return []
    return [(complex(z), len(idx)) for z, idx in _eig_clusters(X, Y, cluster_tol)[0]]


def eig_multiset(pairs):
    out = []
    for z, k in pairs:
        out += [z] * k
    return sorted(out, key=lambda z: (z.real, z.imag))


def backward_errors(M, eigenvalues):
    """Normwise backward error of each z as an eigenvalue of the matrix
    polynomial M = sum_j M_j lam^j (Tisseur 2000):
    eta(z) = sigma_min(M(z)) / sum_j ||M_j||_2 |z|^j.  One stacked Horner
    pass and SVD take each distinct z, or for real M each conjugate pair
    (M(conj z) = conj M(z) has the same singular values), once."""
    pm = _as_polymat(M)
    coeffs = pm.coeffs[: pm.degree + 1]
    z = np.asarray(eigenvalues, dtype=complex).reshape(-1)
    w = np.where(z.imag < 0, z.conj(), z) if not coeffs.imag.any() else z
    w, back = np.unique(w, return_inverse=True)
    smin = np.empty(len(w))
    step = max(1, (1 << 20) // max(1, pm.shape[0] * pm.shape[1]))
    for s in range(0, len(w), step):  # stacks of at most 16 MB
        v = w[s:s + step, None, None]
        stack = np.zeros((len(v),) + pm.shape, dtype=complex)
        for c in coeffs[::-1]:
            stack = v * stack + c
        smin[s:s + step] = np.linalg.svd(stack, compute_uv=False)[:, -1]
    scale = sum(np.linalg.norm(c, 2) * np.abs(z) ** j for j, c in enumerate(coeffs))
    return (smin[back.reshape(-1)] / np.maximum(scale, 1e-300)).tolist()


# ---------------------------------------------------------------------------
# nullspaces and minimal bases

def nullspace_at(M, tol=1e-10):
    """Orthonormal basis of the right nullspace, by QR with column
    pivoting; pass M transposed for the left nullspace."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    rows, cols = M.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=complex)
    if not M.any():
        return np.eye(cols, dtype=complex)
    R, piv = scipy.linalg.qr(M, mode="r", pivoting=True)
    d = np.abs(np.diag(R))
    rank = int(np.sum(d > tol * d[0]))
    if rank == cols:
        return np.zeros((cols, 0), dtype=complex)
    W = np.zeros((cols, cols - rank), dtype=complex)
    top = -scipy.linalg.solve_triangular(R[:rank, :rank], R[:rank, rank:])
    W[piv[:rank]] = top
    W[piv[rank:]] = np.eye(cols - rank)
    Q, _ = np.linalg.qr(W)
    return Q


def normal_rank(W, tol=1e-10, seed=5):
    pm = _as_polymat(W)
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(3):
        lam = complex(rng.normal(), rng.normal()) * 1.3
        s = np.linalg.svd(pm(lam), compute_uv=False)
        if s.size:
            best = max(best, int(np.sum(s > tol * max(s[0], 1e-300))))
    return best


def _poly_columns_degree(coeffs, tol):
    """Significant degree of a stacked coefficient column (d+1, q)."""
    norms = np.max(np.abs(coeffs), axis=1)
    top = float(norms.max())
    d = len(norms) - 1
    while d > 0 and norms[d] <= tol * top:
        d -= 1
    return d


def minimal_basis_degree_sweep(W, tol=1e-8, seed=11, max_degree=None):
    """Right minimal basis of a singular polynomial matrix by degree
    sweep: for d = 0, 1, ... the kernel of the block-convolution matrix
    encodes degree-<=d null vectors; new vectors independent over the
    rational functions (rank test at random points) are collected until
    size - normal rank is reached.  Returns a (bundle, degrees) pair from
    the `recover` module's VectorBundle type."""
    from .recover import VectorBundle

    pm = _as_polymat(W)
    kk, q = pm.shape
    dW = pm.degree
    target = q - normal_rank(pm, tol=max(tol * 1e-2, 1e-12))
    if target <= 0:
        raise ValueError("input has a trivial nullspace over the rational functions")
    if max_degree is None:
        max_degree = dW * min(kk, q) + 1

    rng = np.random.default_rng(seed)
    test_pts = [complex(rng.normal(), rng.normal()) * 1.1 for _ in range(3)]
    chosen = []          # list of (coeff-stack (d+1, q), degree)

    def poly_eval(coeffs, lam):
        out = np.zeros(q, dtype=complex)
        for row in coeffs[::-1]:
            out = lam * out + row
        return out

    def independent(cand):
        for lam in test_pts:
            cols = [poly_eval(c, lam) for c, _ in chosen] + [poly_eval(cand, lam)]
            V = np.array(cols).T
            s = np.linalg.svd(V, compute_uv=False)
            rank = int(np.sum(s > 1e-9 * max(s[0], 1e-300)))
            if rank == len(cols):
                return True
        return False

    for d in range(max_degree + 1):
        S = np.zeros(((dW + d + 1) * kk, (d + 1) * q), dtype=complex)
        for a in range(dW + 1):
            for b in range(d + 1):
                S[(a + b) * kk: (a + b + 1) * kk, b * q: (b + 1) * q] = pm.coeff(a)
        ker = nullspace_at(S, tol=1e-12)
        cands = []
        for col in ker.T:
            coeffs = col.reshape(d + 1, q)
            coeffs = coeffs / max(np.max(np.abs(coeffs)), 1e-300)
            cands.append((coeffs, _poly_columns_degree(coeffs, 1e-9)))
        cands.sort(key=lambda t: t[1])
        for coeffs, cdeg in cands:
            if len(chosen) == target:
                break
            if independent(coeffs):
                chosen.append((coeffs[: cdeg + 1], cdeg))
        if len(chosen) == target:
            break
    else:
        raise VerificationFailure(
            f"degree sweep exhausted max degree {max_degree} with "
            f"{len(chosen)}/{target} basis vectors")

    degrees = tuple(d for _, d in chosen)
    dmax = max(degrees)
    stack = np.zeros((dmax + 1, q, target), dtype=complex)
    for j, (coeffs, d) in enumerate(chosen):
        stack[: d + 1, :, j] = coeffs
    bundle = VectorBundle(data=PolyMatrix(stack), kind="minimal-basis",
                          side="right", degrees=degrees)
    return bundle


# ---------------------------------------------------------------------------
# structure at infinity

@dataclass(frozen=True)
class InfinityReport:
    leading_rank: int
    inf_count: int
    multiplicities: tuple
    sys_inf_count: int | None = None
    sys_multiplicities: tuple | None = None
    consistent: bool | None = None


def _infinite_multiplicities(X, Y, tol):
    """Partial multiplicities at infinity of X + lam Y, largest first:
    the Jordan structure at mu = 0 of the reversal Y + mu X, by a
    staircase (Van Dooren 1979).  The nullity k of Y is the next Weyr
    number; X restricted to null(Y) is row-compressed, and must have rank
    k for a regular pencil; k rows and columns are deflated.  The
    multiplicities are the conjugate partition of the Weyr numbers.
    Ranks count singular values above tol times the 2-norm of the input
    Y (resp. X).  Real input stays real."""
    weyr = []
    ytol = xtol = None
    while Y.shape[0]:
        s = np.linalg.svd(Y, compute_uv=False)
        if ytol is None:
            ytol = tol * max(float(s[0]), 1e-300)
        k = int(np.sum(s <= ytol))
        if k == 0:
            break
        if xtol is None:
            xtol = tol * max(float(np.linalg.norm(X, 2)), 1e-300)
        V = np.linalg.svd(Y)[2].conj().T[:, ::-1]   # null(Y) first
        X, Y = X @ V, Y @ V
        U, sx, _ = np.linalg.svd(X[:, :k])
        if sx[-1] <= xtol:
            raise VerificationFailure(
                "singular pencil: X and Y share a null vector")
        X = (U.conj().T @ X)[k:, k:]
        Y = (U.conj().T @ Y)[k:, k:]
        weyr.append(k)
    return tuple(sum(w >= j for w in weyr)
                 for j in range(1, max(weyr, default=0) + 1))


def infinity_structure(pencil, sys=None, tol=1e-10):
    """Structure at infinity of X + lam Y, without QZ.  The partial
    multiplicities at infinity come from a staircase of SVDs on the
    reversal Y + mu X; their sum is the infinite-eigenvalue count and
    leading_rank, the numerical rank of Y, is N minus their number.  When
    a system matrix is supplied, the multiplicities must equal those of
    a companion-form Fiedler pencil of S.  A singular pencil is refused
    with VerificationFailure."""
    mults = _infinite_multiplicities(*_real_if_real(pencil.X, pencil.Y), tol)
    sys_mults = consistent = None
    if sys is not None:
        companion = fiedler_pencil(tuple(range(sys.re.m)), sys.re)
        sys_mults = _infinite_multiplicities(
            *_real_if_real(companion.X, companion.Y), tol)
        consistent = (sys_mults == mults)
    return InfinityReport(
        leading_rank=pencil.X.shape[0] - len(mults), inf_count=sum(mults),
        multiplicities=mults,
        sys_inf_count=None if sys_mults is None else sum(sys_mults),
        sys_multiplicities=sys_mults, consistent=consistent)
