"""Proof checks and the system-matrix product oracle.

The witness identities of the paper's appendix, U (e_1 (x) I) =
Lambda_alpha, (e_1^T (x) I) V = Omega_alpha and the block-elimination
corollary, are facts about P alone; the tests check them here.  The
block-window product of Fiedler factors, and behind it the dense
products of elementary matrices M_i(X) and of system-matrix Fiedler
factors, are the references the block-map scatter and the bordered
builders of ``rosepencil.pencils`` are compared against, and
the per-eigenvalue loop is the reference for the stacked backward
errors of ``rosepencil.verify``, as the sorted Python loop is for its
eigenvalue clusters.  The RCISS of a permutation gives the
powers in the witness columns, and the optimal-assignment distance
compares eigenvalue multisets.  The probe
Cauchy-Maslov index counts eigenvalue jumps of G at p +/- delta; it is
the reference for the residue signatures of ``cauchy_maslov_index`` at
sizes where its offset and threshold resolve every pole (residues near
1, poles well apart).  Nothing in the library calls this module.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from rosepencil import tuples as tp
from rosepencil.pencils import BlockPencil, _resolve_assignment
from rosepencil.polymat import PolyMatrix
from rosepencil.realize import StructuralViolation
from rosepencil.verify import _as_polymat, pencil_eigenvalues


# ---------------------------------------------------------------------------
# block views

def _blk(M, i, j, n):
    """1-based n x n block view of a dense matrix."""
    return M[(i - 1) * n: i * n, (j - 1) * n: j * n]


def block_transpose_loop(M, m, n):
    """Reference for ``block_transpose_dense``: block (i, j) copied to
    (j, i), one block at a time."""
    out = np.empty_like(M)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            _blk(out, j, i, n)[:] = _blk(M, i, j, n)
    return out


# ---------------------------------------------------------------------------
# the reverse consecution-inversion structure sequence

@dataclass(frozen=True)
class Rciss:
    """Reverse consecution-inversion structure sequence
    (c_1, i_1, ..., c_l, i_l)."""
    pairs: tuple

    @property
    def ell(self):
        return len(self.pairs) // 2

    def c(self, j):
        """c_j, 1-based."""
        return self.pairs[2 * (j - 1)]

    def i(self, j):
        """i_j, 1-based."""
        return self.pairs[2 * (j - 1) + 1]

    def m_partial(self, j):
        """m_j = c_1 + ... + c_j (m_0 = 0)."""
        return sum(self.c(k) for k in range(1, j + 1))

    def n_partial(self, j):
        """n_j = i_1 + ... + i_j (n_0 = 0)."""
        return sum(self.i(k) for k in range(1, j + 1))

    def s_partial(self, j):
        return self.m_partial(j) + self.n_partial(j)


def rciss(alpha):
    """RCISS(alpha): scan adjacency relations from the top index m-2
    downwards, alternating consecution and inversion runs (c_1 may be 0,
    i_l may be 0)."""
    ords = tp._adjacent_orders(alpha)
    vals = ords[::-1]  # j = m-2 down to 0
    pairs = []
    i = 0
    n = len(vals)
    while True:
        c = 0
        while i < n and vals[i]:
            c += 1
            i += 1
        iv = 0
        while i < n and not vals[i]:
            iv += 1
            i += 1
        pairs += [c, iv]
        if i >= n:
            break
    return Rciss(pairs=tuple(pairs))



# ---------------------------------------------------------------------------
# Horner shifts, Lambda / Omega witness columns and the Q / R unimodular
# factors

def horner_shift(P, k):
    """P_k(lam) = A_m lam^k + A_{m-1} lam^{k-1} + ... + A_{m-k};
    P_0 = A_m and P_m = P."""
    if not 0 <= k <= P.m:
        raise ValueError(f"horner shift degree {k} out of range 0..{P.m}")
    return PolyMatrix(P.coeffs[P.m - k:].copy())


def _lambda_row_powers(alpha):
    rc = rciss(alpha)
    powers = []
    for j in range(1, rc.ell + 1):
        base = rc.m_partial(j - 1)
        powers += [base + t for t in range(rc.c(j))]
        powers += [None] * rc.i(j)
    powers.append(rc.m_partial(rc.ell))
    return powers


def _omega_col_powers(alpha):
    rc = rciss(alpha)
    powers = []
    for j in range(1, rc.ell + 1):
        base = rc.n_partial(j - 1)
        powers += [None] * rc.c(j)
        powers += [base + t for t in range(rc.i(j))]
    powers.append(rc.n_partial(rc.ell))
    return powers


def lambda_alpha(alpha, n):
    """Lambda_alpha(lam): mn x n column of monomial blocks driven by
    RCISS(alpha); bottom block is lam^{m_l} I_n."""
    powers = _lambda_row_powers(alpha)
    m = len(powers)
    deg = max(p for p in powers if p is not None)
    coeffs = np.zeros((deg + 1, m * n, n), dtype=complex)
    for k, p in enumerate(powers):
        if p is not None:
            coeffs[p, k * n: (k + 1) * n, :] = np.eye(n)
    return PolyMatrix(coeffs)


def omega_alpha(alpha, n):
    """Omega_alpha(lam): n x mn row of monomial blocks; last block is
    lam^{n_l} I_n."""
    powers = _omega_col_powers(alpha)
    m = len(powers)
    deg = max(p for p in powers if p is not None)
    coeffs = np.zeros((deg + 1, n, m * n), dtype=complex)
    for k, p in enumerate(powers):
        if p is not None:
            coeffs[p, :, k * n: (k + 1) * n] = np.eye(n)
    return PolyMatrix(coeffs)


def q_matrix(i, m, n):
    """Q_i(lam) = diag(I_{(i-1)n}, [[I, lam I], [0, I]], I_{(m-i-1)n})."""
    if not 1 <= i <= m - 1:
        raise ValueError(f"q_matrix index {i} out of range 1..{m - 1}")
    c0 = np.eye(m * n, dtype=complex)
    c1 = np.zeros((m * n, m * n), dtype=complex)
    _blk(c1, i, i + 1, n)[:] = np.eye(n)
    return PolyMatrix([c0, c1])


def r_matrix(i, P):
    """R_i(lam) = diag(I_{(i-1)n}, [[0, I], [I, P_i(lam)]], I_{(m-i-1)n})
    with P_i the Horner shift; satisfies R_i = R_i block-transposed."""
    m, n = P.m, P.n
    if not 1 <= i <= m - 1:
        raise ValueError(f"r_matrix index {i} out of range 1..{m - 1}")
    Pi = horner_shift(P, i)
    deg = Pi.coeffs.shape[0] - 1
    coeffs = np.zeros((deg + 1, m * n, m * n), dtype=complex)
    coeffs[0] = np.eye(m * n)
    _blk(coeffs[0], i, i, n)[:] = 0
    _blk(coeffs[0], i + 1, i + 1, n)[:] = 0
    _blk(coeffs[0], i, i + 1, n)[:] = np.eye(n)
    _blk(coeffs[0], i + 1, i, n)[:] = np.eye(n)
    for k in range(deg + 1):
        _blk(coeffs[k], i + 1, i + 1, n)[:] += Pi.coeff(k)
    return PolyMatrix(coeffs)


# ---------------------------------------------------------------------------
# appendix witness identities

def _unimodular_uv(alpha, P):
    """U and V products of the witness lemma from the RCISS of alpha."""
    m, n = P.m, P.n
    rc = rciss(alpha)
    eye = PolyMatrix.constant(np.eye(m * n))

    def qB(i):
        return q_matrix(i, m, n).transpose()  # block transpose = plain transpose here

    U = eye
    V = eye
    for j in range(1, rc.ell + 1):
        s0 = rc.s_partial(j - 1)
        cj, ij = rc.c(j), rc.i(j)
        Uj = eye
        for i in range(s0 + cj + ij, s0 + cj, -1):
            Uj = Uj @ r_matrix(i, P)          # R_i = R_i block-transposed
        for i in range(s0 + cj, s0, -1):
            Uj = Uj @ qB(i)
        Vj = eye
        for i in range(s0 + 1, s0 + cj + 1):
            Vj = Vj @ r_matrix(i, P)
        for i in range(s0 + cj + 1, s0 + cj + ij + 1):
            Vj = Vj @ q_matrix(i, m, n)
        U = Uj @ U
        V = V @ Vj
    return U, V


def elimination_witness(Xcol, Yrow, m, n, tol=1e-10):
    """Block-Gaussian identity: for Z = diag(I_{(m-1)n}, 0) + X Y with
    monomial block column X and block row Y such that x_i y_i = 0 for
    i < m, the unit triangular L, U with entries -Z_{i,j} satisfy
    L Z U = diag(I_{(m-1)n}, x_m y_m).  Returns the max residual."""
    Z = Xcol @ Yrow
    base = np.zeros((m * n, m * n), dtype=complex)
    base[: (m - 1) * n, : (m - 1) * n] = np.eye((m - 1) * n)
    Z = Z + PolyMatrix.constant(base)

    dz = Z.coeffs.shape[0]
    Lc = np.zeros((dz, m * n, m * n), dtype=complex)
    Uc = np.zeros((dz, m * n, m * n), dtype=complex)
    Lc[0] = np.eye(m * n)
    Uc[0] = np.eye(m * n)
    for k in range(dz):
        for i in range(m):
            for j in range(m):
                blkv = Z.coeffs[k, i * n: (i + 1) * n, j * n: (j + 1) * n]
                if i > j:
                    Lc[k, i * n: (i + 1) * n, j * n: (j + 1) * n] -= blkv
                elif i < j:
                    Uc[k, i * n: (i + 1) * n, j * n: (j + 1) * n] -= blkv
    L = PolyMatrix(Lc)
    U = PolyMatrix(Uc)
    result = L @ Z @ U

    xm = PolyMatrix(Xcol.coeffs[:, (m - 1) * n: m * n, :])
    ym = PolyMatrix(Yrow.coeffs[:, :, (m - 1) * n: m * n])
    tgt = xm @ ym
    dmax = max(result.coeffs.shape[0], tgt.coeffs.shape[0])
    res = 0.0
    for k in range(dmax):
        expect = np.zeros((m * n, m * n), dtype=complex)
        if k == 0:
            expect[: (m - 1) * n, : (m - 1) * n] = np.eye((m - 1) * n)
        expect[(m - 1) * n:, (m - 1) * n:] = tgt.coeff(k)
        res = max(res, float(np.max(np.abs(result.coeff(k) - expect))))
    return res


@dataclass(frozen=True)
class AppendixReport:
    ok: bool
    lambda_residual: float
    omega_residual: float
    corollary_residual: float

    def __bool__(self):
        return self.ok

    @property
    def max_residual(self):
        return max(self.lambda_residual, self.omega_residual,
                   self.corollary_residual)


def appendix_witnesses(alpha, P, seed=3, tol=1e-10):
    """Check the witness identities: U (e_1 (x) I) = Lambda_alpha,
    (e_1^T (x) I) V = Omega_alpha at 5 random lam, and the corollary
    T1 (diag(I,0) + Lambda Omega) T2 = diag(I, lam^{m-1} I)."""
    m, n = P.m, P.n
    alpha = tuple(alpha)
    U, V = _unimodular_uv(alpha, P)
    lam_a = lambda_alpha(alpha, n)
    ome_a = omega_alpha(alpha, n)
    rng = np.random.default_rng(seed)
    pts = [complex(rng.normal(), rng.normal()) for _ in range(5)]
    e1 = np.zeros((m * n, n), dtype=complex)
    e1[:n] = np.eye(n)
    res_l = max(float(np.max(np.abs(U(z) @ e1 - lam_a(z)))) for z in pts)
    res_o = max(float(np.max(np.abs(e1.T @ V(z) - ome_a(z)))) for z in pts)

    res_c = elimination_witness(lam_a, ome_a, m, n, tol=tol)

    ok = res_l <= tol and res_o <= tol and res_c <= tol
    return AppendixReport(ok=ok, lambda_residual=res_l, omega_residual=res_o,
                          corollary_residual=res_c)


def argument_principle_count(X, Y, center=0.0, radius=10.0, samples=4096):
    """Number of roots of det(X + lam Y) inside the circle, by winding
    number of the determinant along the contour (independent oracle)."""
    ang = 2 * np.pi * np.arange(samples + 1) / samples
    pts = center + radius * np.exp(1j * ang)
    vals = np.array([np.linalg.det(X + z * Y) for z in pts])
    phase = np.unwrap(np.angle(vals))
    return int(round((phase[-1] - phase[0]) / (2 * np.pi)))


# ---------------------------------------------------------------------------
# Fiedler factors of P and S, dense products, and product equality

def elementary_matrix(i, X, m, n):
    """M_i(X), an mn x mn matrix, for i in {-m : m-1}."""
    X = np.asarray(X, dtype=complex)
    if X.shape != (n, n):
        raise ValueError(f"X must be {n}x{n}")
    if not -m <= i <= m - 1:
        raise ValueError(f"index {i} out of range {{-{m}:{m - 1}}}")
    M = np.eye(m * n, dtype=complex)
    I = np.eye(n, dtype=complex)
    if i == 0:
        _blk(M, m, m, n)[:] = X
    elif i > 0:
        k = m - i  # 1-based top row of the 2x2 window
        _blk(M, k, k, n)[:] = X
        _blk(M, k, k + 1, n)[:] = I
        _blk(M, k + 1, k, n)[:] = I
        _blk(M, k + 1, k + 1, n)[:] = 0
    elif i == -m:
        _blk(M, 1, 1, n)[:] = X
    else:
        k = m + i  # window rows k, k+1 for i = -(m-k)
        _blk(M, k, k, n)[:] = 0
        _blk(M, k, k + 1, n)[:] = I
        _blk(M, k + 1, k, n)[:] = I
        _blk(M, k + 1, k + 1, n)[:] = X
    return M




def window_assign_product(t, mats, m, n):
    """Product of M_i(X_i) over the tuple, left to right, at O(mn n^2) per
    factor: M_i(X) is the identity outside block window w, which holds X
    (i = 0: last block; i = -m: first) or [[X, I], [I, 0]] (i > 0) or
    [[0, I], [I, X]] (i < 0) at blocks m -/+ i and the next, so
    out @ M_i(X) changes only out[:, w].  Any tuple, SIP or not; the
    reference for the block-map scatter of ``rosepencil.pencils``."""
    out = np.eye(m * n, dtype=complex)
    pos = np.zeros((2 * n, 2 * n), dtype=complex)
    pos[:n, n:] = pos[n:, :n] = np.eye(n)
    neg = pos.copy()  # the windows, X written in per factor
    for i, X in zip(t, mats):
        X = np.asarray(X, dtype=complex)
        if X.shape != (n, n):
            raise ValueError(f"X must be {n}x{n}")
        if not -m <= i <= m - 1:
            raise ValueError(f"index {i} out of range {{-{m}:{m - 1}}}")
        if i in (0, -m):
            k, W = (m if i == 0 else 1), X
        elif i > 0:
            k, W = m - i, pos
            W[:n, :n] = X
        else:
            k, W = m + i, neg
            W[n:, n:] = X
        w = slice((k - 1) * n, (k - 1) * n + W.shape[0])
        out[:, w] = out[:, w] @ W
    return out


def window_sides(recipe, P):
    """(tuple, assignments) of the two products of a GFPR recipe, its
    decorations included, for window_assign_product."""
    return [(sum((t for t, _ in side), ()),
             sum((_resolve_assignment(t, a, P) for t, a in side), ()))
            for side in recipe.sides()]


def dense_assign_product(t, mats, m, n):
    """Reference for ``window_assign_product``: the dense product of the
    elementary matrices M_i(X_i), left to right."""
    out = np.eye(m * n, dtype=complex)
    for i, X in zip(t, mats):
        out = out @ elementary_matrix(i, X, m, n)
    return out


def fiedler_matrix_P(i, P):
    """M_i^P = M_i(-A_i) for i >= 0 and M_i(A_{-i}) for i < 0."""
    m, n = P.m, P.n
    if i >= 0:
        return elementary_matrix(i, -P.coeff(i), m, n)
    return elementary_matrix(i, P.coeff(-i), m, n)


def fiedler_matrix_S(i, re):
    """System-matrix Fiedler factor of size mn + r.

    i = 0 carries the -e_m (x) C column, -e_m^T (x) B row and -A corner;
    i = -m is diag(M_{-m}(A_m), -E); all other i are diag(M_i^P, I_r).
    """
    P = re.P
    m, n, r = P.m, P.n, re.r
    N = m * n + r
    M = np.zeros((N, N), dtype=complex)
    if i == 0:
        M[: m * n, : m * n] = fiedler_matrix_P(0, P)
        M[(m - 1) * n: m * n, m * n:] = -re.C
        M[m * n:, (m - 1) * n: m * n] = -re.B
        M[m * n:, m * n:] = -re.A
    elif i == -m:
        M[: m * n, : m * n] = fiedler_matrix_P(-m, P)
        M[m * n:, m * n:] = -re.E
    else:
        M[: m * n, : m * n] = fiedler_matrix_P(i, P)
        M[m * n:, m * n:] = np.eye(r)
    return M


def _fiedler_product_S(t, re):
    N = re.m * re.n + re.r
    out = np.eye(N, dtype=complex)
    for i in t:
        out = out @ fiedler_matrix_S(i, re)
    return out


def product_equal(t1, t2, context, a1=None, a2=None, tol=0.0):
    """Exact/tolerance equality of the two Fiedler(-decorated) matrix
    products; context is a MatrixPolynomial (mn products) or a
    Realization (system-matrix products, trivial assignments only)."""
    if hasattr(context, "g_eval"):  # Realization
        if a1 is not None or a2 is not None:
            raise ValueError("system-matrix products take no assignments")
        M1 = _fiedler_product_S(tuple(t1), context)
        M2 = _fiedler_product_S(tuple(t2), context)
    else:
        P = context
        m, n = P.m, P.n
        M1 = window_assign_product(tuple(t1), _resolve_assignment(tuple(t1), a1, P),
                                   m, n)
        M2 = window_assign_product(tuple(t2), _resolve_assignment(tuple(t2), a2, P),
                                   m, n)
    if tol == 0.0:
        return bool(np.array_equal(M1, M2))
    return bool(np.max(np.abs(M1 - M2)) <= tol)


# ---------------------------------------------------------------------------
# backward errors, one eigenvalue at a time

def multiset_distance(a, b):
    """Max pairing distance between two eigenvalue multisets (optimal
    assignment); inf when the sizes differ."""
    import scipy.optimize

    a, b = list(a), list(b)
    if len(a) != len(b):
        return float("inf")
    if not a:
        return 0.0
    D = np.abs(np.subtract.outer(np.array(a), np.array(b)))
    rows, cols = scipy.optimize.linear_sum_assignment(D)
    return float(D[rows, cols].max())


def backward_errors_loop(M, eigenvalues):
    """Reference for ``backward_errors``: eta(z) = sigma_min(M(z)) /
    sum_j ||M_j||_2 |z|^j by one SVD per eigenvalue."""
    pm = _as_polymat(M)
    norms = [np.linalg.norm(pm.coeff(j), 2) for j in range(pm.degree + 1)]
    out = []
    for z in eigenvalues:
        s = np.linalg.svd(pm(z), compute_uv=False)
        scale = sum(c * abs(z) ** j for j, c in enumerate(norms))
        out.append(float(s[-1]) / max(scale, 1e-300))
    return out


def eig_clusters_loop(X, Y, cluster_tol=1e-6):
    """Reference for the clusters of ``verify._eig_clusters``: QZ by
    scipy.linalg.eigvals, the finite values sorted by a Python key of
    rounded real and imaginary parts and merged by a loop over numpy
    scalars."""
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    if not (X.imag.any() or Y.imag.any()):
        X, Y = X.real, Y.real
    alpha, beta = scipy.linalg.eigvals(-X, Y, homogeneous_eigvals=True)
    if X.dtype != complex:
        j = np.flatnonzero(alpha.imag > 0)
        alpha[j + 1], beta[j + 1] = alpha[j].conj(), beta[j]
    tol = np.sqrt(np.finfo(float).eps)
    b = np.abs(beta) / max(float(np.linalg.norm(Y)), 1e-300)
    z = alpha / np.where(b > tol, beta, 1.0)
    out = []
    for i in sorted(np.flatnonzero(b > tol),
                    key=lambda i: (round(z[i].real, 8), round(z[i].imag, 8))):
        if out and abs(z[i] - out[-1][0]) <= cluster_tol * (1.0 + abs(z[i])):
            zc, idx = out[-1]
            out[-1] = ((zc * len(idx) + z[i]) / (len(idx) + 1), idx + [i])
        else:
            out.append((z[i], [i]))
    return out


# ---------------------------------------------------------------------------
# transfer function of a bordered pencil, and the probe Cauchy-Maslov index

def transfer_function_eval(pencil, lam):
    """Transfer function of a bordered pencil: with value blocks
    [[T(lam), Cs], [Bs, D(lam)]] (split at mn), returns
    T(lam) - Cs D(lam)^{-1} Bs."""
    V = pencil.eval(lam)
    k = pencil.m * pencil.n
    T, Cs, Bs, D = V[:k, :k], V[:k, k:], V[k:, :k], V[k:, k:]
    if D.size == 0:
        return T
    return T - Cs @ np.linalg.solve(D, Bs)


class CmResolutionError(RuntimeError):
    """Poles too close for the probe offset to separate them."""


def _cm_core(eval_fn, poles, delta, bound):
    poles = sorted(poles)
    deltas = [delta if delta is not None else 1e-4 * (1.0 + abs(p)) for p in poles]
    for (p1, d1), (p2, d2) in zip(zip(poles, deltas), zip(poles[1:], deltas[1:])):
        if p2 - p1 < 2 * (d1 + d2):
            raise CmResolutionError(
                f"poles {p1} and {p2} are closer than the probe offsets")
    idx = 0
    details = []
    for p, d in zip(poles, deltas):
        # adaptive default: a residue of size rho produces probe values of
        # magnitude rho/d, so 0.1/d registers every residue above 0.1
        M = bound if bound is not None else 0.1 / d
        jumps = {}
        for side, lam in (("-", p - d), ("+", p + d)):
            G = eval_fn(lam)
            if np.max(np.abs(G.imag)) > 1e-8 * max(np.max(np.abs(G)), 1.0):
                raise StructuralViolation(f"G({lam}) is not real; Cauchy-Maslov "
                                          "index needs a real symmetric matrix")
            ev = np.linalg.eigvalsh((G.real + G.real.T) / 2.0)
            jumps[side] = (int(np.sum(ev < -M)), int(np.sum(ev > M)))
        plus = min(jumps["-"][0], jumps["+"][1])    # -inf -> +inf
        minus = min(jumps["-"][1], jumps["+"][0])   # +inf -> -inf
        idx += plus - minus
        details.append((p, plus, minus))
    return idx, details


def probe_cauchy_maslov_index(re_or_pencil, delta=None, bound=None, details=False):
    """Cauchy-Maslov index of a real symmetric G (realization input) or
    of the transfer function of a real symmetric linearization (pencil
    input): sum over real poles of the eigenvalue jumps through
    infinity, sign-counted."""
    if isinstance(re_or_pencil, BlockPencil):
        pencil = re_or_pencil
        k = pencil.m * pencil.n

        def ev(lam):
            return transfer_function_eval(pencil, lam)

        eigs = pencil_eigenvalues(pencil.X[k:, k:], pencil.Y[k:, k:])
    else:
        re = re_or_pencil

        def ev(lam):
            return re.g_eval(lam)

        if re.r == 0:
            return (0, []) if details else 0
        eigs = pencil_eigenvalues(re.A, -re.E)
    poles = [z.real for z, _ in eigs if abs(z.imag) <= 1e-8 * (1.0 + abs(z))]
    idx, det = _cm_core(ev, poles, delta, bound)
    return (idx, det) if details else idx
