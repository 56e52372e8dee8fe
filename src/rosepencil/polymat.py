"""Matrix polynomials and the block-matrix toolkit.

Scalars are complex doubles throughout; constructions on small integer
data stay exact, and the structure predicates expose an ``exact`` flag
for that mode.

Block convention: an mn x mn matrix is an m x m grid of n x n blocks;
block indices in the public API are 1-based to match the e_k notation
used by the bordered formulas.
"""

from dataclasses import dataclass

import numpy as np

from . import tuples as tp

__all__ = [
    "PolyMatrix", "MatrixPolynomial",
    "elementary_matrix", "fiedler_matrix_P", "fiedler_matrix_S",
    "block_transpose_dense",
    "lambda_alpha", "omega_alpha", "q_matrix", "r_matrix",
    "structure_check", "StructureReport", "STRUCTURE_TAGS",
    "quasi_identity_matrix",
]


def _as_coeff_stack(coeffs):
    arr = np.array(coeffs, dtype=complex)
    if arr.ndim != 3:
        raise ValueError("expected a list of equal-shape 2-d coefficient matrices")
    return arr


class PolyMatrix:
    """Dense rectangular polynomial matrix sum_k lam^k C_k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = _as_coeff_stack(coeffs)

    @classmethod
    def constant(cls, M):
        return cls([np.asarray(M, dtype=complex)])

    @classmethod
    def monomial(cls, M, k):
        M = np.asarray(M, dtype=complex)
        stack = [np.zeros_like(M) for _ in range(k)] + [M]
        return cls(stack)

    @property
    def shape(self):
        return self.coeffs.shape[1:]

    @property
    def degree(self):
        d = self.coeffs.shape[0] - 1
        while d > 0 and not self.coeffs[d].any():
            d -= 1
        return d

    def coeff(self, k):
        if k >= self.coeffs.shape[0]:
            return np.zeros(self.shape, dtype=complex)
        return self.coeffs[k]

    def trim(self):
        return PolyMatrix(self.coeffs[: self.degree + 1])

    def __call__(self, lam):
        out = np.zeros(self.shape, dtype=complex)
        for c in self.coeffs[::-1]:
            out = lam * out + c
        return out

    def __matmul__(self, other):
        if isinstance(other, np.ndarray):
            other = PolyMatrix.constant(other)
        da, db = self.coeffs.shape[0] - 1, other.coeffs.shape[0] - 1
        rows = self.shape[0]
        cols = other.shape[1]
        out = np.zeros((da + db + 1, rows, cols), dtype=complex)
        for a in range(da + 1):
            for b in range(db + 1):
                out[a + b] += self.coeffs[a] @ other.coeffs[b]
        return PolyMatrix(out).trim()

    def __rmatmul__(self, other):
        if isinstance(other, np.ndarray):
            return PolyMatrix.constant(other) @ self
        return NotImplemented

    def _binop(self, other, sign):
        if isinstance(other, np.ndarray):
            other = PolyMatrix.constant(other)
        d = max(self.coeffs.shape[0], other.coeffs.shape[0])
        out = np.zeros((d,) + self.shape, dtype=complex)
        out[: self.coeffs.shape[0]] = self.coeffs
        out[: other.coeffs.shape[0]] += sign * other.coeffs
        return PolyMatrix(out)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return PolyMatrix(-self.coeffs)

    def transpose(self):
        return PolyMatrix(np.transpose(self.coeffs, (0, 2, 1)))

    @property
    def T(self):
        return self.transpose()

    def conj_transpose(self):
        return PolyMatrix(np.conj(np.transpose(self.coeffs, (0, 2, 1))))

    def subs_neg(self):
        """P(-lam)."""
        out = self.coeffs.copy()
        out[1::2] *= -1
        return PolyMatrix(out)

    def equals(self, other, tol=0.0):
        d = max(self.coeffs.shape[0], other.coeffs.shape[0])
        for k in range(d):
            if not np.allclose(self.coeff(k), other.coeff(k), rtol=0, atol=tol):
                return False
        return True

    def __repr__(self):
        return f"PolyMatrix(shape={self.shape}, degree={self.degree})"


class MatrixPolynomial(PolyMatrix):
    """Square matrix polynomial P(lam) = sum_{j=0}^m lam^j A_j with A_m != 0."""

    __slots__ = ()

    def __init__(self, coeffs):
        super().__init__(coeffs)
        if self.shape[0] != self.shape[1]:
            raise ValueError("matrix polynomial must be square")
        if not self.coeffs[-1].any():
            raise ValueError("leading coefficient A_m must be nonzero")

    @property
    def n(self):
        return self.shape[0]

    @property
    def m(self):
        return self.coeffs.shape[0] - 1

    def rev(self):
        """rev P(lam) = lam^m P(1/lam): reversed coefficient list."""
        return MatrixPolynomial(self.coeffs[::-1].copy())

    def horner_shift(self, k):
        """P_k(lam) = A_m lam^k + A_{m-1} lam^{k-1} + ... + A_{m-k};
        P_0 = A_m and P_m = P."""
        if not 0 <= k <= self.m:
            raise ValueError(f"horner shift degree {k} out of range 0..{self.m}")
        return PolyMatrix(self.coeffs[self.m - k:].copy())


# ---------------------------------------------------------------------------
# elementary and Fiedler matrices

def _blk(M, i, j, n):
    """1-based n x n block view of a dense matrix."""
    return M[(i - 1) * n: i * n, (j - 1) * n: j * n]


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


# ---------------------------------------------------------------------------
# block transpose

def block_transpose_dense(M, m, n):
    """Transpose at the block level (blocks themselves unchanged)."""
    M = np.asarray(M)
    if M.shape != (m * n, m * n):
        raise ValueError("size mismatch for block transpose")
    out = np.empty_like(M)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            _blk(out, j, i, n)[:] = _blk(M, i, j, n)
    return out


# ---------------------------------------------------------------------------
# Lambda / Omega witness columns and the Q / R unimodular factors

def _lambda_row_powers(alpha):
    rc = tp.rciss(alpha)
    powers = []
    for j in range(1, rc.ell + 1):
        base = rc.m_partial(j - 1)
        powers += [base + t for t in range(rc.c(j))]
        powers += [None] * rc.i(j)
    powers.append(rc.m_partial(rc.ell))
    return powers


def _omega_col_powers(alpha):
    rc = tp.rciss(alpha)
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
    Pi = P.horner_shift(i)
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
# structure predicates

# tag -> (use conjugate transpose?, sign rule s_j with A_j^H = s_j A_j)
_STRUCTURE_RULES = {
    "symmetric": (False, lambda j: 1),
    "skew-symmetric": (False, lambda j: -1),
    "t-even": (False, lambda j: (-1) ** j),
    "t-odd": (False, lambda j: -((-1) ** j)),
    "hermitian": (True, lambda j: 1),
    "skew-hermitian": (True, lambda j: -1),
    "para-hermitian": (True, lambda j: (-1) ** j),
    "para-skew-hermitian": (True, lambda j: -((-1) ** j)),
}

_TAG_ALIASES = {
    "hamiltonian": "t-even",
    "skew-hamiltonian": "t-odd",
}

STRUCTURE_TAGS = tuple(_STRUCTURE_RULES) + tuple(_TAG_ALIASES)


def normalize_tag(tag):
    tag = tag.lower().replace("_", "-")
    tag = _TAG_ALIASES.get(tag, tag)
    if tag not in _STRUCTURE_RULES:
        raise ValueError(f"unknown structure tag {tag!r}")
    return tag


@dataclass(frozen=True)
class StructureReport:
    ok: bool
    tag: str
    coeff_index: int = -1
    entry: tuple = ()
    deviation: float = 0.0

    def __bool__(self):
        return self.ok


def _coeff_list(M):
    if isinstance(M, PolyMatrix):
        return [M.coeff(k) for k in range(M.degree + 1)]
    if hasattr(M, "coeff_list"):  # BlockPencil and friends
        return M.coeff_list()
    arr = np.asarray(M, dtype=complex)
    if arr.ndim == 2:
        return [arr]
    return list(arr)


def _structure_tol(coeffs, tol, exact):
    """The tolerance structure_check applies to these coefficients."""
    scale = max((float(np.max(np.abs(c))) for c in coeffs), default=0.0)
    if tol is None:
        tol = 0.0 if exact else 1e-12 * scale
    return tol


def structure_check(M, tag, tol=None, exact=False):
    """Coefficient-level structure predicate per the standard table,
    e.g. T-even iff A_j^T = (-1)^j A_j.  Default tolerance is
    1e-12 * max |entry|; exact=True demands equality to the bit."""
    tag = normalize_tag(tag)
    conj, sign = _STRUCTURE_RULES[tag]
    coeffs = _coeff_list(M)
    tol = _structure_tol(coeffs, tol, exact)
    for j, A in enumerate(coeffs):
        if A.shape[0] != A.shape[1]:
            raise ValueError("structure_check needs square coefficients")
        At = A.conj().T if conj else A.T
        D = np.abs(At - sign(j) * A)
        dev = float(D.max()) if D.size else 0.0
        if dev > tol:
            idx = np.unravel_index(int(D.argmax()), D.shape)
            return StructureReport(False, tag, j, (int(idx[0]), int(idx[1])), dev)
    return StructureReport(True, tag)


def quasi_identity_matrix(signs, n, r=0):
    """diag(eps_1 I_n, ..., eps_m I_n [, I_r])."""
    diag = []
    for s in signs:
        diag += [s] * n
    diag += [1] * r
    return np.diag(np.array(diag, dtype=complex))
