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

__all__ = [
    "PolyMatrix", "MatrixPolynomial",
    "block_transpose_dense",
    "structure_check", "StructureReport", "STRUCTURE_TAGS",
    "quasi_identity_diagonal",
    "quasi_identity_matrix",
]


def _nonsingular(M):
    """False only when LU meets an exact zero pivot, the verdict of
    det(M) == 0 without its underflow: slogdet's sign."""
    return np.linalg.slogdet(M)[0] != 0


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


# ---------------------------------------------------------------------------
# block transpose

def block_transpose_dense(M, m, n):
    """Transpose at the block level (blocks themselves unchanged)."""
    M = np.asarray(M)
    if M.shape != (m * n, m * n):
        raise ValueError("size mismatch for block transpose")
    out = np.empty_like(M)
    out.reshape(m, n, m, n)[:] = M.reshape(m, n, m, n).transpose(2, 1, 0, 3)
    return out


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

STRUCTURE_TAGS = tuple(_STRUCTURE_RULES)


def normalize_tag(tag):
    tag = tag.lower().replace("_", "-")
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
    if isinstance(M, (list, tuple)):   # [X, Y]: one by one, no stacked copy
        coeffs = [np.asarray(A, dtype=complex) for A in M]
        if len({A.shape for A in coeffs}) == 1 and coeffs[0].ndim == 2:
            return coeffs
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


def quasi_identity_diagonal(signs, n, r=0):
    """The diagonal (eps_1 1_n, ..., eps_m 1_n [, 1_r]) as a float array."""
    return np.repeat(np.append(np.asarray(signs, dtype=float), 1.0), [n] * len(signs) + [r])


def quasi_identity_matrix(signs, n, r=0):
    """diag(eps_1 I_n, ..., eps_m I_n [, I_r])."""
    return np.diag(quasi_identity_diagonal(signs, n, r).astype(complex))
