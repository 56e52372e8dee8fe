"""Rational matrices in realization form and their system matrices.

G(lam) = P(lam) + C (lam E - A)^{-1} B with E nonsingular; the system
matrix stacks P with the pencil A - lam E:

    S(lam) = [[P(lam), C], [B, A - lam E]].

The structured constructors store every structured rational matrix in
this one canonical shape, absorbing sign/corner conventions into C, E, A
so that the pencil builders never need special cases:

- T-odd:            G = P + B^T (lam I - A0)^{-1} B, A0 skew
                    -> C = -B^T, E = -I, A = -A0  (corner lam I - A0)
- skew-symmetric:   G = P + B^T (lam E0 - A0)^{-1} B, E0/A0 skew
                    -> C = -B^T, E = -E0, A = -A0
- skew-Hamiltonian: G = P + B^T J^T (lam I - A0)^{-1} B, J A0 skew,
                    P skew-symmetric (G itself is skew-symmetric)
                    -> C = -B^T J^T, E = -I, A = -A0
"""

from dataclasses import dataclass, field

import numpy as np

from .polymat import MatrixPolynomial, PolyMatrix, structure_check

__all__ = [
    "Realization", "SystemMatrix", "system_matrix", "is_minimal",
    "make_structured_realization", "transfer_function_eval",
    "j_matrix", "jay", "StructuralViolation",
]


class StructuralViolation(ValueError):
    """An ingredient fails a named structural hypothesis."""


def j_matrix(ell):
    """J = [[0, I_ell], [-I_ell, 0]]."""
    J = np.zeros((2 * ell, 2 * ell), dtype=complex)
    J[:ell, ell:] = np.eye(ell)
    J[ell:, :ell] = -np.eye(ell)
    return J


def jay(k, r):
    """diag(I_k, J_{r/2}) -- the bordered-J used by the Hamiltonian maps."""
    out = np.eye(k + r, dtype=complex)
    out[k:, k:] = j_matrix(r // 2)
    return out


@dataclass(frozen=True)
class Realization:
    P: MatrixPolynomial
    C: np.ndarray
    E: np.ndarray
    A: np.ndarray
    B: np.ndarray
    structure: str | None = None

    def __post_init__(self):
        n = self.P.n
        r = self.E.shape[0]
        for name, M, shape in (("C", self.C, (n, r)), ("E", self.E, (r, r)),
                               ("A", self.A, (r, r)), ("B", self.B, (r, n))):
            if M.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {M.shape}")
        if r > 0 and abs(np.linalg.det(self.E)) == 0:
            raise ValueError("E must be nonsingular")

    @property
    def n(self):
        return self.P.n

    @property
    def m(self):
        return self.P.m

    @property
    def r(self):
        return self.E.shape[0]

    def g_eval(self, lam):
        """G(lam) = P(lam) + C (lam E - A)^{-1} B."""
        out = self.P(lam)
        if self.r:
            out = out + self.C @ np.linalg.solve(lam * self.E - self.A, self.B)
        return out

    def sp_eval(self, lam):
        """Strictly proper part G_sp(lam) = C (lam E - A)^{-1} B."""
        if self.r == 0:
            return np.zeros((self.n, self.n), dtype=complex)
        return self.C @ np.linalg.solve(lam * self.E - self.A, self.B)


@dataclass(frozen=True)
class SystemMatrix:
    """S(lam) = [[P(lam), C], [B, A - lam E]] of size n + r."""
    re: Realization

    @property
    def size(self):
        return self.re.n + self.re.r

    def __call__(self, lam):
        re = self.re
        n, r = re.n, re.r
        out = np.zeros((n + r, n + r), dtype=complex)
        out[:n, :n] = re.P(lam)
        out[:n, n:] = re.C
        out[n:, :n] = re.B
        out[n:, n:] = re.A - lam * re.E
        return out

    def as_poly(self):
        """The system matrix as a PolyMatrix of degree m."""
        re = self.re
        n, r, m = re.n, re.r, re.m
        coeffs = np.zeros((m + 1, n + r, n + r), dtype=complex)
        for k in range(m + 1):
            coeffs[k, :n, :n] = re.P.coeff(k)
        coeffs[0, :n, n:] = re.C
        coeffs[0, n:, :n] = re.B
        coeffs[0, n:, n:] = re.A
        coeffs[1, n:, n:] += -re.E
        return PolyMatrix(coeffs)

    def coeff_list(self):
        p = self.as_poly()
        return [p.coeff(k) for k in range(p.degree + 1)]


def system_matrix(re):
    return SystemMatrix(re)


@dataclass(frozen=True)
class MinimalityReport:
    ok: bool
    failed_at: complex = 0j
    condition: str = ""

    def __bool__(self):
        return self.ok


def is_minimal(re, tol=1e-10):
    """Check rank[B, A - lam E] = r = rank[C; A - lam E] for all lam.

    Rank can only drop at eigenvalues of (A, E), so those finitely many
    points are checked; singular values below tol * sigma_max count as 0.
    """
    from .verify import pencil_eigenvalues  # local import: verify uses realize

    r = re.r
    if r == 0:
        return MinimalityReport(True)
    eigs = pencil_eigenvalues(re.A, -re.E)
    for mu, _ in eigs:
        ctrl = np.hstack([re.B, re.A - mu * re.E])
        obsv = np.vstack([re.C, re.A - mu * re.E])
        for M, name in ((ctrl, "controllability"), (obsv, "observability")):
            s = np.linalg.svd(M, compute_uv=False)
            rank = int(np.sum(s > tol * max(s[0], 1e-300)))
            if rank < r:
                return MinimalityReport(False, mu, name)
    return MinimalityReport(True)


def _req(cond, msg):
    if not cond:
        raise StructuralViolation(msg)


def _is_sym(M, skew=False):
    return np.array_equal(M.T, -M if skew else M)


def make_structured_realization(kind, P, A, B, E=None, structure_exact=True):
    """Build a validated structured realization in canonical form.

    kind in {symmetric, t-even, t-odd, hamiltonian, skew-hamiltonian,
    skew-symmetric}.  P is the polynomial part; A, B (and E where it is
    free) are the raw state-space data in the shape stated for each kind
    in the module docstring.
    """
    kind = kind.lower().replace("_", "-")
    r = A.shape[0]
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if E is None and kind in ("t-even", "skew-symmetric"):
        raise ValueError(f"{kind} realization needs E")

    if kind == "symmetric":
        E = np.eye(r, dtype=complex) if E is None else np.asarray(E, dtype=complex)
        _req(structure_check(P, "symmetric", exact=structure_exact), "P not symmetric")
        _req(_is_sym(A), "A not symmetric")
        _req(_is_sym(E), "E not symmetric")
        return Realization(P, C=B.T.copy(), E=E, A=A, B=B, structure="symmetric")

    if kind == "t-even":
        E = np.asarray(E, dtype=complex)
        _req(structure_check(P, "t-even", exact=structure_exact), "P not T-even")
        _req(_is_sym(A), "A not symmetric")
        _req(_is_sym(E, skew=True), "E not skew-symmetric")
        return Realization(P, C=B.T.copy(), E=E, A=A, B=B, structure="t-even")

    if kind == "t-odd":
        _req(E is None or np.array_equal(E, np.eye(r)), "T-odd realization has E = I")
        _req(structure_check(P, "t-odd", exact=structure_exact), "P not T-odd")
        _req(_is_sym(A, skew=True), "A not skew-symmetric")
        return Realization(P, C=-B.T.copy(), E=-np.eye(r, dtype=complex), A=-A, B=B,
                           structure="t-odd")

    if kind == "skew-symmetric":
        E = np.asarray(E, dtype=complex)
        _req(structure_check(P, "skew-symmetric", exact=structure_exact),
             "P not skew-symmetric")
        _req(_is_sym(A, skew=True), "A not skew-symmetric")
        _req(_is_sym(E, skew=True), "E not skew-symmetric")
        return Realization(P, C=-B.T.copy(), E=-E, A=-A, B=B,
                           structure="skew-symmetric")

    if kind == "hamiltonian":
        _req(E is None or np.array_equal(E, np.eye(r)),
             "Hamiltonian realization has E = I")
        _req(r % 2 == 0, "Hamiltonian realization needs even r")
        J = j_matrix(r // 2)
        _req(structure_check(P, "t-even", exact=structure_exact), "P not T-even")
        _req(_is_sym(J @ A), "J A not symmetric (A not Hamiltonian)")
        return Realization(P, C=(B.T @ J.T), E=np.eye(r, dtype=complex), A=A, B=B,
                           structure="hamiltonian")

    if kind == "skew-hamiltonian":
        _req(E is None or np.array_equal(E, np.eye(r)),
             "skew-Hamiltonian realization has E = I")
        _req(r % 2 == 0, "skew-Hamiltonian realization needs even r")
        J = j_matrix(r // 2)
        _req(structure_check(P, "skew-symmetric", exact=structure_exact),
             "P not skew-symmetric")
        _req(_is_sym(J @ A, skew=True), "J A not skew-symmetric")
        return Realization(P, C=-(B.T @ J.T), E=-np.eye(r, dtype=complex), A=-A, B=B,
                           structure="skew-hamiltonian")

    raise ValueError(f"unknown structured kind {kind!r}")


def hamiltonian_to_t_even(re):
    """Convert a Hamiltonian realization (E = I, C = B^T J^T, JA symmetric)
    to the T-even realization diag(I, J) * S: A := JA, B := JB, E := J.
    The T-even linearization of the result equals diag(I_mn, J) times the
    Hamiltonian linearization of the input."""
    _req(re.structure == "hamiltonian", "expects a Hamiltonian realization")
    J = j_matrix(re.r // 2)
    return make_structured_realization("t-even", re.P, J @ re.A, J @ re.B, E=J)


def skew_hamiltonian_to_skew_symmetric(re):
    """Convert a skew-Hamiltonian realization (corner lam I - A0, JA0
    skew) to the skew-symmetric realization diag(I, J) * S: A := J A0,
    B := J B, E := J.  The skew-symmetric linearization of the result
    equals diag(I_mn, J) times the skew-Hamiltonian linearization of the
    input."""
    _req(re.structure == "skew-hamiltonian", "expects a skew-Hamiltonian realization")
    J = j_matrix(re.r // 2)
    # stored form has A = -A0, C = -B^T J^T; unwind before converting
    A0 = -re.A
    return make_structured_realization("skew-symmetric", re.P, J @ A0, J @ re.B, E=J)


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
