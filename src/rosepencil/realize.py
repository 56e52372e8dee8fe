"""Rational matrices in realization form and their system matrices.

G(lam) = P(lam) + C (lam E - A)^{-1} B with E nonsingular; the system
matrix stacks P with the pencil A - lam E:

    S(lam) = [[P(lam), C], [B, A - lam E]].

The structured constructors store every structured rational matrix in
this one canonical shape, so the pencil builders need no special cases.
STRUCTURED_KINDS holds, per kind, the rules on the raw data and the sign
and J-twist that fold the kind's conventions into C, E and A.
"""

from dataclasses import dataclass

import numpy as np

from .polymat import MatrixPolynomial, PolyMatrix, _nonsingular, structure_check

__all__ = [
    "Realization", "SystemMatrix", "system_matrix", "is_minimal",
    "make_structured_realization", "j_matrix", "jay", "StructuralViolation",
    "StructuredKind", "STRUCTURED_KINDS",
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
        if r > 0 and not _nonsingular(self.E):
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


@dataclass(frozen=True)
class StructuredKind:
    """One row of STRUCTURED_KINDS.

    The raw data P, A0, B, E0 describe G = P + B^T [J^T] (lam E0 - A0)^{-1} B
    (J^T when twisted).  The realization stores C = s B^T [J^T], E = s E0
    and A = s A0, which leaves G unchanged and lets one recipe give the
    target structure for either sign."""
    tag: str        # structure of P, and of the pencil (after the J-twist)
    a_rule: str     # "symmetric" or "skew-symmetric": A, or J A when twisted
    e_rule: str     # "symmetric" (free, default I), "skew-symmetric" (required), "I" (fixed)
    sign: int       # s above
    twisted: bool   # J enters C and the A rule; diag(I_mn, J) L has the tag
    options: tuple  # linearization options beyond h

    def target_coeffs(self, L):
        """[X, Y] of L, or of diag(I_mn, J) L when twisted."""
        if not self.twisted:
            return [L.X, L.Y]
        J = jay(L.m * L.n, L.r)
        return [J @ L.X, J @ L.Y]


STRUCTURED_KINDS = {
    "symmetric": StructuredKind("symmetric", "symmetric", "symmetric", 1, False,
                                ("t_wh", "t_vh", "X", "Y")),
    "t-even": StructuredKind("t-even", "symmetric", "skew-symmetric", 1, False,
                             ("z",)),
    "t-odd": StructuredKind("t-odd", "skew-symmetric", "I", -1, False, ("z",)),
    "hamiltonian": StructuredKind("t-even", "symmetric", "I", 1, True, ("z",)),
    "skew-hamiltonian": StructuredKind("skew-symmetric", "skew-symmetric", "I",
                                       -1, True, ("z", "t_w", "t_z")),
    "skew-symmetric": StructuredKind("skew-symmetric", "skew-symmetric",
                                     "skew-symmetric", -1, False,
                                     ("z", "t_w", "t_z")),
}


def _obeys(M, rule):
    return np.array_equal(M.T, -M if rule == "skew-symmetric" else M)


def make_structured_realization(kind, P, A, B, E=None):
    """Build a validated structured realization in canonical form.

    kind is a key of STRUCTURED_KINDS, whose row gives the rules on P, A
    and E; P is the polynomial part, A, B and E the raw state-space data.
    """
    kind = kind.lower().replace("_", "-")
    row = STRUCTURED_KINDS.get(kind)
    if row is None:
        raise ValueError(f"unknown structured kind {kind!r}")
    r = A.shape[0]
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if row.e_rule == "I":
        _req(E is None or np.array_equal(E, np.eye(r)), f"{kind} realization has E = I")
        E = None
    elif E is None and row.e_rule == "skew-symmetric":
        raise ValueError(f"{kind} realization needs E")
    E = np.eye(r, dtype=complex) if E is None else np.asarray(E, dtype=complex)
    JA, C = A, B.T.copy()
    if row.twisted:
        _req(r % 2 == 0, f"{kind} realization needs even r")
        J = j_matrix(r // 2)
        JA, C = J @ A, B.T @ J.T
    _req(structure_check(P, row.tag, exact=True), f"P not {row.tag}")
    _req(_obeys(JA, row.a_rule), f"{'J A' if row.twisted else 'A'} not {row.a_rule}")
    _req(row.e_rule == "I" or _obeys(E, row.e_rule), f"E not {row.e_rule}")
    if row.sign < 0:
        C, E, A = -C, -E, -A
    return Realization(P, C=C, E=E, A=A, B=B, structure=kind)


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
