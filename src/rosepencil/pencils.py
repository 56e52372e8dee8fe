"""FP, GFP and GFPR pencil builders.

Convention: a BlockPencil stores the pair (X, Y) with value X + lam*Y.
The families are written lam*M_tau - M_sigma in product form, so the
builders set X = -(product without the lam factor) and Y = (lam factor).

Every builder forms the mn x mn polynomial pencil of P from Fiedler
factors of P and borders it operation-free: C in the column of block
u = m - i_0, B in the row of block v = m - c_0, and A - lam*E in the
r x r corner.  Dense products of elementary and system-matrix Fiedler
factors, which yield the same pencil, serve as test oracles only.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tuples as tp
from .polymat import PolyMatrix

__all__ = [
    "BlockPencil", "GfprRecipe", "RecipeError",
    "fiedler_pencil", "gf_pencil", "gfpr", "gfpr_poly",
    "trivial_assignment",
]


class RecipeError(ValueError):
    """A construction recipe violates the family's preconditions."""


@dataclass(frozen=True)
class BlockPencil:
    """Square pencil X + lam*Y of size mn + r with block metadata."""
    X: np.ndarray
    Y: np.ndarray
    m: int
    n: int
    r: int
    col_block: int | None = None  # 1-based block index of the C column
    row_block: int | None = None  # 1-based block index of the B row
    provenance: dict = field(default_factory=dict)

    @property
    def size(self):
        return self.X.shape[0]

    def eval(self, lam):
        return self.X + lam * self.Y

    def __call__(self, lam):
        return self.eval(lam)

    def coeff_list(self):
        return [self.X, self.Y]

    def as_poly(self):
        return PolyMatrix([self.X, self.Y])

    def scaled_rows(self, Q):
        """Q @ (X + lam Y) for a constant Q, keeping metadata."""
        return BlockPencil(Q @ self.X, Q @ self.Y, self.m, self.n, self.r,
                           self.col_block, self.row_block, dict(self.provenance))


def trivial_assignment(t, P):
    """The matrices making M_i(X_i) = M_i^P: X = -A_i for i >= 0,
    X = A_{-i} for i < 0."""
    return tuple((-P.coeff(i) if i >= 0 else P.coeff(-i)) for i in t)


def _resolve_assignment(t, mats, P):
    t = tuple(t)
    if mats is None:
        return trivial_assignment(t, P)
    mats = tuple(np.asarray(M, dtype=complex) for M in mats)
    if len(mats) != len(t):
        raise RecipeError(f"assignment length {len(mats)} != tuple length {len(t)}")
    for M in mats:
        if M.shape != (P.n, P.n):
            raise RecipeError(f"assignment of shape {M.shape} is not {P.n}x{P.n}")
    return mats


def _assign_product(t, mats, m, n):
    """Product of M_i(X_i) over the tuple, left to right, at O(mn n^2) per
    factor: M_i(X) is the identity outside block window w, which holds X
    (i = 0: last block; i = -m: first) or [[X, I], [I, 0]] (i > 0) or
    [[0, I], [I, X]] (i < 0) at blocks m -/+ i and the next, so
    out @ M_i(X) changes only out[:, w]."""
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


@dataclass(frozen=True)
class GfprRecipe:
    """(sigma1, sigma, sigma2; tau1, tau, tau2) with matrix assignments.

    sigma is a permutation of {0:h}, tau of {-m:-h-1}; the decorations
    sigma1, sigma2 live in {0:h-1} and tau1, tau2 in {-m:-h-2};
    (sigma1, sigma, sigma2) and (tau1, tau, tau2) must satisfy the SIP.
    Assignments are tuples of n x n matrices or None for the trivial
    (Fiedler) choice.
    """
    m: int
    sigma: tuple
    tau: tuple
    sigma1: tuple = ()
    sigma2: tuple = ()
    tau1: tuple = ()
    tau2: tuple = ()
    X1: tuple | None = None
    X2: tuple | None = None
    Y1: tuple | None = None
    Y2: tuple | None = None

    def __post_init__(self):
        for name in ("sigma", "tau", "sigma1", "sigma2", "tau1", "tau2"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        m = self.m
        sigma, tau = self.sigma, self.tau
        if not sigma:
            raise RecipeError("sigma must be a nonempty permutation of {0:h}")
        h = max(sigma)
        if not 0 <= h <= m - 1:
            raise RecipeError(f"h = {h} out of range 0..{m - 1}")
        if sorted(sigma) != list(range(h + 1)):
            raise RecipeError(f"sigma is not a permutation of {{0:{h}}}: {sigma}")
        if sorted(tau) != list(range(-m, -h)):
            raise RecipeError(f"tau is not a permutation of {{-{m}:-{h + 1}}}: {tau}")
        for name, t, lo, hi in (("sigma1", self.sigma1, 0, h - 1),
                                ("sigma2", self.sigma2, 0, h - 1),
                                ("tau1", self.tau1, -m, -h - 2),
                                ("tau2", self.tau2, -m, -h - 2)):
            if any(x < lo or x > hi for x in t):
                raise RecipeError(f"{name} entries must lie in {{{lo}:{hi}}}: {t}")
        if not tp.is_sip(self.sigma1 + sigma + self.sigma2, h):
            raise RecipeError("(sigma1, sigma, sigma2) violates the SIP")
        if not tp.is_sip(self.tau1 + tau + self.tau2, m):
            raise RecipeError("(tau1, tau, tau2) violates the SIP")

    @property
    def h(self):
        return max(self.sigma)

    def right_index(self):
        """c_0(sigma, sigma2): the B row of the bordered form sits at
        block m - right_index()."""
        return tp.consecutions(self.sigma + self.sigma2, 0)

    def left_index(self):
        """i_0(sigma1, sigma): the C column sits at block m - left_index()."""
        return tp.inversions(self.sigma1 + self.sigma, 0)

    def alpha(self):
        """The permutation (-rev(tau_l), sigma, -rev(tau_r)) of {0:m-1}
        from the split tau = (tau_l, -m, tau_r); drives index shifts."""
        k = self.tau.index(-self.m)
        tau_l, tau_r = self.tau[:k], self.tau[k + 1:]
        return tp.neg(tp.rev(tau_l)) + tuple(self.sigma) + tp.neg(tp.rev(tau_r))

    def assignments_nonsingular(self, P, tol=0.0):
        """True when every matrix assigned at an index 0 or -m position
        (in the decorations) is nonsingular."""
        for t, mats in ((self.sigma1, self.X1), (self.sigma2, self.X2),
                        (self.tau1, self.Y1), (self.tau2, self.Y2)):
            mats = _resolve_assignment(t, mats, P)
            for i, X in zip(t, mats):
                if i in (0, -self.m) and abs(np.linalg.det(X)) <= tol:
                    return False
        return True


def _bordered(XP, YP, re, u, v, prov):
    """The pencil of G from the polynomial pencil (XP, YP): C column at
    block u, B row at block v, corner A - lam E."""
    m, n, r = re.m, re.n, re.r
    N = m * n + r
    X = np.zeros((N, N), dtype=complex)
    Y = np.zeros((N, N), dtype=complex)
    X[: m * n, : m * n] = XP
    Y[: m * n, : m * n] = YP
    X[(u - 1) * n: u * n, m * n:] = re.C
    X[m * n:, (v - 1) * n: v * n] = re.B
    X[m * n:, m * n:] = re.A
    Y[m * n:, m * n:] = -re.E
    return BlockPencil(X, Y, m, n, r, col_block=u, row_block=v, provenance=prov)


def _fiedler_product_pencil(omega0, tau, re, prov):
    """lam * MS_tau - MS_omega0, bordered at blocks m - i_0, m - c_0 of omega0."""
    m, n = re.m, re.n
    XP = -_assign_product(omega0, trivial_assignment(omega0, re.P), m, n)
    YP = _assign_product(tau, trivial_assignment(tau, re.P), m, n)
    return _bordered(XP, YP, re, m - tp.inversions(omega0, 0),
                     m - tp.consecutions(omega0, 0), prov)


def fiedler_pencil(sigma, re):
    """FP: lam * MS_{-m} - MS_sigma for a permutation sigma of {0:m-1}."""
    sigma = tuple(sigma)
    m = re.m
    if sorted(sigma) != list(range(m)):
        raise RecipeError(f"sigma is not a permutation of {{0:{m - 1}}}: {sigma}")
    return _fiedler_product_pencil(sigma, (-m,), re, {"family": "fp", "sigma": sigma})


def gf_pencil(omega0, omega1, re):
    """GFP: lam * MS_{-omega1} - MS_{omega0} for a partition
    (omega0, omega1) of {0:m} with m in omega1."""
    omega0, omega1 = tuple(omega0), tuple(omega1)
    m = re.m
    if sorted(omega0 + omega1) != list(range(m + 1)):
        raise RecipeError(f"(omega0, omega1) must partition {{0:{m}}}")
    if m not in omega1:
        raise RecipeError("m must belong to omega1 (no Fiedler factor M_m exists)")
    if 0 not in omega0:
        raise RecipeError("0 must belong to omega0 (proper GFP)")
    return _fiedler_product_pencil(omega0, tp.neg(omega1), re, {
        "family": "gfp", "omega0": omega0, "omega1": omega1})


def gfpr_poly(recipe, P):
    """Polynomial GFPR of P:
    L(lam) = M_{tau1}(Y1) M_{sigma1}(X1) (lam M_tau - M_sigma)
             M_{sigma2}(X2) M_{tau2}(Y2),  an mn x mn pencil."""
    m, n = P.m, P.n
    if m != recipe.m:
        raise RecipeError(f"recipe degree {recipe.m} != polynomial degree {m}")

    def product(core):
        parts = ((recipe.tau1, recipe.Y1), (recipe.sigma1, recipe.X1), (core, None),
                 (recipe.sigma2, recipe.X2), (recipe.tau2, recipe.Y2))
        t = sum((p for p, _ in parts), ())
        mats = sum((_resolve_assignment(p, a, P) for p, a in parts), ())
        return _assign_product(t, mats, m, n)

    return BlockPencil(-product(recipe.sigma), product(recipe.tau), m, n, 0,
                       provenance={"family": "gfpr-poly", "recipe": recipe})


def gfpr(recipe, re):
    """GFPR of G: the polynomial GFPR of P in the operation-free bordered
    form, C column at block m - i_0(sigma1, sigma) and B row at block
    m - c_0(sigma, sigma2)."""
    if re.m != recipe.m:
        raise RecipeError(f"recipe degree {recipe.m} != realization degree {re.m}")
    Lp = gfpr_poly(recipe, re.P)
    return _bordered(Lp.X, Lp.Y, re, re.m - recipe.left_index(),
                     re.m - recipe.right_index(), {"family": "gfpr", "recipe": recipe})
