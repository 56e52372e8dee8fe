"""FP, GFP and GFPR pencil builders.

Convention: a BlockPencil stores the pair (X, Y) with value X + lam*Y.
The families are written lam*M_tau - M_sigma in product form, so the
builders set X = -(product without the lam factor) and Y = (lam factor).

Every builder forms the mn x mn polynomial pencil of P from Fiedler
factors of P and borders it operation-free: C in the column of block
u = m - i_0, B in the row of block v = m - c_0, and A - lam*E in the
r x r corner.  Products over SIP tuples are operation-free, so their blocks
are scattered by a cached block map; factor products are test oracles.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import tuples as tp
from .polymat import PolyMatrix, _nonsingular

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


def trivial_assignment(t, P):
    """The matrices making M_i(X_i) = M_i^P, stacked: X = -A_i for
    i >= 0, X = A_{-i} for i < 0."""
    t = np.array(t, dtype=int).reshape(-1)
    return P.coeffs[np.abs(t)] * np.where(t >= 0, -1.0, 1.0)[:, None, None]


def _resolve_assignment(t, mats, P):
    t = tuple(t)
    if mats is None:
        return tuple(trivial_assignment(t, P))
    mats = tuple(np.asarray(M, dtype=complex) for M in mats)
    if len(mats) != len(t):
        raise RecipeError(f"assignment length {len(mats)} != tuple length {len(t)}")
    for M in mats:
        if M.shape != (P.n, P.n):
            raise RecipeError(f"assignment of shape {M.shape} is not {P.n}x{P.n}")
    return mats


@functools.lru_cache(maxsize=1024)
def _block_map(t, m):
    """Block labels of the product of M_i(X_i) over the SIP tuple t, left
    to right: 0 for a zero block, 1 for I, 2 + k for X_k.  M_i(X) is the
    identity outside block window w, which holds X (i = 0: last block;
    i = -m: first) or [[X, I], [I, 0]] (i > 0) or [[0, I], [I, X]]
    (i < 0) at blocks m -/+ i and the next: each factor changes columns w
    (kept as {row: label} of their nonzero blocks)."""
    def fma(a, x, b):  # the labels of block column a times X_x plus column b
        if any(v != 1 for v in a.values()) or a.keys() & b.keys():
            raise ValueError("the tuple violates the SIP: a block needs an operation")
        return {**dict.fromkeys(a, x), **b}

    cols = [{c: 1} for c in range(m)]
    for x, i in enumerate(t, start=2):
        if not -m <= i <= m - 1:
            raise ValueError(f"index {i} out of range {{-{m}:{m - 1}}}")
        c = 0 if i == -m else m - abs(i) - 1
        if i in (0, -m):
            cols[c] = fma(cols[c], x, {})
        elif i > 0:
            cols[c], cols[c + 1] = fma(cols[c], x, cols[c + 1]), cols[c]
        else:
            cols[c], cols[c + 1] = cols[c + 1], fma(cols[c + 1], x, cols[c])
    lab = np.array([[col.get(r, 0) for col in cols] for r in range(m)], dtype=int)
    lab.flags.writeable = False
    return lab


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

    def sides(self):
        """The products -X and Y as (tuple, assignment) parts, core sigma or tau."""
        return [[(self.tau1, self.Y1), (self.sigma1, self.X1), (core, None),
                 (self.sigma2, self.X2), (self.tau2, self.Y2)]
                for core in (self.sigma, self.tau)]

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

    def assignments_nonsingular(self, P):
        """True when every matrix assigned at an index 0 or -m position
        (in the decorations) is nonsingular."""
        for t, mats in ((self.sigma1, self.X1), (self.sigma2, self.X2),
                        (self.tau1, self.Y1), (self.tau2, self.Y2)):
            mats = _resolve_assignment(t, mats, P)
            for i, X in zip(t, mats):
                if i in (0, -self.m) and not _nonsingular(X):
                    return False
        return True


def _products(sides, P, N):
    """(X, Y) of size N holding -(the product of M_i(X_i) over sides[0])
    and the product over sides[1] in the leading mn x mn part; a side is a
    list of (tuple, assignment or None: trivial) parts.  Each nonzero block
    is I or one X_k by the block map, zero signs as in a dense product."""
    m, n = P.m, P.n
    X, Y = np.zeros((N, N), dtype=complex), np.zeros((N, N), dtype=complex)
    for out, parts, sign in zip((X, Y), sides, (-1, 1)):
        t = sum((p for p, _ in parts), ())
        lab = _block_map(t, m)
        stack = np.concatenate([np.zeros((1, n, n)), np.eye(n)[None]] + [
            trivial_assignment(p, P) if a is None
            else np.reshape(_resolve_assignment(p, a, P), (-1, n, n)) for p, a in parts]) + 0.0
        poly = out[: m * n, : m * n]
        if sign < 0:
            stack = -stack
            poly[:] = complex(-0.0, -0.0)
        i, k = np.nonzero(lab)
        poly.reshape(m, n, m, n).transpose(0, 2, 1, 3)[i, k] = stack[lab[i, k]]
    return X, Y


def _bordered(X, Y, re, u, v, prov):
    """The pencil of G from (X, Y) holding the polynomial pencil: C
    column at block u, B row at block v, corner A - lam E."""
    n, mn = re.n, re.m * re.n
    X[(u - 1) * n: u * n, mn:] = re.C
    X[mn:, (v - 1) * n: v * n] = re.B
    X[mn:, mn:] = re.A
    Y[mn:, mn:] = -re.E
    return BlockPencil(X, Y, re.m, n, re.r, col_block=u, row_block=v, provenance=prov)


def _fiedler_product_pencil(omega0, tau, re, prov):
    """lam * MS_tau - MS_omega0, bordered at blocks m - i_0, m - c_0 of omega0."""
    X, Y = _products([[(omega0, None)], [(tau, None)]], re.P, re.m * re.n + re.r)
    return _bordered(X, Y, re, re.m - tp.inversions(omega0, 0),
                     re.m - tp.consecutions(omega0, 0), prov)


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
    X, Y = _products(recipe.sides(), P, m * n)
    return BlockPencil(X, Y, m, n, 0,
                       provenance={"family": "gfpr-poly", "recipe": recipe})


def gfpr(recipe, re):
    """GFPR of G: the polynomial GFPR of P in the operation-free bordered
    form, C column at block m - i_0(sigma1, sigma) and B row at block
    m - c_0(sigma, sigma2)."""
    if re.m != recipe.m:
        raise RecipeError(f"recipe degree {recipe.m} != realization degree {re.m}")
    X, Y = _products(recipe.sides(), re.P, re.m * re.n + re.r)
    return _bordered(X, Y, re, re.m - recipe.left_index(),
                     re.m - recipe.right_index(), {"family": "gfpr", "recipe": recipe})
