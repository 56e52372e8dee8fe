"""Structure-preserving linearizations and the Cauchy-Maslov index.

realize.STRUCTURED_KINDS gives each kind's target structure, J-twist and
options.  The symmetric kind builds a block-symmetric GFPR.  The other
five share one pattern: pick the simple admissible tuple w of {0:h}
(h even), an admissible z + m of {0:m-h-1}, the symmetric complements
c_w and c_z, optionally type-1 decorations t_w / t_z, build the GFPR
through the generic recipe machinery, and left-multiply by the unique
sign-normalized quasi-identity that forces the target structure on the
polynomial part, read off the recipe's block maps.  The sign at the
border block is +1 so the borders keep the realization's C and B.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import tuples as tp
from .pencils import (BlockPencil, GfprRecipe, RecipeError, _block_map, gfpr,
                      trivial_assignment)
from .polymat import (_STRUCTURE_RULES, _nonsingular, _structure_tol,
                      block_transpose_dense, normalize_tag, quasi_identity_diagonal,
                      structure_check)
from .realize import STRUCTURED_KINDS, StructuralViolation
from .verify import VerificationFailure, _eig_clusters

__all__ = [
    "QuasiIdentity", "AmbiguousQuasiIdentity", "find_quasi_identity",
    "block_symmetric_gfpr", "symmetric_linearization",
    "t_even_linearization", "t_odd_linearization",
    "hamiltonian_linearization", "skew_hamiltonian_linearization",
    "skew_symmetric_linearization", "cauchy_maslov_index",
]


# ---------------------------------------------------------------------------
# quasi-identity signs

@dataclass(frozen=True)
class QuasiIdentity:
    signs: tuple


class AmbiguousQuasiIdentity(RuntimeError):
    pass


def find_quasi_identity(L, target, tol=None, exact=False):
    """The quasi-identity Q (first parameter +1) with Q L(lam) having the
    target structure.  Raises when none exists or more than one does.

    Block (i, k) of (Q M)^T - sigma Q M (^H for the conjugate tags) is
    s_k (M_ki^T - sigma s_i s_k M_ik), exactly in floating point, and
    |Q M| = |M| entrywise.  So the check structure_check makes of Q L is
    an AND over block pairs of tests on the parity s_i s_k alone: two
    m x m tables hold every test, and one walk of the block graph from
    s_1 = +1 gives the same answer as trying all 2^(m-1) sign patterns
    (for finite entries)."""
    m, n = L.m, L.n
    conj, sign = _STRUCTURE_RULES[normalize_tag(target)]
    coeffs = [np.asarray(L.X, dtype=complex), np.asarray(L.Y, dtype=complex)]
    tol = _structure_tol(coeffs, tol, exact)
    ok = {}
    for p in (1, -1):
        dev = np.zeros((m, m))
        for j, A in enumerate(coeffs):
            At = A.conj().T if conj else A.T
            D = np.abs(At - (sign(j) * p) * A).reshape(m, n, m, n)
            dev = np.maximum(dev, D.max(axis=(1, 3)))
        ok[p] = dev <= tol
    if not (ok[1].diagonal().all() and (ok[1] | ok[-1]).all()):
        raise StructuralViolation(f"no quasi-identity makes this pencil {target}")
    # s_i s_k forced by pair (i, k): +1 or -1, or 0 when both parities pass
    return QuasiIdentity(signs=_walk_parities(ok[1].astype(int) - ok[-1].astype(int), target))


def _walk_parities(forced, target):
    """Signs s, s_1 = +1, with s_i s_k = forced[i, k] where that is +/-1."""
    forced = forced.tolist()
    m = len(forced)
    signs = [0] * m
    components = 0
    for root in range(m):
        if signs[root]:
            continue
        components += 1
        signs[root], stack = 1, [root]
        while stack:
            i = stack.pop()
            for k, p in enumerate(forced[i]):
                if p and not signs[k]:
                    signs[k] = p * signs[i]
                    stack.append(k)
                elif p and signs[k] != p * signs[i]:
                    raise StructuralViolation(f"no quasi-identity makes this pencil {target}")
    if components > 1:
        raise AmbiguousQuasiIdentity(
            f"{2 ** (components - 1)} quasi-identities make this pencil {target}")
    return tuple(signs)


@functools.lru_cache(maxsize=512)
def _map_signs(tuples, m, target):
    """Q of every GFPR over tuples with the trivial assignments of a target-
    structured P.  By the block maps, blocks (i, k), (k, i) of coefficient j
    hold 0, 0 or e Z, e' Z with Z = I or A_p (A_p^T = sign(p) A_p, sign 1 for
    I): that pair forces s_i s_k = sign(j) e e' sign(p); other pairs fail."""
    _, sign = _STRUCTURE_RULES[target]
    parity = np.array([1] + [sign(p) for p in range(m + 1)])   # I, A_0 .. A_m
    forced = np.zeros((m, m), dtype=int)
    for j, t in enumerate(tuples):   # X = -(product over tuples[0]), Y
        ti, lab = np.array(t, dtype=int), _block_map(t, m)
        p = np.concatenate([[-2, -1], np.abs(ti)])[lab]   # -2: 0, -1: I, else A_p
        e = (2 * j - 1) * np.concatenate([[0, 1], np.where(ti >= 0, -1, 1)])[lab]
        f = sign(j) * e * e.T * parity[np.maximum(p, -1) + 1]
        if (p != p.T).any() or (f * forced < 0).any() or (f.diagonal() < 0).any():
            raise StructuralViolation(f"no quasi-identity makes this pencil {target}")
        forced = forced + f * (forced == 0)
    return _walk_parities(forced, target)


# ---------------------------------------------------------------------------
# block-symmetric GFPRs (symmetric family)

def _check_even_h(m, h):
    if not 0 <= h <= m - 1:
        raise RecipeError(f"h = {h} out of range 0..{m - 1}")
    if h % 2:
        raise StructuralViolation(
            f"h = {h} is odd: the simple admissible tuple of {{0:{h}}} has "
            "index 1 and no block-symmetric/structured construction exists")


def symmetric_recipe(P, h, t_wh=(), t_vh=(), X=None, Y=None):
    """The GFPR recipe of the block-symmetric family:
    sigma = w_h, tau = v_h, sigma1 = t_wh, sigma2 = (c_wh, rev t_wh),
    tau1 = t_vh, tau2 = (c_vh, rev t_vh); the complements always carry
    the trivial assignment."""
    m = P.m
    _check_even_h(m, h)
    w = tp.simple_admissible(h)
    vp = tp.simple_admissible(m - h - 1)
    v = tp.shift(vp.entries, -m)
    c_w = tp.symmetric_complement(w)
    c_v = tp.shift(tp.symmetric_complement(vp), -m)
    t_wh, t_vh = tuple(t_wh), tuple(t_vh)
    if not tp.is_canonical_form(t_wh, h):
        raise RecipeError(f"t_wh = {t_wh} is not in canonical form for h = {h}")
    if not tp.is_canonical_form(tp.shift(t_vh, m), m - h - 1):
        raise RecipeError(
            f"t_vh + m = {tp.shift(t_vh, m)} is not in canonical form "
            f"for {m - h - 1}")
    X = None if X is None else tuple(np.asarray(M, dtype=complex) for M in X)
    Y = None if Y is None else tuple(np.asarray(M, dtype=complex) for M in Y)
    X2 = None if X is None else tuple(trivial_assignment(c_w, P)) + tp.rev(X)
    Y2 = None if Y is None else tuple(trivial_assignment(c_v, P)) + tp.rev(Y)
    return GfprRecipe(m=m, sigma=w.entries, tau=v,
                      sigma1=t_wh, sigma2=c_w + tp.rev(t_wh),
                      tau1=t_vh, tau2=c_v + tp.rev(t_vh),
                      X1=X, X2=X2, Y1=Y, Y2=Y2)


def block_symmetric_gfpr(re, h, t_wh=(), t_vh=(), X=None, Y=None):
    """Block-symmetric GFPR of the realization; h must be even.  The
    borders coincide at block m - i_0(t_wh, w_h)."""
    recipe = symmetric_recipe(re.P, h, t_wh, t_vh, X, Y)
    if not recipe.assignments_nonsingular(re.P):
        raise RecipeError("assignment at an index 0 or -m position is singular")
    L = gfpr(recipe, re)
    if L.col_block != L.row_block:
        raise AssertionError("block-symmetric GFPR borders disagree")
    mn = re.m * re.n
    for M in (L.X, L.Y):
        H = M[:mn, :mn]
        scale = max(float(np.max(np.abs(H))), 1.0)
        if np.max(np.abs(block_transpose_dense(H, re.m, re.n) - H)) > 1e-12 * scale:
            raise AssertionError("GFPR polynomial part is not block-symmetric")
    return L


def _expect(kind, re):
    """The table row of kind; re must be a realization of that kind."""
    if re.structure != kind:
        raise StructuralViolation(f"expects a {kind} realization")
    return STRUCTURED_KINDS[kind]


def _check_target(row, L):
    rep = structure_check(row.target_coeffs(L), row.tag)
    if not rep:
        raise AssertionError(f"constructed pencil failed the {row.tag} check: {rep}")


def symmetric_linearization(re, h, t_wh=(), t_vh=(), X=None, Y=None):
    """Symmetric Rosenbrock strong linearization of a symmetric G; needs
    a symmetric realization, symmetric matrix assignments, a nonsingular
    A_m when m is even, and a nonsingular A_0 (A_m) when a 0 in t_wh
    (-m in t_vh) takes the trivial assignment."""
    row = _expect("symmetric", re)
    for name, mats in (("X", X), ("Y", Y)):
        for M in mats or ():
            M = np.asarray(M)
            if not np.array_equal(M.T, M):
                raise StructuralViolation(f"assignment in {name} is not symmetric")

    def singular(j):
        return not _nonsingular(re.P.coeff(j))

    if re.m % 2 == 0 and singular(re.m):
        raise StructuralViolation(
            "even m forces -m into c_v; A_m must be nonsingular")
    # the trivial assignment puts A_0 at a 0 in t_wh and A_m at a -m in t_vh
    if X is None and 0 in t_wh and singular(0):
        raise StructuralViolation("0 in t_wh requires a nonsingular A_0")
    if Y is None and -re.m in t_vh and singular(re.m):
        raise StructuralViolation("-m in t_vh requires a nonsingular A_m")
    L = block_symmetric_gfpr(re, h, t_wh, t_vh, X, Y)
    _check_target(row, L)
    return L


# ---------------------------------------------------------------------------
# T-even / T-odd / Hamiltonian / skew families

def _resolve_z(hp, z):
    """Admissible tuple of {0:hp} from an index, entry tuple or None."""
    if z is None:
        return tp.simple_admissible(hp)
    if isinstance(z, tp.AdmissibleTuple):
        if z.h != hp:
            raise RecipeError(f"admissible tuple is for {{0:{z.h}}}, need {{0:{hp}}}")
        return z
    if isinstance(z, int):
        return tp.admissible_tuple(hp, z)
    entries = tuple(z)
    for p in range(hp + 1):
        try:
            cand = tp.admissible_tuple(hp, p)
        except ValueError:
            continue
        if cand.entries == entries:
            return cand
    raise RecipeError(f"{z} is not an admissible tuple of {{0:{hp}}}")


def _even_odd_recipe(re, h, z, t_w=(), t_z=()):
    """Common recipe of the T-even/T-odd/skew constructions:
    sigma = w, tau = z, sigma1 = rev(t_w), sigma2 = (c_w, t_w),
    tau1 = rev(t_z), tau2 = (c_z, t_z)."""
    P = re.P
    m = P.m
    _check_even_h(m, h)
    w = tp.simple_admissible(h)
    if isinstance(z, (tuple, list)) and z and min(z) < 0:
        z = tp.shift(tuple(z), m)   # accept z itself as well as z + m
    zadm = _resolve_z(m - h - 1, z)
    zt = tp.shift(zadm.entries, -m)
    c_w = tp.symmetric_complement(w)
    c_z = tp.shift(tp.symmetric_complement(zadm), -m)

    Am_singular = not _nonsingular(P.coeff(m))
    if zadm.p > 0 and Am_singular:
        raise StructuralViolation(
            f"Ind(z + m) = {zadm.p} > 0 requires a nonsingular leading "
            "coefficient")

    t_w, t_z = tuple(t_w), tuple(t_z)
    if t_w or t_z:
        if not tp.is_type1_right(t_w, tp.rev(w.entries)):
            raise RecipeError(f"t_w = {t_w} is not type-1 right relative to rev(w)")
        if not tp.is_type1_right(tp.shift(t_z, m), tp.rev(zadm.entries)):
            raise RecipeError(
                f"t_z + m = {tp.shift(t_z, m)} is not type-1 right relative "
                "to rev(z + m)")
        if 0 in t_w and not _nonsingular(P.coeff(0)):
            raise StructuralViolation("0 in t_w requires a nonsingular A_0")
        if -m in t_z and Am_singular:
            raise StructuralViolation("-m in t_z requires a nonsingular A_m")
    return GfprRecipe(m=m, sigma=w.entries, tau=zt,
                      sigma1=tp.rev(t_w), sigma2=c_w + t_w,
                      tau1=tp.rev(t_z), tau2=c_z + t_z)


def _sign_normalized(re, recipe, target):
    """The GFPR times its recipe's quasi-identity Q (_map_signs), a row-sign
    broadcast with +1 at the border block so that the borders keep C and B."""
    u, v = recipe.border()
    if u != v:
        raise AssertionError(f"border blocks disagree: C column {u}, B row {v}")
    qs = _map_signs(tuple(sum((t for t, _ in side), ()) for side in recipe.sides()),
                    re.m, target)
    signs = tuple(qs[v - 1] * e for e in qs)
    L = gfpr(recipe, re)
    d = quasi_identity_diagonal(signs, re.n, re.r)[:, None]
    L.X[:], L.Y[:] = L.X * d + 0.0, L.Y * d + 0.0   # Q L, zeros +0 as in Q @ L
    return replace(L, provenance=dict(L.provenance, quasi_identity=signs,
                                      target=target))


def _linearize(kind, re, h, z, t_w=(), t_z=()):
    """The even/odd recipe of a realization of kind, sign-normalized to
    the kind's target structure."""
    row = _expect(kind, re)
    out = _sign_normalized(re, _even_odd_recipe(re, h, z, t_w, t_z), row.tag)
    _check_target(row, out)
    return out


def t_even_linearization(re, h=0, z=None):
    """T-even Rosenbrock strong linearization from a T-even realization;
    borders carry +/- nothing: +B^T at block m - i_0(w)."""
    return _linearize("t-even", re, h, z)


def t_odd_linearization(re, h=0, z=None):
    """T-odd linearization from a T-odd realization; border -B^T at
    block m - i_0(w)."""
    return _linearize("t-odd", re, h, z)


def hamiltonian_linearization(re, h=0, z=None):
    """Hamiltonian linearization from a Hamiltonian realization: the
    T-even recipe applied verbatim; the result T satisfies
    J_{mn,r} T(lam) T-even."""
    return _linearize("hamiltonian", re, h, z)


def skew_symmetric_linearization(re, h=0, z=None, t_w=(), t_z=()):
    """Skew-symmetric linearization from a skew-symmetric realization,
    with optional type-1 decorations t_w (from {0:h-1}) and t_z (with
    t_z + m from {0:m-h-2})."""
    return _linearize("skew-symmetric", re, h, z, t_w, t_z)


def skew_hamiltonian_linearization(re, h=0, z=None, t_w=(), t_z=()):
    """Skew-Hamiltonian linearization T of a skew-symmetric G from a
    skew-Hamiltonian realization: J_{mn,r} T(lam) is skew-symmetric."""
    return _linearize("skew-hamiltonian", re, h, z, t_w, t_z)


# ---------------------------------------------------------------------------
# Cauchy-Maslov index

def _require_real_symmetric(name, Ms, rel):
    """Refuse matrix name(i) of the stack Ms unless real symmetric to rel."""
    tol = rel * np.abs(Ms).max(axis=(-2, -1))
    for what, dev in (("real", Ms.imag), ("symmetric", Ms - np.swapaxes(Ms, -1, -2))):
        bad = np.flatnonzero(np.abs(dev).max(axis=(-2, -1)) > tol)
        if bad.size:
            raise StructuralViolation(f"{name(bad[0])} is not {what}; the "
                                      "Cauchy-Maslov index needs a real symmetric G")


def _cm_residues(P, C, E, A, B):
    """(index, details) of G = P + C (lam E - A)^{-1} B, P a coefficient stack.

    One QZ of (A, E) with left and right vectors gives the real poles,
    clustered as pencil_eigenvalues clusters them.  At a cluster p with
    right and left vectors V and U (unit columns), G has the residue
    R = C V M^{-1} U^H B, M = U^H E V, and the eigenvalues of G through
    infinity at p jump with the signs of R's nonzero eigenvalues: those
    of M^{-1} U^H B C V, read against no threshold.  R must be real
    symmetric to 1e-6 relative, or to 100 err when the pole's error
    bound err = eps (||A|| + |p| ||E||) ||M^{-1}|| is larger.  Clusters
    of one size go through numpy's stacked linear algebra together."""
    _require_real_symmetric(lambda i: "P", np.asarray(P), 1e-12)
    if A.shape[0] == 0:
        return 0, []
    clusters, vl, vr = _eig_clusters(-A, E, vectors=True)
    real = [(z.real, c) for z, c in clusters if abs(z.imag) <= 1e-8 * (1.0 + abs(z))]
    norm_a, norm_e, norm_c, norm_b = (
        max(float(np.linalg.norm(W)), 1e-300) for W in (A, E, C, B))
    MM, CVs, UBs = vl.conj().T @ E @ vr, C @ vr / norm_c, vl.conj().T @ B / norm_b
    details = []
    for k in sorted({len(c) for _, c in real}):
        p = np.array([z for z, c in real if len(c) == k])
        ix = np.array([c for _, c in real if len(c) == k])
        M = MM[ix[:, :, None], ix[:, None, :]]
        CV, UB = CVs[:, ix].swapaxes(0, 1), UBs[ix]
        smin = np.maximum(np.linalg.svd(M, compute_uv=False)[:, -1], 1e-300)
        err = np.finfo(float).eps * (norm_a + np.abs(p) * norm_e) / smin
        # PBH at p: C V and U^H B of full rank k, to is_minimal's 1e-10
        pbh = np.linalg.svd(np.concatenate([CV, UB.swapaxes(1, 2)]), compute_uv=False)
        low = (pbh.shape[1] < k) | (pbh[:, -1].reshape(2, -1).min(0) <= 1e-10)
        for bad, what in ((err >= 1.0, "pencil is defective"),  # M singular
                          (low, "realization is not minimal")):
            if bad.any():
                raise VerificationFailure(f"the {what} at the real pole {p[bad][0]:g}")
        W = np.linalg.solve(M, UB)
        _require_real_symmetric(lambda i: f"the residue at the real pole {p[i]:g}",
                                CV @ W, np.maximum(1e-6, 100 * err))
        jumps = np.linalg.eigvals(W @ CV).real
        details += zip(p.tolist(), *((s * jumps > 0).sum(1).tolist() for s in (1, -1)))
    return sum(plus - minus for _, plus, minus in details), sorted(details)


def cauchy_maslov_index(re_or_pencil, details=False):
    """Cauchy-Maslov index of a real symmetric G (realization input) or
    of the transfer function of a real symmetric linearization (pencil
    input, split at mn: P = X11 + lam Y11, C = X12, B = X21, A = X22,
    E = -Y22): the sum of the residue signatures at the real poles.  G
    not real symmetric is a StructuralViolation; a real pole that is not
    minimal or not semisimple, a VerificationFailure."""
    src = re_or_pencil
    if isinstance(src, BlockPencil):
        k, X, Y = src.m * src.n, src.X, src.Y
        if Y[:k, k:].any() or Y[k:, :k].any():
            raise StructuralViolation("the pencil's borders depend on lam")
        out = _cm_residues([X[:k, :k], Y[:k, :k]], X[:k, k:], -Y[k:, k:],
                           X[k:, k:], X[k:, :k])
    else:
        out = _cm_residues(src.P.coeffs, src.C, src.E, src.A, src.B)
    return out if details else out[0]
