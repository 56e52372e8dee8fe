"""The paper's worked displays, reproduced exactly.

Each entry instantiates the symbolic blocks of a published display with
small integer matrices and checks the library's construction against the
display entry-by-entry (exact equality -- the arithmetic is exact for
integer data).  Combinatorial entries check frozen values.  An entry
takes a numpy Generator, raises on any mismatch and returns a one-line
detail; ``entry_rng`` gives the generator it draws from at a seed.
``tests/test_examples.py`` and acceptance criteria 1 and 3 run it.
"""

import numpy as np

from rosepencil import tuples as tp
from rosepencil.pencils import GfprRecipe, gfpr
from rosepencil.polymat import MatrixPolynomial, quasi_identity_diagonal
from rosepencil.realize import Realization, make_structured_realization
from rosepencil.structured import (_even_odd_recipe, block_symmetric_gfpr,
                                   symmetric_linearization, t_even_linearization,
                                   t_odd_linearization, skew_symmetric_linearization)
from lemma_oracles import rciss


def entry_rng(eid, seed):
    """The generator entry eid draws from at seed."""
    return np.random.default_rng(seed * 1000 + _stable_salt(eid))


def _stable_salt(eid):
    return sum(ord(c) * (i + 1) for i, c in enumerate(eid)) % 997


def t_pencil_tuples(m):
    """(t_wh, t_vh) decorations giving the block-tridiagonal member of
    the symmetric family (h = 0, t_vh = -m + (0:m-3, 0:m-5, ...))."""
    t = []
    k = m - 3
    while k >= 0:
        t += list(range(0, k + 1))
        k -= 2
    return (), tp.shift(tuple(t), -m)


# ---------------------------------------------------------------------------
# integer instantiation helpers

def _ints(rng, rows, cols):
    return rng.integers(-3, 4, size=(rows, cols)).astype(complex)


def _structured_square(rng, k, kind):
    """Integer k x k matrix: 'sym', 'skew', or 'any'; nonsingular unless
    told otherwise by retry exhaustion (loops until det != 0 when ns)."""
    M = _ints(rng, k, k)
    if kind == "sym":
        return M + M.T
    if kind == "skew":
        return M - M.T
    return M


def _nonsingular(rng, k, kind):
    for _ in range(100):
        M = _structured_square(rng, k, kind)
        if abs(np.linalg.det(M)) > 0.5:
            return M
    raise RuntimeError("could not draw a nonsingular integer matrix")


def _poly(rng, n, m, parity, ns_top=False):
    """Integer MatrixPolynomial with per-coefficient structure.

    parity: callable j -> 'sym' | 'skew' | 'any'."""
    coeffs = []
    for j in range(m + 1):
        if j == m and ns_top:
            coeffs.append(_nonsingular(rng, n, parity(j)))
        else:
            M = _structured_square(rng, n, parity(j))
            while j == m and not M.any():
                M = _structured_square(rng, n, parity(j))
            coeffs.append(M)
    return MatrixPolynomial(coeffs)


def _dense(block_sizes, terms):
    """(X, Y) from {(i, j): (const_block, lambda_block)}, blocks 1-based."""
    off = np.concatenate([[0], np.cumsum(block_sizes)])
    N = int(off[-1])
    X = np.zeros((N, N), dtype=complex)
    Y = np.zeros((N, N), dtype=complex)
    for (i, j), (C, L) in terms.items():
        si = slice(int(off[i - 1]), int(off[i]))
        sj = slice(int(off[j - 1]), int(off[j]))
        if C is not None:
            X[si, sj] = C
        if L is not None:
            Y[si, sj] = L
    return X, Y


def _match(L, Xd, Yd, allow_global_sign=False):
    """Exact comparison of a BlockPencil against a dense display."""
    if np.array_equal(L.X, Xd) and np.array_equal(L.Y, Yd):
        return "+1"
    if allow_global_sign and np.array_equal(L.X, -Xd) and np.array_equal(L.Y, -Yd):
        return "-1"
    raise AssertionError("pencil does not reproduce the display")


def _signs_str(signs):
    return "(" + ",".join("+" if s > 0 else "-" for s in signs) + ")"


# ---------------------------------------------------------------------------
# combinatorial entries (frozen values)

def _rciss_a(rng):
    """RCISS of (8:10,7,6,5,2:4,1,0) equals (2,4,2,2)."""
    alpha = (8, 9, 10, 7, 6, 5, 2, 3, 4, 1, 0)
    got = rciss(alpha).pairs
    assert got == (2, 4, 2, 2), got
    return f"RCISS = {got}"


def _rciss_b(rng):
    """RCISS of (10,9,5:8,3:4,2,0:1) equals (0,2,3,1,1,2,1,0)."""
    alpha = (10, 9, 5, 6, 7, 8, 3, 4, 2, 0, 1)
    got = rciss(alpha).pairs
    assert got == (0, 2, 3, 1, 1, 2, 1, 0), got
    return f"RCISS = {got}"


def _c0(rng):
    """c_0 of (1,0,2,1,3,2,4,1,3,2,1) equals 3."""
    alpha = (1, 0, 2, 1, 3, 2, 4, 1, 3, 2, 1)
    got = tp.consecutions(alpha, 0)
    assert got == 3, got
    return f"c_0 = {got}"


# ---------------------------------------------------------------------------
# the general GFPR display (m = 4, decorated)

def _gfpr_m4(rng):
    """GFPR display: m=4, sigma=(1,2,3,0), tau=(-4), sigma2=(2,1) with
    assignment (X,Y)."""
    n, r, m = 2, 2, 4
    A = [_ints(rng, n, n) for _ in range(m + 1)]
    P = MatrixPolynomial(A)
    C = _ints(rng, n, r)
    B = _ints(rng, r, n)
    E = _nonsingular(rng, r, "any")
    Ass = _ints(rng, r, r)
    re = Realization(P, C=C, E=E, A=Ass, B=B)
    Xm, Ym = _ints(rng, n, n), _ints(rng, n, n)
    recipe = GfprRecipe(m=m, sigma=(1, 2, 3, 0), tau=(-4,),
                        sigma2=(2, 1), X2=(Xm, Ym))
    L = gfpr(recipe, re)
    I = np.eye(n)
    Xd, Yd = _dense([n] * 4 + [r], {
        (1, 1): (A[3], A[4]), (1, 2): (-Xm, None), (1, 3): (-Ym, None),
        (1, 4): (-I, None),
        (2, 1): (A[2], None), (2, 2): (-I, Xm), (2, 3): (None, Ym),
        (2, 4): (None, I),
        (3, 1): (A[1], None), (3, 2): (None, I), (3, 3): (A[0], None),
        (3, 5): (C, None),
        (4, 1): (-I, None), (4, 3): (None, I),
        (5, 3): (B, None), (5, 5): (Ass, -E),
    })
    _match(L, Xd, Yd)
    return "display reproduced exactly"


# ---------------------------------------------------------------------------
# symmetric family

def _sym_realization(rng, n, r, m, ns_top=False):
    P = _poly(rng, n, m, lambda j: "sym", ns_top=ns_top)
    Ass = _structured_square(rng, r, "sym")
    E = _nonsingular(rng, r, "sym")
    B = _ints(rng, r, n)
    return make_structured_realization("symmetric", P, Ass, B, E=E)


def _sym_m5(rng):
    """symmetric display: m=5, h=2, t_wh=(0), t_vh=(-5), penta-diagonal."""
    n, r = 2, 2
    re = _sym_realization(rng, n, r, 5)
    Xm = _nonsingular(rng, n, "sym")
    Ym = _nonsingular(rng, n, "sym")
    L = symmetric_linearization(re, 2, t_wh=(0,), t_vh=(-5,), X=(Xm,), Y=(Ym,))
    A = [re.P.coeff(j) for j in range(6)]
    Bt, B, Ar, Er = re.C, re.B, re.A, re.E
    Xd, Yd = _dense([n] * 5 + [r], {
        (1, 2): (-Ym, None), (1, 3): (None, Ym),
        (2, 1): (-Ym, None), (2, 2): (-A[4], A[5]), (2, 3): (None, A[4]),
        (3, 1): (None, Ym), (3, 2): (None, A[4]), (3, 3): (A[2], A[3]),
        (3, 4): (A[1], None), (3, 5): (-Xm, None),
        (4, 3): (A[1], None), (4, 4): (A[0], -A[1]), (4, 5): (None, Xm),
        (4, 6): (Bt, None),
        (5, 3): (-Xm, None), (5, 4): (None, Xm),
        (6, 4): (B, None), (6, 6): (Ar, -Er),
    })
    _match(L, Xd, Yd)
    return "display reproduced exactly; borders at block 4"


def _sym_m6(rng):
    """symmetric display: m=6, h=0, t_vh=(-6:-3,-6:-5), anti-triangular,
    A_6 nonsingular."""
    n, r = 2, 2
    re = _sym_realization(rng, n, r, 6, ns_top=True)
    L = symmetric_linearization(re, 0, t_wh=(), t_vh=(-6, -5, -4, -3, -6, -5))
    A = [re.P.coeff(j) for j in range(7)]
    Bt, B, Ar, Er = re.C, re.B, re.A, re.E
    terms = {
        (1, 5): (-A[6], None), (1, 6): (None, A[6]),
        (2, 4): (-A[6], None), (2, 5): (-A[5], A[6]), (2, 6): (None, A[5]),
        (3, 3): (-A[6], None), (3, 4): (-A[5], A[6]), (3, 5): (-A[4], A[5]),
        (3, 6): (None, A[4]),
        (4, 2): (-A[6], None), (4, 3): (-A[5], A[6]), (4, 4): (-A[4], A[5]),
        (4, 5): (-A[3], A[4]), (4, 6): (None, A[3]),
        (5, 1): (-A[6], None), (5, 2): (-A[5], A[6]), (5, 3): (-A[4], A[5]),
        (5, 4): (-A[3], A[4]), (5, 5): (-A[2], A[3]), (5, 6): (None, A[2]),
        (6, 1): (None, A[6]), (6, 2): (None, A[5]), (6, 3): (None, A[4]),
        (6, 4): (None, A[3]), (6, 5): (None, A[2]), (6, 6): (A[0], A[1]),
        (6, 7): (Bt, None),
        (7, 6): (B, None), (7, 7): (Ar, -Er),
    }
    Xd, Yd = _dense([n] * 6 + [r], terms)
    _match(L, Xd, Yd)
    return "display reproduced exactly"


def _sym_t(rng):
    """the T-pencil as a member of the symmetric family (m=3, h=0, t_vh=(-3))."""
    n, r = 2, 2
    re = _sym_realization(rng, n, r, 3, ns_top=True)
    t_wh, t_vh = t_pencil_tuples(3)
    L = block_symmetric_gfpr(re, 0, t_wh, t_vh)
    A = [re.P.coeff(j) for j in range(4)]
    Bt, B, Ar, Er = re.C, re.B, re.A, re.E
    Xd, Yd = _dense([n] * 3 + [r], {
        (1, 2): (-A[3], None), (1, 3): (None, A[3]),
        (2, 1): (-A[3], None), (2, 2): (-A[2], A[3]), (2, 3): (None, A[2]),
        (3, 1): (None, A[3]), (3, 2): (None, A[2]), (3, 3): (A[0], A[1]),
        (3, 4): (Bt, None),
        (4, 3): (B, None), (4, 4): (Ar, -Er),
    })
    _match(L, Xd, Yd)
    return "T-pencil reproduced exactly via (t_wh, t_vh) = "\
           f"{t_wh}, {t_vh}"


# ---------------------------------------------------------------------------
# T-even / T-odd / skew-symmetric displays

def _teven_realization(rng, n, r, m, ns_top=False):
    P = _poly(rng, n, m, lambda j: "sym" if j % 2 == 0 else "skew",
              ns_top=ns_top)
    Ass = _structured_square(rng, r, "sym")
    E = _nonsingular(rng, r, "skew")
    B = _ints(rng, r, n)
    return make_structured_realization("t-even", P, Ass, B, E=E)


def _todd_realization(rng, n, r, m, ns_top=False):
    P = _poly(rng, n, m, lambda j: "skew" if j % 2 == 0 else "sym",
              ns_top=ns_top)
    A0 = _structured_square(rng, r, "skew")
    B = _ints(rng, r, n)
    return make_structured_realization("t-odd", P, A0, B)


def _skew_realization(rng, n, r, m, ns_top=False):
    P = _poly(rng, n, m, lambda j: "skew", ns_top=ns_top)
    A0 = _structured_square(rng, r, "skew")
    E0 = _nonsingular(rng, r, "skew")
    B = _ints(rng, r, n)
    return make_structured_realization("skew-symmetric", P, A0, B, E=E0)


def _structured_display(re, h, z, signs, terms, build):
    """Exact reconstruction of a printed structured display.

    The printed sign pattern is find_quasi_identity's Q (first block +1);
    the printed border always carries the border-normalized sign, so the
    two are mutually consistent only when s := Q[border block] = +1.
    The check therefore splits: the polynomial part must equal Q L(lam)
    exactly, and the full pencil must equal the border-normalized
    construction with the polynomial part scaled by s."""
    n, r, m = re.n, re.r, re.m
    recipe = _even_odd_recipe(re, h, z)
    raw = gfpr(recipe, re)
    border = m - recipe.right_index()
    s = signs[border - 1]
    q = quasi_identity_diagonal(signs, n, r)[:, None]
    Xd, Yd = _dense([n] * m + [r], terms)
    mn = m * n
    # polynomial part and B row/corner: display == Q L exactly
    for got, want in ((q * raw.X, Xd), (q * raw.Y, Yd)):
        assert np.array_equal(got[:, :mn], want[:, :mn]), \
            "polynomial part does not reproduce the display"
        assert np.array_equal(got[mn:, mn:], want[mn:, mn:]), \
            "corner does not reproduce the display"
        # C border column: display carries the normalized sign
        assert np.array_equal(got[:mn, mn:], s * want[:mn, mn:]), \
            "C border does not reproduce the display"
    # the border-normalized construction: everything but the polynomial
    # part matches the display exactly; the polynomial part picks up s
    L = build(re)
    for got, want in ((L.X, Xd), (L.Y, Yd)):
        assert np.array_equal(got[:mn, :mn], s * want[:mn, :mn])
        assert np.array_equal(got[:mn, mn:], want[:mn, mn:])
        assert np.array_equal(got[mn:, :], want[mn:, :])
    assert L.provenance["quasi_identity"] == tuple(s * e for e in signs)
    tail = ("" if s == 1 else
            "; printed Q is the unnormalized search result (s = -1): the "
            "normalized construction flips the polynomial-part sign")
    return (f"display reproduced exactly under printed Q {_signs_str(signs)}"
            + tail)


def _teven_m5(rng):
    """T-even display: m=5, h=2, penta-diagonal, Q=(+,+,-,+,-)."""
    n, r = 2, 2
    re = _teven_realization(rng, n, r, 5)
    A = [re.P.coeff(j) for j in range(6)]
    Bt, B, Ar, Er = re.C, re.B, re.A, re.E
    I = np.eye(n)
    terms = {
        (1, 2): (-I, None), (1, 3): (None, I),
        (2, 1): (-I, None), (2, 2): (-A[4], A[5]), (2, 3): (None, A[4]),
        (3, 1): (None, -I), (3, 2): (None, -A[4]), (3, 3): (-A[2], -A[3]),
        (3, 4): (-A[1], None), (3, 5): (I, None),
        (4, 3): (A[1], None), (4, 4): (A[0], -A[1]), (4, 5): (None, I),
        (4, 6): (Bt, None),
        (5, 3): (I, None), (5, 4): (None, -I),
        (6, 4): (B, None), (6, 6): (Ar, -Er),
    }
    return _structured_display(re, 2, None, (1, 1, -1, 1, -1), terms,
                               lambda re: t_even_linearization(re, 2))


def _teven_m4(rng):
    """T-even display: m=4, h=0, anti-triangular, Q=(+,-,+,-),
    A_4 nonsingular."""
    n, r = 2, 2
    re = _teven_realization(rng, n, r, 4, ns_top=True)
    A = [re.P.coeff(j) for j in range(5)]
    Bt, B, Ar, Er = re.C, re.B, re.A, re.E
    terms = {
        (1, 3): (-A[4], None), (1, 4): (None, A[4]),
        (2, 2): (A[4], None), (2, 3): (A[3], -A[4]), (2, 4): (None, -A[3]),
        (3, 1): (-A[4], None), (3, 2): (-A[3], A[4]), (3, 3): (-A[2], A[3]),
        (3, 4): (None, A[2]),
        (4, 1): (None, -A[4]), (4, 2): (None, -A[3]), (4, 3): (None, -A[2]),
        (4, 4): (-A[0], -A[1]), (4, 5): (Bt, None),
        (5, 4): (B, None), (5, 5): (Ar, -Er),
    }
    return _structured_display(re, 0, (-4, -3, -2, -1), (1, -1, 1, -1), terms,
                               lambda re: t_even_linearization(
                                   re, 0, (-4, -3, -2, -1)))


def _todd_m5(rng):
    """T-odd display: m=5, h=2, penta-diagonal, Q=(+,-,+,-,-)."""
    n, r = 2, 2
    re = _todd_realization(rng, n, r, 5)
    A = [re.P.coeff(j) for j in range(6)]
    A0, B = -re.A, re.B   # canonical form stores A = -A0
    I = np.eye(n)
    terms = {
        (1, 2): (-I, None), (1, 3): (None, I),
        (2, 1): (I, None), (2, 2): (A[4], -A[5]), (2, 3): (None, -A[4]),
        (3, 1): (None, I), (3, 2): (None, A[4]), (3, 3): (A[2], A[3]),
        (3, 4): (A[1], None), (3, 5): (-I, None),
        (4, 3): (-A[1], None), (4, 4): (-A[0], A[1]), (4, 5): (None, -I),
        (4, 6): (-B.T, None),
        (5, 3): (I, None), (5, 4): (None, -I),
        (6, 4): (B, None), (6, 6): (-A0, I),
    }
    return _structured_display(re, 2, None, (1, -1, 1, -1, -1), terms,
                               lambda re: t_odd_linearization(re, 2))


def _todd_m4(rng):
    """T-odd display: m=4, h=0, anti-triangular, Q=(+,-,+,-), A_4 nonsingular."""
    n, r = 2, 2
    re = _todd_realization(rng, n, r, 4, ns_top=True)
    A = [re.P.coeff(j) for j in range(5)]
    A0, B = -re.A, re.B
    terms = {
        (1, 3): (-A[4], None), (1, 4): (None, A[4]),
        (2, 2): (A[4], None), (2, 3): (A[3], -A[4]), (2, 4): (None, -A[3]),
        (3, 1): (-A[4], None), (3, 2): (-A[3], A[4]), (3, 3): (-A[2], A[3]),
        (3, 4): (None, A[2]),
        (4, 1): (None, -A[4]), (4, 2): (None, -A[3]), (4, 3): (None, -A[2]),
        (4, 4): (-A[0], -A[1]), (4, 5): (-B.T, None),
        (5, 4): (B, None), (5, 5): (-A0, I := np.eye(re.r)),
    }
    return _structured_display(re, 0, (-4, -3, -2, -1), (1, -1, 1, -1), terms,
                               lambda re: t_odd_linearization(
                                   re, 0, (-4, -3, -2, -1)))


def _skew_m5(rng):
    """skew-symmetric display: m=5, h=2, penta-diagonal, Q=(+,-,-,-,+)."""
    n, r = 2, 2
    re = _skew_realization(rng, n, r, 5)
    A = [re.P.coeff(j) for j in range(6)]
    A0, E0, B = -re.A, -re.E, re.B
    I = np.eye(n)
    terms = {
        (1, 2): (-I, None), (1, 3): (None, I),
        (2, 1): (I, None), (2, 2): (A[4], -A[5]), (2, 3): (None, -A[4]),
        (3, 1): (None, -I), (3, 2): (None, -A[4]), (3, 3): (-A[2], -A[3]),
        (3, 4): (-A[1], None), (3, 5): (I, None),
        (4, 3): (-A[1], None), (4, 4): (-A[0], A[1]), (4, 5): (None, -I),
        (4, 6): (-B.T, None),
        (5, 3): (-I, None), (5, 4): (None, I),
        (6, 4): (B, None), (6, 6): (-A0, E0),
    }
    return _structured_display(re, 2, None, (1, -1, -1, -1, 1), terms,
                               lambda re: skew_symmetric_linearization(re, 2))


def _skew_m4(rng):
    """skew-symmetric display: m=4, h=2, Q=(+,+,+,-), A_4 nonsingular."""
    n, r = 2, 2
    re = _skew_realization(rng, n, r, 4, ns_top=True)
    A = [re.P.coeff(j) for j in range(5)]
    A0, E0, B = -re.A, -re.E, re.B
    I = np.eye(n)
    terms = {
        (1, 1): (-A[4], None), (1, 2): (None, A[4]),
        (2, 1): (None, A[4]), (2, 2): (A[2], A[3]), (2, 3): (A[1], None),
        (2, 4): (-I, None),
        (3, 2): (A[1], None), (3, 3): (A[0], -A[1]), (3, 4): (None, I),
        (3, 5): (-B.T, None),
        (4, 2): (I, None), (4, 3): (None, -I),
        (5, 3): (B, None), (5, 5): (-A0, E0),
    }
    return _structured_display(re, 2, (-4, -3), (1, 1, 1, -1), terms,
                               lambda re: skew_symmetric_linearization(
                                   re, 2, (-4, -3)))


# the corpus, by id
ENTRIES = {
    "rciss_m11a": _rciss_a,
    "rciss_m11b": _rciss_b,
    "c0_alpha": _c0,
    "gfpr_m4": _gfpr_m4,
    "sym_m5_h2": _sym_m5,
    "sym_m6_h0": _sym_m6,
    "sym_m3_T": _sym_t,
    "teven_m5": _teven_m5,
    "teven_m4": _teven_m4,
    "todd_m5": _todd_m5,
    "todd_m4": _todd_m4,
    "skew_m5": _skew_m5,
    "skew_m4": _skew_m4,
}
