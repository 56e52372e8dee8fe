import functools
import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from rosepencil import tuples as tp
from rosepencil.pencils import RecipeError, gfpr_poly
from rosepencil.polymat import (STRUCTURE_TAGS, MatrixPolynomial,
                                quasi_identity_matrix, structure_check)
from rosepencil.realize import (STRUCTURED_KINDS, Realization,
                                StructuralViolation,
                                make_structured_realization, system_matrix)
from rosepencil.structured import (AmbiguousQuasiIdentity, QuasiIdentity,
                                   _check_target, _even_odd_recipe,
                                   _map_signs, block_symmetric_gfpr,
                                   cauchy_maslov_index, find_quasi_identity,
                                   hamiltonian_linearization,
                                   skew_hamiltonian_linearization,
                                   skew_symmetric_linearization,
                                   symmetric_linearization, symmetric_recipe,
                                   t_even_linearization, t_odd_linearization)
from rosepencil.verify import VerificationFailure, det_proportionality
from conftest import _PARITY, ints, make_realization, square
from lemma_oracles import consecutions, probe_cauchy_maslov_index, \
    window_assign_product, window_sides
from paper_examples import t_pencil_tuples

_BUILDERS = {
    "t-even": t_even_linearization,
    "t-odd": t_odd_linearization,
    "hamiltonian": hamiltonian_linearization,
    "skew-symmetric": skew_symmetric_linearization,
    "skew-hamiltonian": skew_hamiltonian_linearization,
}


def _exact_structure(kind, re, L):
    """The exact structure check of a built pencil, after J for the
    Hamiltonian kinds."""
    row = STRUCTURED_KINDS[kind]
    return structure_check(row.target_coeffs(L), row.tag, exact=True)


@pytest.mark.parametrize("kind", list(STRUCTURED_KINDS))
def test_builder_refuses_another_kind(kind, rng):
    other = "t-odd" if kind == "symmetric" else "symmetric"
    build = _BUILDERS.get(kind, symmetric_linearization)
    with pytest.raises(StructuralViolation,
                       match=f"expects a {kind} realization"):
        build(make_realization(other, rng, m=3, ns_top=True), 0)


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
@pytest.mark.parametrize("m,h", [(3, 0), (3, 2), (5, 2), (4, 0)])
def test_structured_linearizations_exact_structure(kind, m, h, rng):
    if h > m - 1:
        pytest.skip("h out of range")
    re = make_realization(kind, rng, m=m, ns_top=True)
    L = _BUILDERS[kind](re, h)
    assert _exact_structure(kind, re, L)
    assert det_proportionality(L, system_matrix(re)).deviation <= 1e-8


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_odd_h_rejected(kind, rng):
    re = make_realization(kind, rng, m=4, ns_top=True)
    with pytest.raises(StructuralViolation, match="odd"):
        _BUILDERS[kind](re, 1)


def test_symmetric_odd_h_rejected(rng):
    re = make_realization("symmetric", rng, m=4, ns_top=True)
    with pytest.raises(StructuralViolation, match="odd"):
        symmetric_linearization(re, 1)


def test_symmetric_linearization_exact(rng):
    re = make_realization("symmetric", rng, m=5)
    L = symmetric_linearization(re, 2, t_wh=(0,), t_vh=(-5,),
                                X=(square(rng, 2, "sym", nonsingular=True),),
                                Y=(square(rng, 2, "sym", nonsingular=True),))
    assert structure_check([L.X, L.Y], "symmetric", exact=True)
    assert det_proportionality(L, system_matrix(re)).deviation <= 1e-8


def test_symmetric_needs_symmetric_assignments(rng):
    re = make_realization("symmetric", rng, m=5)
    bad = ints(rng, 2, 2)
    bad[0, 1] = bad[1, 0] + 1
    with pytest.raises(StructuralViolation, match="symmetric"):
        symmetric_linearization(re, 2, t_wh=(0,), t_vh=(-5,), X=(bad,),
                                Y=(np.eye(2),))


def test_symmetric_even_m_needs_nonsingular_am(rng):
    coeffs = [square(rng, 2, "sym") for _ in range(4)]
    coeffs.append(np.array([[1, 1], [1, 1]], dtype=complex))  # singular sym
    P = MatrixPolynomial(coeffs)
    re = make_structured_realization(
        "symmetric", P, square(rng, 2, "sym"), ints(rng, 2, 2),
        E=square(rng, 2, "sym", nonsingular=True))
    with pytest.raises(StructuralViolation, match="nonsingular"):
        symmetric_linearization(re, 0)


def _with_coeff(kind, rng, j, M):
    """A realization of kind (symmetric or skew-symmetric) with m = 3 and
    n = r = 2 whose A_j is M."""
    par = _PARITY[kind](0)
    coeffs = [square(rng, 2, par, nonsingular=True) for _ in range(4)]
    coeffs[j] = np.array(M, dtype=complex)
    return make_structured_realization(kind, MatrixPolynomial(coeffs),
                                       square(rng, 2, par), ints(rng, 2, 2),
                                       E=square(rng, 2, par, nonsingular=True))


def test_singular_a0_or_am_under_the_trivial_assignment_is_structural(rng):
    """0 in the decoration with a singular A_0, or -m with a singular A_m,
    is a StructuralViolation in the symmetric kind as in the skew one.  A
    singular assignment the caller gives stays a RecipeError, and so does
    block_symmetric_gfpr."""
    sym0 = _with_coeff("symmetric", rng, 0, [[1, 1], [1, 1]])
    with pytest.raises(StructuralViolation, match="0 in t_wh requires a nonsingular A_0"):
        symmetric_linearization(sym0, 2, t_wh=(0,))
    with pytest.raises(StructuralViolation, match="0 in t_w requires a nonsingular A_0"):
        skew_symmetric_linearization(
            _with_coeff("skew-symmetric", rng, 0, [[0, 0], [0, 0]]), 2, t_w=(0,))
    sym3 = _with_coeff("symmetric", rng, 3, [[1, 1], [1, 1]])
    with pytest.raises(StructuralViolation, match="-m in t_vh requires a nonsingular A_m"):
        symmetric_linearization(sym3, 0, t_vh=(-3,))
    with pytest.raises(RecipeError, match="singular"):
        block_symmetric_gfpr(sym0, 2, t_wh=(0,))
    with pytest.raises(RecipeError, match="singular"):
        block_symmetric_gfpr(sym3, 0, t_vh=(-3,))
    # a nonsingular given assignment builds; a singular one is the caller's
    symmetric_linearization(sym0, 2, t_wh=(0,), X=(np.eye(2),))
    symmetric_linearization(sym3, 0, t_vh=(-3,), Y=(np.eye(2),))
    ok = _with_coeff("symmetric", rng, 3, np.eye(2))
    with pytest.raises(RecipeError, match="singular"):
        symmetric_linearization(ok, 2, t_wh=(0,), X=(np.zeros((2, 2)),))
    with pytest.raises(RecipeError, match="singular"):
        symmetric_linearization(ok, 0, t_vh=(-3,), Y=(np.zeros((2, 2)),))


def test_leading_coefficient_with_an_underflowing_determinant_builds(rng):
    """A_m = 1e-3 I_120 has det 1e-360, which underflows to 0; it is
    nonsingular, so an even m builds the symmetric linearization."""
    n, m = 120, 2
    assert np.linalg.det(1e-3 * np.eye(n)) == 0.0
    S = rng.normal(size=(n, n))
    P = MatrixPolynomial([np.eye(n), S + S.T, 1e-3 * np.eye(n)])
    re = make_structured_realization("symmetric", P, np.diag([1.0, -2.0]),
                                     rng.normal(size=(2, n)))
    L = symmetric_linearization(re, 0)
    assert L.X.shape == (m * n + 2, m * n + 2)
    # the same size with an exactly singular A_m is still refused
    Am = 1e-3 * np.eye(n)
    Am[5, 5] = 0.0
    sing = make_structured_realization(
        "symmetric", MatrixPolynomial([np.eye(n), S + S.T, Am]),
        np.diag([1.0, -2.0]), re.B)
    with pytest.raises(StructuralViolation, match="A_m must be nonsingular"):
        symmetric_linearization(sing, 0)


def test_t_pencil_tuples(rng):
    assert t_pencil_tuples(3) == ((), (-3,))
    assert t_pencil_tuples(5) == ((), (-5, -4, -3, -5))
    re = make_realization("symmetric", rng, m=5, ns_top=True)
    t_wh, t_vh = t_pencil_tuples(5)
    L = block_symmetric_gfpr(re, 0, t_wh, t_vh)
    assert np.array_equal(L.X, L.X.T)
    assert np.array_equal(L.Y, L.Y.T)
    # anti-triangular block pattern: X vanishes above the (m-2) anti-diagonal,
    # Y above the (m-1) one
    n, m = re.n, re.m
    for i in range(m):
        for j in range(m):
            if i + j < m - 2:
                assert not np.any(L.X[i * n:(i + 1) * n, j * n:(j + 1) * n])
            if i + j < m - 1:
                assert not np.any(L.Y[i * n:(i + 1) * n, j * n:(j + 1) * n])


def test_bad_canonical_decoration_rejected(rng):
    re = make_realization("symmetric", rng, m=5)
    with pytest.raises(RecipeError):
        symmetric_recipe(re.P, 2, t_wh=(1, 0), t_vh=())


def test_quasi_identity_unique_on_family(rng):
    # for theorem-family recipes, the search has exactly one hit
    for kind in ("t-even", "t-odd", "skew-symmetric"):
        re = make_realization(kind, rng, m=4, ns_top=True)
        recipe = _even_odd_recipe(re, 0, None)
        LP = gfpr_poly(recipe, re.P)
        qi = find_quasi_identity(LP, STRUCTURED_KINDS[kind].tag)
        assert qi.signs[0] == 1
        assert len(qi.signs) == 4


def test_quasi_identity_none_for_wrong_target(rng):
    re = make_realization("t-even", rng, m=3)
    LP = gfpr_poly(_even_odd_recipe(re, 0, None), re.P)
    with pytest.raises(StructuralViolation):
        find_quasi_identity(LP, "t-odd")


def exhaustive_quasi_identity(L, target, tol=None, exact=False):
    """Reference for find_quasi_identity: one structure_check per sign
    pattern, over all 2^(m-1) patterns with s_1 = +1."""
    found = []
    for rest in itertools.product((1, -1), repeat=L.m - 1):
        Q = quasi_identity_matrix((1,) + rest, L.n)
        if structure_check([Q @ L.X, Q @ L.Y], target, tol=tol, exact=exact):
            found.append((1,) + rest)
    if not found:
        raise StructuralViolation(f"no quasi-identity makes this pencil {target}")
    if len(found) > 1:
        raise AmbiguousQuasiIdentity(f"{len(found)} quasi-identities")
    return QuasiIdentity(signs=found[0])


def _outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw).signs
    except (StructuralViolation, AmbiguousQuasiIdentity) as exc:
        return type(exc)


def test_quasi_identity_matches_exhaustive_search():
    rng = np.random.default_rng(2024)
    kinds = sorted(_BUILDERS)
    seen = {"unique": 0, "none": 0, "ambiguous": 0}
    case = 0
    for m in range(3, 9):
        for h in (0, 2):
            kind = kinds[case % len(kinds)]
            case += 1
            re = make_realization(kind, rng, m=m, ns_top=True)
            LP = gfpr_poly(_even_odd_recipe(re, h, None), re.P)
            n = re.n
            # one block pair (i, k) and (k, i) zeroed: the block graph may
            # fall apart into components, each with a free sign
            i, k = sorted(rng.choice(m, size=2, replace=False))
            X, Y = LP.X.copy(), LP.Y.copy()
            for a, b in ((i, k), (k, i)):
                X[a * n:(a + 1) * n, b * n:(b + 1) * n] = 0
                Y[a * n:(a + 1) * n, b * n:(b + 1) * n] = 0
            # one entry moved by about the default tolerance
            Xp = LP.X.copy()
            Xp[0, n] += 0.7e-12 * np.max(np.abs([LP.X, LP.Y]))
            for L in (LP, SimpleNamespace(m=m, n=n, X=X, Y=Y),
                      SimpleNamespace(m=m, n=n, X=Xp, Y=LP.Y)):
                for tag in STRUCTURE_TAGS:
                    for exact in (False, True):
                        got = _outcome(find_quasi_identity, L, tag, exact=exact)
                        want = _outcome(exhaustive_quasi_identity, L, tag,
                                        exact=exact)
                        assert got == want, (kind, m, h, tag, exact)
                        seen["none" if want is StructuralViolation else
                             "ambiguous" if want is AmbiguousQuasiIdentity
                             else "unique"] += 1
    assert min(seen.values()) > 0, seen


def test_ind_gate(rng):
    # z with Ind > 0 and singular leading coefficient must be rejected
    coeffs = [square(rng, 2, "sym"), square(rng, 2, "skew"),
              square(rng, 2, "sym"), square(rng, 2, "skew"),
              np.array([[1, 1], [1, 1]], dtype=complex)]  # singular A_4
    P = MatrixPolynomial(coeffs)
    re = make_structured_realization(
        "t-even", P, square(rng, 2, "sym"), ints(rng, 2, 2),
        E=square(rng, 2, "skew", nonsingular=True))
    with pytest.raises(StructuralViolation, match="nonsingular"):
        t_even_linearization(re, 0, (-4, -3, -2, -1))


def test_border_sign_normalization(rng):
    # the normalized quasi-identity always carries +1 at the border block
    for kind in ("t-even", "t-odd", "skew-symmetric"):
        re = make_realization(kind, rng, m=5, ns_top=True)
        L = _BUILDERS[kind](re, 2)
        signs = L.provenance["quasi_identity"]
        border = L.col_block
        assert signs[border - 1] == 1


def _type1(alpha, hi, k=2):
    """The right index tuples of type 1 relative to alpha with at most k
    entries, all from {0:hi}."""
    return [t for size in range(k + 1)
            for t in itertools.product(range(hi + 1), repeat=size)
            if tp.is_type1_right(t, alpha)]


@functools.cache
def _structured_census():
    """(kind, P, recipe) with integer n = 2 data for every kind, m <= 9,
    even h and admissible z, and every type-1 t_w / t_z of at most two
    entries for the skew kinds; the symmetric kind adds the T-pencil
    decorations at h = 0."""
    rng = np.random.default_rng(2027)
    out = []
    for kind in STRUCTURED_KINDS:
        for m in range(1, 10):
            P = MatrixPolynomial([square(rng, 2, _PARITY[kind](j), nonsingular=True)
                                  for j in range(m + 1)])
            for h in range(0, m, 2):
                if kind == "symmetric":
                    decs = [((), ())] + ([t_pencil_tuples(m)] if h == 0 and m > 2 else [])
                    out += [(kind, P, symmetric_recipe(P, h, *d)) for d in decs]
                    continue
                hp = m - h - 1
                for p in range(hp % 2, hp + 1, 2):
                    z = tp.admissible_tuple(hp, p)
                    decs = [((), ())]
                    if kind.startswith("skew"):
                        tzs = [tp.shift(t, -m) for t in _type1(tp.rev(z.entries), hp - 1)]
                        decs = [(tw, tz) for tw in _type1(
                            tp.rev(tp.simple_admissible(h).entries), h - 1) for tz in tzs]
                    out += [(kind, P, _even_odd_recipe(SimpleNamespace(P=P), h, z, *d))
                            for d in decs]
    return out


def test_structured_scatter_matches_window_product_census():
    census = _structured_census()
    assert len(census) > 800
    for kind, P, recipe in census:
        L = gfpr_poly(recipe, P)
        (ts, ms), (tt, mt) = window_sides(recipe, P)
        assert np.array_equal(L.X, -window_assign_product(ts, ms, P.m, P.n)), kind
        assert np.array_equal(L.Y, window_assign_product(tt, mt, P.m, P.n)), kind


def test_quasi_identity_from_map_matches_data_census():
    """Q read off the block maps is the Q the data walk finds, on every
    census recipe whose data Q is unique (all of them here)."""
    unique = 0
    for kind, P, recipe in _structured_census():
        if kind == "symmetric":
            continue
        tag = STRUCTURED_KINDS[kind].tag
        try:
            want = find_quasi_identity(gfpr_poly(recipe, P), tag, exact=True).signs
        except AmbiguousQuasiIdentity:
            continue
        tuples = tuple(t for t, _ in window_sides(recipe, P))
        assert _map_signs(tuples, P.m, tag) == want, (kind, recipe)
        unique += 1
    assert unique > 800


def test_quasi_identity_from_map_refusals():
    # M_1 M_0 = [[X_0, X_1], [I, 0]]: block pair (1, 2) holds X_1 and I
    with pytest.raises(StructuralViolation):
        _map_signs(((1, 0), (-2,)), 2, "t-even")
    # diag(I, -A_0): an identity on the diagonal is never skew
    with pytest.raises(StructuralViolation):
        _map_signs(((0,), (-2,)), 2, "skew-symmetric")
    # block diagonal: no pair ties the two signs together
    with pytest.raises(AmbiguousQuasiIdentity):
        _map_signs(((0,), (-2,)), 2, "symmetric")


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_one_flipped_sign_is_refused(kind, rng):
    """_check_target still reads the structure off the data: one block
    row of the polynomial part, or one entry, with the wrong sign fails."""
    re = make_realization(kind, rng, m=5, ns_top=True)
    L = _BUILDERS[kind](re, 2)
    row = STRUCTURED_KINDS[kind]
    _check_target(row, L)
    n, blk = re.n, L.col_block % re.m   # a block row other than the border's
    X = L.X.copy()
    X[blk * n:(blk + 1) * n] *= -1
    Y = L.Y.copy()
    Y[blk * n:(blk + 1) * n] *= -1
    with pytest.raises(AssertionError, match="failed the"):
        _check_target(row, replace(L, X=X, Y=Y))
    i, k = next((i, k) for i, k in np.argwhere(L.X != 0) if i != k)
    X = L.X.copy()
    X[i, k] *= -1
    with pytest.raises(AssertionError, match="failed the"):
        _check_target(row, replace(L, X=X))


def test_t_even_build_at_n220():
    """N = 220 (m = 21, n = r = 10), integer data: the T-even build is
    exactly T-even and its determinant is proportional to the system
    matrix's."""
    rng = np.random.default_rng(220)
    re = make_realization("t-even", rng, n=10, r=10, m=21, ns_top=True)
    L = t_even_linearization(re, 4)
    assert L.size == 220
    _check_target(STRUCTURED_KINDS["t-even"], L)
    assert _exact_structure("t-even", re, L)
    assert det_proportionality(L, system_matrix(re)).deviation <= 1e-8


@pytest.mark.parametrize("m", [12, 16])
def test_decorated_skew_builds_at_large_m(m, rng):
    # t_z = (1 - m,) makes is_type1_right bring rev(z + m) to column
    # standard form, for h = 0 a permutation of {0:m-1}
    for kind in ("skew-symmetric", "skew-hamiltonian"):
        re = make_realization(kind, rng, m=m, ns_top=True)
        L = _BUILDERS[kind](re, 0, t_z=(1 - m,))
        assert _exact_structure(kind, re, L)


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_structured_linearizations_at_m20(kind, rng):
    re = make_realization(kind, rng, m=20, ns_top=True)
    L = _BUILDERS[kind](re, 0)
    assert _exact_structure(kind, re, L)
    recipe = _even_odd_recipe(re, 0, None)
    c0 = consecutions(recipe.sigma + recipe.sigma2, 0)
    assert L.col_block == L.row_block == 20 - c0
    assert L.provenance["quasi_identity"][20 - c0 - 1] == 1


# ---------------------------------------------------------------------------
# Cauchy-Maslov

def _scalar_realization(c_resid, pole, extra=None):
    """G(lam) = lam + sum c_i/(lam - p_i), all 1x1 blocks."""
    poles = [pole] + ([] if extra is None else [extra[1]])
    cs = [c_resid] + ([] if extra is None else [extra[0]])
    r = len(poles)
    A = np.diag(np.array(poles, dtype=complex))
    B = np.ones((r, 1), dtype=complex)
    C = np.array([cs], dtype=complex)
    P = MatrixPolynomial([np.zeros((1, 1)), np.ones((1, 1))])
    return Realization(P, C=C, E=np.eye(r, dtype=complex), A=A, B=B,
                       structure="symmetric")


def test_cm_battery_scalar():
    assert cauchy_maslov_index(_scalar_realization(1.0, 1.0)) == 1
    assert cauchy_maslov_index(_scalar_realization(-1.0, 1.0)) == -1
    assert cauchy_maslov_index(
        _scalar_realization(1.0, 1.0, extra=(1.0, -2.0))) == 2


def test_cm_invariance_under_linearization(rng):
    # 2x2 real symmetric instance with two real poles
    P = MatrixPolynomial([square(rng, 2, "sym").real.astype(complex),
                          square(rng, 2, "sym").real.astype(complex),
                          square(rng, 2, "sym", nonsingular=True)
                          .real.astype(complex)])
    A = np.diag([1.0 + 0j, -2.0 + 0j])
    B = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    re = make_structured_realization("symmetric", P, A, B)
    L = symmetric_linearization(re, 0)
    got_g = cauchy_maslov_index(re)
    got_l = cauchy_maslov_index(L)
    assert got_g == got_l


@pytest.mark.parametrize("r,n", [(28, 6), (34, 4)])
def test_cm_hidden_diagonal(r, n, rng):
    # E = T^T diag(s) T and A = T^T diag(p s) T put a pole at each p_i
    # with a rank-one residue of sign s_i, so the index is sum(s)
    s = np.where(np.arange(r) % 3 == 0, -1.0, 1.0)
    p = np.linspace(-4.0, 4.0, r)
    T = np.eye(r) + 0.2 * rng.normal(size=(r, r))
    E = T.T @ np.diag(s) @ T
    A = T.T @ np.diag(p * s) @ T
    P0, P1 = (rng.normal(size=(n, n)) for _ in range(2))
    P = MatrixPolynomial([P0 + P0.T, P1 + P1.T])
    re = make_structured_realization("symmetric", P, (A + A.T) / 2,
                                     rng.normal(size=(r, n)),
                                     E=(E + E.T) / 2)
    for source in (re, symmetric_linearization(re, 0)):
        idx, details = cauchy_maslov_index(source, details=True)
        assert idx == int(s.sum()) != 0
        found = np.sort([pole for pole, _, _ in details])
        assert found.shape == (r,) and np.allclose(found, p, atol=1e-8)


def test_cm_rejects_nonreal(rng):
    A = np.diag([1.0 + 1.0j])
    B = np.ones((1, 1), dtype=complex)
    P = MatrixPolynomial([np.ones((1, 1))])
    re = Realization(P, C=B.T.copy(), E=np.eye(1, dtype=complex), A=A, B=B,
                     structure="symmetric")
    idx = cauchy_maslov_index(re)
    assert idx == 0  # no real poles: empty jump count


def _congruent(rng, s, poles, n, T, b_norm=1.0):
    """Symmetric realization with E = T^T diag(s) T, A = T^T diag(p s) T
    and B = T^T b, rows of b of norm b_norm: G = P + sum_i s_i b_i b_i^T /
    (lam - p_i), whose index is sum(s)."""
    r = len(s)
    b = rng.normal(size=(r, n))
    b *= b_norm / np.linalg.norm(b, axis=1, keepdims=True)
    P = MatrixPolynomial([0.3 * (M + M.T) for M in rng.normal(size=(2, n, n))])
    E = T.T @ np.diag(s) @ T
    A = T.T @ np.diag(np.asarray(poles) * s) @ T
    return make_structured_realization("symmetric", P, (A + A.T) / 2, T.T @ b,
                                       E=(E + E.T) / 2)


def _from_both(re):
    """(index, details) from the realization and from its symmetric
    linearization."""
    return [cauchy_maslov_index(src, details=True)
            for src in (re, symmetric_linearization(re, 0))]


@pytest.mark.parametrize("b2, p", [(0.09, 1.0), (1.0, 100.0)])
def test_cm_small_residue_and_far_pole(b2, p):
    # G = 1 + lam^2 + b2/(lam - p); a probe at p +/- 1e-4 (1 + |p|) with
    # threshold 0.1/delta misses both jumps
    P = MatrixPolynomial([np.eye(1), np.zeros((1, 1)), np.eye(1)])
    re = make_structured_realization("symmetric", P, np.array([[p]]),
                                     np.array([[np.sqrt(b2)]]), E=np.eye(1))
    for idx, details in _from_both(re):
        assert idx == 1
        assert [d[1:] for d in details] == [(1, 0)]
        assert details[0][0] == pytest.approx(p)


def test_cm_small_residues_poles_to_100(rng):
    # residues of norm 1e-2, poles spread over [-100, 100]
    r = 8
    s = rng.choice([-1.0, 1.0], size=r)
    p = np.linspace(-100.0, 100.0, r) + rng.uniform(-5.0, 5.0, size=r)
    T = rng.normal(size=(r, r)) + 3.0 * np.eye(r)
    re = _congruent(rng, s, p, 2, T, b_norm=0.1)
    for idx, details in _from_both(re):
        assert idx == int(s.sum())
        found = [pole for pole, _, _ in details]
        assert np.allclose(found, np.sort(p), rtol=1e-8)


@pytest.mark.parametrize("gap, at", [(1e-2, -60.0), (1e-5, 2.0)])
def test_cm_close_poles(gap, at):
    # two poles gap apart at p = at, among four more spread to +/-60
    for seed in range(5):
        rng = np.random.default_rng(seed)
        r = 6
        s = rng.choice([-1.0, 1.0], size=r)
        p = np.linspace(-60.0, 60.0, r) + rng.uniform(-3.0, 3.0, size=r)
        p[:2] = at, at + gap
        T = rng.normal(size=(r, r)) + 3.0 * np.eye(r)
        re = _congruent(rng, s, p, 2, T)
        for idx, details in _from_both(re):
            assert idx == int(s.sum())
            assert np.allclose([d[0] for d in details], np.sort(p), rtol=1e-8)


def test_cm_coincident_poles(rng):
    # two poles at 1.5 make one cluster, whose rank-2 residue carries both
    # signs
    r = 5
    s = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    p = np.array([1.5, 1.5, -3.0, 0.0, 3.0])
    T = rng.normal(size=(r, r)) + 3.0 * np.eye(r)
    re = _congruent(rng, s, p, 2, T)
    for idx, details in _from_both(re):
        assert idx == 1
        assert [d[1:] for d in details] == [(1, 0), (1, 0), (1, 1), (0, 1)]


def test_cm_non_symmetric_is_refused():
    # G = lam I + [[0, 1], [0, 0]]/(lam - 1)
    P = MatrixPolynomial([np.zeros((2, 2)), np.eye(2)])
    re = Realization(P, C=np.array([[1.0], [0.0]], dtype=complex),
                     E=np.eye(1, dtype=complex), A=np.eye(1, dtype=complex),
                     B=np.array([[0.0, 1.0]], dtype=complex))
    for source in (re, block_symmetric_gfpr(re, 0)):
        with pytest.raises(StructuralViolation, match="not symmetric"):
            cauchy_maslov_index(source)


def test_cm_hermite_hurwitz_ill_conditioned():
    # a minimal symmetric realization has index sig(E), here with
    # cond(T) = 1e6 and so min|eig E| / max|eig E| <= 1e-9
    for seed, r in enumerate((4, 6, 8, 8, 10)):
        rng = np.random.default_rng(100 + seed)
        Q1, _ = np.linalg.qr(rng.normal(size=(r, r)))
        Q2, _ = np.linalg.qr(rng.normal(size=(r, r)))
        T = Q1 @ np.diag(np.logspace(0.0, -6.0, r)) @ Q2.T
        s = rng.choice([-1.0, 1.0], size=r)
        p = np.linspace(-4.0, 4.0, r) + rng.uniform(-0.3, 0.3, size=r)
        re = _congruent(rng, s, p, 2, T)
        ev = np.linalg.eigvalsh(re.E.real)
        assert np.abs(ev).min() / np.abs(ev).max() <= 1e-9
        sig_e = int(np.sum(ev > 0) - np.sum(ev < 0))
        for idx, details in _from_both(re):
            assert idx == sig_e == int(s.sum())
            assert len(details) == r


def test_cm_refuses_a_defective_pole():
    # E^{-1} A is a Jordan block at 1
    P = MatrixPolynomial([np.zeros((1, 1)), np.eye(1)])
    re = make_structured_realization(
        "symmetric", P, np.array([[0.0, 1.0], [1.0, 1.0]]),
        np.array([[1.0], [0.3]]), E=np.array([[0.0, 1.0], [1.0, 0.0]]))
    for source in (re, symmetric_linearization(re, 0)):
        with pytest.raises(VerificationFailure, match="defective"):
            cauchy_maslov_index(source)


def test_cm_refuses_a_non_minimal_pole():
    P = MatrixPolynomial([np.zeros((1, 1)), np.eye(1)])
    re = make_structured_realization("symmetric", P, np.diag([1.0, 2.0]),
                                     np.array([[1.0], [0.0]]))
    for source in (re, symmetric_linearization(re, 0)):
        with pytest.raises(VerificationFailure, match="not minimal"):
            cauchy_maslov_index(source)


def test_cm_agrees_with_the_probe(rng):
    # residues of norm 1 and poles in [-4, 4] at least 0.3 apart: the
    # probe's offset and threshold resolve every pole
    for r in (2, 5, 8):
        s = rng.choice([-1.0, 1.0], size=r)
        p = np.linspace(-4.0, 4.0, r) + rng.uniform(-0.1, 0.1, size=r)
        T = rng.normal(size=(r, r)) + 3.0 * np.eye(r)
        re = _congruent(rng, s, p, 3, T)
        L = symmetric_linearization(re, 0)
        for source in (re, L):
            idx, details = cauchy_maslov_index(source, details=True)
            want, want_details = probe_cauchy_maslov_index(source, details=True)
            assert idx == want == int(s.sum())
            assert [d[1:] for d in details] == [d[1:] for d in want_details]
            assert np.allclose([d[0] for d in details],
                               [d[0] for d in want_details], rtol=1e-8)
