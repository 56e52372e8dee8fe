import itertools

import numpy as np
import pytest

from rosepencil import tuples as tp
from rosepencil.pencils import (GfprRecipe, RecipeError, _block_map,
                                fiedler_pencil, gf_pencil, gfpr, gfpr_poly,
                                trivial_assignment)
from rosepencil.polymat import MatrixPolynomial
from rosepencil.realize import Realization, system_matrix
from rosepencil.verify import det_proportionality, infinity_structure
from conftest import ints, make_realization, poly, product_gfpr
from lemma_oracles import _fiedler_product_S as product_S, \
    dense_assign_product, window_assign_product, window_sides


def test_fiedler_pencil_borders(rng):
    re = make_realization("general", rng, m=4)
    sigma = (1, 0, 3, 2)
    L = fiedler_pencil(sigma, re)
    assert L.size == re.m * re.n + re.r
    assert L.col_block == re.m - tp.inversions(sigma, 0)
    assert L.row_block == re.m - tp.consecutions(sigma, 0)


def test_fiedler_pencil_rejects_non_permutation(rng):
    re = make_realization("general", rng, m=3)
    with pytest.raises(RecipeError):
        fiedler_pencil((0, 0, 1), re)


def test_fp_is_strong_linearization_proxy(rng):
    re = make_realization("general", rng, m=3)
    S = system_matrix(re)
    for sigma in ((0, 1, 2), (2, 1, 0), (1, 0, 2)):
        L = fiedler_pencil(sigma, re)
        rep = det_proportionality(L, S)
        assert rep.deviation <= 1e-9


def test_gf_pencil(rng):
    re = make_realization("general", rng, m=4)
    L = gf_pencil((1, 0, 3), (2, 4), re)
    S = system_matrix(re)
    assert det_proportionality(L, S).deviation <= 1e-9
    with pytest.raises(RecipeError):
        gf_pencil((0, 1, 2, 4), (3,), re)  # m not in omega1


def test_gfpr_paths_agree_exactly(rng):
    re = make_realization("general", rng, m=4)
    recipe = GfprRecipe(m=4, sigma=(1, 2, 3, 0), tau=(-4,), sigma2=(2, 1),
                        X2=(ints(rng, 2, 2), ints(rng, 2, 2)))
    X, Y = product_gfpr(recipe, re)
    L = gfpr(recipe, re)
    assert np.array_equal(L.X, X)
    assert np.array_equal(L.Y, Y)
    assert "path" not in L.provenance


def _gfp_orderings(m):
    """Every proper (omega0, omega1): 0 in omega0, m in omega1, each
    part in every order."""
    mid = range(1, m)
    for k in range(m):
        for S in itertools.combinations(mid, k):
            rest = [i for i in mid if i not in S]
            for omega0 in itertools.permutations((0,) + S):
                for omega1 in itertools.permutations(tuple(rest) + (m,)):
                    yield omega0, omega1


def test_fp_and_gfp_match_product_oracle():
    """The bordered FP and GFP equal the products of system-matrix
    Fiedler factors exactly, on real Gaussian data."""
    rng = np.random.default_rng(2024)

    def real_realization(m, n, r):
        P = MatrixPolynomial([rng.normal(size=(n, n)) for _ in range(m + 1)])
        return Realization(P, C=rng.normal(size=(n, r)), E=rng.normal(size=(r, r)),
                           A=rng.normal(size=(r, r)), B=rng.normal(size=(r, n)))

    def same(L, X, Y):
        return np.array_equal(L.X, X) and np.array_equal(L.Y, Y)

    count = 0
    for m in (1, 2, 3, 4):
        re = real_realization(m, 2, 2)
        for sigma in itertools.permutations(range(m)):
            assert same(fiedler_pencil(sigma, re), -product_S(sigma, re),
                        product_S((-m,), re)), sigma
            count += 1
    for m in (3, 4):
        re = real_realization(m, 2, 3)
        for omega0, omega1 in _gfp_orderings(m):
            assert same(gf_pencil(omega0, omega1, re), -product_S(omega0, re),
                        product_S(tp.neg(omega1), re)), (omega0, omega1)
            count += 1
    assert count == 33 + 20 + 120
    re = real_realization(8, 2, 3)
    for _ in range(3):
        sigma = tuple(int(i) for i in rng.permutation(8))
        assert same(fiedler_pencil(sigma, re), -product_S(sigma, re),
                    product_S((-8,), re)), sigma
        mid = [int(i) for i in rng.permutation(range(1, 8))]
        k = int(rng.integers(0, 8))
        omega0, omega1 = (0, *mid[:k]), (*mid[k:], 8)
        assert same(gf_pencil(omega0, omega1, re), -product_S(omega0, re),
                    product_S(tp.neg(omega1), re)), (omega0, omega1)


def test_gfpr_border_blocks(rng):
    re = make_realization("general", rng, m=4)
    recipe = GfprRecipe(m=4, sigma=(1, 2, 3, 0), tau=(-4,), sigma2=(2, 1))
    L = gfpr(recipe, re)
    assert L.col_block == 4 - recipe.left_index()
    assert L.row_block == 4 - recipe.right_index()
    n, r, mn = re.n, re.r, 4 * re.n
    u, v = L.col_block, L.row_block
    col = L.X[:mn, mn:]
    assert np.array_equal(col[(u - 1) * n: u * n], re.C)
    assert not np.any(np.delete(col, range((u - 1) * n, u * n), axis=0))
    row = L.X[mn:, :mn]
    assert np.array_equal(row[:, (v - 1) * n: v * n], re.B)


def test_gfpr_poly_embeds_in_gfpr(rng):
    re = make_realization("general", rng, m=4)
    recipe = GfprRecipe(m=4, sigma=(0,), tau=(-4, -3, -2, -1),
                        tau2=(-4, -3, -2, -4, -3, -4))
    mn = 4 * re.n
    L = gfpr(recipe, re)
    LP = gfpr_poly(recipe, re.P)
    assert np.array_equal(L.X[:mn, :mn], LP.X)
    assert np.array_equal(L.Y[:mn, :mn], LP.Y)
    # corner carries A - lam E
    assert np.array_equal(L.X[mn:, mn:], re.A)
    assert np.array_equal(L.Y[mn:, mn:], -re.E)


def test_recipe_validation():
    with pytest.raises(RecipeError):
        GfprRecipe(m=4, sigma=(1, 2, 0), tau=(-4,))  # tau misses -3
    with pytest.raises(RecipeError):
        GfprRecipe(m=4, sigma=(1, 2, 3, 0), tau=(-4,), sigma2=(0, 0))
    with pytest.raises(RecipeError):
        GfprRecipe(m=4, sigma=(1, 2, 3, 0), tau=(-4,), sigma1=(3,))
    with pytest.raises(RecipeError):
        GfprRecipe(m=3, sigma=(), tau=(-3, -2, -1))


def test_recipe_indices_and_alpha():
    recipe = GfprRecipe(m=4, sigma=(1, 2, 3, 0), tau=(-4,), sigma2=(2, 1))
    assert recipe.h == 3
    assert recipe.right_index() == tp.consecutions((1, 2, 3, 0, 2, 1), 0)
    assert recipe.left_index() == tp.inversions((1, 2, 3, 0), 0)
    alpha = recipe.alpha()
    assert sorted(alpha) == list(range(4))
    assert tp.total_consecutions(alpha) + tp.total_inversions(alpha) == 3


def test_trivial_assignment(rng):
    re = make_realization("general", rng, m=3)
    mats = trivial_assignment((1, -2), re.P)
    assert np.array_equal(mats[0], -re.P.coeff(1))
    assert np.array_equal(mats[1], re.P.coeff(2))


def test_assignment_length_checked(rng):
    re = make_realization("general", rng, m=4)
    recipe = GfprRecipe(m=4, sigma=(1, 2, 3, 0), tau=(-4,), sigma2=(2, 1),
                        X2=(ints(rng, 2, 2),))
    with pytest.raises(RecipeError):
        gfpr(recipe, re)


def test_fp_as_gfpr(rng):
    # the FP for sigma (a permutation of {0:m-1}) equals the GFPR with
    # sigma = sigma, tau = (-m), no decorations
    re = make_realization("general", rng, m=3)
    sigma = (1, 2, 0)
    L1 = fiedler_pencil(sigma, re)
    L2 = gfpr(GfprRecipe(m=3, sigma=sigma, tau=(-3,)), re)
    assert np.array_equal(L1.X, L2.X)
    assert np.array_equal(L1.Y, L2.Y)


def test_gfp_vs_gfpr_consistency(rng):
    # GFP with omega0 = sigma, omega1 = (m) + neg(tau') matches the GFPR
    re = make_realization("general", rng, m=4)
    omega0, omega1 = (1, 0, 2), (3, 4)
    L1 = gf_pencil(omega0, omega1, re)
    L2 = gfpr(GfprRecipe(m=4, sigma=omega0, tau=(-3, -4)), re)
    assert np.array_equal(L1.X, L2.X)
    assert np.array_equal(L1.Y, L2.Y)


@pytest.mark.parametrize("data", ["trivial", "integer", "gaussian"])
def test_window_product_matches_dense_product(rng, data):
    """window_assign_product equals the dense product of elementary matrices for
    every index class (0, -m, positive, negative): exactly on integer
    data, to 1e-13 relative on Gaussian assignments."""
    for m in range(1, 7):
        n = 3 if m <= 3 else 2
        P = poly(rng, n, m)
        tuples = [(i,) for i in range(-m, m)]
        tuples += [tuple(range(-m, m)), tuple(range(m - 1, -m - 1, -1))]
        tuples += [tuple(int(i) for i in rng.integers(-m, m, size=3 * m))
                   for _ in range(4)]
        for t in tuples:
            if data == "trivial":
                mats = trivial_assignment(t, P)
            elif data == "integer":
                mats = tuple(ints(rng, n, n) for _ in t)
            else:
                mats = tuple(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                             for _ in t)
            got = window_assign_product(t, mats, m, n)
            want = dense_assign_product(t, mats, m, n)
            if data == "gaussian" and len(t) > 1:
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) <= 1e-13 * scale, (m, t)
            else:
                assert np.array_equal(got, want), (m, t)


def test_window_product_checks_index_and_shape():
    with pytest.raises(ValueError, match="out of range"):
        window_assign_product((3,), (np.eye(2),), 3, 2)
    with pytest.raises(ValueError, match="out of range"):
        window_assign_product((-4,), (np.eye(2),), 3, 2)
    with pytest.raises(ValueError, match="must be 2x2"):
        window_assign_product((1,), (np.eye(3),), 3, 2)


def _assert_scatter_matches_window(L, sides):
    """The polynomial part of L is -(window product over sides[0]) and
    the window product over sides[1], to the bit in value."""
    m, n = L.m, L.n
    k = m * n
    (ts, ms), (tt, mt) = sides
    assert np.array_equal(L.X[:k, :k], -window_assign_product(ts, ms, m, n))
    assert np.array_equal(L.Y[:k, :k], window_assign_product(tt, mt, m, n))


def test_block_map_scatter_matches_window_product_census():
    """Integer data: every FP for m <= 5, every GFP partition for m <= 5
    (two orders each) and seeded decorated GFPRs with integer assignments
    build the window product's pencil exactly."""
    rng = np.random.default_rng(27)
    for m in range(1, 6):
        re = make_realization("general", rng, m=m)
        P = re.P
        for sigma in itertools.permutations(range(m)):
            _assert_scatter_matches_window(fiedler_pencil(sigma, re), [
                (t, trivial_assignment(t, P)) for t in (sigma, (-m,))])
        for size in range(m):
            for rest in itertools.combinations(range(1, m), size):
                for _ in range(2):
                    omega0 = tuple(int(i) for i in rng.permutation((0,) + rest))
                    omega1 = tuple(int(i) for i in rng.permutation(
                        [i for i in range(1, m + 1) if i not in rest]))
                    tau = tp.neg(omega1)
                    _assert_scatter_matches_window(gf_pencil(omega0, omega1, re), [
                        (t, trivial_assignment(t, P)) for t in (omega0, tau)])
    built = 0
    while built < 60:
        m = int(rng.integers(2, 8))
        h = int(rng.integers(0, m))
        re = make_realization("general", rng, m=m)

        def draw(lo, hi):
            size = int(rng.integers(0, 4)) if hi >= lo else 0
            return tuple(int(i) for i in rng.integers(lo, hi + 1, size=size))

        kw = dict(m=m, sigma=tuple(int(i) for i in rng.permutation(h + 1)),
                  tau=tuple(int(i) - m for i in rng.permutation(m - h)),
                  sigma1=draw(0, h - 1), sigma2=draw(0, h - 1),
                  tau1=draw(-m, -h - 2), tau2=draw(-m, -h - 2))
        for key, t in (("X1", "sigma1"), ("X2", "sigma2"), ("Y1", "tau1"),
                       ("Y2", "tau2")):
            kw[key] = tuple(ints(rng, 2, 2) for _ in kw[t]) if rng.random() < 0.7 else None
        try:
            recipe = GfprRecipe(**kw)
        except RecipeError:  # a decoration broke the SIP
            continue
        built += 1
        L = gfpr(recipe, re)
        _assert_scatter_matches_window(L, window_sides(recipe, re.P))
        assert np.array_equal(gfpr_poly(recipe, re.P).X, L.X[:2 * m, :2 * m])


def test_block_map_refuses_a_non_sip_tuple():
    with pytest.raises(ValueError, match="violates the SIP"):
        _block_map((1, 1), 2)
    with pytest.raises(ValueError, match="violates the SIP"):
        _block_map((0, 0), 3)
    with pytest.raises(ValueError, match="out of range"):
        _block_map((3,), 3)
    lab = _block_map((1, 0), 2)   # M_1(X_0) M_0(X_1) = [[X_0, X_1], [I, 0]]
    assert lab.tolist() == [[2, 3], [1, 0]]
    assert not lab.flags.writeable


def test_wrong_shape_assignment_is_recipe_error(rng):
    re = make_realization("general", rng, n=1, r=1, m=2)
    recipe = GfprRecipe(m=2, sigma=(1, 0), tau=(-2,), sigma1=(0,),
                        X1=(np.eye(2),))
    with pytest.raises(RecipeError, match="not 1x1"):
        gfpr(recipe, re)
    with pytest.raises(RecipeError, match="not 1x1"):
        recipe.assignments_nonsingular(re.P)


def test_fp_and_decorated_gfpr_at_n208():
    """N = 208 (m = 20, n = 10, r = 8), integer data so that any
    summation order is exact: the FP and a decorated GFPR equal the dense
    system-matrix product oracles, and pass the determinant and
    infinity checks."""
    rng = np.random.default_rng(208)
    m, h = 20, 10
    re = make_realization("general", rng, n=10, r=8, m=m, ns_top=True)
    S = system_matrix(re)
    sigma = tuple(int(i) for i in rng.permutation(m))
    L = fiedler_pencil(sigma, re)
    assert np.array_equal(L.X, -product_S(sigma, re))
    assert np.array_equal(L.Y, product_S((-m,), re))
    sigma2 = tuple(range(h - 1, 0, -1))
    tau2 = tuple(range(-m, -h - 1))
    recipe = GfprRecipe(m=m, sigma=tuple(range(1, h + 1)) + (0,),
                        tau=tuple(range(-m, -h)), sigma2=sigma2, tau2=tau2,
                        X2=tuple(ints(rng, 10, 10) for _ in sigma2),
                        Y2=tuple(ints(rng, 10, 10) for _ in tau2))
    G = gfpr(recipe, re)
    X, Y = product_gfpr(recipe, re)
    assert np.array_equal(G.X, X) and np.array_equal(G.Y, Y)
    for pencil in (L, G):
        assert pencil.size == 208
        assert det_proportionality(pencil, S).deviation <= 1e-8
        assert infinity_structure(pencil, S).consistent
