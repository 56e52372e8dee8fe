import numpy as np
import pytest

from rosepencil.pencils import GfprRecipe, fiedler_pencil, gf_pencil, gfpr
from rosepencil.polymat import PolyMatrix
from rosepencil.realize import system_matrix
from rosepencil.recover import (RecoveryDiagnostic, VectorBundle,
                                eigenvector_bundle, recover_from_gfpr,
                                recover_from_pgf, recover_s_to_g,
                                shift_minimal_indices)
from rosepencil.structured import symmetric_linearization, symmetric_recipe
from rosepencil import tuples as tp
from rosepencil.verify import minimal_basis_degree_sweep, pencil_eigenvalues
from conftest import ints, make_realization, zero_corner_realization


def _finite_eig(L, re):
    for z, _ in pencil_eigenvalues(L.X, L.Y):
        if not np.isfinite(z):
            continue
        # skip anything too close to a pole of G
        if min(np.abs(np.linalg.eigvals(
                np.linalg.solve(re.E, re.A)) - z)) > 1e-6:
            return z
    raise AssertionError("no usable finite eigenvalue")


def test_right_eigenvector_recovery(rng):
    re = make_realization("general", rng, m=4)
    recipe = GfprRecipe(m=4, sigma=(1, 2, 3, 0), tau=(-4,), sigma2=(2, 1),
                        X2=(ints(rng, 2, 2), ints(rng, 2, 2)))
    L = gfpr(recipe, re)
    mu = _finite_eig(L, re)
    bun = eigenvector_bundle(L, mu)
    x = recover_s_to_g(recover_from_gfpr(bun, recipe)).eval(mu)
    G = re.g_eval(mu)
    res = np.linalg.norm(G @ x)
    assert res <= 1e-8 * np.linalg.norm(G) * np.linalg.norm(x)


def test_left_eigenvector_recovery(rng):
    re = make_realization("general", rng, m=3)
    recipe = GfprRecipe(m=3, sigma=(1, 0, 2), tau=(-3,))
    L = gfpr(recipe, re)
    mu = _finite_eig(L, re)
    bun = eigenvector_bundle(L, mu, side="left")
    y = recover_s_to_g(recover_from_gfpr(bun, recipe)).eval(mu)
    G = re.g_eval(mu)
    res = np.linalg.norm(y.conj().T @ G)
    assert res <= 1e-8 * np.linalg.norm(G) * np.linalg.norm(y)


def test_pgf_recovery(rng):
    re = make_realization("general", rng, m=4)
    omega0, omega1 = (1, 0, 2), (3, 4)
    L = gf_pencil(omega0, omega1, re)
    mu = _finite_eig(L, re)
    bun = eigenvector_bundle(L, mu)
    x = recover_s_to_g(recover_from_pgf(bun, omega0, 4)).eval(mu)
    G = re.g_eval(mu)
    assert np.linalg.norm(G @ x) <= \
        1e-8 * np.linalg.norm(G) * np.linalg.norm(x)


def test_pgf_recovery_needs_zero_in_omega0(rng):
    re = make_realization("general", rng, m=3)
    L = gf_pencil((0, 1), (2, 3), re)
    bun = eigenvector_bundle(L, _finite_eig(L, re))
    with pytest.raises(ValueError, match=r"omega0: \(1, 2\)"):
        recover_from_pgf(bun, [1, 2], 3)


def test_side_mismatch_rejected(rng):
    re = make_realization("general", rng, m=3)
    recipe = GfprRecipe(m=3, sigma=(0, 1, 2), tau=(-3,))
    L = gfpr(recipe, re)
    mu = _finite_eig(L, re)
    bun = eigenvector_bundle(L, mu, side="right")
    with pytest.raises(ValueError, match="right"):
        recover_from_gfpr(bun, recipe, side="left")


def test_not_an_eigenvalue(rng):
    re = make_realization("general", rng, m=3)
    L = fiedler_pencil((0, 1, 2), re)
    with pytest.raises(RecoveryDiagnostic):
        eigenvector_bundle(L, 123.456)


def test_minimal_index_shift_matches_sweeps(rng):
    re = zero_corner_realization(rng, 3, 2, 3, "general")
    sigma = (1, 2, 0)
    L = fiedler_pencil(sigma, re)
    S = system_matrix(re).as_poly()
    bund_l = minimal_basis_degree_sweep(PolyMatrix([L.X, L.Y]))
    bund_s = minimal_basis_degree_sweep(S)
    recipe_like = GfprRecipe(m=3, sigma=sigma, tau=(-3,))
    shifted = shift_minimal_indices(bund_l.degrees, recipe_like, side="right")
    assert shifted == tuple(sorted(bund_s.degrees))


def test_minimal_index_shift_left(rng):
    re = zero_corner_realization(rng, 3, 2, 3, "general")
    sigma = (2, 1, 0)
    L = fiedler_pencil(sigma, re)
    S = system_matrix(re).as_poly()
    bund_l = minimal_basis_degree_sweep(
        PolyMatrix([L.X.T, L.Y.T]))
    bund_s = minimal_basis_degree_sweep(S.transpose())
    recipe_like = GfprRecipe(m=3, sigma=sigma, tau=(-3,))
    shifted = shift_minimal_indices(bund_l.degrees, recipe_like, side="left")
    assert shifted == tuple(sorted(bund_s.degrees))


def test_negative_shift_diagnosed():
    recipe = GfprRecipe(m=3, sigma=(1, 2, 0), tau=(-3,))
    with pytest.raises(RecoveryDiagnostic, match="negative"):
        shift_minimal_indices((0,), recipe, side="right")


@pytest.mark.parametrize("m", [3, 5])
def test_symmetric_family_shift(m, rng):
    # the block-symmetric recipes shift both sides by (m - 1) / 2
    re = make_realization("symmetric", rng, m=m, ns_top=True)
    L = symmetric_linearization(re, 0)
    alpha = L.provenance["recipe"].alpha()
    assert tp.total_inversions(alpha) == (m - 1) // 2
    assert tp.total_consecutions(alpha) == (m - 1) // 2


def test_symmetric_singular_sweep(rng):
    re = zero_corner_realization(rng, 3, 2, 3, "symmetric")
    L = symmetric_linearization(re, 0)
    S = system_matrix(re).as_poly()
    bund_l = minimal_basis_degree_sweep(PolyMatrix([L.X, L.Y]))
    bund_s = minimal_basis_degree_sweep(S)
    shifted = shift_minimal_indices(bund_l.degrees, L.provenance["recipe"],
                                    side="right")
    assert shifted == tuple(sorted(bund_s.degrees))


def test_bundle_take_rows(rng):
    Z = ints(rng, 6, 2).astype(complex)
    b = VectorBundle(data=Z, kind="eigenvector-basis", side="right",
                     split=(4, 2))
    sub = b.take_rows([0, 1, 4, 5], split=(2, 2))
    assert sub.rows == 4 and sub.width == 2
    assert np.array_equal(sub.eval(0), Z[[0, 1, 4, 5]])
