import numpy as np
import pytest

from rosepencil.polymat import structure_check
from rosepencil.realize import (Realization, StructuralViolation, j_matrix,
                                jay, hamiltonian_to_t_even, is_minimal,
                                make_structured_realization,
                                skew_hamiltonian_to_skew_symmetric,
                                system_matrix)
from rosepencil.structured import (hamiltonian_linearization,
                                   skew_hamiltonian_linearization,
                                   skew_symmetric_linearization,
                                   t_even_linearization)
from conftest import ints, make_realization, poly, square
from lemma_oracles import transfer_function_eval


def test_g_eval_decomposition(rng):
    re = make_realization("general", rng)
    lam = 0.7 - 0.2j
    assert np.allclose(re.g_eval(lam), re.P(lam) + re.sp_eval(lam))
    want = re.C @ np.linalg.solve(lam * re.E - re.A, re.B)
    assert np.allclose(re.sp_eval(lam), want)


def test_system_matrix(rng):
    re = make_realization("general", rng)
    S = system_matrix(re)
    lam = 1.1 + 0.3j
    V = S(lam)
    n, r = re.n, re.r
    assert np.allclose(V[:n, :n], re.P(lam))
    assert np.array_equal(V[:n, n:], re.C)
    assert np.array_equal(V[n:, :n], re.B)
    assert np.allclose(V[n:, n:], re.A - lam * re.E)
    assert np.allclose(S.as_poly()(lam), V)


def test_realization_shape_checks(rng):
    re = make_realization("general", rng)
    with pytest.raises(ValueError):
        Realization(re.P, C=re.C, E=re.E, A=re.A, B=re.B[:, :1])
    with pytest.raises(ValueError):
        Realization(re.P, C=re.C, E=np.zeros_like(re.E), A=re.A, B=re.B)


def test_singular_e_rejected(rng):
    re = make_realization("general", rng)
    E = re.E.copy()
    E[:] = 0
    with pytest.raises(ValueError, match="nonsingular"):
        Realization(re.P, C=re.C, E=E, A=re.A, B=re.B)


def test_e_with_an_underflowing_determinant_is_accepted():
    """det(0.01 I_200) = 1e-400 underflows to 0, yet E is perfectly
    conditioned: nonsingularity is not read off the determinant."""
    from rosepencil.polymat import MatrixPolynomial
    r = 200
    assert np.linalg.det(0.01 * np.eye(r)) == 0.0
    re = Realization(MatrixPolynomial([np.eye(1), np.eye(1)]), C=np.ones((1, r)),
                     E=0.01 * np.eye(r), A=np.eye(r), B=np.ones((r, 1)))
    assert re.r == r
    # an exactly singular E of the same size is still refused
    E = 0.01 * np.eye(r)
    E[7, 7] = 0.0
    with pytest.raises(ValueError, match="E must be nonsingular"):
        Realization(re.P, C=re.C, E=E, A=re.A, B=re.B)


def test_minimality(rng):
    # scalar G = 1/(lam - 1) with a duplicated (uncontrollable) state
    from rosepencil.polymat import MatrixPolynomial
    P = MatrixPolynomial([np.ones((1, 1))])
    good = Realization(P, C=np.array([[1.0 + 0j]]), E=np.eye(1),
                       A=np.eye(1), B=np.array([[1.0 + 0j]]))
    assert is_minimal(good)
    bad = Realization(P, C=np.array([[1.0, 0.0]], dtype=complex),
                      E=np.eye(2), A=np.eye(2),
                      B=np.array([[1.0], [0.0]], dtype=complex))
    rep = is_minimal(bad)
    assert not rep
    assert rep.condition in ("controllability", "observability")


@pytest.mark.parametrize("kind,tag", [
    ("symmetric", "symmetric"), ("t-even", "t-even"), ("t-odd", "t-odd"),
    ("skew-symmetric", "skew-symmetric"),
])
def test_structured_system_matrix_structure(kind, tag, rng):
    re = make_realization(kind, rng, m=3)
    S = system_matrix(re).as_poly()
    assert structure_check(S, tag, exact=True)
    # and G itself has the structure, at a probe point
    lam = 0.37
    G = re.g_eval(lam)
    Gm = re.g_eval(-lam)
    if tag == "symmetric":
        assert np.allclose(G.T, G)
    elif tag == "t-even":
        assert np.allclose(Gm.T, G)
    elif tag == "t-odd":
        assert np.allclose(Gm.T, -G)
    else:
        assert np.allclose(G.T, -G)


@pytest.mark.parametrize("kind", ["hamiltonian", "skew-hamiltonian"])
def test_j_twisted_system_matrix(kind, rng):
    re = make_realization(kind, rng, m=3)
    S = system_matrix(re).as_poly()
    J = jay(re.n, re.r)
    JS = [J @ S.coeff(k) for k in range(S.degree + 1)]
    tag = "t-even" if kind == "hamiltonian" else "skew-symmetric"
    assert structure_check(JS, tag, exact=True)


def test_structured_rejects_wrong_data(rng):
    P = poly(rng, 2, 3, "symmetric")
    A = square(rng, 2, "skew", nonsingular=True)  # should be symmetric
    with pytest.raises(StructuralViolation):
        make_structured_realization("symmetric", P, A, ints(rng, 2, 2),
                                    E=square(rng, 2, "sym", nonsingular=True))
    Pw = poly(rng, 2, 3, "t-odd")
    with pytest.raises(StructuralViolation):
        make_structured_realization("t-even", Pw, square(rng, 2, "sym"),
                                    ints(rng, 2, 2),
                                    E=square(rng, 2, "skew", nonsingular=True))


def test_hamiltonian_needs_even_r(rng):
    P = poly(rng, 2, 3, "hamiltonian")
    with pytest.raises(StructuralViolation, match="even r"):
        make_structured_realization("hamiltonian", P, np.zeros((3, 3)),
                                    ints(rng, 3, 2))


@pytest.mark.parametrize("kind,E", [("hamiltonian", 5 * np.eye(2)),
                                    ("skew-hamiltonian", -np.eye(2))])
def test_hamiltonian_kinds_refuse_e(rng, kind, E):
    # these kinds fix E = I in the raw data, as t-odd does; another E
    # would silently describe a different G
    re = make_realization(kind, rng, m=3)
    A = re.A if kind == "hamiltonian" else -re.A
    with pytest.raises(StructuralViolation, match="has E = I"):
        make_structured_realization(kind, re.P, A, re.B, E=E)
    same = make_structured_realization(kind, re.P, A, re.B, E=np.eye(2))
    assert np.array_equal(same.E, re.E) and np.array_equal(same.A, re.A)


def test_hamiltonian_conversion_preserves_g(rng):
    re = make_realization("hamiltonian", rng, m=3)
    conv = hamiltonian_to_t_even(re)
    assert conv.structure == "t-even"
    for lam in (0.3, 1.7 - 0.4j):
        assert np.allclose(re.g_eval(lam), conv.g_eval(lam))


def test_skew_hamiltonian_conversion_preserves_g(rng):
    re = make_realization("skew-hamiltonian", rng, m=3)
    conv = skew_hamiltonian_to_skew_symmetric(re)
    assert conv.structure == "skew-symmetric"
    for lam in (0.3, 1.7 - 0.4j):
        assert np.allclose(re.g_eval(lam), conv.g_eval(lam))


def test_hamiltonian_route_equality(rng):
    # J_{mn,r} x (Hamiltonian linearization) == T-even linearization of
    # the converted realization
    re = make_realization("hamiltonian", rng, m=3)
    T = hamiltonian_linearization(re)
    L = t_even_linearization(hamiltonian_to_t_even(re))
    J = jay(re.m * re.n, re.r)
    assert np.array_equal(J @ T.X, L.X)
    assert np.array_equal(J @ T.Y, L.Y)


def test_skew_hamiltonian_route_equality(rng):
    re = make_realization("skew-hamiltonian", rng, m=3)
    T = skew_hamiltonian_linearization(re)
    L = skew_symmetric_linearization(skew_hamiltonian_to_skew_symmetric(re))
    J = jay(re.m * re.n, re.r)
    assert np.array_equal(J @ T.X, L.X)
    assert np.array_equal(J @ T.Y, L.Y)


def test_transfer_function_eval(rng):
    re = make_realization("symmetric", rng, m=3)
    from rosepencil.structured import symmetric_linearization
    L = symmetric_linearization(re, 0)
    lam = 0.9 + 0.1j
    G = transfer_function_eval(L, lam)
    assert G.shape == (re.m * re.n, re.m * re.n)
