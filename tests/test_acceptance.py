"""Acceptance suite.

Each test covers one acceptance criterion end to end and prints a single
pass/fail line with timing; tolerances are stated inline.
"""

import itertools
import time

import numpy as np
import pytest
import scipy.linalg

from rosepencil import tuples as tp
from rosepencil.pencils import (GfprRecipe, RecipeError, fiedler_pencil,
                                gf_pencil, gfpr, gfpr_poly)
from rosepencil.polymat import MatrixPolynomial, PolyMatrix, structure_check
from rosepencil.realize import (Realization, StructuralViolation, jay,
                                system_matrix)
from rosepencil.recover import (eigenvector_bundle, recover_from_gfpr,
                                recover_s_to_g, shift_minimal_indices)
from rosepencil.structured import (_even_odd_recipe, cauchy_maslov_index,
                                   find_quasi_identity,
                                   hamiltonian_linearization,
                                   skew_hamiltonian_linearization,
                                   skew_symmetric_linearization,
                                   symmetric_linearization,
                                   t_even_linearization, t_odd_linearization)
from rosepencil.verify import (det_proportionality, eig_multiset,
                               minimal_basis_degree_sweep, pencil_eigenvalues)
from conftest import (all_permutations, ints, make_realization, poly,
                      product_gfpr, zero_corner_realization)
from lemma_oracles import (appendix_witnesses, elimination_witness,
                           lambda_alpha, multiset_distance, omega_alpha, rciss)
from paper_examples import ENTRIES, entry_rng


def _report(criterion, ok, detail, t0):
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail} "
            f"({time.perf_counter() - t0:.2f}s)")
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. example reconstruction, zero tolerance, < 5 s

def test_criterion_1_example_reconstruction():
    t0 = time.perf_counter()
    for eid, entry in ENTRIES.items():
        entry(entry_rng(eid, 0))   # raises unless reproduced exactly
    displays = ("gfpr_m4", "sym_m5_h2", "sym_m6_h0", "teven_m5", "teven_m4",
                "todd_m5", "skew_m5", "skew_m4")
    ok = all(d in ENTRIES for d in displays)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(1, ok, f"{len(ENTRIES)} corpus entries exact, "
                   f"{len(displays)} published displays, zero tolerance", t0)


# ---------------------------------------------------------------------------
# 2. combinatorics: frozen RCISS values + exhaustive c + i = m - 1, < 10 s

def test_criterion_2_combinatorics():
    t0 = time.perf_counter()
    ok = rciss((8, 9, 10, 7, 6, 5, 2, 3, 4, 1, 0)).pairs == (2, 4, 2, 2)
    ok &= rciss((10, 9, 5, 6, 7, 8, 3, 4, 2, 0, 1)).pairs == \
        (0, 2, 3, 1, 1, 2, 1, 0)
    ok &= tp.consecutions((1, 0, 2, 1, 3, 2, 4, 1, 3, 2, 1), 0) == 3
    count = 0
    for m in range(1, 9):
        for alpha in itertools.permutations(range(m)):
            count += 1
            if tp.total_consecutions(alpha) + tp.total_inversions(alpha) \
                    != m - 1:
                ok = False
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(2, ok, f"frozen RCISS values exact; c+i=m-1 on {count} "
                   "permutations (m <= 8)", t0)


# ---------------------------------------------------------------------------
# 3. quasi-identity: worked-example sign patterns + uniqueness on 100 draws

def test_criterion_3_quasi_identity():
    t0 = time.perf_counter()
    displays = ("teven_m5", "teven_m4", "todd_m5", "todd_m4",
                "skew_m5", "skew_m4")
    # each corpus entry asserts the printed sign pattern (up to the global
    # sign of the border-normalized form) against find_quasi_identity
    for d in displays:
        ENTRIES[d](entry_rng(d, 0))
    ok = True

    rng = np.random.default_rng(42)
    builders = {"t-even": t_even_linearization,
                "t-odd": t_odd_linearization,
                "skew-symmetric": skew_symmetric_linearization}
    targets = {"t-even": "t-even", "t-odd": "t-odd",
               "skew-symmetric": "skew-symmetric"}
    found = 0
    for k in range(100):
        kind = list(builders)[k % 3]
        m = 3 + k % 4                    # m in 3..6
        h = 2 if (k // 3) % 2 and m >= 3 else 0
        re = make_realization(kind, rng, m=m, ns_top=True)
        recipe = _even_odd_recipe(re, h, None)
        LP = gfpr_poly(recipe, re.P)
        qi = find_quasi_identity(LP, targets[kind])  # raises if 0 or > 1
        found += 1
        if qi.signs[0] != 1:
            ok = False
    _report(3, ok, f"6 published sign patterns reproduced; exactly one "
                   f"normalized Q on {found}/100 random family instances "
                   "(m <= 6)", t0)


# ---------------------------------------------------------------------------
# 4. bordered GFPR against the system-matrix product oracle, exact zero
#    difference

def _simple_tuples(pool, max_len=2):
    out = [()]
    for k in range(1, max_len + 1):
        out += list(itertools.permutations(pool, k))
    return out


def test_criterion_4_dual_path_gfpr():
    t0 = time.perf_counter()
    m = 4
    rng = np.random.default_rng(7)
    re = make_realization("general", rng, n=1, r=1, m=m)
    checked = 0
    ok = True
    for h in range(m):
        sig_pool = list(range(h))            # decoration indices {0:h-1}
        tau_pool = list(range(-m, -h - 1))   # decoration indices {-m:-h-2}
        for sigma in itertools.permutations(range(h + 1)):
            for tau in itertools.permutations(range(-m, -h)):
                for s1, s2, t1, t2 in itertools.product(
                        _simple_tuples(sig_pool), _simple_tuples(sig_pool),
                        _simple_tuples(tau_pool), _simple_tuples(tau_pool)):
                    try:
                        base = GfprRecipe(m=m, sigma=sigma, tau=tau,
                                          sigma1=s1, sigma2=s2,
                                          tau1=t1, tau2=t2)
                    except RecipeError:
                        continue
                    for _ in range(10):
                        recipe = GfprRecipe(
                            m=m, sigma=sigma, tau=tau, sigma1=s1, sigma2=s2,
                            tau1=t1, tau2=t2,
                            X1=tuple(ints(rng, 1, 1) for _ in s1),
                            X2=tuple(ints(rng, 1, 1) for _ in s2),
                            Y1=tuple(ints(rng, 1, 1) for _ in t1),
                            Y2=tuple(ints(rng, 1, 1) for _ in t2))
                        L = gfpr(recipe, re)
                        X, Y = product_gfpr(recipe, re)
                        if not (np.array_equal(L.X, X)
                                and np.array_equal(L.Y, Y)):
                            ok = False
                    checked += 1
    _report(4, ok, f"bordered gfpr == product oracle exactly for {checked} "
                   "valid recipes (m=4, h in 0..3, simple decorations of length "
                   "<= 2, 10 integer assignments each)", t0)


# ---------------------------------------------------------------------------
# 5. strong-linearization proxy on 20 regular integer instances per family

def _companion_finite_eigs(pm):
    d, N = pm.degree, pm.shape[0]
    if d == 0:
        return []
    A = np.zeros((d * N, d * N), dtype=complex)
    B = np.eye(d * N, dtype=complex)
    B[:N, :N] = pm.coeff(d)
    A[:N] = -np.concatenate([pm.coeff(d - 1 - k) for k in range(d)], axis=1)
    for i in range(1, d):
        A[i * N: (i + 1) * N, (i - 1) * N: i * N] = np.eye(N)
    w = scipy.linalg.eigvals(A, B)
    return sorted((z for z in w if np.isfinite(z) and abs(z) < 1e8),
                  key=lambda z: (z.real, z.imag))


def _random_fp(re, rng):
    return fiedler_pencil(tuple(rng.permutation(re.m)), re)


def _random_gfp(re, rng):
    m = re.m
    inner = [i for i in range(1, m) if rng.integers(2)]
    omega1 = tuple(sorted(inner)) + (m,)
    omega0 = tuple(i for i in range(m) if i not in omega1)
    if not omega0:
        omega0, omega1 = (0,), tuple(i for i in omega1 if i != 0)
    return gf_pencil(omega0, omega1, re)


def _random_gfpr(re, rng):
    m = re.m
    h = int(rng.integers(0, m))
    sigma = tuple(rng.permutation(np.arange(h + 1)))
    tau = tuple(int(v) for v in rng.permutation(np.arange(-m, -h)))
    return gfpr(GfprRecipe(m=m, sigma=sigma, tau=tau), re)


def test_criterion_5_strong_linearization_proxy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    families = {
        "fp": ("general", lambda re: _random_fp(re, rng)),
        "gfp": ("general", lambda re: _random_gfp(re, rng)),
        "gfpr": ("general", lambda re: _random_gfpr(re, rng)),
        "symmetric": ("symmetric", lambda re: symmetric_linearization(re, 0)),
        "t-even": ("t-even", lambda re: t_even_linearization(re, 0)),
        "t-odd": ("t-odd", lambda re: t_odd_linearization(re, 0)),
        "skew-symmetric": ("skew-symmetric",
                           lambda re: skew_symmetric_linearization(re, 0)),
        "hamiltonian": ("hamiltonian",
                        lambda re: hamiltonian_linearization(re, 0)),
        "skew-hamiltonian": ("skew-hamiltonian",
                             lambda re: skew_hamiltonian_linearization(re, 0)),
    }
    ok = True
    worst_dev, worst_eig = 0.0, 0.0
    total = 0
    for fam, (kind, build) in families.items():
        done = 0
        while done < 20:
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, 4))
            r = int(rng.choice([2, 4]) if kind in
                    ("hamiltonian", "skew-hamiltonian", "t-even",
                     "skew-symmetric") else rng.integers(1, 5))
            try:
                re = make_realization(kind, rng, n=n, r=r, m=m, ns_top=True)
                L = build(re)
                S = system_matrix(re)
                rep = det_proportionality(L, S, tol=1e-8)
            except (np.linalg.LinAlgError, RecipeError, RuntimeError):
                # resample: some (kind, n, r, m) combinations admit no
                # nonsingular integer draw (odd-size skew blocks)
                continue
            worst_dev = max(worst_dev, rep.deviation)
            got = eig_multiset(pencil_eigenvalues(L.X, L.Y))
            ref = _companion_finite_eigs(S.as_poly())
            d = multiset_distance(got, ref)
            worst_eig = max(worst_eig, d)
            if rep.deviation > 1e-8 or d > 1e-6:
                ok = False
            # infinite-count proxy: N - deg det consistent between levels
            from rosepencil.verify import infinity_structure
            if not infinity_structure(L, S).consistent:
                ok = False
            done += 1
            total += 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report(5, ok, f"{total} instances over {len(families)} families: "
                   f"det deviation <= {worst_dev:.1e} (tol 1e-8), eigenvalue "
                   f"multiset distance <= {worst_eig:.1e} (tol 1e-6), "
                   "infinity counts consistent", t0)


# ---------------------------------------------------------------------------
# 6. exact structure predicates + odd-h rejection

def test_criterion_6_structure_predicates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    builders = {
        "symmetric": (symmetric_linearization, "symmetric"),
        "t-even": (t_even_linearization, "t-even"),
        "t-odd": (t_odd_linearization, "t-odd"),
        "skew-symmetric": (skew_symmetric_linearization, "skew-symmetric"),
        "hamiltonian": (hamiltonian_linearization, "t-even"),
        "skew-hamiltonian": (skew_hamiltonian_linearization,
                             "skew-symmetric"),
    }
    ok = True
    for kind, (build, tag) in builders.items():
        for m, h in ((3, 0), (5, 2), (4, 0)):
            re = make_realization(kind, rng, m=m, ns_top=True)
            L = build(re, h)
            cl = [L.X, L.Y]
            if "hamiltonian" in kind:
                J = jay(re.m * re.n, re.r)
                cl = [J @ L.X, J @ L.Y]
            if not structure_check(cl, tag, exact=True):
                ok = False
        # negative direction: odd h is structurally invalid
        re = make_realization(kind, rng, m=4, ns_top=True)
        try:
            build(re, 1)
            ok = False
        except StructuralViolation:
            pass
    _report(6, ok, "all 6 structured constructors exact (zero tolerance) on "
                   "integer data at (m,h) in {(3,0),(5,2),(4,0)}; odd h "
                   "rejected", t0)


# ---------------------------------------------------------------------------
# 7. recovery: eigenvectors, singular battery, symmetric shift

def _recover_residual(re, recipe, rng):
    L = gfpr(recipe, re)
    pole_eigs = np.linalg.eigvals(np.linalg.solve(re.E, re.A))
    for z, _ in pencil_eigenvalues(L.X, L.Y):
        if np.isfinite(z) and min(np.abs(pole_eigs - z)) > 1e-6:
            mu = z
            break
    else:
        return None
    bun = eigenvector_bundle(L, mu, tol=1e-8)
    x = recover_s_to_g(recover_from_gfpr(bun, recipe)).eval(mu)
    G = re.g_eval(mu)
    return float(np.linalg.norm(G @ x)
                 / (np.linalg.norm(G) * np.linalg.norm(x)))


def test_criterion_7_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    ok = True

    # 50 regular instances, relative residual <= 1e-8
    worst = 0.0
    done = 0
    while done < 50:
        m = int(rng.integers(2, 5))
        h = int(rng.integers(0, m))
        re = make_realization("general", rng, n=2, r=2, m=m, ns_top=True)
        recipe = GfprRecipe(
            m=m, sigma=tuple(rng.permutation(np.arange(h + 1))),
            tau=tuple(int(v) for v in rng.permutation(np.arange(-m, -h))))
        try:
            res = _recover_residual(re, recipe, rng)
        except np.linalg.LinAlgError:
            continue
        if res is None:
            continue
        worst = max(worst, res)
        if res > 1e-8:
            ok = False
        done += 1

    # 10 singular instances: sweep on L minus the index shift == sweep on S
    sweeps = 0
    for k in range(10):
        kind = "general" if k % 2 else "symmetric"
        re = zero_corner_realization(rng, 3, 2, 3, kind)
        if kind == "general":
            sigma = tuple(rng.permutation(3))
            L = fiedler_pencil(sigma, re)
            recipe = GfprRecipe(m=3, sigma=sigma, tau=(-3,))
        else:
            L = symmetric_linearization(re, 0)
            recipe = L.provenance["recipe"]
        S = system_matrix(re).as_poly()
        bl = minimal_basis_degree_sweep(PolyMatrix([L.X, L.Y]))
        bs = minimal_basis_degree_sweep(S)
        if shift_minimal_indices(bl.degrees, recipe, side="right") \
                != tuple(sorted(bs.degrees)):
            ok = False
        sweeps += 1

    # 5 singular symmetric instances: shift = (m - 1) / 2 on both sides
    shifts = 0
    for k in range(5):
        m = (3, 5, 3, 5, 3)[k]
        re = zero_corner_realization(rng, 3, 2, m, "symmetric")
        L = symmetric_linearization(re, 0)
        alpha = L.provenance["recipe"].alpha()
        if tp.total_inversions(alpha) != (m - 1) // 2 or \
                tp.total_consecutions(alpha) != (m - 1) // 2:
            ok = False
        shifts += 1

    _report(7, ok, f"50 regular recoveries, worst relative residual "
                   f"{worst:.1e} (tol 1e-8); {sweeps} singular degree-sweep "
                   f"matches; symmetric shift (m-1)/2 on {shifts} instances",
            t0)


# ---------------------------------------------------------------------------
# 8. Cauchy-Maslov: scalar battery and a 2x2 real symmetric instance

def _scalar_cm(c_list, p_list):
    r = len(p_list)
    A = np.diag(np.array(p_list, dtype=complex))
    E = np.diag([1.0 if c > 0 else -1.0 for c in c_list]).astype(complex)
    Ar = A @ E
    B = np.ones((r, 1), dtype=complex)
    P = MatrixPolynomial([np.zeros((1, 1)), np.ones((1, 1))])
    return Realization(P, C=B.T.copy(), E=E, A=Ar, B=B,
                       structure="symmetric")


def test_criterion_8_cauchy_maslov():
    t0 = time.perf_counter()
    ok = True
    battery = [
        (_scalar_cm([1.0], [1.0]), 1),           # lam + 1/(lam-1)
        (_scalar_cm([-1.0], [1.0]), -1),         # lam - 1/(lam-1)
        (_scalar_cm([1.0, 1.0], [1.0, -2.0]), 2)
    ]
    for re, want in battery:
        got_g = cauchy_maslov_index(re)
        got_l = cauchy_maslov_index(symmetric_linearization(re, 0))
        if got_g != want or got_l != want:
            ok = False

    rng = np.random.default_rng(12)
    P = MatrixPolynomial([ints(rng, 2, 2) * 0 + np.diag([1.0, 2.0]),
                          np.eye(2, dtype=complex)])
    A = np.diag([1.0 + 0j, -2.0 + 0j])
    B = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    re = Realization(P, C=B.T.copy(), E=np.eye(2, dtype=complex), A=A, B=B,
                     structure="symmetric")
    got_g = cauchy_maslov_index(re)
    got_l = cauchy_maslov_index(symmetric_linearization(re, 0))
    if got_g != got_l:
        ok = False
    _report(8, ok, f"scalar battery (+1, -1, +2) and 2x2 two-real-pole "
                   f"instance: Ind_CM(G) == Ind_CM(linearization) == "
                   f"{got_g}", t0)


# ---------------------------------------------------------------------------
# 9. appendix witnesses

def test_criterion_9_appendix_witnesses():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    ok = True
    worst = 0.0
    count = 0
    for m in range(1, 5):
        P = poly(rng, 2, m)
        for alpha in all_permutations(m):
            rep = appendix_witnesses(alpha, P, seed=count, tol=1e-10)
            worst = max(worst, rep.max_residual)
            if not rep.ok:
                ok = False
            count += 1

    exact = 0
    for _ in range(50):
        m = int(rng.integers(2, 6))
        perm = tuple(rng.permutation(m))
        n = int(rng.integers(1, 4))
        if elimination_witness(lambda_alpha(perm, n),
                               omega_alpha(perm, n), m, n) != 0.0:
            ok = False
        exact += 1
    _report(9, ok, f"witness identities on {count} permutations (m <= 4), "
                   f"max residual {worst:.1e} (tol 1e-10); elimination "
                   f"identity exactly zero on {exact} monomial instances", t0)
