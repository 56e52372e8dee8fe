"""Correctness oracles computed apart from the library.

Each oracle works from the benchmark's own generated data (inputs.py)
and plain numpy/scipy, never from a library routine:

- finite eigenvalues of S(lam) = [[P(lam), C], [B, A - lam E]] by QZ on a
  first companion form of S, built here;
- constancy of det L(z) / det S(z) at random z, by ``slogdet``;
- exact structure predicates of a pencil X + lam Y and exact placement
  of the borders C, B and the corner A - lam E;
- the S-level residual of a recovered eigenvector;
- the closed-form Cauchy-Maslov index (see inputs.cm_realization).

``self_test`` checks every oracle on tiny cases worked out by hand.
"""

import numpy as np
import scipy.linalg
import scipy.optimize

EIG_TOL = 1e-6          # relative eigenvalue distance, |z - w| / (1 + |w|)
DET_RATIO_TOL = 1e-6    # spread of log|det L/det S| and of its phase
RESIDUAL_TOL = 1e-8     # ||S(lam) x|| / (||S(lam)|| ||x||)


class OracleSetupError(RuntimeError):
    """The reference itself is not clean (a benchmark fault, not the
    library's)."""


def sys_coeffs(spec):
    """Coefficients S_0..S_m of the system matrix, size n + r."""
    C, E, A = spec["sys"]
    P, B = spec["P"], spec["B"]
    n, r, m = spec["n"], spec["r"], spec["m"]
    S = np.zeros((m + 1, n + r, n + r))
    for k in range(m + 1):
        S[k, :n, :n] = P[k]
    S[0, :n, n:] = C
    S[0, n:, :n] = B
    S[0, n:, n:] = A
    S[1, n:, n:] -= E
    return S


def sys_eval(spec, z):
    S = sys_coeffs(spec)
    out = np.zeros(S.shape[1:], dtype=complex)
    for c in S[::-1]:
        out = z * out + c
    return out


def companion_eigs(S, count):
    """The ``count`` finite eigenvalues of sum_k lam^k S_k, by QZ on the
    first companion pencil lam diag(S_m, I, ..) + [[S_{m-1} .. S_0],
    [-I, 0 ..], ..].  Raises OracleSetupError unless exactly ``count``
    eigenvalues are clearly finite and the rest clearly infinite."""
    m = S.shape[0] - 1
    s = S.shape[1]
    N = m * s
    X = np.zeros((N, N))
    Y = np.eye(N)
    Y[:s, :s] = S[m]
    for k in range(m):
        X[:s, k * s:(k + 1) * s] = S[m - 1 - k]
    for k in range(1, m):
        X[k * s:(k + 1) * s, (k - 1) * s:k * s] = -np.eye(s)
    w = scipy.linalg.eigvals(-X, Y, homogeneous_eigvals=True)
    alpha, beta = w
    ratio = np.abs(beta) / np.maximum(np.abs(alpha) + np.abs(beta), 1e-300)
    order = np.argsort(-ratio)
    fin, rest = order[:count], order[count:]
    if count and ratio[fin].min() < 1e-6:
        raise OracleSetupError("companion reference: too few finite eigenvalues")
    if rest.size and ratio[rest].max() > 1e-10:
        raise OracleSetupError("companion reference: too many finite eigenvalues")
    return alpha[fin] / beta[fin]


def reference_eigs(spec):
    """Finite eigenvalues of S; with nonsingular A_m and E their number
    is deg det S = mn + r."""
    return companion_eigs(sys_coeffs(spec), spec["m"] * spec["n"] + spec["r"])


def recovery_eigenvalue(eigs):
    """An eigenvalue of S to recover an eigenvector at: eigenvalues
    within 1e-6 (relative) are merged into one cluster and averaged,
    which restores full accuracy for the double eigenvalues of the skew
    kinds; among the clusters no larger in modulus than the median, the
    one farthest from all other clusters wins."""
    clusters = []
    for z in sorted(np.asarray(eigs, dtype=complex), key=abs):
        for c in clusters:
            if abs(z - c[0]) <= 1e-6 * (1.0 + abs(c[0])):
                c.append(z)
                break
        else:
            clusters.append([z])
    means = np.array([np.mean(c) for c in clusters])
    D = np.abs(np.subtract.outer(means, means))
    np.fill_diagonal(D, np.inf)
    gap = D.min(axis=1)
    gap[np.abs(means) > np.median(np.abs(means))] = -1.0
    return complex(means[int(np.argmax(gap))])


def eig_distance(got, ref):
    """Largest relative distance |z - w| / (1 + |w|) under the optimal
    pairing; inf on a count mismatch or a non-finite value."""
    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    if got.shape != ref.shape or not np.all(np.isfinite(got)):
        return float("inf")
    if got.size == 0:
        return 0.0
    D = np.abs(np.subtract.outer(got, ref)) / (1.0 + np.abs(ref))[None, :]
    rows, cols = scipy.optimize.linear_sum_assignment(D)
    return float(D[rows, cols].max())


def det_ratio_spread(X, Y, spec, rng, points=4):
    """Spread of log det(X + zY) - log det S(z) over random z, in modulus
    (log scale) and phase; 0 for an exact constant ratio."""
    logs, phases = [], []
    for _ in range(points):
        z = complex(rng.normal(), rng.normal())
        sL, lL = np.linalg.slogdet(X + z * Y)
        sS, lS = np.linalg.slogdet(sys_eval(spec, z))
        if sL == 0 or sS == 0:
            return float("inf")
        logs.append(lL - lS)
        phases.append(sL / sS)
    return max(max(logs) - min(logs),
               max(abs(p - phases[0]) for p in phases))


# ---------------------------------------------------------------------------
# structure and borders

def _j(ell):
    J = np.zeros((2 * ell, 2 * ell))
    J[:ell, ell:] = np.eye(ell)
    J[ell:, :ell] = -np.eye(ell)
    return J


# kind -> (sign of X^T, sign of Y^T, multiply by diag(I_mn, J)?)
_STRUCTURE = {
    "symmetric": (1, 1, False),
    "t-even": (1, -1, False),
    "t-odd": (-1, 1, False),
    "skew-symmetric": (-1, -1, False),
    "hamiltonian": (1, -1, True),
    "skew-hamiltonian": (-1, -1, True),
}


def structure_ok(X, Y, kind, mn, r):
    """Exact structure of X + lam Y: X^T = sx X and Y^T = sy Y, after
    left multiplication by diag(I_mn, J_{r/2}) for the Hamiltonian
    kinds."""
    sx, sy, use_j = _STRUCTURE[kind]
    if use_j:
        K = np.eye(mn + r, dtype=complex)
        K[mn:, mn:] = _j(r // 2)
        X, Y = K @ X, K @ Y
    return bool(np.array_equal(X.T, sx * X) and np.array_equal(Y.T, sy * Y))


def cons0(t):
    """c_0(t): largest p with (0, 1, .., p) a subsequence of t; -1 when
    0 is absent."""
    p, want = -1, 0
    for x in t:
        if x == want:
            p, want = want, want + 1
    return p


def inv0(t):
    """i_0(t) = c_0(reversed t)."""
    return cons0(tuple(reversed(tuple(t))))


def borders_ok(X, Y, spec, u, v):
    """C in block row u of the last r columns and nothing else there,
    B in block column v of the last r rows, corner A - lam E; all exact."""
    C, E, A = spec["sys"]
    B = spec["B"]
    n, r, m = spec["n"], spec["r"], spec["m"]
    mn = m * n
    colX = np.zeros((mn, r))
    colX[(u - 1) * n:u * n] = C
    rowX = np.zeros((r, mn))
    rowX[:, (v - 1) * n:v * n] = B
    return bool(np.array_equal(X[:mn, mn:], colX)
                and np.array_equal(X[mn:, :mn], rowX)
                and np.array_equal(X[mn:, mn:], A)
                and not Y[:mn, mn:].any() and not Y[mn:, :mn].any()
                and np.array_equal(Y[mn:, mn:], -E))


def s_residual(spec, lam, V):
    """Largest ||S(lam) x|| / (||S(lam)|| ||x||) over the columns x of V."""
    M = sys_eval(spec, lam)
    norm = np.linalg.norm(M, 2)
    V = np.atleast_2d(V)
    res = np.linalg.norm(M @ V, axis=0) / (norm * np.linalg.norm(V, axis=0))
    return float(res.max())


# ---------------------------------------------------------------------------
# self-tests on tiny cases worked out by hand

def _eigvals_jump_sum(spec, delta=1e-5):
    """Cauchy-Maslov index by brute force from the benchmark's own
    evaluation of G: at each pole count eigenvalues that jump from
    -inf to +inf minus those that jump the other way."""
    C, E, A = spec["sys"]
    B = spec["B"]

    def G(z):
        val = sum(z ** k * c for k, c in enumerate(spec["P"]))
        return val + C @ np.linalg.solve(z * E - A, B)

    idx = 0
    for p in spec["poles"]:
        lo = np.linalg.eigvalsh(G(p - delta))
        hi = np.linalg.eigvalsh(G(p + delta))
        big = 1.0 / (100.0 * delta)
        idx += min(np.sum(lo < -big), np.sum(hi > big)) \
            - min(np.sum(lo > big), np.sum(hi < -big))
    return int(idx)


def self_test():
    """Raise AssertionError if any oracle disagrees with a hand result."""
    # S(lam) = [[lam - 1, 1], [1, 2 - lam]]: det = -(lam^2 - 3 lam + 3),
    # roots (3 +- i sqrt 3) / 2
    spec = {"m": 1, "n": 1, "r": 1, "P": [np.array([[-1.0]]), np.array([[1.0]])],
            "B": np.array([[1.0]]),
            "sys": (np.array([[1.0]]), np.array([[1.0]]), np.array([[2.0]]))}
    want = np.array([1.5 + 0.5j * np.sqrt(3), 1.5 - 0.5j * np.sqrt(3)])
    assert eig_distance(reference_eigs(spec), want) < 1e-14
    # P(lam) = lam^2 - 3 lam + 2 with no state: roots 1 and 2
    spec2 = {"m": 2, "n": 1, "r": 0, "B": np.zeros((0, 1)),
             "P": [np.array([[2.0]]), np.array([[-3.0]]), np.array([[1.0]])],
             "sys": (np.zeros((1, 0)), np.zeros((0, 0)), np.zeros((0, 0)))}
    assert eig_distance(reference_eigs(spec2), [1.0, 2.0]) < 1e-14
    assert eig_distance([1.0, 2.0 + 1e-3], [2.0, 1.0]) > 1e-4
    assert eig_distance([1.0], [1.0, 2.0]) == float("inf")
    assert eig_distance([np.nan, 1.0], [1.0, 2.0]) == float("inf")

    # det ratio: 3 * S has the constant ratio 9; a perturbed copy has not
    S0, S1 = sys_coeffs(spec)
    rng = np.random.default_rng(0)
    assert det_ratio_spread(3 * S0, 3 * S1, spec, rng) < 1e-14
    bad = S0.copy()
    bad[0, 0] += 0.5
    assert det_ratio_spread(bad, S1, spec, rng) > 1e-3

    # structure: X symmetric, Y skew is T-even, not symmetric
    X = np.array([[1.0, 2.0], [2.0, 3.0]])
    Y = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert structure_ok(X, Y, "t-even", 2, 0)
    assert not structure_ok(X, Y, "symmetric", 2, 0)
    assert structure_ok(Y, X, "t-odd", 2, 0)
    # Hamiltonian: diag(I_0, J_1) [[0, 1], [-1, 0]] = I is T-even's X
    assert structure_ok(Y, np.zeros((2, 2)), "hamiltonian", 0, 2)

    # consecutions / inversions: (0, 2, 1) has c_0 = 1, i_0 = 0;
    # (1, 0) has c_0 = 0, i_0 = 1; (2, 1) lacks 0
    assert (cons0((0, 2, 1)), inv0((0, 2, 1))) == (1, 0)
    assert (cons0((1, 0)), inv0((1, 0))) == (0, 1)
    assert cons0((2, 1)) == -1

    # borders: m = 2, n = 1, r = 1 with C at block 1, B at block 2
    bspec = {"m": 2, "n": 1, "r": 1, "B": np.array([[5.0]]),
             "sys": (np.array([[4.0]]), np.array([[7.0]]), np.array([[6.0]]))}
    Xb = np.array([[0.0, 0.0, 4.0], [0.0, 0.0, 0.0], [0.0, 5.0, 6.0]])
    Yb = np.diag([1.0, 1.0, -7.0])
    assert borders_ok(Xb, Yb, bspec, 1, 2)
    assert not borders_ok(Xb, Yb, bspec, 2, 2)

    # residual: S(lam) x = 0 for lam a root of det S and x from the
    # first row [lam - 1, 1]: x = (1, 1 - lam)
    lam = want[0]
    assert s_residual(spec, lam, np.array([[1.0], [1.0 - lam]])) < 1e-15
    assert s_residual(spec, lam, np.array([[1.0], [0.0]])) > 1e-2

    # closed-form Cauchy-Maslov: G = 1/(lam - 1) - 1/(lam + 1) has index
    # +1 - 1 = 0, and the brute-force jump count of a hidden diagonal
    # realization equals sum(sign E)
    one = {"m": 0, "n": 1, "r": 2, "P": [np.zeros((1, 1))],
           "B": np.array([[1.0], [1.0]]), "poles": np.array([-1.0, 1.0]),
           "sys": (np.array([[1.0, 1.0]]), np.diag([-1.0, 1.0]),
                   np.diag([1.0, 1.0]))}
    assert _eigvals_jump_sum(one) == 0
    from inputs import cm_realization, rng_for
    for r, seed in ((3, 1), (6, 2)):
        cm = cm_realization(rng_for(seed), 1, 2, r)
        assert _eigvals_jump_sum(cm) == cm["cm_index"]
