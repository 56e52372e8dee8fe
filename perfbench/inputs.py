"""Seeded input generation for the benchmark workloads.

Everything here is plain numpy: the raw data of a realization, the
system-matrix data the oracles use, and the recipes.  The library only
sees the generated inputs, never the seed.

A realization is a dict with the raw data the library's constructors take
(``P`` coefficient list, ``A``, ``B``, ``E`` or ``C`` as each kind needs)
and, under ``sys``, the benchmark's own canonical system-matrix data
``(C, E, A)`` so that S(lam) = [[P(lam), C], [B, A - lam E]].
"""

import numpy as np

STRUCTURED_KINDS = ("symmetric", "t-even", "t-odd", "hamiltonian",
                    "skew-hamiltonian", "skew-symmetric")


def rng_for(*key):
    """Independent generator for a tuple of non-negative integers."""
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def _sym(rng, k):
    M = rng.normal(size=(k, k))
    return (M + M.T) / 2


def _skew(rng, k):
    M = rng.normal(size=(k, k))
    return (M - M.T) / 2


def _j(ell):
    J = np.zeros((2 * ell, 2 * ell))
    J[:ell, ell:] = np.eye(ell)
    J[ell:, :ell] = -np.eye(ell)
    return J


# coefficient j of P for each structured kind
_P_PARITY = {
    "symmetric": lambda j: _sym,
    "t-even": lambda j: _sym if j % 2 == 0 else _skew,
    "hamiltonian": lambda j: _sym if j % 2 == 0 else _skew,
    "t-odd": lambda j: _skew if j % 2 == 0 else _sym,
    "skew-symmetric": lambda j: _skew,
    "skew-hamiltonian": lambda j: _skew,
}


def general_realization(rng, m, n, r):
    """Unstructured G = P + C (lam E - A)^{-1} B with Gaussian data and a
    well-conditioned E."""
    P = [rng.normal(size=(n, n)) for _ in range(m + 1)]
    C = rng.normal(size=(n, r))
    E = np.eye(r) + 0.1 * rng.normal(size=(r, r))
    A = rng.normal(size=(r, r))
    B = rng.normal(size=(r, n))
    return {"kind": "general", "m": m, "n": n, "r": r, "P": P,
            "A": A, "B": B, "E": E, "C": C, "sys": (C, E, A)}


def structured_realization(rng, kind, m, n, r):
    """Raw data of a structured realization and its canonical system
    matrix, written out per kind (n and r even keep every skew leading
    coefficient and skew E nonsingular)."""
    P = [_P_PARITY[kind](j)(rng, n) for j in range(m + 1)]
    B = rng.normal(size=(r, n))
    E = None
    if kind == "symmetric":
        A = _sym(rng, r)
        E = np.eye(r) + 0.2 * _sym(rng, r)
        sys_ = (B.T, E, A)
    elif kind == "t-even":
        A = _sym(rng, r)
        E = _j(r // 2) + 0.2 * _skew(rng, r)
        sys_ = (B.T, E, A)
    elif kind == "t-odd":
        A = _skew(rng, r)
        sys_ = (-B.T, -np.eye(r), -A)
    elif kind == "skew-symmetric":
        A = _skew(rng, r)
        E = _j(r // 2) + 0.2 * _skew(rng, r)
        sys_ = (-B.T, -E, -A)
    elif kind == "hamiltonian":
        J = _j(r // 2)
        A = J.T @ _sym(rng, r)
        sys_ = (B.T @ J.T, np.eye(r), A)
    elif kind == "skew-hamiltonian":
        J = _j(r // 2)
        A = J.T @ _skew(rng, r)
        sys_ = (-B.T @ J.T, -np.eye(r), -A)
    else:
        raise ValueError(kind)
    return {"kind": kind, "m": m, "n": n, "r": r, "P": P, "A": A, "B": B,
            "E": E, "sys": sys_}


def library_realization(spec):
    """The library's Realization object for a generated spec."""
    from rosepencil.polymat import MatrixPolynomial
    from rosepencil.realize import Realization, make_structured_realization

    P = MatrixPolynomial([np.asarray(c, dtype=complex) for c in spec["P"]])
    if spec["kind"] == "general":
        return Realization(P, C=spec["C"].astype(complex),
                           E=spec["E"].astype(complex),
                           A=spec["A"].astype(complex),
                           B=spec["B"].astype(complex))
    return make_structured_realization(spec["kind"], P, spec["A"], spec["B"],
                                       E=spec["E"])


def realization_json(spec):
    """The CLI's realization object (structured kinds derive C)."""
    out = {"kind": spec["kind"], "P": [c.tolist() for c in spec["P"]],
           "A": spec["A"].tolist(), "B": spec["B"].tolist()}
    if spec["E"] is not None:
        out["E"] = spec["E"].tolist()
    if spec["kind"] == "general":
        out["C"] = spec["C"].tolist()
    return out


# ---------------------------------------------------------------------------
# recipes

def is_sip(t):
    """Successor infix property, written out: every repeated entry has
    its successor strictly between the two occurrences."""
    for a in range(len(t)):
        for b in range(a + 1, len(t)):
            if t[a] == t[b] and (t[a] + 1) not in t[a + 1:b]:
                return False
    return True


def _decoration(rng, lo, hi, core, left, k):
    """Random k-tuple over {lo:hi} placed left or right of core, redrawn
    until the concatenation keeps the SIP; shorter only when no k-tuple
    is found."""
    if hi < lo:
        return ()
    for size in range(k, 0, -1):
        for _ in range(200):
            t = tuple(int(x) for x in rng.integers(lo, hi + 1, size=size))
            if is_sip(t + core if left else core + t):
                return t
    return ()


def gfpr_recipe(rng, m, n):
    """Random GFPR recipe for degree m: sigma a random permutation of
    {0:h} with h = m // 2, tau of {-m:-h-1}, and SIP-valid decorations of
    up to two entries each with Gaussian n x n matrix assignments.  Fixing
    h keeps the cost of a build close across seeds."""
    h = m // 2
    sigma = tuple(int(x) for x in rng.permutation(h + 1))
    tau = tuple(int(x) - m for x in rng.permutation(m - h))
    s1 = _decoration(rng, 0, h - 1, sigma, True, 2)
    s2 = _decoration(rng, 0, h - 1, s1 + sigma, False, 2)
    t1 = _decoration(rng, -m, -h - 2, tau, True, 2)
    t2 = _decoration(rng, -m, -h - 2, t1 + tau, False, 2)
    rec = {"m": m, "sigma": sigma, "tau": tau, "sigma1": s1, "sigma2": s2,
           "tau1": t1, "tau2": t2}
    for key, t in (("X1", s1), ("X2", s2), ("Y1", t1), ("Y2", t2)):
        if t:
            rec[key] = tuple(rng.normal(size=(n, n)) for _ in t)
    return rec


def recipe_json(rec):
    out = {k: list(rec[k]) for k in ("sigma", "tau", "sigma1", "sigma2",
                                      "tau1", "tau2")}
    out["m"] = rec["m"]
    for key in ("X1", "X2", "Y1", "Y2"):
        if key in rec:
            out[key] = [M.tolist() for M in rec[key]]
    return out


def gfp_partition(rng, m):
    """Random proper GFP partition: 0 in omega0 with (m - 1) // 2 more
    indices, m in omega1 with the rest, both in random order."""
    rest = [int(x) for x in rng.permutation(np.arange(1, m))]
    k = (m - 1) // 2
    omega0 = [0] + rest[:k]
    omega1 = [m] + rest[k:]
    return (tuple(int(x) for x in rng.permutation(omega0)),
            tuple(int(x) for x in rng.permutation(omega1)))


# ---------------------------------------------------------------------------
# Cauchy-Maslov inputs with an index known in closed form

def cm_realization(rng, m, n, r):
    """Real symmetric G = P + B^T (lam E - A)^{-1} B whose pencil
    lam E - A is congruent to lam S - D with S = diag(+-1), D diagonal:
    E = T^T S T, A = T^T D T, B = T^T b.  Then
    G = P + sum_i s_i b_i b_i^T / (lam - p_i) with p_i = d_i / s_i, every
    eigenvalue through a pole jumps with the sign of s_i, and the
    Cauchy-Maslov index is sum(s).  Poles are spread over [-4, 4] at
    least 0.4 * 8/(r-1) apart, rows of b have unit norm, and P is kept
    small, so the library's default probe offset and threshold resolve
    every pole."""
    coeffs = [0.3 * _sym(rng, n) for _ in range(m + 1)]
    s = rng.choice([-1.0, 1.0], size=r)
    spacing = 8.0 / max(r - 1, 1)
    poles = np.linspace(-4.0, 4.0, r) + rng.uniform(-0.3, 0.3, size=r) * spacing
    T = rng.normal(size=(r, r)) + 3.0 * np.eye(r)
    b = rng.normal(size=(r, n))
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    A = T.T @ np.diag(poles * s) @ T
    E = T.T @ np.diag(s) @ T
    A = (A + A.T) / 2
    E = (E + E.T) / 2
    B = T.T @ b
    return {"kind": "symmetric", "m": m, "n": n, "r": r, "P": coeffs,
            "A": A, "B": B, "E": E, "sys": (B.T, E, A),
            "cm_index": int(s.sum()), "poles": np.sort(poles)}
