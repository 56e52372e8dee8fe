"""Index-tuple combinatorics.

Index tuples are plain python tuples of integers.  They come in two
ranges: non-negative tuples drawn from ``{0:h}`` and negative tuples
drawn from ``{-h:-1}`` (tested after shifting by ``+h``).  All the
bookkeeping that decides where borders land in a bordered pencil --
successor infix property (SIP), column standard form (csf),
consecutions/inversions, admissible tuples, symmetric complements,
canonical-form tuples and type-1 rewrites -- lives here.

Everything is a pure function on immutable values.
"""

from dataclasses import dataclass, field

__all__ = [
    "rev", "neg", "shift", "concat", "string",
    "is_sip", "is_csf", "permutation_csf",
    "consecutions", "inversions",
    "total_consecutions", "total_inversions",
    "AdmissibleTuple", "admissible_tuple", "simple_admissible",
    "symmetric_complement", "is_canonical_form",
    "zr_rewrite", "is_type1_right",
]


def rev(t):
    """Reversal (t_p, ..., t_1)."""
    return tuple(reversed(t))


def neg(t):
    """Entrywise negation."""
    return tuple(-x for x in t)


def shift(t, k):
    """Entrywise shift t + k."""
    return tuple(x + k for x in t)


def concat(*ts):
    out = ()
    for t in ts:
        out = out + tuple(t)
    return out


def string(k, ell):
    """The string (k:ell) = (k, k+1, ..., ell); empty when k > ell."""
    return tuple(range(k, ell + 1))


def _normalize_range(t, h):
    """Map a tuple from {0:h} or {-h:-1} into {0:h}; reject mixed signs."""
    t = tuple(t)
    if not t:
        return t
    if all(x >= 0 for x in t):
        if any(x > h for x in t):
            raise ValueError(f"tuple entry out of range {{0:{h}}}: {t}")
        return t
    if all(x < 0 for x in t):
        if any(x < -h for x in t):
            raise ValueError(f"tuple entry out of range {{-{h}:-1}}: {t}")
        return shift(t, h)
    raise ValueError(f"mixed-sign index tuple: {t}")


def is_sip(t, h):
    """Successor infix property: every repeated pair i_a = i_b (a < b)
    has some i_c = i_a + 1 strictly between."""
    s = _normalize_range(t, h)
    p = len(s)
    for a in range(p):
        for b in range(a + 1, p):
            if s[a] == s[b]:
                if not any(s[c] == s[a] + 1 for c in range(a + 1, b)):
                    return False
    return True


def _ascending_runs(t):
    """Split into maximal runs ascending by exactly 1."""
    runs = []
    for x in t:
        if runs and x == runs[-1][-1] + 1:
            runs[-1].append(x)
        else:
            runs.append([x])
    return runs


def is_csf(t):
    """True iff t is a concatenation of strings whose right endpoints
    strictly decrease left to right (column standard form)."""
    runs = _ascending_runs(tuple(t))
    ends = [r[-1] for r in runs]
    return all(ends[i] > ends[i + 1] for i in range(len(ends) - 1))


def consecutions(t, k):
    """c_k(t): the largest p with (k, k+1, ..., k+p) a subtuple of t;
    -1 when k does not occur in t."""
    t = tuple(t)
    if k not in t:
        return -1
    cur = t.index(k)
    p = 0
    while True:
        nxt = None
        for j in range(cur + 1, len(t)):
            if t[j] == k + p + 1:
                nxt = j
                break
        if nxt is None:
            return p
        p += 1
        cur = nxt


def inversions(t, k):
    """i_k(t): the largest p with (k+p, ..., k+1, k) a subtuple of t."""
    return consecutions(rev(t), k)


def _check_permutation(alpha):
    alpha = tuple(alpha)
    m = len(alpha)
    if sorted(alpha) != list(range(m)):
        raise ValueError(f"not a permutation of {{0:{m - 1}}}: {alpha}")
    return alpha, m


def _adjacent_orders(alpha):
    """For j = 0..m-2: True when j+1 occurs after j (a consecution at j)."""
    alpha, m = _check_permutation(alpha)
    pos = [0] * m
    for i, x in enumerate(alpha):
        pos[x] = i
    return [pos[j] < pos[j + 1] for j in range(m - 1)]


def permutation_csf(alpha):
    """Column standard form of a permutation of {0:m-1}, as reached by
    swapping adjacent entries that differ by more than 1: cut {0:m-1}
    wherever j + 1 comes before j, and list the strings highest first."""
    alpha, m = _check_permutation(alpha)
    ords = _adjacent_orders(alpha)
    strings, start = [], 0
    for j in range(m):
        if j == m - 1 or not ords[j]:
            strings.append(string(start, j))
            start = j + 1
    return concat(*reversed(strings))


def total_consecutions(alpha):
    return sum(_adjacent_orders(alpha))


def total_inversions(alpha):
    ords = _adjacent_orders(alpha)
    return len(ords) - sum(ords)


@dataclass(frozen=True)
class AdmissibleTuple:
    """Admissible tuple of {0:h} with index p:
    csf = (h-1:h, h-3:h-2, ..., p+1:p+2, 0:p)."""
    h: int
    p: int
    entries: tuple = field(default=())


def admissible_tuple(h, p):
    if h < 0 or not 0 <= p <= h or (h - p) % 2 != 0:
        raise ValueError(f"no admissible tuple of {{0:{h}}} with index {p}")
    entries = []
    a = h - 1
    while a > p:
        entries += [a, a + 1]
        a -= 2
    entries += list(range(p + 1))
    return AdmissibleTuple(h=h, p=p, entries=tuple(entries))


def simple_admissible(h):
    """The unique admissible tuple with index 0 (h even) or 1 (h odd)."""
    return admissible_tuple(h, h % 2)


def symmetric_complement(w):
    """Symmetric complement c_w of an admissible tuple."""
    if not isinstance(w, AdmissibleTuple):
        raise TypeError("symmetric_complement expects an AdmissibleTuple")
    h, p = w.h, w.p
    if h == 0:
        return ()
    if p == 0:
        return tuple(range(h - 1, 0, -2))
    out = list(range(h - 1, p, -2))
    for q in range(p - 1, 0, -1):  # (0:p)_rev_c = (0:p-1, ..., 0:1, 0)
        out += list(range(q + 1))
    out += [0]
    return tuple(out)


def is_canonical_form(t, h):
    """True iff t = (a_1:h-2, a_2:h-4, ..., a_k:h-2k), k = floor(h/2),
    with a_i >= 0 (individual strings may be empty)."""
    t = tuple(t)
    if not t:
        return True
    if any(x < 0 for x in t):
        return False
    runs = _ascending_runs(t)
    targets = [h - 2 * i for i in range(1, h // 2 + 1)]
    ti = 0
    for run in runs:
        end = run[-1]
        while ti < len(targets) and targets[ti] != end:
            ti += 1
        if ti >= len(targets):
            return False
        ti += 1
    return True


def _csf_strings(alpha):
    """Parse a csf permutation of {0:k} into its strings, left to right."""
    alpha, m = _check_permutation(alpha)
    if not is_csf(alpha):
        raise ValueError(f"tuple not in column standard form: {alpha}")
    return _ascending_runs(alpha)


def zr_rewrite(alpha, s):
    """One right rewrite z_r(alpha, s); alpha a csf permutation of {0:k},
    s the start of a string (s:t) with s < t."""
    strings = _csf_strings(alpha)
    idx = next((i for i, r in enumerate(strings) if r[0] == s), None)
    if idx is None or len(strings[idx]) < 2:
        raise ValueError(f"{s} is not a right index of type-1 for {tuple(alpha)}")
    assert sum(1 for r in strings if r[0] == s) == 1
    if s == 0:
        # split (0:a1) at the right end into (1:a1), (0)
        strings[idx] = strings[idx][1:]
        strings.append([0])
    else:
        # move s from its string onto the end of the next string right
        strings[idx] = strings[idx][1:]
        strings[idx + 1] = strings[idx + 1] + [s]
    out = []
    for r in strings:
        out += r
    return tuple(out)


def is_type1_right(beta, alpha):
    """True iff beta is a right index tuple of type-1 relative to alpha:
    folding zr_rewrite over beta succeeds at every step.  alpha need not
    be given in csf; it is normalized first."""
    cur = permutation_csf(alpha)
    for s in beta:
        strings = _csf_strings(cur)
        if not any(r[0] == s and len(r) >= 2 for r in strings):
            return False
        cur = zr_rewrite(cur, s)
    return True
