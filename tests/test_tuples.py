import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rosepencil import tuples as tp
from lemma_oracles import rciss


def test_rev_neg_shift_concat():
    assert tp.rev((1, 2, 3)) == (3, 2, 1)
    assert tp.neg((1, -2)) == (-1, 2)
    assert tp.shift((0, 1, 2), -4) == (-4, -3, -2)
    assert tp.concat((1,), (2, 3), ()) == (1, 2, 3)
    assert tp.string(2, 5) == (2, 3, 4, 5)
    assert tp.string(3, 2) == ()


@given(st.lists(st.integers(-8, 8), max_size=8))
def test_rev_involution(t):
    t = tuple(t)
    assert tp.rev(tp.rev(t)) == t
    assert tp.neg(tp.neg(t)) == t


def test_sip_examples():
    # strings of consecutive indices always satisfy the SIP
    assert tp.is_sip((0, 1, 2, 3), 3)
    assert tp.is_sip((1, 2, 0), 2)
    # a repeated index needs its successor in between
    assert not tp.is_sip((0, 0), 1)
    assert tp.is_sip((0, 1, 0), 1)


def test_csf():
    assert tp.is_csf((2, 3, 0, 1))
    assert tp.is_csf((0, 1, 2, 0, 1, 0))  # complements are csf
    assert not tp.is_csf((0, 1, 0, 1))


def csf_bfs(alpha):
    """Reference column standard form: breadth-first search over swaps of
    adjacent entries that differ by more than 1."""
    alpha = tuple(alpha)
    if tp.is_csf(alpha):
        return alpha
    seen, queue = {alpha}, deque([alpha])
    while queue:
        cur = queue.popleft()
        for k in range(len(cur) - 1):
            if abs(cur[k] - cur[k + 1]) > 1:
                nxt = cur[:k] + (cur[k + 1], cur[k]) + cur[k + 2:]
                if nxt in seen:
                    continue
                if tp.is_csf(nxt):
                    return nxt
                seen.add(nxt)
                queue.append(nxt)
    raise AssertionError(f"no column standard form reachable from {alpha}")


def test_permutation_csf_matches_search():
    perms = [p for h in range(6) for p in itertools.permutations(range(h + 1))]
    rng = np.random.default_rng(7)
    perms += [tuple(int(x) for x in rng.permutation(7 + k % 2)) for k in range(200)]
    for alpha in perms:
        assert tp.permutation_csf(alpha) == csf_bfs(alpha), alpha


def test_consecutions_inversions():
    alpha = (1, 0, 2, 1, 3, 2, 4, 1, 3, 2, 1)
    assert tp.consecutions(alpha, 0) == 3
    t = (2, 0, 1, 3)
    assert tp.consecutions(t, 0) == 1
    assert tp.inversions((3, 2, 1, 0), 0) == 3
    # absent index convention
    assert tp.consecutions((1, 2), 0) == -1
    assert tp.inversions((1, 2), 0) == -1


@given(st.permutations(list(range(6))))
def test_total_consecutions_plus_inversions(alpha):
    alpha = tuple(alpha)
    assert tp.total_consecutions(alpha) + tp.total_inversions(alpha) == 5


def test_rciss_frozen():
    assert rciss((8, 9, 10, 7, 6, 5, 2, 3, 4, 1, 0)).pairs == (2, 4, 2, 2)
    assert rciss((10, 9, 5, 6, 7, 8, 3, 4, 2, 0, 1)).pairs == \
        (0, 2, 3, 1, 1, 2, 1, 0)


def test_rciss_partial_sums():
    r = rciss((8, 9, 10, 7, 6, 5, 2, 3, 4, 1, 0))
    assert r.ell == 2
    assert r.s_partial(r.ell) == 10  # c + i partitions m - 1 adjacencies
    assert [r.c(j) for j in range(1, r.ell + 1)] == [2, 2]
    assert [r.i(j) for j in range(1, r.ell + 1)] == [4, 2]


@given(st.permutations(list(range(7))))
def test_rciss_sums_to_m_minus_1(alpha):
    r = rciss(tuple(alpha))
    assert r.s_partial(r.ell) == 6
    assert r.m_partial(r.ell) == tp.total_consecutions(tuple(alpha))
    assert r.n_partial(r.ell) == tp.total_inversions(tuple(alpha))


def test_admissible_tuples():
    assert tp.simple_admissible(0).entries == (0,)
    assert tp.simple_admissible(2).entries == (1, 2, 0)
    assert tp.simple_admissible(4).entries == (3, 4, 1, 2, 0)
    assert tp.admissible_tuple(3, 3).entries == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        tp.admissible_tuple(3, 0)  # parity mismatch


def test_symmetric_complement():
    w = tp.simple_admissible(2)
    assert tp.symmetric_complement(w) == (1,)
    assert tp.symmetric_complement(tp.simple_admissible(0)) == ()
    assert tp.symmetric_complement(tp.admissible_tuple(3, 3)) == \
        (0, 1, 2, 0, 1, 0)
    assert tp.symmetric_complement(tp.admissible_tuple(1, 1)) == (0,)


def test_canonical_form():
    assert tp.is_canonical_form((), 2)
    assert tp.is_canonical_form((0,), 2)
    assert tp.is_canonical_form((0, 1, 2, 3, 0, 1), 5)
    assert not tp.is_canonical_form((1, 0), 2)


def test_type1_right():
    w = tp.simple_admissible(2)
    # rev(w) = (0,2,1) normalizes to csf (2,0,1): only 0 heads a string
    assert tp.is_type1_right((), tp.rev(w.entries))
    assert tp.is_type1_right((0,), tp.rev(w.entries))
    assert not tp.is_type1_right((1,), tp.rev(w.entries))


@given(st.integers(2, 7), st.data())
def test_alpha_split_is_permutation(m, data):
    # any split of {0:m} into (omega0 with 0, omega1 with m) gives a
    # permutation alpha of {0:m-1} via the rev-splice rule
    idx = list(range(m + 1))
    omega1 = sorted(data.draw(st.sets(st.sampled_from(idx[1:-1]),
                                      max_size=m - 1)) | {m})
    omega0 = [i for i in idx if i not in omega1]
    k = omega1.index(m)
    alpha = tp.rev(tuple(omega1[:k])) + tuple(omega0) + \
        tp.rev(tuple(omega1[k + 1:]))
    assert sorted(alpha) == list(range(m))
