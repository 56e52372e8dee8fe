"""The paper's worked displays (tests/paper_examples.py), each reproduced
exactly at several seeds."""

import pytest

from paper_examples import ENTRIES, entry_rng


def test_corpus_size():
    assert len(ENTRIES) >= 12


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("eid", list(ENTRIES))
def test_example_reproduced(eid, seed):
    # structural reconstructions are exact for every seed
    ENTRIES[eid](entry_rng(eid, seed))
