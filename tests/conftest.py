import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from helpers import (
    all_labeled_graphs,
    lr_tested_pairs_match_lr,
    splices_checked_by_full_oracle,
)


@pytest.fixture(scope="session")
def sweep_up_to_6_vertices():
    """One extra_planar sweep of every graph with at most 6 vertices, with
    both checks installed: each splice against ``splice_by_full_check``, and
    each LR-tested pair against LR's own rotation system.  Returns the
    number of splices, the number of LR-tested pairs, and each graph's
    extra-planar verdict, in the order of ``all_labeled_graphs(n)`` for n
    from 1 to 6.  A failed check fails every test that reads the sweep."""
    with pytest.MonkeyPatch.context() as mp:
        spliced = splices_checked_by_full_oracle(mp)
        graphs = (g for n in range(1, 7) for g in all_labeled_graphs(n))
        tested, verdicts = lr_tested_pairs_match_lr(mp, graphs)
    return len(spliced), tested, verdicts
