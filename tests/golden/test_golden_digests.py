"""Absolute oracle: results and RunMetrics match committed digests.

See ``digests.py`` for what is pinned and how to regenerate.
"""

import json

import pytest

from .digests import DIGESTS_PATH, build_graphs, case_keys, run_case

GOLDEN = json.loads(DIGESTS_PATH.read_text())
CASES = case_keys()


@pytest.fixture(scope="module")
def graphs(small_rmat, weighted_rmat):
    built = build_graphs()
    # the rmat inputs are the shared fixtures themselves
    built["rmat"], built["rmat-weighted"] = small_rmat, weighted_rmat
    return built


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(key for key, *_ in CASES)


@pytest.mark.parametrize("key,prim,graph,num_gpus,partitioner", CASES,
                         ids=[c[0] for c in CASES])
def test_matches_golden_digest(key, prim, graph, num_gpus, partitioner,
                               graphs):
    got = run_case(prim, graphs[graph], num_gpus, partitioner)
    assert got == GOLDEN[key]
