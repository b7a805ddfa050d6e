"""Corpora are a pure function of (workload, seed)."""

import pytest

from benchmarks.e2e import WORKLOADS
from benchmarks.e2e import corpus


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corpus_is_deterministic_per_seed_and_seeds_differ(workload):
    first = corpus.sha256(corpus.build(workload, 0))
    assert corpus.sha256(corpus.build(workload, 0)) == first
    assert corpus.sha256(corpus.build(workload, 1)) != first


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corpus_sizes(workload):
    entries = corpus.build(workload, 7)
    sizes = corpus.FULL
    if workload == "edits":
        assert len(entries) == sizes.chains
        assert all(len(chain.steps) == sizes.steps for chain in entries)
    elif workload == "serve":
        assert len(entries) == sizes.requests
        assert sum(r.resend for r in entries) == sizes.requests // corpus.RESEND_EVERY
    else:
        count = getattr(sizes, workload)
        assert len(entries) == count
        assert len({item.source for item in entries}) == count  # distinct programs
