"""Self-tests of the benchmark's oracle and client on a tiny substrate.

Run with ``python -m pytest e2ebench/tests`` from the repository root.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(BENCH), "src")
for path in (SRC, BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

from client import (  # noqa: E402
    InProcessSurface,
    Row,
    WsgiSurface,
    check_session,
    choose_expand,
    run_session,
)
from corpus import CorpusSpec, Oracle, build_oracle, build_substrate  # noqa: E402
from inputs import make_pair  # noqa: E402

TINY = CorpusSpec(citations=600, hierarchy_size=120, seed=3, mean_concepts=5.0)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """(oracle, store directory) for the tiny corpus."""
    root = tmp_path_factory.mktemp("tiny")
    store = str(root / "substrate")
    build_substrate(TINY, store, SRC)
    build_oracle(TINY, str(root / "oracle"), SRC)
    return Oracle(str(root / "oracle")), store


def _stream():
    """pmid → concept set straight from the synthetic stream."""
    from repro.hierarchy.generator import generate_hierarchy
    from repro.substrate.synth import SynthSpec, synthetic_chunks

    hierarchy = generate_hierarchy(target_size=TINY.hierarchy_size, seed=TINY.seed)
    rows = {}
    spec = SynthSpec(TINY.citations, len(hierarchy), TINY.mean_concepts, TINY.seed)
    for chunk in synthetic_chunks(spec):
        bounds = np.concatenate([[0], np.cumsum(chunk.lengths)])
        for i, pmid in enumerate(chunk.pmids.tolist()):
            rows[pmid] = set(chunk.concepts[bounds[i] : bounds[i + 1]].tolist())
    return hierarchy, rows


def test_oracle_matches_hand_computed_intersections(corpus):
    oracle, _ = corpus
    hierarchy, rows = _stream()
    popular = np.argsort(-oracle.counts)[:6].tolist()
    for a in popular:
        for b in popular:
            expected = sorted(p for p, cs in rows.items() if a in cs and b in cs)
            assert oracle.result([a, b]).tolist() == expected
    for node in range(len(hierarchy)):
        for other in (0, 5, 17, node):
            assert oracle.is_ancestor(other, node) == (
                other != node and other in hierarchy.path_to_root(node)
            )


def test_oracle_subtree_postings_match_descendants(corpus):
    oracle, _ = corpus
    hierarchy, rows = _stream()
    result = oracle.result([int(np.argmax(oracle.counts))])
    for node in hierarchy.children(hierarchy.root):
        under = set(hierarchy.subtree(node))
        expected = sorted(p for p in result.tolist() if rows[p] & under)
        assert oracle.subtree_postings(node, result).tolist() == expected
    assert set(oracle.tree_concepts(result).tolist()) == set().union(
        *(rows[p] for p in result.tolist())
    )


def test_client_expands_the_containing_root(corpus):
    from repro.bionav import BioNav
    from repro.substrate.store import MmapStore

    oracle, store = corpus
    bionav = BioNav.from_store(MmapStore.open(store))
    concept = int(np.argmax(oracle.counts[1:])) + 1
    result = oracle.result([concept])
    checked = 0
    for target in oracle.tree_concepts(result).tolist()[:25]:
        if target == oracle.root:
            continue
        session = bionav.search("%d[mh]" % concept).session
        ancestors = oracle.ancestors(target)
        while not session.active.is_visible(target):
            rows = [Row(r.node, r.count, r.expandable, r.parent) for r in session.visualize()]
            chosen = choose_expand(rows, ancestors)
            assert chosen == session.active.containing_root(target)
            session.expand(chosen)
            checked += 1
    assert checked > 0


def test_sessions_pass_checks_and_agree_across_surfaces(corpus):
    from repro.bionav import BioNav
    from repro.serving.runtime import ServingRuntime
    from repro.substrate.store import MmapStore
    from repro.web.app import BioNavWebApp

    oracle, store = corpus
    bionav = BioNav.from_store(MmapStore.open(store))
    concept = int(np.argmax(oracle.counts[1:])) + 1
    pair = make_pair(oracle, (concept,))
    result = oracle.result([concept])
    with ServingRuntime(bionav) as runtime:
        log = run_session(InProcessSurface(runtime), pair.query, pair.target,
                          pair.ancestors, pair.max_expands)
    app = BioNavWebApp(bionav)
    try:
        over_wsgi = run_session(WsgiSurface(app), pair.query, pair.target,
                                pair.ancestors, pair.max_expands)
    finally:
        app.close()
    assert log.completed and check_session(log, oracle, result) == []
    assert over_wsgi.signature() == log.signature()
    ops = [op for op, _ in log.timings]
    assert ops[:2] == ["search", "first_expand"]
    assert ops[-3:] == ["showresults", "backtrack", "reexpand"]

    log.listing = log.listing[1:]
    assert any("listing" in error for error in check_session(log, oracle, result))
    log.navigation_cost += 1
    assert check_session(log, oracle, result)


def test_metric_names_match_benchmark_json():
    import json

    from run import END_TO_END, PER_LAYER

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
