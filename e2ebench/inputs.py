"""User inputs: ``[mh]`` queries along a breadth ladder, and targets.

Everything here reads the oracle only, so the inputs are the same
whatever the program does with them.  The query sets are drawn once from
the fixed :data:`LADDER_SEED`, not from ``--seed``: a run's timings
depend on which queries it runs far more than on anything else (cold
sessions on one breadth rung range from 0.1 s to 6 s), so runs with
different query sets could not be compared within a bound of 25%.
``--seed`` orders and samples the sessions instead (see ``workloads``).

The pairs are drawn in a child process, once per oracle, and kept next
to it as ``pairs.json`` (:func:`draw_in_child`): drawing reads postings
and citation rows, and the measured process must not map them before
its peak RSS is taken.

Targets follow the paper's user model: a concept is a likely target in
proportion to the query results under it (the EXPLORE probability of
§IV).  A session's target is the top-level branch (hierarchy depth 1)
whose subtree holds the most results of the query, or for ``rank`` r
the (r+1)-th heaviest.  Drawing uniformly among all tree concepts
instead gives sessions of 8–340 EXPANDs, minutes on the broadest query.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from corpus import Oracle, child_env

__all__ = [
    "LADDER",
    "LADDER_SEED",
    "Pair",
    "make_pair",
    "draw_singles",
    "and_candidates",
    "draw_ands",
    "workload_pairs",
    "draw_in_child",
    "load_pairs",
]

#: Result-count range of everyday queries (the breadth ladder).
LADDER = (100, 2500)

#: Seed of the query draws (the paper's year).
LADDER_SEED = 2009

#: Single-concept queries and two-concept ANDs in one ``cold_sweep`` round.
SWEEP_SINGLES, SWEEP_ANDS = 4, 2
#: Pool sizes of the warm workloads, and their query breadth range (the
#: lower part of the ladder keeps the warm-up pass short).
WARM_POOL, CLUSTER_POOL, POOL_LADDER = 8, 12, (LADDER[0], 300)
#: Target ranks of the sessions in one ``cold_broad`` round.  The second
#: heaviest branch shows after three EXPANDs, so each session holds two
#: cold later EXPANDs; with every session alike, each median falls
#: inside one kind of sample.  Mixing in the heaviest branch (shown by
#: the first EXPAND) put ``expand_ms.p50`` and ``backtrack_ms.p50``
#: between two kinds and spread them 0.27–0.32.
BROAD_TARGETS = (1, 1, 1)
#: Fixed warm-up query (excluded from every draw).
WARMUP_CONCEPTS = (7802,)
#: Id neighbours each popular concept is ANDed with.
AND_NEIGHBOURS = 24


@dataclass(frozen=True)
class Pair:
    """One (query, target) a session navigates, with what checks need.

    Attributes:
        query: the ``[mh]`` query string.
        concepts: the query's concepts.
        target: the concept the user looks for.
        ancestors: the target's hierarchy ancestors, nearest first.
        max_expands: |tree|, the bound on EXPANDs to reach the target.
    """

    query: str
    concepts: Tuple[int, ...]
    target: int
    ancestors: Tuple[int, ...]
    max_expands: int


def query_string(concepts: Sequence[int]) -> str:
    """The ``[mh]`` AND query over ``concepts``."""
    return " ".join("%d[mh]" % c for c in concepts)


def make_pair(oracle: Oracle, concepts: Sequence[int], rank: int = 0) -> Pair:
    """The query over ``concepts`` with its ``rank``-th heaviest branch as target."""
    result = oracle.result(list(concepts))
    members = oracle.tree_concepts(result)
    branch, _ = oracle.branch_masses(result, 1)
    eligible = branch[np.isin(branch, members) & ~np.isin(branch, concepts)]
    if eligible.size <= rank:
        raise ValueError("query %s has no target of rank %d" % (list(concepts), rank))
    target = int(eligible[rank])
    return Pair(
        query=query_string(concepts),
        concepts=tuple(int(c) for c in concepts),
        target=target,
        ancestors=tuple(oracle.ancestors(target)),
        max_expands=int(members.size) + 1,
    )


def _strata(count: int, lo: float, hi: float) -> List[Tuple[float, float]]:
    """``count`` equal-width bands of log(result count) over [lo, hi)."""
    edges = np.linspace(math.log(lo), math.log(hi), count + 1)
    return [(math.exp(a), math.exp(b)) for a, b in zip(edges, edges[1:])]


def draw_singles(
    oracle: Oracle,
    rng: np.random.Generator,
    count: int,
    used: Set[str],
    ladder: Tuple[float, float] = LADDER,
) -> List[Tuple[int, ...]]:
    """One single-concept query per log-breadth stratum of ``ladder``;
    within a stratum the draw is log-uniform."""
    counts = oracle.counts
    picks = []
    for lo, hi in _strata(count, *ladder):
        aim = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        pool = np.flatnonzero((counts >= lo) & (counts < hi))
        pool = pool[~np.isin(pool, [oracle.root])]
        order = np.argsort(np.abs(np.log(counts[pool]) - math.log(aim)), kind="stable")
        for concept in pool[order]:
            if query_string([int(concept)]) not in used:
                picks.append((int(concept),))
                used.add(query_string([int(concept)]))
                break
    return picks


def and_candidates(oracle: Oracle) -> List[Tuple[int, int, int]]:
    """Two-concept ANDs whose result count lies on :data:`LADDER`.

    The synthetic stream co-annotates concepts with nearby ids, so each
    popular concept is paired with its id neighbours and the ANDs landing
    on the ladder are kept (on the benchmark corpus they span ~375–520).
    """
    counts = oracle.counts
    lo, hi = LADDER
    found = []
    heads = np.flatnonzero(counts >= 2 * lo)
    for a in heads.tolist():
        for b in range(a + 1, min(a + AND_NEIGHBOURS, counts.size)):
            if counts[b] < lo:
                continue
            size = np.intersect1d(oracle.postings(a), oracle.postings(b), assume_unique=True).size
            if lo <= size < hi:
                found.append((a, b, int(size)))
    return found


def draw_ands(
    oracle: Oracle,
    rng: np.random.Generator,
    candidates: Sequence[Tuple[int, int, int]],
    count: int,
    used: Set[str],
) -> List[Tuple[int, ...]]:
    """One two-concept AND per log-breadth stratum of the candidates."""
    sizes = np.array([c[2] for c in candidates], dtype=np.float64)
    picks = []
    for lo, hi in _strata(count, sizes.min(), sizes.max() + 1):
        pool = [i for i in np.flatnonzero((sizes >= lo) & (sizes < hi))]
        rng.shuffle(pool)
        for index in pool:
            a, b, _ = candidates[int(index)]
            query = query_string([a, b])
            if query not in used:
                picks.append((a, b))
                used.add(query)
                break
    return picks


def _ladder(
    oracle: Oracle, singles: int, ands: int, ladder: Tuple[float, float] = LADDER
) -> List[Pair]:
    """The fixed query set: ``singles`` log-strata of ``ladder``, then ANDs."""
    rng = np.random.default_rng(LADDER_SEED)
    used = {query_string(WARMUP_CONCEPTS)}
    queries = draw_singles(oracle, rng, singles, used, ladder)
    if ands:
        queries += draw_ands(oracle, rng, and_candidates(oracle), ands, used)
    return [make_pair(oracle, q) for q in queries]


def _warm_pool(oracle: Oracle, size: int) -> List[Pair]:
    """The fixed pool, in a fixed order of popularity."""
    pairs = _ladder(oracle, size, 0, POOL_LADDER)
    order = np.random.default_rng(LADDER_SEED).permutation(len(pairs))
    return [pairs[i] for i in order]


def workload_pairs(oracle: Oracle) -> Dict[str, List[Pair]]:
    """Every workload's (query, target) pairs, and the warm-up pair."""
    return {
        "warmup": [make_pair(oracle, WARMUP_CONCEPTS)],
        "cold_sweep": _ladder(oracle, SWEEP_SINGLES, SWEEP_ANDS),
        "cold_broad": [make_pair(oracle, (oracle.root,), rank) for rank in BROAD_TARGETS],
        "warm_serve": _warm_pool(oracle, WARM_POOL),
        "cluster_http": _warm_pool(oracle, CLUSTER_POOL),
    }


def draw_in_child(oracle_dir: str, src: str) -> None:
    """Write ``pairs.json`` into ``oracle_dir`` from a child process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), oracle_dir],
        env=child_env(src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError("input draw failed: %s" % proc.stderr.strip()[-2000:])


def load_pairs(oracle_dir: str) -> Dict[str, List[Pair]]:
    """The pairs :func:`draw_in_child` wrote."""
    with open(os.path.join(oracle_dir, "pairs.json")) as handle:
        raw = json.load(handle)
    return {
        name: [
            Pair(p["query"], tuple(p["concepts"]), p["target"], tuple(p["ancestors"]),
                 p["max_expands"])
            for p in pairs
        ]
        for name, pairs in raw.items()
    }


if __name__ == "__main__":
    drawn = workload_pairs(Oracle(sys.argv[1]))
    with open(os.path.join(sys.argv[1], "pairs.json"), "w") as out:
        json.dump({name: [asdict(p) for p in pairs] for name, pairs in drawn.items()}, out)
