"""The benchmark corpus: the program's substrate build and an independent oracle.

The corpus is fixed (it does not depend on ``--seed``): the program's
offline build turns one deterministic synthetic citation stream over the
paper-scale MeSH preset into an mmap substrate directory.

The oracle is built from the *same* synthetic stream with plain numpy,
without the substrate builder, its roaring bitmaps or the store, so a
result set or a SHOWRESULTS listing the program gets wrong cannot agree
with it by sharing code.  It runs in a child process and leaves its
arrays in ``.npy`` files; the measured process maps them read-only only
for the checks, after its peak RSS is taken.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "CorpusSpec",
    "BENCH_CORPUS",
    "build_substrate",
    "build_oracle",
    "child_env",
    "Oracle",
]


@dataclass(frozen=True)
class CorpusSpec:
    """One synthetic corpus: stream length, hierarchy and stream seed.

    Attributes:
        citations: citations in the stream.
        hierarchy_size: 0 for the ~48k-concept ``mesh_2008_hierarchy``
            preset, else the size of a generated hierarchy (tests).
        seed: stream (and generated-hierarchy) seed.
        mean_concepts: average concepts per citation.
    """

    citations: int
    hierarchy_size: int = 0
    seed: int = 0
    mean_concepts: float = 24.0

    def build_args(self, out: str) -> List[str]:
        """``repro.substrate.build`` arguments for this corpus."""
        return [
            "--out", out,
            "--citations", str(self.citations),
            "--seed", str(self.seed),
            "--mean-concepts", repr(self.mean_concepts),
            "--hierarchy-size", str(self.hierarchy_size),
        ]


#: The benchmark's corpus: the ROADMAP baseline's 200k citations over the
#: paper-scale MeSH preset.
BENCH_CORPUS = CorpusSpec(citations=200_000)


def child_env(src: str) -> Dict[str, str]:
    """This process's environment with ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def build_substrate(spec: CorpusSpec, out: str, src: str) -> Tuple[float, Dict]:
    """Run the program's offline build in a child process.

    Returns the wall time of the child and the build's own JSON report
    (``elapsed_s``, ``max_rss_bytes``, ``digest``, ...).
    """
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.substrate.build"] + spec.build_args(out),
        env=child_env(src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
        check=False,
    )
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError("substrate build failed: %s" % proc.stderr.strip()[-2000:])
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def build_oracle(spec: CorpusSpec, out: str, src: str) -> None:
    """Write the oracle arrays for ``spec`` into ``out`` (child process)."""
    here = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run(
        [sys.executable, os.path.join(here, "corpus.py"), out, json.dumps(spec.__dict__)],
        env=child_env(src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError("oracle build failed: %s" % proc.stderr.strip()[-2000:])


def _write_oracle(spec: CorpusSpec, out: str) -> None:
    """Postings and hierarchy intervals from the generators alone."""
    from repro.hierarchy.generator import generate_hierarchy, mesh_2008_hierarchy
    from repro.substrate.synth import SynthSpec, synthetic_chunks

    if spec.hierarchy_size > 0:
        hierarchy = generate_hierarchy(target_size=spec.hierarchy_size, seed=spec.seed)
    else:
        hierarchy = mesh_2008_hierarchy()
    n = len(hierarchy)
    parent = np.array([hierarchy.parent(node) for node in range(n)], dtype=np.int64)
    # Preorder position and subtree size from the parent array alone:
    # ``a`` is an ancestor-or-self of ``d`` iff pre[a] <= pre[d] < pre[a] + size[a].
    children: List[List[int]] = [[] for _ in range(n)]
    root = -1
    for node in range(n):
        if parent[node] < 0:
            root = node
        else:
            children[int(parent[node])].append(node)
    pre = np.zeros(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    order: List[int] = []
    stack = [root]
    while stack:
        node = stack.pop()
        pre[node] = len(order)
        order.append(node)
        for child in reversed(children[node]):
            depth[child] = depth[node] + 1
            stack.append(child)
    size = np.ones(n, dtype=np.int64)
    for node in reversed(order):
        if parent[node] >= 0:
            size[parent[node]] += size[node]

    concepts: List[np.ndarray] = []
    pmids: List[np.ndarray] = []
    lengths: List[np.ndarray] = []
    for chunk in synthetic_chunks(
        SynthSpec(
            citations=spec.citations,
            num_concepts=n,
            mean_concepts=spec.mean_concepts,
            seed=spec.seed,
        )
    ):
        concepts.append(chunk.concepts.astype(np.int64))
        pmids.append(chunk.pmids.astype(np.int64))
        lengths.append(chunk.lengths.astype(np.int64))
    flat_concepts = np.concatenate(concepts)
    cit_pmids = np.concatenate(pmids)
    cit_lengths = np.concatenate(lengths)
    cit_offsets = np.zeros(cit_pmids.size + 1, dtype=np.int64)
    np.cumsum(cit_lengths, out=cit_offsets[1:])
    # Stable: PMIDs ascend along the stream, so each concept's run is sorted.
    order_by_concept = np.argsort(flat_concepts, kind="stable")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat_concepts, minlength=n), out=offsets[1:])
    os.makedirs(out, exist_ok=True)
    arrays = {
        "postings": np.repeat(cit_pmids, cit_lengths)[order_by_concept],
        "offsets": offsets,
        "cit_pmids": cit_pmids,
        "cit_offsets": cit_offsets,
        "cit_concepts": flat_concepts,
        "parent": parent,
        "pre": pre,
        "size": size,
        "depth": depth,
    }
    for name, array in arrays.items():
        np.save(os.path.join(out, name + ".npy"), array)


class Oracle:
    """Read-only view of the oracle arrays written by :func:`build_oracle`.

    Every answer is computed from the synthetic stream's postings and the
    generated hierarchy's parent array, never from the program.
    """

    def __init__(self, path: str):
        def load(name: str) -> np.ndarray:
            return np.load(os.path.join(path, name + ".npy"), mmap_mode="r")

        self.postings_flat = load("postings")
        self.offsets = np.asarray(load("offsets"))
        self.parent = np.asarray(load("parent"))
        self.pre = np.asarray(load("pre"))
        self.size = np.asarray(load("size"))
        self.depth = np.asarray(load("depth"))
        self.cit_pmids = np.asarray(load("cit_pmids"))
        self.cit_offsets = np.asarray(load("cit_offsets"))
        self.cit_concepts = load("cit_concepts")
        self.counts = np.diff(self.offsets)
        # ancestor_at[d][n]: n's hierarchy ancestor at depth d (n itself
        # at its own depth, -1 when n is shallower than d).
        nodes = np.arange(self.depth.size)
        max_depth = int(self.depth.max())
        self.ancestor_at = []
        for level in range(max_depth + 1):
            lifted = nodes
            for _ in range(max_depth - level):
                lifted = np.where(self.depth[lifted] > level, self.parent[lifted], lifted)
            self.ancestor_at.append(np.where(self.depth >= level, lifted, -1))

    @property
    def root(self) -> int:
        """The hierarchy root."""
        return int(np.flatnonzero(self.parent < 0)[0])

    def postings(self, concept: int) -> np.ndarray:
        """Ascending PMIDs annotated with ``concept``."""
        return np.asarray(
            self.postings_flat[int(self.offsets[concept]) : int(self.offsets[concept + 1])]
        )

    def result(self, concepts: Sequence[int]) -> np.ndarray:
        """The ``[mh]`` AND result: intersection of the concepts' postings."""
        result = self.postings(concepts[0])
        for concept in concepts[1:]:
            result = np.intersect1d(result, self.postings(concept), assume_unique=True)
        return result

    def is_ancestor(self, ancestor: int, node: int) -> bool:
        """True when ``ancestor`` is a proper hierarchy ancestor of ``node``."""
        start = int(self.pre[ancestor])
        return ancestor != node and start <= int(self.pre[node]) < start + int(self.size[ancestor])

    def ancestors(self, node: int) -> List[int]:
        """Proper ancestors of ``node``, nearest first."""
        path = []
        current = int(self.parent[node])
        while current >= 0:
            path.append(current)
            current = int(self.parent[current])
        return path

    def _rows(self, result: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Concept rows of the result's citations, flattened, plus the
        index into ``result`` each element belongs to."""
        ordinals = np.searchsorted(self.cit_pmids, result)
        begins = self.cit_offsets[ordinals]
        lengths = self.cit_offsets[ordinals + 1] - begins
        owner = np.repeat(np.arange(result.size), lengths)
        reset = np.repeat(np.cumsum(lengths) - lengths, lengths)
        flat = np.asarray(self.cit_concepts[np.repeat(begins, lengths) + np.arange(owner.size) - reset])
        return flat, owner

    def tree_concepts(self, result: np.ndarray) -> np.ndarray:
        """Concepts with at least one result citation (the navigation
        tree's members, the root aside)."""
        flat, _ = self._rows(result)
        return np.unique(flat)

    def branch_masses(self, result: np.ndarray, depth: int) -> Tuple[np.ndarray, np.ndarray]:
        """Concepts at hierarchy ``depth`` with the number of result
        citations annotated inside each one's subtree, heaviest first."""
        flat, owner = self._rows(result)
        branch = self.ancestor_at[depth][flat]
        keep = branch >= 0
        pairs = np.unique(branch[keep] * (result.size + 1) + owner[keep])
        concepts, masses = np.unique(pairs // (result.size + 1), return_counts=True)
        order = np.lexsort((concepts, -masses))
        return concepts[order], masses[order]

    def subtree_postings(self, node: int, result: np.ndarray) -> np.ndarray:
        """Result citations annotated with ``node`` or any descendant."""
        flat, owner = self._rows(result)
        start = int(self.pre[node])
        pre = self.pre[flat]
        inside = (pre >= start) & (pre < start + int(self.size[node]))
        return result[np.unique(owner[inside])]


if __name__ == "__main__":
    _write_oracle(CorpusSpec(**json.loads(sys.argv[2])), sys.argv[1])
