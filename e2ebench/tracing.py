"""Spans around calls into each layer, recorded by the benchmark itself.

A traced run installs wrappers on the public functions of each layer
before set-up and removes them at the end; an untraced run installs
none, so its timings carry no tracing cost.  A span records its name,
start, end, the span that was open on the same thread when it started
(its parent) and the session that caused it.  Spans stay in memory and
are written out as JSON lines when the run ends.

Some functions run tens of thousands of times per query (``medline_count``
once per tree node); those get a counting wrapper that records no span.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "install_layers", "LAYERS"]

#: Layer of each span, by the first component of its name.
LAYERS = ("substrate", "search", "eutils", "core", "pipeline", "serving", "web", "cluster")

#: Calls timed to measure the cost of one span.
CALIBRATION_CALLS = 20000


class Tracer:
    """In-memory span and counter recorder with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def set_session(self, session: Optional[str]) -> None:
        """Tag spans started on this thread with ``session``."""
        self._local.session = session

    def adopt(self, parent: Optional[int], session: Optional[str]) -> None:
        """Continue another thread's open span on this thread."""
        self._local.stack = [] if parent is None else [parent]
        self._local.session = session

    def handoff(self, fn: Callable) -> Callable:
        """``fn`` to run on another thread as a child of the open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        session = getattr(self._local, "session", None)
        tracer = self

        def run():
            tracer.adopt(parent, session)
            try:
                return fn()
            finally:
                tracer.adopt(None, None)

        return run

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span named ``name`` while the tracer is on."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = [next(tracer._ids), name, time.perf_counter_ns(), 0,
                    stack[-1] if stack else -1, getattr(tracer._local, "session", None)]
            stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(span)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a call counter while the tracer is on."""
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def sampled(self, name: str, fn: Callable, pick: Callable) -> Callable:
        """``fn`` wrapped to record ``pick(args)`` as a sample of ``name``."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.samples[name].append(float(pick(*args, **kwargs)))
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- installation ---------------------------------------------------
    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`restore`.

        Static and class methods are unwrapped and rewrapped so that the
        descriptor kind is kept.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            new: object = staticmethod(make(raw.__func__))
        elif isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put every patched attribute back."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- reading ----------------------------------------------------------
    def durations_ms(self, name: str) -> List[float]:
        """Durations of the spans called ``name``, in milliseconds."""
        return [(s[3] - s[2]) / 1e6 for s in self.spans if s[1] == name]

    def self_ms(self) -> Dict[str, float]:
        """Per layer: span time not covered by the span's own children."""
        child_ns: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span[4] >= 0:
                child_ns[span[4]] += span[3] - span[2]
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            layer = span[1].split(".", 1)[0]
            totals[layer] += (span[3] - span[2] - child_ns.get(span[0], 0)) / 1e6
        return dict(totals)

    def child_ms(self, parent_name: str) -> List[float]:
        """For each span called ``parent_name``: its time minus its children."""
        child_ns: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span[4] >= 0:
                child_ns[span[4]] += span[3] - span[2]
        return [
            (s[3] - s[2] - child_ns.get(s[0], 0)) / 1e6 for s in self.spans if s[1] == parent_name
        ]

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, session in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "session": session,
                }) + "\n")

    def span_cost_ns(self) -> float:
        """Measured cost of one span: a wrapped no-op minus a bare one."""
        def noop() -> None:
            return None

        wrapped = self.timed("calibration", noop)
        was_active, self.active = self.active, True
        saved = len(self.spans)
        try:
            started = time.perf_counter_ns()
            for _ in range(CALIBRATION_CALLS):
                wrapped()
            traced = time.perf_counter_ns() - started
            started = time.perf_counter_ns()
            for _ in range(CALIBRATION_CALLS):
                noop()
            bare = time.perf_counter_ns() - started
        finally:
            self.active = was_active
            del self.spans[saved:]
        return max(traced - bare, 0) / CALIBRATION_CALLS


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    from repro.bionav import BioNav
    from repro.core import partition
    from repro.core.active_tree import ActiveTree
    from repro.core.navigation_tree import NavigationTree
    from repro.core.probabilities import ProbabilityModel
    from repro.eutils.client import EntrezClient
    from repro.pipeline.stages import CutStage
    from repro.search.engine import SearchEngine
    from repro.serving import runtime
    from repro.serving.admission import AdmissionController
    from repro.serving.dispatcher import WorkerPoolDispatcher
    from repro.serving.runtime import ServingRuntime
    from repro.substrate.store import MmapStore
    from repro.web.app import BioNavWebApp

    # Solvers are reached only through the registry: a cut-stage build
    # runs exactly one ``best_cut`` of the session's solver, and
    # ``k_partition`` lives in the (non-solver) partition module.
    timed = tracer.timed
    counted = tracer.counted
    for owner, attr, make in (
        (MmapStore, "boolean_and", lambda f: timed("substrate.boolean_and", f)),
        (MmapStore, "annotation_arrays", lambda f: timed("substrate.annotation_arrays", f)),
        (MmapStore, "medline_count", lambda f: counted("substrate.medline_count", f)),
        (SearchEngine, "search", lambda f: timed("search.engine_search", f)),
        (EntrezClient, "esearch_all", lambda f: timed("eutils.esearch_all", f)),
        (NavigationTree, "from_store", lambda f: timed("core.navigation_tree.build", f)),
        (NavigationTree, "distinct_results",
         lambda f: counted("core.navigation_tree.distinct_results", f)),
        (ProbabilityModel, "__init__", lambda f: timed("core.probabilities.model", f)),
        (CutStage, "build", lambda f: timed("core.heuristic.best_cut", f)),
        (partition, "k_partition", lambda f: timed("core.partition.k_partition", f)),
        (ActiveTree, "visualize", lambda f: timed("core.active_tree.visualize", f)),
        (runtime, "ranked_visualization", lambda f: timed("core.relevance.rank", f)),
        (CutStage, "key", lambda f: timed("pipeline.cut_key", f)),
        (BioNav, "summaries", lambda f: timed("serving.esummary", f)),
        (AdmissionController, "start",
         lambda f: tracer.sampled("serving.queue_wait_ms", f, lambda self, waited, expired: waited * 1e3)),
        (BioNavWebApp, "__call__", lambda f: timed("web.handle", f)),
    ):
        tracer.patch(owner, attr, make)
    for action in ("search", "view", "expand", "results", "backtrack"):
        tracer.patch(ServingRuntime, action, lambda f: timed("serving.call", f))

    def dispatch(call: Callable) -> Callable:
        # The runtime runs each request on its worker pool: carry the
        # caller's open span over so the work stays its child.
        def wrapper(self, fn, deadline=None):
            if tracer.active:
                fn = tracer.handoff(fn)
            return call(self, fn, deadline)

        return wrapper

    tracer.patch(WorkerPoolDispatcher, "call", dispatch)


def install_cluster(tracer: Tracer) -> None:
    """Wrap the router's calls into its worker fleet (server process)."""
    from repro.cluster.router import BioNavCluster
    from repro.cluster.workers import WorkerSupervisor
    from repro.web.app import BioNavWebApp

    tracer.patch(BioNavWebApp, "__call__", lambda f: tracer.timed("web.handle", f))
    tracer.patch(WorkerSupervisor, "call", lambda f: tracer.timed("cluster.router_call", f))
    for action in ("search", "view", "expand", "results", "backtrack"):
        tracer.patch(BioNavCluster, action, lambda f: tracer.timed("cluster.route", f))
