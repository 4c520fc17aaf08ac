"""The four workloads: how sessions are issued, and on which surface.

* ``cold_sweep`` — one in-process ``ServingRuntime``, one closed-loop
  client, six everyday queries per round, each round on a fresh runtime
  so that every stage misses.
* ``cold_broad`` — the same session shape on ``0[mh]``, the broadest
  query the corpus holds, each session on a fresh runtime.
* ``warm_serve`` — the runtime behind the WSGI callable, one closed-loop
  client replaying a Zipf-popular pool that fits the caches.
* ``cluster_http`` — HTTP on localhost to a 2-worker cluster in a
  separate server process, one closed-loop client; the pool exceeds
  each worker's L1 tree cache.

A run attempts whole rounds: every round issues the same number and
kinds of sessions, and the timed phase ends at the first round boundary
after ``--seconds``.  Set-up, input draws, ``gc.collect()`` and checks
run outside every timed window and are subtracted from the time that
``sessions_per_s`` divides by.  The oracle is opened only for the checks,
after the peak RSS is taken.
"""

from __future__ import annotations

import functools
import gc
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from client import HttpSurface, InProcessSurface, OpFailed, SessionLog, WsgiSurface, check_session, run_session
from corpus import Oracle
from inputs import Pair

__all__ = ["Context", "Outcome", "WORKLOADS", "host_probe_s"]

#: Sessions in one warm round, split by Zipf popularity over the pool.
WARM_ROUND = 24
#: Each workload has a single closed-loop client.  With two, every
#: action's latency absorbs a random share of the other client's work:
#: in-process, ``warm_serve``'s ``showresults_ms.p50`` (~2 ms of its own
#: work) spread 0.29 over five runs; over HTTP, a SHOWRESULTS queued
#: behind the other client's EXPAND took 2–3× longer, and
#: ``cluster_http``'s ``showresults_ms.p50`` spread 0.36 over ten runs.
#: Worker processes of the cluster, and the L1 tree-cache entries of
#: each: below the pool size, so trees and cuts of the pool arrive by
#: cross-worker L2 fetch.
CLUSTER_WORKERS, CLUSTER_TREE_CACHE = 2, 4
#: Iterations of the host-speed probe loop (about 0.3 s of CPU time).
PROBE_LOOPS = 3_000_000
#: Set-ups timed per run (their median is reported), by workload cost.
SETUP_REPEATS = {"cold_sweep": 3, "cold_broad": 3, "warm_serve": 2, "cluster_http": 2}


@dataclass
class Context:
    """What every workload gets: the built substrate, oracle and options."""

    name: str
    seed: int
    seconds: float
    store_path: str
    work: str
    src: str
    oracle_dir: str
    pairs: Dict[str, List[Pair]]
    build_wall_s: float
    tracer: Optional[object] = None

    @functools.cached_property
    def oracle(self) -> Oracle:
        """The oracle, mapped on first use (by the checks)."""
        return Oracle(self.oracle_dir)


@dataclass
class Outcome:
    """What a workload measured."""

    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    busy_s: float = 0.0
    sessions: int = 0
    attempted: int = 0
    failed: int = 0
    timings: Dict[str, List[float]] = field(default_factory=dict)
    nav_costs: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    searches: int = 0
    layer: Dict[str, float] = field(default_factory=dict)
    server_self_ms: Dict[str, float] = field(default_factory=dict)
    server_spans: int = 0
    host_probe_s: List[float] = field(default_factory=list)

    def add(self, log: SessionLog) -> None:
        """Account one timed session."""
        self.attempted += log.attempted
        self.failed += log.failed
        if log.completed:
            self.sessions += 1
            self.nav_costs.append(log.navigation_cost)
        for op, seconds in log.timings:
            self.timings.setdefault(op, []).append(seconds)
            if op == "search":
                self.searches += 1


def host_probe_s() -> float:
    """CPU seconds of a fixed pure-Python loop: the host's speed right now.

    Taken just before and just after each timed phase, so that runs made
    while the host was slow can be told from a slower program.
    """
    started = time.process_time()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.process_time() - started


def _peak_rss_mb() -> float:
    """This process's peak resident set so far (``VmHWM``), in MB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _open_system(ctx: Context):
    from repro.bionav import BioNav
    from repro.substrate.store import MmapStore

    return BioNav.from_store(MmapStore.open(ctx.store_path))


def _check(ctx: Context, logs: Sequence[SessionLog], out: Outcome) -> None:
    """Oracle and property checks on recorded sessions (untimed)."""
    results: Dict[str, np.ndarray] = {}
    for log in logs:
        concepts = [int(t.split("[")[0]) for t in log.query.split()]
        if log.query not in results:
            results[log.query] = ctx.oracle.result(concepts)
        out.errors += ["%s -> %d: %s" % (log.query, log.target, e)
                       for e in check_session(log, ctx.oracle, results[log.query])]


def _verify_results(ctx: Context, surface, pairs: Sequence[Pair], out: Outcome) -> None:
    """Each query's result ids, listed by SHOWRESULTS on the root, equal
    the oracle's intersection of postings (untimed)."""
    root = ctx.oracle.root
    for query, concepts in sorted({(p.query, p.concepts) for p in pairs}):
        try:
            sid, _ = surface.search(query)
            ids = sorted(surface.results(sid, root))
        except OpFailed as exc:
            out.errors.append("%s: result check failed: %s" % (query, exc))
            continue
        if ids != ctx.oracle.result(list(concepts)).tolist():
            out.errors.append("%s: result ids differ from the postings intersection" % query)


def _one_session(surface, pair: Pair, tracer, tag: str) -> SessionLog:
    if tracer is not None:
        tracer.set_session(tag)
    return run_session(surface, pair.query, pair.target, pair.ancestors, pair.max_expands)


# ----------------------------------------------------------------------
# cold workloads
# ----------------------------------------------------------------------
def _cold(ctx: Context, broad: bool) -> Outcome:
    """Whole rounds of cold sessions, each round on a fresh runtime.

    ``cold_broad`` also gives every session its own runtime.  The round's
    sessions run in an order drawn from ``--seed``.
    """
    from repro.serving.runtime import ServingRuntime

    out = Outcome()
    rng = np.random.default_rng(ctx.seed)
    warm = ctx.pairs["warmup"][0]
    pairs = ctx.pairs[ctx.name]

    setups = []
    runtime = None
    for _ in range(SETUP_REPEATS[ctx.name]):
        if runtime is not None:
            runtime.close()
        started = time.perf_counter()
        bionav = _open_system(ctx)
        runtime = ServingRuntime(bionav)
        warm_log = run_session(InProcessSurface(runtime), warm.query, warm.target,
                               warm.ancestors, warm.max_expands)
        setups.append(time.perf_counter() - started)
    runtime.close()
    logs = [warm_log]
    out.setup_s = ctx.build_wall_s + statistics.median(setups)

    tracer = ctx.tracer
    paused = 0.0
    stages: Counter = Counter()
    gc.collect()
    out.host_probe_s.append(host_probe_s())
    if tracer is not None:
        tracer.active = True
    phase_start = time.perf_counter()
    while True:
        for index, at in enumerate(rng.permutation(len(pairs)).tolist()):
            hold = time.perf_counter()
            if broad or index == 0:
                runtime = ServingRuntime(bionav)
            paused += time.perf_counter() - hold
            log = _one_session(InProcessSurface(runtime), pairs[at], tracer, "s%d" % len(logs))
            hold = time.perf_counter()
            out.add(log)
            logs.append(log)
            last = time.perf_counter() - phase_start >= ctx.seconds and index == len(pairs) - 1
            if (broad or index == len(pairs) - 1) and not last:
                stages.update(_pipeline_counts(runtime.stats()["pipeline"], {}))
                runtime.close()
            gc.collect()
            paused += time.perf_counter() - hold
        if last:
            break
    out.busy_s = time.perf_counter() - phase_start - paused
    if tracer is not None:
        tracer.active = False
    out.host_probe_s.append(host_probe_s())
    out.peak_rss_mb = _peak_rss_mb()
    stages.update(_pipeline_counts(runtime.stats()["pipeline"], {}))
    out.layer.update(_with_hit_ratio(stages))
    _verify_results(ctx, InProcessSurface(runtime), pairs, out)
    runtime.close()
    _check(ctx, logs, out)
    return out


def cold_sweep(ctx: Context) -> Outcome:
    """The ladder's everyday queries, every stage missing."""
    return _cold(ctx, broad=False)


def cold_broad(ctx: Context) -> Outcome:
    """``0[mh]`` (~20% of the corpus) on a fresh runtime per session."""
    return _cold(ctx, broad=True)


# ----------------------------------------------------------------------
# warm workloads
# ----------------------------------------------------------------------
def _zipf_round(pool: Sequence[Pair], rng: np.random.Generator, size: int) -> List[Pair]:
    """``size`` sessions split by Zipf(1) popularity over ``pool``'s order.

    Every round holds the same sessions, so a run's mix does not depend
    on how many rounds it gets through; ``rng`` shuffles their order.
    """
    weights = 1.0 / np.arange(1, len(pool) + 1)
    shares = np.maximum(1, np.round(size * weights / weights.sum())).astype(int)
    sessions = [pair for pair, n in zip(pool, shares) for _ in range(n)]
    return [sessions[i] for i in rng.permutation(len(sessions))]


def _closed_loop(
    ctx: Context,
    surface: object,
    pool: Sequence[Pair],
    reference: Dict[Pair, Tuple],
    out: Outcome,
) -> List[SessionLog]:
    """The client runs whole Zipf rounds until ``ctx.seconds`` is spent.

    ``gc.collect()`` runs between rounds, and its time is not counted as
    busy.  Returns the sessions whose views differ from the first run of
    their pair.
    """
    rng = np.random.default_rng(ctx.seed)
    tracer = ctx.tracer
    paused = 0.0
    sessions = 0
    logs: List[SessionLog] = []
    out.host_probe_s.append(host_probe_s())
    if tracer is not None:
        tracer.active = True
    phase_start = time.perf_counter()
    while True:
        hold = time.perf_counter()
        gc.collect()
        stop = time.perf_counter() - phase_start >= ctx.seconds
        paused += time.perf_counter() - hold
        if stop:
            break
        for pair in _zipf_round(pool, rng, WARM_ROUND):
            log = _one_session(surface, pair, tracer, "s%d" % sessions)
            sessions += 1
            out.add(log)
            if not (log.completed and log.signature() == reference.get(pair)):
                logs.append(log)
                if log.completed:
                    out.errors.append("replay of %s -> %d differs from its first run"
                                      % (pair.query, pair.target))
    out.busy_s = time.perf_counter() - phase_start - paused
    if tracer is not None:
        tracer.active = False
    out.host_probe_s.append(host_probe_s())
    return logs


def _warm_up(surface: object, pool: Sequence[Pair]) -> List[SessionLog]:
    """Walk every pair once."""
    return [run_session(surface, p.query, p.target, p.ancestors, p.max_expands) for p in pool]


def warm_serve(ctx: Context) -> Outcome:
    """Zipf replays of a cached pool through the WSGI callable."""
    from repro.web.app import BioNavWebApp

    out = Outcome()
    pool = ctx.pairs[ctx.name]
    setups = []
    app = None
    for _ in range(SETUP_REPEATS[ctx.name]):
        if app is not None:
            app.close()
            app = None
            gc.collect()
        started = time.perf_counter()
        app = BioNavWebApp(_open_system(ctx))
        warm_logs = _warm_up(WsgiSurface(app), pool)
        setups.append(time.perf_counter() - started)
    out.setup_s = ctx.build_wall_s + statistics.median(setups)
    reference = {pair: log.signature() for pair, log in zip(pool, warm_logs)}
    before = app.runtime.stats()["pipeline"]
    failed_logs = _closed_loop(ctx, WsgiSurface(app), pool, reference, out)
    out.peak_rss_mb = _peak_rss_mb()
    out.layer.update(_with_hit_ratio(_pipeline_counts(app.runtime.stats()["pipeline"], before)))
    _verify_results(ctx, WsgiSurface(app), pool, out)
    app.close()
    _check(ctx, warm_logs + failed_logs, out)
    return out


# ----------------------------------------------------------------------
# cluster over HTTP
# ----------------------------------------------------------------------
class _Server:
    """The cluster web server as a child process (``server.py``)."""

    def __init__(self, ctx: Context, cache_dir: str, report: str):
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = ctx.src
        args = [sys.executable, os.path.join(here, "server.py"), "--store", ctx.store_path,
                "--cache-dir", cache_dir, "--report", report]
        if ctx.tracer is not None:
            args.append("--trace")
        # Its own process group, so that the forked workers can be
        # reached even if the server dies before it can stop them.
        self.proc = subprocess.Popen(args, env=env, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)
        self.port: Optional[int] = None
        self.report = report
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.stop()
            raise RuntimeError("cluster server did not start: %r" % line)
        self.port = int(line.split()[1])

    def control(self, action: str) -> Dict:
        """GET one of ``server.py``'s ``/__bench/`` routes."""
        return HttpSurface(self.port)._get("/__bench/" + action, "")

    def stats(self) -> Dict:
        """The cluster's merged statistics, as the web app serves them."""
        return HttpSurface(self.port)._get("/api/stats", "")

    def stop(self) -> None:
        """Stop the server and its workers, and wait until all have ended."""
        if self.proc.poll() is None and self.port is not None:
            try:
                self.control("stop")
                self.proc.wait(timeout=60)
            except (OpFailed, subprocess.TimeoutExpired):
                pass
        # Whatever is left of the group (the server, or workers orphaned
        # by a crash) is killed; then wait until the group is empty.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        self.proc.stdout.close()


def cluster_http(ctx: Context) -> Outcome:
    """Zipf replays over HTTP to a 2-worker cluster with a file-backed L2."""
    import json

    out = Outcome()
    pool = ctx.pairs[ctx.name]
    setups = []
    server = None
    try:
        for rep in range(SETUP_REPEATS[ctx.name]):
            if server is not None:
                server.stop()
            cache_dir = os.path.join(ctx.work, "l2-%d" % rep)
            shutil.rmtree(cache_dir, ignore_errors=True)
            started = time.perf_counter()
            server = _Server(ctx, cache_dir, os.path.join(ctx.work, "server-%d.json" % rep))
            surface = HttpSurface(server.port)
            warm_logs = _warm_up(surface, pool)
            setups.append(time.perf_counter() - started)
        out.setup_s = ctx.build_wall_s + statistics.median(setups)
        reference = {pair: log.signature() for pair, log in zip(pool, warm_logs)}
        _verify_results(ctx, surface, pool, out)
        before = server.stats()
        if ctx.tracer is not None:
            server.control("trace-on")
        failed_logs = _closed_loop(ctx, surface, pool, reference, out)
        if ctx.tracer is not None:
            server.control("trace-off")
        after = server.stats()
        out.layer.update(_with_hit_ratio(_pipeline_counts(after["pipeline"], before["pipeline"])))
        for key in ("hits", "misses", "publishes"):
            out.layer["cluster.l2_" + key] = (after["l2"] or {}).get(key, 0) - (before["l2"] or {}).get(key, 0)
    finally:
        if server is not None:
            server.stop()
    with open(server.report) as handle:
        report = json.load(handle)
    if ctx.tracer is not None:
        shutil.move(server.report + ".spans.jsonl", os.path.join(
            os.path.dirname(ctx.work), "spans-cluster_http-%d-server.jsonl" % ctx.seed))
    out.peak_rss_mb = report["peak_rss_mb"]
    out.layer.update(report.get("layer", {}))
    out.server_self_ms = report.get("self_ms", {})
    out.server_spans = report.get("spans", 0)
    _check(ctx, warm_logs + failed_logs, out)
    return out


def _pipeline_counts(after: Dict, before: Dict) -> Dict[str, float]:
    """Per-stage hit/miss/build deltas over the timed phase."""
    layer: Dict[str, float] = {}
    for stage in ("results", "nav_tree", "cut"):
        now, then = after.get(stage, {}), before.get(stage, {})
        for key in ("hits", "misses", "builds"):
            layer["pipeline.%s.%s" % (stage, key)] = now.get(key, 0) - then.get(key, 0)
    return layer


def _with_hit_ratio(counts: Dict[str, float]) -> Dict[str, float]:
    layer = dict(counts)
    lookups = layer.get("pipeline.cut.hits", 0) + layer.get("pipeline.cut.misses", 0)
    layer["pipeline.cut.hit_ratio"] = layer.get("pipeline.cut.hits", 0) / lookups if lookups else 0.0
    return layer


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "cold_sweep": cold_sweep,
    "cold_broad": cold_broad,
    "warm_serve": warm_serve,
    "cluster_http": cluster_http,
}
