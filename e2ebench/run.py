"""End-to-end BioNav benchmark: one workload, timed per user action.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload cold_sweep --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload warm_serve --seconds 20 --repeat 5

A run builds the 200k-citation substrate with the program's offline
build (in a child process), builds the independent oracle, sets the
serving side up, runs whole rounds of targeted sessions for about
``--seconds`` seconds, checks every recorded session against the oracle
and the method's properties, and prints one JSON object as its last
line: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run wraps each layer's public functions and reports per-layer
metrics and the tracing overhead instead.

Each run also prints, on standard error, the CPU time of a fixed
pure-Python loop taken just before and just after its timed phase
(``host probe``): the host's speed drifts over minutes, and the probe
tells a run made while the host was slow from a slower program.

``--repeat N`` runs N seeds (``--seed`` onwards) one after another in
child processes and prints each metric's median, quartiles and spread
(inter-quartile range over median), with the host probe of every run.
Scratch files live under ``.bench_build/e2ebench`` in the checkout and
are removed at the end, except the oracle and the drawn inputs, which
are cached by the hash of their code and parameters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import LAYERS  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_build", "e2ebench")

#: End-to-end metrics: name → unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sessions_per_s": "1/s",
    "search_ms.p50": "ms",
    "first_expand_ms.p50": "ms",
    "expand_ms.p50": "ms",
    "showresults_ms.p50": "ms",
    "backtrack_ms.p50": "ms",
    "reexpand_ms.p50": "ms",
    "navigation_cost": "count",
}

#: Layers whose public calls are timed, by span name (``<name>_ms.p50``).
TIMED_LAYERS = (
    "substrate.boolean_and", "eutils.esearch_all", "substrate.annotation_arrays",
    "core.navigation_tree.build", "core.probabilities.model", "core.heuristic.best_cut",
    "core.partition.k_partition", "core.active_tree.visualize", "core.relevance.rank", "pipeline.cut_key",
    "serving.esummary",
)


def _per_layer_units() -> Dict[str, str]:
    units = {name + "_ms.p50": "ms" for name in TIMED_LAYERS}
    for name in ("substrate.boolean_and_calls", "search.engine_search_calls",
                 "substrate.medline_count_calls", "core.partition.k_partition_calls",
                 "core.navigation_tree.distinct_results_calls", "cluster.l2_hits",
                 "cluster.l2_misses", "cluster.l2_publishes", "trace.spans"):
        units[name] = "count"
    for stage in ("results", "nav_tree", "cut"):
        for key in ("hits", "misses", "builds"):
            units["pipeline.%s.%s" % (stage, key)] = "count"
    units["pipeline.cut.hit_ratio"] = "ratio"
    for name in ("serving.queue_wait_ms.p50", "web.handle_ms.p50", "cluster.router_call_ms.p50"):
        units[name] = "ms"
    for layer in LAYERS:
        units["self_ms." + layer] = "ms"
    units["trace.overhead_pct"] = "%"
    units["substrate.build_s"] = "s"
    units["substrate.build_peak_rss_mb"] = "MB"
    units["host.probe_s"] = "s"
    return units


#: Per-layer metrics of a traced run: name → unit.
PER_LAYER = _per_layer_units()


def _oracle_dir(spec) -> str:
    """Cached oracle directory keyed by the corpus spec, its generators and
    the input draws stored with it."""
    digest = hashlib.sha256(json.dumps(spec.__dict__, sort_keys=True).encode())
    for path in (
        os.path.join(HERE, "corpus.py"),
        os.path.join(HERE, "inputs.py"),
        os.path.join(SRC, "repro", "substrate", "synth.py"),
        os.path.join(SRC, "repro", "hierarchy", "generator.py"),
        os.path.join(SRC, "repro", "hierarchy", "concept.py"),
    ):
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return os.path.join(SCRATCH, "oracle-" + digest.hexdigest()[:16])


def _p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(out) -> Dict[str, float]:
    """The user-visible metrics of one run."""
    ms = {op: [s * 1e3 for s in values] for op, values in out.timings.items()}
    return {
        "setup_s": out.setup_s,
        "peak_rss_mb": out.peak_rss_mb,
        "sessions_per_s": out.sessions / out.busy_s if out.busy_s > 0 else 0.0,
        "search_ms.p50": _p50(ms.get("search", [])),
        "first_expand_ms.p50": _p50(ms.get("first_expand", [])),
        "expand_ms.p50": _p50(ms.get("expand", [])),
        "showresults_ms.p50": _p50(ms.get("showresults", [])),
        "backtrack_ms.p50": _p50(ms.get("backtrack", [])),
        "reexpand_ms.p50": _p50(ms.get("reexpand", [])),
        "navigation_cost": statistics.fmean(out.nav_costs) if out.nav_costs else 0.0,
    }


def per_layer(out, tracer, build_report: Dict) -> Dict[str, float]:
    """Per-layer metrics of a traced run (counts per query / cut / view)."""
    layer: Dict[str, float] = {}
    durations = {name: tracer.durations_ms(name) for name in {s[1] for s in tracer.spans}}
    queries = max(out.searches, 1)
    for name in TIMED_LAYERS:
        layer[name + "_ms.p50"] = _p50(durations.get(name, []))
    layer["substrate.boolean_and_calls"] = len(durations.get("substrate.boolean_and", [])) / queries
    layer["search.engine_search_calls"] = len(durations.get("search.engine_search", [])) / queries
    layer["substrate.medline_count_calls"] = tracer.counts["substrate.medline_count"] / queries
    cuts = len(durations.get("core.heuristic.best_cut", []))
    layer["core.partition.k_partition_calls"] = (
        len(durations.get("core.partition.k_partition", [])) / cuts if cuts else 0.0
    )
    views = len(durations.get("core.active_tree.visualize", []))
    layer["core.navigation_tree.distinct_results_calls"] = (
        tracer.counts["core.navigation_tree.distinct_results"] / views if views else 0.0
    )
    layer["serving.queue_wait_ms.p50"] = _p50(tracer.samples.get("serving.queue_wait_ms", []))
    layer["web.handle_ms.p50"] = _p50(tracer.child_ms("web.handle"))
    layer["cluster.router_call_ms.p50"] = 0.0
    for key in ("hits", "misses", "publishes"):
        layer["cluster.l2_" + key] = 0.0
    layer.update(out.layer)
    sessions = max(out.sessions, 1)
    self_ms = dict(tracer.self_ms())
    for layer_name, value in out.server_self_ms.items():
        self_ms[layer_name] = self_ms.get(layer_name, 0.0) + value
    for name in LAYERS:
        layer["self_ms.%s" % name] = self_ms.get(name, 0.0) / sessions
    spans = len(tracer.spans) + out.server_spans
    layer["trace.spans"] = spans
    layer["trace.overhead_pct"] = (
        100.0 * spans * tracer.span_cost_ns() / 1e9 / out.busy_s if out.busy_s > 0 else 0.0
    )
    layer["substrate.build_s"] = build_report["elapsed_s"]
    layer["substrate.build_peak_rss_mb"] = build_report["max_rss_bytes"] / 2**20
    layer["host.probe_s"] = statistics.fmean(out.host_probe_s)
    return layer


def run_once(args) -> int:
    """One measured run; prints the result object last."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("no program to measure: %s/repro is missing" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from corpus import BENCH_CORPUS, build_oracle, build_substrate
    from inputs import draw_in_child, load_pairs
    from tracing import Tracer, install_layers
    from workloads import WORKLOADS, Context

    work = os.path.join(SCRATCH, "run-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    try:
        oracle_dir = _oracle_dir(BENCH_CORPUS)
        if not os.path.isdir(oracle_dir):
            staging = oracle_dir + ".tmp-%d" % os.getpid()
            build_oracle(BENCH_CORPUS, staging, SRC)
            draw_in_child(staging, SRC)
            os.replace(staging, oracle_dir)
        tracer = None
        if args.trace:
            tracer = Tracer()
            install_layers(tracer)
        store = os.path.join(work, "substrate")
        build_wall, build_report = build_substrate(BENCH_CORPUS, store, SRC)
        ctx = Context(
            name=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            store_path=store,
            work=work,
            src=SRC,
            oracle_dir=oracle_dir,
            pairs=load_pairs(oracle_dir),
            build_wall_s=build_wall,
            tracer=tracer,
        )
        out = WORKLOADS[args.workload](ctx)
        if tracer is not None:
            tracer.restore()
            metrics = per_layer(out, tracer, build_report)
            os.makedirs(SCRATCH, exist_ok=True)
            tracer.write(os.path.join(SCRATCH, "spans-%s-%d.jsonl" % (args.workload, args.seed)))
            units = PER_LAYER
        else:
            metrics = end_to_end(out)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in out.errors[:20]:
        print("check failed: %s" % error, file=sys.stderr)
    print("host probe %s" % json.dumps(out.host_probe_s), file=sys.stderr)
    result = {
        "correct": not out.errors and out.sessions > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def repeat(args) -> int:
    """Run ``--repeat`` seeds and print each metric's median and spread."""
    rows: Dict[str, List[float]] = {}
    probes: List[List[float]] = []
    failures = []
    for seed in range(args.seed, args.seed + args.repeat):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stderr.splitlines()
        sys.stderr.writelines(line + "\n" for line in lines if not line.startswith("host probe "))
        probe = [json.loads(line[len("host probe "):]) for line in lines if line.startswith("host probe ")]
        if proc.returncode != 0:
            print("seed %d: exit %d" % (seed, proc.returncode), file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failures.append((result["failed"], result["attempted"], result["correct"]))
        probes.append(probe[-1] if probe else [])
        if probes[-1]:
            rows.setdefault("(host probe, s)", []).append(statistics.fmean(probes[-1]))
        for name, metric in result["metrics"].items():
            rows.setdefault(name, []).append(metric["value"])
        print("seed %d: %.1f s, correct=%s, failed %d/%d, host probe %s s" % (
            seed, time.perf_counter() - started, result["correct"], result["failed"],
            result["attempted"], " / ".join("%.3f" % p for p in probes[-1])), file=sys.stderr)
    summary = {}
    print("%-44s %12s %12s %12s %8s" % ("metric", "q1", "median", "q3", "spread"))
    for name, values in rows.items():
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"q1": q1, "median": median, "q3": q3, "spread": spread, "values": values}
        print("%-44s %12.4f %12.4f %12.4f %8.3f" % (name, q1, median, q3, spread))
    print(json.dumps({"workload": args.workload, "runs": len(failures), "failures": failures,
                      "host_probe_s": probes, "summary": summary}))
    return 0


def main() -> int:
    """Parse arguments and run once or repeatedly."""
    from_workloads = ("cold_sweep", "cold_broad", "warm_serve", "cluster_http")
    parser = argparse.ArgumentParser(prog="e2ebench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=from_workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many seeds and print medians and quartiles")
    args = parser.parse_args()
    if args.repeat > 0:
        return repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
