"""The ``cluster_http`` server: a 2-worker cluster behind the web app.

Run as a child process by the benchmark::

    python e2ebench/server.py --store DIR --cache-dir DIR --report FILE [--trace]

It opens the substrate, forks a :class:`~repro.cluster.router.BioNavCluster`
with a file-backed L2 in ``--cache-dir``, mounts it under
:class:`~repro.web.app.BioNavWebApp` on a threading ``wsgiref`` server
on a free localhost port, and prints ``port N`` once it accepts
requests.  Besides the web app's own routes, ``/__bench/trace-on``,
``/__bench/trace-off`` and ``/__bench/stop`` serve the benchmark; after
``stop`` the server shuts the fleet down and writes its
report: the peak RSS of the largest serving process and, when traced,
the per-layer timings of the spans recorded in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
from socketserver import ThreadingMixIn
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from client import HTTP_HOST  # noqa: E402
from tracing import Tracer, install_cluster  # noqa: E402
from workloads import CLUSTER_TREE_CACHE, CLUSTER_WORKERS  # noqa: E402


class _Server(ThreadingMixIn, WSGIServer):
    daemon_threads = True


class _QuietHandler(WSGIRequestHandler):
    def log_message(self, *args: object) -> None:
        return None


def _p50(values):
    return statistics.median(values) if values else 0.0


def main() -> int:
    """Serve until ``/__bench/stop``; returns the exit code."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.bionav import BioNav
    from repro.cluster import BioNavCluster, ClusterConfig
    from repro.substrate.store import MmapStore
    from repro.web.app import BioNavWebApp

    tracer = Tracer()
    if args.trace:
        install_cluster(tracer)
    bionav = BioNav.from_store(MmapStore.open(args.store))
    cluster = BioNavCluster(
        bionav,
        ClusterConfig(
            workers=CLUSTER_WORKERS,
            cache_dir=args.cache_dir,
            runtime={"tree_cache_size": CLUSTER_TREE_CACHE},
        ),
    )
    app = BioNavWebApp(bionav, runtime=cluster)
    holder = {}

    def bench_app(environ, start_response):
        path = environ.get("PATH_INFO", "")
        if not path.startswith("/__bench/"):
            return app(environ, start_response)
        action = path[len("/__bench/"):]
        if action in ("trace-on", "trace-off"):
            tracer.active = action == "trace-on"
            body = {"tracing": tracer.active}
        elif action == "stop":
            threading.Thread(target=holder["server"].shutdown).start()
            body = {"stopping": True}
        else:
            start_response("404 Not Found", [("Content-Type", "application/json")])
            return [b"{}"]
        payload = json.dumps(body).encode()
        start_response("200 OK", [("Content-Type", "application/json"),
                                  ("Content-Length", str(len(payload)))])
        return [payload]

    with make_server(HTTP_HOST, 0, bench_app, server_class=_Server,
                     handler_class=_QuietHandler) as server:
        holder["server"] = server
        print("port %d" % server.server_address[1], flush=True)
        server.serve_forever(poll_interval=0.05)
    cluster.close()

    # Linux reports ru_maxrss in kilobytes; the workers are this
    # process's reaped children, so RUSAGE_CHILDREN holds the largest.
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    report = {"peak_rss_mb": peak_kb / 1024.0}
    if args.trace:
        report["layer"] = {
            "cluster.router_call_ms.p50": _p50(tracer.durations_ms("cluster.router_call")),
            "web.handle_ms.p50": _p50(tracer.child_ms("web.handle")),
        }
        report["self_ms"] = tracer.self_ms()
        report["spans"] = len(tracer.spans)
        tracer.write(args.report + ".spans.jsonl")
    with open(args.report, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
