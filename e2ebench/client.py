"""One BioNav user, driven the same way over every serving surface.

A session follows the targeted-user protocol of the paper's §VIII (the
one ``repro.core.simulator.navigate_to_target`` simulates in-process):
submit a ``[mh]`` query and read the initial view, EXPAND the visible
node whose component holds the target until the target shows, run
SHOWRESULTS on it, BACKTRACK once and re-EXPAND.  The client picks the
node to expand from the view rows and the hierarchy's ancestry alone
(the deepest visible ancestor of the target), so the same code drives
the in-process runtime, the WSGI callable and HTTP.

Every user action is timed from the client's side.  Checks against the
oracle and the method's properties run on the recorded session, outside
every timed window (:func:`check_session`).
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "OpFailed",
    "Row",
    "View",
    "InProcessSurface",
    "WsgiSurface",
    "HttpSurface",
    "HTTP_HOST",
    "HTTP_TIMEOUT_S",
    "SessionLog",
    "choose_expand",
    "run_session",
    "check_session",
    "check_listing",
]


class OpFailed(Exception):
    """A user action the program answered with an error."""


class Row(NamedTuple):
    """One visible row of the navigation interface."""

    node: int
    count: int
    expandable: bool
    parent: int


class View(NamedTuple):
    """What a view response shows: the rows and the cost ledger."""

    rows: Tuple[Row, ...]
    navigation: float
    expands: int
    revealed: int


# ----------------------------------------------------------------------
# Surfaces: the same five actions over three transports
# ----------------------------------------------------------------------
class InProcessSurface:
    """Calls a ``ServingRuntime`` (or anything with its request surface)."""

    def __init__(self, runtime: object):
        self.runtime = runtime

    @staticmethod
    def _view(view: object) -> View:
        cost = view.cost  # type: ignore[attr-defined]
        return View(
            tuple(Row(r.node, r.count, r.expandable, r.parent) for r in view.rows),  # type: ignore[attr-defined]
            cost.navigation,
            cost.expands,
            cost.revealed,
        )

    def _call(self, fn: Callable, *args: object) -> object:
        try:
            return fn(*args)
        except Exception as exc:  # the runtime's typed errors, all failures here
            raise OpFailed(repr(exc)) from exc

    def search(self, query: str) -> Tuple[str, int]:
        result = self._call(self.runtime.search, query)  # type: ignore[attr-defined]
        return result.session, result.count  # type: ignore[attr-defined]

    def view(self, sid: str) -> View:
        return self._view(self._call(self.runtime.view, sid))  # type: ignore[attr-defined]

    def expand(self, sid: str, node: int) -> View:
        return self._view(self._call(self.runtime.expand, sid, node))  # type: ignore[attr-defined]

    def results(self, sid: str, node: int) -> Tuple[int, ...]:
        return self._call(self.runtime.results, sid, node).pmids  # type: ignore[attr-defined]

    def backtrack(self, sid: str) -> View:
        return self._view(self._call(self.runtime.backtrack, sid))  # type: ignore[attr-defined]


class _JsonSurface:
    """The JSON API (``/api/...``) over some transport ``_get``."""

    def _get(self, path: str, query: str) -> Dict:
        raise NotImplementedError

    @staticmethod
    def _view(body: Dict) -> View:
        cost = body["cost"]
        return View(
            tuple(
                Row(r["node"], r["count"], r["expandable"], r["parent"])
                for r in body["rows"]
            ),
            cost["navigation"],
            cost["expands"],
            cost["revealed"],
        )

    def search(self, query: str) -> Tuple[str, int]:
        from urllib.parse import urlencode

        body = self._get("/api/search", urlencode({"q": query}))
        return body["session"], body["count"]

    def view(self, sid: str) -> View:
        return self._view(self._get("/api/nav/%s" % sid, ""))

    def expand(self, sid: str, node: int) -> View:
        return self._view(self._get("/api/nav/%s/expand" % sid, "node=%d" % node))

    def results(self, sid: str, node: int) -> Tuple[int, ...]:
        return tuple(self._get("/api/nav/%s/results" % sid, "node=%d" % node)["pmids"])

    def backtrack(self, sid: str) -> View:
        return self._view(self._get("/api/nav/%s/backtrack" % sid, ""))


class WsgiSurface(_JsonSurface):
    """Calls the ``BioNavWebApp`` WSGI callable directly (no sockets)."""

    def __init__(self, app: Callable):
        self.app = app

    def _get(self, path: str, query: str) -> Dict:
        status: List[str] = []

        def start_response(line: str, headers: List[Tuple[str, str]]) -> None:
            status.append(line)

        environ = {"REQUEST_METHOD": "GET", "PATH_INFO": path, "QUERY_STRING": query}
        body = b"".join(self.app(environ, start_response))
        if not status or not status[0].startswith("200"):
            raise OpFailed("%s %s -> %s %s" % (path, query, status, body[:200]))
        return json.loads(body)


#: Where the benchmark's cluster server listens, and how long a client
#: waits for one response (a cold cut on the broadest query takes seconds).
HTTP_HOST, HTTP_TIMEOUT_S = "127.0.0.1", 120.0


class HttpSurface(_JsonSurface):
    """GET requests to a BioNav web server on localhost."""

    def __init__(self, port: int):
        self.port = port

    def _get(self, path: str, query: str) -> Dict:
        url = path + ("?" + query if query else "")
        conn = http.client.HTTPConnection(HTTP_HOST, self.port, timeout=HTTP_TIMEOUT_S)
        try:
            conn.request("GET", url)
            response = conn.getresponse()
            body = response.read()
        except OSError as exc:
            raise OpFailed("%s -> %r" % (url, exc)) from exc
        finally:
            conn.close()
        if response.status != 200:
            raise OpFailed("%s -> %d %s" % (url, response.status, body[:200]))
        return json.loads(body)


# ----------------------------------------------------------------------
# One session
# ----------------------------------------------------------------------
@dataclass
class SessionLog:
    """Everything one session did and saw.

    ``timings`` holds ``(op, seconds)`` per user action, ``op`` one of
    ``search`` (query submitted → initial view), ``first_expand``,
    ``expand`` (every later EXPAND on the way to the target),
    ``showresults``, ``backtrack`` and ``reexpand`` (the EXPAND repeated
    after BACKTRACK, which the cut stage may answer from its cache).
    ``views`` holds ``(action, node, view)`` for every view seen, in
    order.
    """

    query: str
    target: int
    timings: List[Tuple[str, float]] = field(default_factory=list)
    views: List[Tuple[str, int, View]] = field(default_factory=list)
    count: int = -1
    listing: Tuple[int, ...] = ()
    target_count: int = -1
    expands_to_target: int = 0
    new_rows_to_target: int = 0
    navigation_cost: float = -1.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        """True when every action ran and the client saw no protocol error."""
        return self.failed == 0 and not self.errors and len(self.timings) > 0

    def signature(self) -> Tuple:
        """The views the session saw; replays of one path must match."""
        return tuple(self.views), self.listing


def choose_expand(rows: Sequence[Row], target_ancestors: Sequence[int]) -> Optional[int]:
    """The visible node whose component holds the target.

    ``target_ancestors`` lists the target's hierarchy ancestors nearest
    first.  The component holding a hidden target is rooted at its
    deepest visible ancestor, since every node between that ancestor and
    the target is hidden inside the same component.
    """
    visible = {row.node for row in rows}
    for ancestor in target_ancestors:
        if ancestor in visible:
            return ancestor
    return None


def run_session(
    surface: object,
    query: str,
    target: int,
    target_ancestors: Sequence[int],
    max_expands: int,
) -> SessionLog:
    """Drive one targeted session; never raises for a failed action."""
    log = SessionLog(query=query, target=target)
    try:
        _drive(surface, log, target_ancestors, max_expands)
    except OpFailed as exc:
        log.failed += 1
        log.errors.append("op failed: %s" % exc)
    return log


def _drive(
    surface: object,
    log: SessionLog,
    target_ancestors: Sequence[int],
    max_expands: int,
) -> None:
    clock = time.perf_counter
    timings = log.timings
    target = log.target
    log.attempted += 2
    started = clock()
    sid, count = surface.search(log.query)  # type: ignore[attr-defined]
    view = surface.view(sid)  # type: ignore[attr-defined]
    timings.append(("search", clock() - started))
    log.count = count
    log.views.append(("search", -1, view))

    expands = 0
    new_rows = 0
    node = -1
    previous = view
    while not any(row.node == target for row in view.rows):
        node = choose_expand(view.rows, target_ancestors)
        if node is None or expands >= max_expands:
            log.errors.append(
                "target %d not reached after %d EXPANDs (next %s)" % (target, expands, node)
            )
            return
        log.attempted += 1
        started = clock()
        view = surface.expand(sid, node)  # type: ignore[attr-defined]
        timings.append(("first_expand" if expands == 0 else "expand", clock() - started))
        seen = {row.node for row in previous.rows}
        new_rows += sum(1 for row in view.rows if row.node not in seen)
        expands += 1
        log.views.append(("expand", node, view))
        previous = view
    log.expands_to_target = expands
    log.new_rows_to_target = new_rows
    log.navigation_cost = view.navigation
    log.target_count = next(row.count for row in view.rows if row.node == target)

    log.attempted += 1
    started = clock()
    log.listing = surface.results(sid, target)  # type: ignore[attr-defined]
    timings.append(("showresults", clock() - started))

    log.attempted += 1
    started = clock()
    view = surface.backtrack(sid)  # type: ignore[attr-defined]
    timings.append(("backtrack", clock() - started))
    log.views.append(("backtrack", -1, view))

    log.attempted += 1
    started = clock()
    view = surface.expand(sid, node)  # type: ignore[attr-defined]
    timings.append(("reexpand", clock() - started))
    log.views.append(("expand", node, view))


# ----------------------------------------------------------------------
# Checks (outside every timed window)
# ----------------------------------------------------------------------
def check_listing(
    oracle: object, target: int, listing: Sequence[int], shown: int, result: np.ndarray
) -> List[str]:
    """SHOWRESULTS bounds: own postings ⊆ listing ⊆ subtree postings."""
    errors = []
    got = np.asarray(listing, dtype=np.int64)
    own = np.intersect1d(oracle.postings(target), result, assume_unique=True)  # type: ignore[attr-defined]
    if np.setdiff1d(own, got).size:
        errors.append("listing of %d misses its own postings" % target)
    if np.setdiff1d(got, oracle.subtree_postings(target, result)).size:  # type: ignore[attr-defined]
        errors.append("listing of %d holds citations outside its subtree" % target)
    if got.size != shown:
        errors.append("listing of %d has %d ids, its row shows %d" % (target, got.size, shown))
    return errors


def check_session(log: SessionLog, oracle: object, result: np.ndarray) -> List[str]:
    """Every property check on one completed session.

    * the root row of the initial view counts the whole result set;
    * each row's parent is a hierarchy ancestor;
    * each EXPAND reveals hidden members of the expanded component, none
      an ancestor of another;
    * the ledger's navigation cost equals EXPANDs issued plus new rows;
    * the SHOWRESULTS listing lies within the oracle bounds;
    * BACKTRACK restores the view before the last EXPAND and the
      re-EXPAND reproduces the view after it.
    """
    errors = list(log.errors)
    if not log.views:
        return errors or ["session saw no view"]
    root = oracle.root  # type: ignore[attr-defined]
    initial = log.views[0][2]
    if log.count != result.size:
        errors.append("search count %d != oracle %d" % (log.count, result.size))
    if not initial.rows or initial.rows[0].node != root or initial.rows[0].count != result.size:
        errors.append("initial root row %s does not count %d results" % (initial.rows[:1], result.size))
    for _, _, view in log.views:
        for row in view.rows:
            if row.parent == -1:
                if row.node != root:
                    errors.append("row %d has no parent but is not the root" % row.node)
            elif not oracle.is_ancestor(row.parent, row.node):  # type: ignore[attr-defined]
                errors.append("row %d: parent %d is no hierarchy ancestor" % (row.node, row.parent))
    for (_, _, before), (action, node, after) in zip(log.views, log.views[1:]):
        if action != "expand":
            continue
        seen = {row.node for row in before.rows}
        expandable = {row.node for row in before.rows if row.expandable}
        revealed = [row.node for row in after.rows if row.node not in seen]
        if node not in expandable:
            errors.append("EXPAND of %d, which showed no expand link" % node)
        if not revealed:
            errors.append("EXPAND of %d revealed nothing" % node)
        for member in revealed:
            if not oracle.is_ancestor(node, member):  # type: ignore[attr-defined]
                errors.append("EXPAND of %d revealed %d outside its component" % (node, member))
        ordered = sorted(revealed, key=lambda n: int(oracle.pre[n]))  # type: ignore[attr-defined]
        for a, b in zip(ordered, ordered[1:]):
            if oracle.is_ancestor(a, b):  # type: ignore[attr-defined]
                errors.append("EXPAND of %d revealed %d above %d" % (node, a, b))
    if log.timings and not errors:
        if log.navigation_cost != log.expands_to_target + log.new_rows_to_target:
            errors.append(
                "navigation cost %s != %d EXPANDs + %d new rows"
                % (log.navigation_cost, log.expands_to_target, log.new_rows_to_target)
            )
        errors += check_listing(oracle, log.target, log.listing, log.target_count, result)
        actions = [action for action, _, _ in log.views]
        if actions[-2:] == ["backtrack", "expand"]:
            if log.views[-2][2].rows != log.views[-4][2].rows:
                errors.append("BACKTRACK did not restore the previous view")
            if log.views[-1][2].rows != log.views[-3][2].rows:
                errors.append("re-EXPAND after BACKTRACK showed a different view")
    return errors
