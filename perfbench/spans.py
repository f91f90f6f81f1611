"""Spans recorded around the program's layer entry points, and their fold.

The benchmark never edits the program: :class:`Tracer` replaces public
methods on the program's classes with timing wrappers, inside the
program's own process, for the life of a traced run's process; a gate
switches recording on and off.  Each span is
``(span_id, name, start, end, parent_id, request_ids)``.  Spans nest per
thread; work that a request hands to another thread (the scheduler's
flusher) carries the request ids instead of a parent.

Self time is a span's duration minus the time its children cover.
:func:`fold_requests` (served requests) and :func:`fold_batch` (offline
``distill_many`` calls) turn spans plus client-side wall times into
per-layer self time per operation and the unattributed rest.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes

# Root spans: one per served request, named after its route.
ROOTS = {
    "distill_dict": "/distill",
    "ask_dict": "/ask",
    "ingest_dicts": "/ingest",
    "delete_doc_dict": "/docs",
}


class Tracer:
    """In-memory span recorder whose wrappers can be switched on and off.

    ``gate`` is any object with a ``value`` attribute; a
    ``multiprocessing.RawValue`` makes one switch reach forked workers.
    """

    def __init__(self, gate, dump_dir: str | None = None) -> None:
        self.gate = gate
        self.dump_dir = dump_dir
        self.spans: list[tuple] = []
        self.roots: dict[int, str] = {}
        self.errors: dict[str, int] = {}  # span name -> calls that raised
        self.values: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._local = threading.local()
        # triple -> [(request id, submit time)] until a batch carries it.
        self._pending: dict[tuple, list] = {}
        self._pending_lock = threading.Lock()
        self._waited: set[int] = set()
        if dump_dir is not None:
            import multiprocessing.util

            multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _after_fork(self) -> None:
        """A forked pool worker keeps its own spans and dumps them at exit."""
        import multiprocessing.util

        self.spans = []
        self._ids = itertools.count(os.getpid() << 32)  # unique across workers
        self._local = threading.local()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=10)

    def dump(self) -> None:
        path = os.path.join(self.dump_dir, f"spans-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(self.spans, handle)

    def record(self, name, start, end, parent=None, rids=()) -> None:
        self.spans.append((next(self._ids), name, start, end, parent, rids))

    def wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Time ``owner.attr``; ``name`` is a string or ``f(args)``.

        ``before(args, kwargs)`` may return request ids for a span that
        starts a new request context (a root or a flusher batch);
        ``after(result)`` sees the call's result.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.gate.value:
                return original(*args, **kwargs)
            stack = tracer._stack()
            parent, rids = stack[-1] if stack else (None, ())
            if before is not None:
                fresh = before(args, kwargs)
                if fresh is not None:
                    parent, rids = None, fresh
            sid = next(tracer._ids)
            stack.append((sid, rids))
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.errors[name] = tracer.errors.get(name, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                label = name if isinstance(name, str) else name(args)
                tracer.spans.append((sid, label, start, end, parent, rids))
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, wrapper)

    # ------------------------------------------------- request attribution
    def _new_root(self, route: str):
        def before(args, kwargs):
            rid = next(self._rids)
            self.roots[rid] = route
            return (rid,)

        return before

    def _register(self, triples) -> None:
        """Note who submitted ``triples``, before the flusher can take them."""
        stack = self._stack()
        if not stack:
            return
        rids = stack[-1][1]
        now = clock()
        with self._pending_lock:
            for triple in triples:
                entry = self._pending.setdefault(tuple(triple), [])
                entry.extend((rid, now) for rid in rids)

    def _carry(self, args, kwargs):
        """A flusher batch: the requests its triples came from."""
        if self._stack():
            return None  # called inline, not from the scheduler
        start = clock()
        rids = []
        with self._pending_lock:
            carried = [self._pending.pop(tuple(t), ()) for t in args[1]]
        for entries in carried:
            for rid, submitted in entries:
                rids.append(rid)
                if rid not in self._waited:
                    self._waited.add(rid)
                    self.record("scheduler.wait", submitted, start, None, (rid,))
        return tuple(dict.fromkeys(rids))

    # -------------------------------------------------------- installation
    def install_server(self) -> None:
        """Wrap every layer entry point a served request passes."""
        from repro.service.admission import AdmissionController
        from repro.service.scheduler import MicroBatchScheduler
        from repro.service.service import DistillService

        for attr, route in ROOTS.items():
            self.wrap(DistillService, attr, "root:" + route, before=self._new_root(route))
        self.wrap(AdmissionController, "admit", "admission")
        self.wrap(
            MicroBatchScheduler,
            "submit",
            "scheduler.submit",
            before=lambda a, k: self._register([a[1:4]]),
        )
        self.wrap(
            MicroBatchScheduler,
            "submit_many",
            "scheduler.submit",
            before=lambda a, k: self._register(a[1]),
        )
        self.install_engine(carry=True)
        self.install_pipeline()

    def install_engine(self, carry: bool = False) -> None:
        """Batch, executor, snapshot, retrieval and ingest layers."""
        from repro.core.batch import BatchDistiller
        from repro.core.pipeline import GCED
        from repro.engine.executor import ParallelExecutor, SerialExecutor
        from repro.retrieval.ingest import IngestManager
        from repro.retrieval.retriever import CorpusRetriever
        from repro.retrieval.wal import WriteAheadLog

        self.wrap(
            BatchDistiller,
            "distill_many",
            "batch.distill_many",
            before=self._carry if carry else None,
        )
        self.wrap(BatchDistiller, "refresh_snapshot", "snapshot.refresh")
        self.wrap(SerialExecutor, "map", "executor.map")
        self.wrap(ParallelExecutor, "map", "executor.map")
        self.wrap(ParallelExecutor, "warmup", "executor.warmup")
        self.wrap(GCED, "build_snapshot", "snapshot.build", after=self._snapshot_size)
        self.wrap(CorpusRetriever, "retrieve", "retrieval.retrieve")
        self.wrap(IngestManager, "add_documents", "ingest.apply")
        self.wrap(IngestManager, "delete_document", "ingest.apply")
        self.wrap(IngestManager, "compact", "ingest.compact")
        self.wrap(WriteAheadLog, "sync", "wal.sync")

    def _snapshot_size(self, snapshot) -> None:
        self.values["snapshot.bytes"] = float(snapshot.nbytes)

    def install_pipeline(self) -> None:
        """Per-stage, QA-model and informativeness entry points."""
        from repro.core import stages
        from repro.metrics.informativeness import InformativenessScorer
        from repro.qa.base import QAModel, SpanScoringQA

        for cls in (
            stages.ASEStage,
            stages.TokenizeStage,
            stages.QWSStage,
            stages.WSPTCStage,
            stages.EFCStage,
            stages.OECStage,
            stages.FinalizeStage,
        ):
            self.wrap(cls, "run", lambda a: "stage." + a[0].name)
        self.wrap(SpanScoringQA, "predict", "qa.predict")
        self.wrap(QAModel, "predict_batch", "qa.predict")
        self.wrap(InformativenessScorer, "score_batch", "metrics.informativeness")


# --------------------------------------------------------------------- fold
def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the summed durations of its children.

    Children of one parent run on the parent's thread, one after
    another, so their durations never overlap.
    """
    covered: dict[int, float] = {}
    for _sid, _name, start, end, parent, _rids in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    return {
        sid: (end - start) - covered.get(sid, 0.0)
        for sid, _name, start, end, _parent, _rids in spans
    }


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def fold_requests(spans, roots: dict[int, str], client_ms: dict[str, list]) -> dict:
    """Per-route layer self time per request, edge and unattributed time.

    ``spans`` come from one server process; ``roots`` maps request id to
    route; ``client_ms`` holds the client-measured wall times (ms) of the
    requests sent while tracing was on.  A span counts toward a request
    when it carries the request's id and lies inside the request's root
    span; work shared by a batch counts in full toward every request it
    carried, because each of them waited for all of it.

    Returns ``{route: {"n", "wall_ms", "edge_ms", "unattributed_ms",
    "layers": {name: ms}, "calls": {name: count}}}`` (per request).
    """
    selfs = self_times(spans)
    root_span = {}
    for sid, name, start, end, _parent, rids in spans:
        if name.startswith("root:") and rids:
            root_span[rids[0]] = (sid, start, end)
    per_route: dict[str, dict] = {}
    for rid, route in roots.items():
        if rid not in root_span:
            continue
        entry = per_route.setdefault(
            route,
            {"n": 0, "root_s": 0.0, "unattributed_s": 0.0, "layers": {}, "calls": {}},
        )
        entry["n"] += 1
        entry["root_s"] += root_span[rid][2] - root_span[rid][1]
    members: dict[int, list] = {}
    for span in spans:
        sid, name, start, end, _parent, rids = span
        if name.startswith("root:"):
            continue
        for rid in rids:
            root = root_span.get(rid)
            if root is not None and root[1] <= start and end <= root[2]:
                members.setdefault(rid, []).append(span)
    for rid, items in members.items():
        entry = per_route[roots[rid]]
        root_sid, root_start, root_end = root_span[rid]
        own = {span[0] for span in items}
        top = []
        for sid, name, start, end, parent, _rids in items:
            entry["layers"][name] = entry["layers"].get(name, 0.0) + selfs[sid]
            entry["calls"][name] = entry["calls"].get(name, 0) + 1
            if parent is None or parent == root_sid or parent not in own:
                top.append((start, end))
        entry["unattributed_s"] -= union_length(top)
    result = {}
    for route, entry in per_route.items():
        n = entry["n"]
        walls = client_ms.get(route, [])
        root_ms = 1000.0 * entry["root_s"] / n
        wall_ms = sum(walls) / len(walls) if walls else root_ms
        result[route] = {
            "n": n,
            "wall_ms": wall_ms,
            "edge_ms": wall_ms - root_ms,
            "unattributed_ms": root_ms + 1000.0 * entry["unattributed_s"] / n,
            "layers": {k: 1000.0 * v / n for k, v in entry["layers"].items()},
            "calls": {k: v / n for k, v in entry["calls"].items()},
        }
    return result


def fold_batch(spans, calls: list[tuple[float, float, int]]) -> dict:
    """Per-example layer self time for offline ``distill_many`` calls.

    ``calls`` are ``(start, end, n_examples)`` as the batch driver timed
    them; ``spans`` merge the coordinator's and every worker's.  Worker
    layers run in parallel, so their self times are CPU time summed over
    workers.  ``executor.map`` self time is the part of the map during
    which no worker was inside a traced layer (dispatch, pickling, idle
    workers); ``unattributed_ms`` is what the calls spent outside
    ``distill_many`` and that dispatch time.
    """
    inside = [
        span for span in spans
        if any(s <= span[2] and span[3] <= e for s, e, _n in calls)
    ]
    selfs = self_times(inside)
    worker_top = [
        (start, end) for _sid, name, start, end, parent, _rids in inside
        if parent is None and name not in COORDINATOR
    ]
    layers: dict[str, float] = {}
    counts: dict[str, int] = {}
    coordinator_s = 0.0
    for sid, name, start, end, _parent, _rids in inside:
        if name == "executor.map":
            clipped = [(max(a, start), min(b, end)) for a, b in worker_top
                       if a < end and b > start]
            selfs[sid] = (end - start) - union_length(clipped)
        if name in COORDINATOR:
            coordinator_s += selfs[sid]
        layers[name] = layers.get(name, 0.0) + selfs[sid]
        counts[name] = counts.get(name, 0) + 1
    examples = sum(n for _s, _e, n in calls) or 1
    wall = sum(e - s for s, e, _n in calls)
    unattributed = wall - union_length(worker_top) - coordinator_s
    return {
        "n": examples,
        "wall_ms": 1000.0 * wall / examples,
        "unattributed_ms": 1000.0 * unattributed / examples,
        "layers": {k: 1000.0 * v / examples for k, v in layers.items()},
        "calls": {k: v / examples for k, v in counts.items()},
    }


# Spans the batch coordinator records; every other span is a worker's.
COORDINATOR = frozenset(("batch.distill_many", "executor.map"))
