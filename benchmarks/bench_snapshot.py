"""Snapshot plane cost/benefit — gates worker warm-start and segment size.

Warms a parent pipeline over a squad11 dev slice, builds its
:class:`~repro.engine.snapshot.PipelineSnapshot`, then compares the
first-request latency of process workers spawned *with* the snapshot
(hydrating compiled artifacts, parse memos, and clip sessions
read-through) against workers spawned cold from an identical fresh
pipeline.  Both legs fork from parents with empty caches, so the only
difference between them is the snapshot handoff — exactly the cost the
plane exists to remove.  JSON metrics feed ``benchmarks/perf_gate.py``:

* ``snapshot.build_ms`` — one-time parent-side serialization cost; a
  latency metric, gated upward.
* ``snapshot.bytes`` — packed segment size; gated upward (keys ending in
  ``bytes`` gate like latencies), so silent snapshot bloat trips CI
  before it hurts spawn time.
* ``snapshot.worker_warm_ms`` — median first-request wall-clock of
  snapshot-spawned workers; gated upward.  This is the metric the 1-CPU
  CI box gates in place of multi-core speedup.
* ``snapshot.warm_speedup`` — cold first-request latency over warm;
  throughput-like, gated downward.  The run fails outright if warm
  workers are not at least 3× faster than cold ones.

The cold first-request latency rides along as context (absolute
wall-clock, too hardware-dependent to gate directly).
"""

from __future__ import annotations

import statistics
import time

from benchmarks.common import emit, emit_json, get_context, sample_size

N_EXAMPLES = sample_size("BENCH_SNAPSHOT_EXAMPLES", 10)
N_ROUNDS = sample_size("BENCH_SNAPSHOT_ROUNDS", 3)
MIN_WARM_SPEEDUP = 3.0


def _fresh_pipeline(ctx):
    """A pipeline with cold caches sharing only the trained artifacts."""
    from repro.core.pipeline import GCED
    from repro.parsing.dependency import SyntacticParser

    return GCED(
        qa_model=ctx.artifacts.reader,
        artifacts=ctx.artifacts,
        parser=SyntacticParser(),
    )


def _first_request_ms(ctx, triples, snapshot):
    """Wall-clock of one warmed-up process distiller's first batch.

    ``snapshot`` is a live snapshot (warm leg) or ``False`` (cold leg);
    pool spawn and initializer time are excluded — the distiller warms up
    in the constructor — so the measurement isolates what the *first
    request* pays, which is where hydration shows up.

    The reader's compiled-context cache is per-model state shared by both
    legs (and warmed by the parent's serial pass), so it is replaced with
    a fresh compiler for the measurement — otherwise forked "cold"
    workers would inherit the warm cache copy-on-write and the comparison
    would measure nothing.
    """
    from repro.core import BatchDistiller
    from repro.qa.compiled import ContextCompiler

    reader = ctx.artifacts.reader
    saved_compiler = reader.context_compiler
    reader.context_compiler = ContextCompiler()
    try:
        gced = _fresh_pipeline(ctx)
        with BatchDistiller(gced, workers=2, snapshot=snapshot) as batch:
            started = time.perf_counter()
            results = batch.distill_many(triples)
            elapsed_ms = 1000.0 * (time.perf_counter() - started)
    finally:
        reader.context_compiler = saved_compiler
    return elapsed_ms, [r.evidence for r in results]


def test_snapshot_warm_start():
    from repro.qa.compiled import ContextCompiler

    ctx = get_context("squad11")
    examples = ctx.dataset.answerable_dev()[:N_EXAMPLES]
    triples = [(e.question, e.primary_answer, e.context) for e in examples]

    # Deterministic warm state: a fresh compiled-context cache (the
    # reader's compiler is per-model state shared across benchmark
    # modules) and a fresh pipeline, warmed by serial traffic.
    reader = ctx.artifacts.reader
    saved_compiler = reader.context_compiler
    reader.context_compiler = ContextCompiler()
    try:
        parent = _fresh_pipeline(ctx)
        serial = [parent.distill(*triple) for triple in triples]

        snapshot = parent.build_snapshot()
        try:
            build_ms = snapshot.meta["build_ms"]
            nbytes = snapshot.nbytes
            assert nbytes > 0

            warm_ms_runs, cold_ms_runs = [], []
            for _ in range(N_ROUNDS):
                warm_ms, warm_out = _first_request_ms(ctx, triples, snapshot)
                cold_ms, cold_out = _first_request_ms(ctx, triples, False)
                # Byte-for-byte the serial outputs, snapshot on or off.
                assert warm_out == [r.evidence for r in serial]
                assert cold_out == [r.evidence for r in serial]
                warm_ms_runs.append(warm_ms)
                cold_ms_runs.append(cold_ms)
        finally:
            snapshot.close(unlink=True)
    finally:
        reader.context_compiler = saved_compiler

    worker_warm_ms = statistics.median(warm_ms_runs)
    cold_first_request_ms = statistics.median(cold_ms_runs)
    warm_speedup = (
        cold_first_request_ms / worker_warm_ms if worker_warm_ms else 0.0
    )
    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        f"snapshot-spawned workers served their first request only "
        f"{warm_speedup:.2f}x faster than cold-spawned ones "
        f"(need >= {MIN_WARM_SPEEDUP}x): warm {worker_warm_ms:.1f}ms "
        f"vs cold {cold_first_request_ms:.1f}ms"
    )

    lines = [
        "snapshot plane: "
        f"{nbytes} bytes packed in {build_ms:.1f}ms "
        f"({', '.join(f'{k}={v}' for k, v in snapshot.meta['sections'].items())})",
        f"first request over {len(triples)} triples x {N_ROUNDS} rounds: "
        f"warm {worker_warm_ms:.1f}ms vs cold {cold_first_request_ms:.1f}ms "
        f"({warm_speedup:.1f}x)",
    ]
    emit("snapshot", "\n".join(lines))
    emit_json(
        "snapshot",
        {
            "examples": len(triples),
            "rounds": N_ROUNDS,
            "cold_first_request_ms": round(cold_first_request_ms, 3),
            "sections": dict(snapshot.meta["sections"]),
            "metrics": {
                "snapshot.build_ms": round(build_ms, 3),
                "snapshot.bytes": nbytes,
                "snapshot.worker_warm_ms": round(worker_warm_ms, 3),
                "snapshot.warm_speedup": round(warm_speedup, 3),
            },
        },
    )
