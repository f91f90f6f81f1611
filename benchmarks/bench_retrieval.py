"""Retrieval subsystem throughput — index build, query, end-to-end ask.

Three measurements, all feeding the CI perf gate:

* **index build** (docs/sec): sharded inverted-index construction,
  serial vs a 4-worker process pool, with the byte-identity contract
  asserted on every run;
* **query** (queries/sec + p50/p95 ms): BM25 top-k over the built index,
  one query per dev example (question + answer terms);
* **ask** (asks/sec): the full open-context path — retrieve top-k,
  distill every candidate on the batch engine, re-rank by hybrid
  evidence score.

Results land in ``benchmarks/results/retrieval.{txt,json}``; the JSON
metrics are gated against ``baseline.json`` by ``perf_gate.py``.
"""

from __future__ import annotations

import statistics
import time

from benchmarks.common import emit, emit_json, get_context, sample_size

N_QUERIES = sample_size("BENCH_RETRIEVAL_QUERIES", 80)
N_ASKS = sample_size("BENCH_ASK_REQUESTS", 8)
BUILD_REPEATS = sample_size("BENCH_INDEX_BUILD_REPEATS", 5)


def _measure_build(docs: list[str], workers: int):
    from repro.retrieval import CorpusRetriever, index_to_json

    started = time.perf_counter()
    for _ in range(BUILD_REPEATS):
        retriever = CorpusRetriever.build(docs, n_shards=4, workers=workers)
    elapsed = time.perf_counter() - started
    docs_per_sec = len(docs) * BUILD_REPEATS / elapsed
    return retriever, docs_per_sec, index_to_json(retriever.index)


def test_retrieval_throughput():
    from repro.core import BatchDistiller, OpenContextDistiller
    from repro.core.pipeline import GCED

    ctx = get_context("squad11")
    docs = list(ctx.dataset.contexts())
    examples = ctx.dataset.answerable_dev()

    retriever, serial_build, serial_bytes = _measure_build(docs, 1)
    _parallel, parallel_build, parallel_bytes = _measure_build(docs, 4)
    assert parallel_bytes == serial_bytes, "parallel shard build diverged"

    queries = [
        f"{example.question} {example.primary_answer}"
        for example in (examples * (N_QUERIES // max(1, len(examples)) + 1))
    ][:N_QUERIES]
    latencies = []
    for query in queries:
        started = time.perf_counter()
        retriever.retrieve(query, k=3)
        latencies.append((time.perf_counter() - started) * 1000.0)
    queries_per_sec = 1000.0 * len(latencies) / sum(latencies)
    p50 = statistics.median(latencies)
    p95 = statistics.quantiles(latencies, n=20)[-1]

    gced = GCED(qa_model=ctx.artifacts.reader, artifacts=ctx.artifacts)
    with OpenContextDistiller(
        BatchDistiller(gced), retriever, top_k=2
    ) as distiller:
        started = time.perf_counter()
        outcomes = [
            distiller.ask(example.question, example.primary_answer)
            for example in examples[:N_ASKS]
        ]
        ask_elapsed = time.perf_counter() - started
    assert all(outcome.best is not None for outcome in outcomes)
    asks_per_sec = len(outcomes) / ask_elapsed

    lines = [
        "retrieval throughput (squad11 contexts)",
        f"  index build  serial   {serial_build:>9.1f} docs/s "
        f"({len(docs)} docs x {BUILD_REPEATS} builds)",
        f"  index build  process:4 {parallel_build:>8.1f} docs/s (byte-identical)",
        f"  query top-3  {queries_per_sec:>9.1f} q/s   "
        f"p50 {p50:.2f}ms  p95 {p95:.2f}ms  ({len(queries)} queries)",
        f"  open-context ask (k=2) {asks_per_sec:>6.2f} asks/s "
        f"({len(outcomes)} asks, retrieve+distill+rank)",
    ]
    emit("retrieval", "\n".join(lines))
    emit_json(
        "retrieval",
        {
            "docs": len(docs),
            "queries": len(queries),
            "asks": len(outcomes),
            "query_latency_ms": {
                "p50": round(p50, 3),
                "p95": round(p95, 3),
            },
            "metrics": {
                "retrieval.build_docs_per_sec": round(serial_build, 2),
                "retrieval.queries_per_sec": round(queries_per_sec, 2),
                "retrieval.ask_per_sec": round(asks_per_sec, 2),
            },
        },
    )
