"""The offline batch job the ``batch-offline`` workload measures.

Runs as its own process: trains the pipeline on the benchmark corpus,
builds ``BatchDistiller(backend="process", workers=2)`` (which warms its
pool), prints ``{"pid": N}`` once warm, then answers one JSON command
per stdin line until ``quit``.  ``run`` feeds the given triples to
``distill_many`` in fixed-size chunks for a fixed time.

Usage: python3 perfbench/batchjob.py '<corpus as JSON>' [--trace DIR]
"""

from __future__ import annotations

import ctypes
import json
import multiprocessing
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
from procs import children_of, reply, vmhwm_kb  # noqa: E402

WORKERS = 2


def main() -> int:
    corpus = json.loads(sys.argv[1])
    trace_dir = sys.argv[3] if sys.argv[2:3] == ["--trace"] else None
    tracer = None
    if trace_dir is not None:
        gate = multiprocessing.RawValue(ctypes.c_bool, True)  # setup is traced
        tracer = spans.Tracer(gate, dump_dir=trace_dir)
        tracer.install_engine()
        tracer.install_pipeline()

    from repro.core.batch import BatchDistiller
    from repro.core.pipeline import GCED
    from repro.core.serialize import result_to_dict
    from repro.datasets.loader import load_dataset
    from repro.qa.training import QATrainer

    data = load_dataset(
        corpus["dataset"],
        seed=corpus["seed"],
        n_train=corpus["n_train"],
        n_dev=corpus["n_dev"],
    )
    artifacts = QATrainer(seed=corpus["seed"]).train(list(data.contexts()))
    gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
    distiller = BatchDistiller(gced, workers=WORKERS, backend="process")
    if tracer is not None:
        tracer.gate.value = False
    reply({"pid": os.getpid()})
    last: tuple = ([], [])  # the last chunk distilled, and its results
    try:
        for line in sys.stdin:
            command = json.loads(line)
            name = command["cmd"]
            if name == "quit":
                break
            if name == "run":
                triples = [tuple(t) for t in command["triples"]]
                chunk = command["chunk"]
                if tracer is not None:
                    tracer.gate.value = bool(command["trace"])
                calls = []
                until = time.perf_counter() + command["seconds"]
                pos = 0
                while time.perf_counter() < until and pos < len(triples):
                    batch = triples[pos : pos + chunk]
                    start = time.perf_counter()
                    results = distiller.distill_many(batch)
                    calls.append((start, time.perf_counter(), len(batch)))
                    last = (batch, results)
                    pos += len(batch)
                if tracer is not None:
                    tracer.gate.value = False
                reply({"calls": calls, "used": pos})
            elif name == "check":
                # The pool's last chunk (the measured phase's end) next to
                # serial, inline GCED.distill of the triples it was given.
                batch, results = last
                reply(
                    {
                        "process": [
                            result_to_dict(r, q, a) for (q, a, _c), r in zip(batch, results)
                        ],
                        "serial": [
                            result_to_dict(gced.distill(q, a, c), q, a)
                            for q, a, c in batch
                        ],
                    }
                )
            elif name == "stats":
                stats = distiller.stats()
                caches = {
                    cache.name: [cache.hits, cache.misses]
                    for cache in stats.cache_stats
                }
                reply(
                    {
                        "n_distilled": stats.n_distilled,
                        "n_cache_hits": stats.n_cache_hits,
                        "caches": caches,
                    }
                )
            elif name == "rss":
                pids = [os.getpid(), *children_of(os.getpid())]
                reply({"vmhwm_kb": sum(vmhwm_kb(pid) for pid in pids), "pids": pids})
            elif name == "spans":
                path = os.path.join(trace_dir, "spans-coordinator.json")
                with open(path, "w") as handle:
                    json.dump({"spans": tracer.spans, "values": tracer.values}, handle)
                reply({"path": path})
            else:
                reply({"error": f"unknown command {name!r}"})
    finally:
        distiller.close()  # pool workers exit and dump their spans
    return 0


if __name__ == "__main__":
    sys.exit(main())
