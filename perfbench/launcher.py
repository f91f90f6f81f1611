"""Start the evidence service the way the benchmark measures it.

Runs inside the server process: builds ``DistillService`` from the
shipped ``ServiceConfig`` defaults plus the benchmark's corpus size,
serves it over HTTP on an ephemeral port, prints ``{"port": N}`` on
stdout once listening, then answers one JSON command per stdin line
(one JSON reply per stdout line) until ``quit``.  The commands give the
load generator what only the server process can see: its peak memory,
inline reference outputs for the correctness checks, and the spans of a
traced run.

Usage: python3 perfbench/launcher.py '<ServiceConfig overrides as JSON>'
       [--trace DIR]
"""

from __future__ import annotations

import ctypes
import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
from procs import reply, vmhwm_kb  # noqa: E402


def reference_ask(service, question: str, answer: str, k: int) -> dict:
    """``DistillService.ask`` without the scheduler and its result memo:
    retrieve, distill every hit inline, rank."""
    from repro.core.open_context import build_outcome

    hits = service.retriever.retrieve_for_qa(question, answer, k=k)
    results = [service.gced.distill(question, answer, hit.text) for hit in hits]
    return build_outcome(question, answer, hits, results).to_dict()


def rankings(service, queries, k, added, deleted) -> dict:
    """Live top-k next to a from-scratch index over the expected live docs.

    The expected live set is the served corpus plus what the client
    ingested minus what it deleted, in doc-id order, so it is built from
    the client's own record rather than from the server's state.
    """
    from repro.retrieval.retriever import CorpusRetriever

    docs = {i: text for i, text in enumerate(service.dataset.contexts())}
    docs.update({int(doc_id): text for doc_id, text in added})
    for doc_id in deleted:
        docs.pop(int(doc_id), None)
    rebuilt = CorpusRetriever.build([docs[i] for i in sorted(docs)])

    def ranked(retriever, query):
        return [[hit.text, hit.score] for hit in retriever.retrieve(query, k=k)]

    return {
        "live": [ranked(service.retriever, q) for q in queries],
        "rebuilt": [ranked(rebuilt, q) for q in queries],
        "live_docs": service.retriever.index.n_docs,
        "expected_docs": len(docs),
    }


def main() -> int:
    overrides = json.loads(sys.argv[1])
    trace_dir = sys.argv[3] if sys.argv[2:3] == ["--trace"] else None
    tracer = None
    if trace_dir is not None:
        tracer = spans.Tracer(multiprocessing.RawValue(ctypes.c_bool, False))
        tracer.install_server()

    from repro.core.serialize import result_to_dict
    from repro.service import DistillService, ServiceConfig, start_server

    service = DistillService.build(ServiceConfig(**overrides))
    server, _thread = start_server(service, quiet=True)
    reply({"port": server.server_address[1], "pid": os.getpid()})
    try:
        for line in sys.stdin:
            command = json.loads(line)
            name = command["cmd"]
            if name == "quit":
                break
            if name == "rss":
                reply({"vmhwm_kb": vmhwm_kb(os.getpid())})
            elif name == "trace":
                tracer.gate.value = bool(command["on"])
                reply({"at": spans.clock()})
            elif name == "ref_distill":
                reply(
                    [
                        result_to_dict(service.gced.distill(q, a, c), q, a)
                        for q, a, c in command["items"]
                    ]
                )
            elif name == "ref_ask":
                reply(
                    [
                        reference_ask(service, q, a, k or service.top_k)
                        for q, a, k in command["items"]
                    ]
                )
            elif name == "rankings":
                reply(
                    rankings(
                        service,
                        command["queries"],
                        command["k"],
                        command["added"],
                        command["deleted"],
                    )
                )
            elif name == "spans":
                path = os.path.join(trace_dir, "spans-server.json")
                with open(path, "w") as handle:
                    json.dump(
                        {
                            "spans": tracer.spans,
                            "roots": tracer.roots,
                            "errors": tracer.errors,
                        },
                        handle,
                    )
                reply({"path": path})
            else:
                reply({"error": f"unknown command {name!r}"})
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
