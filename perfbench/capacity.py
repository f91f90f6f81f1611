"""Warm ``/ask`` capacity of the served program: what ``ASK_RATE`` is set from.

Starts one server exactly as the ``ask-zipf`` workload does, asks every
pool question once, then sends Zipf-drawn ``/ask`` requests closed-loop
on two connections with no think time for ``--seconds``, and prints the
throughput and latency it reached.

Usage: python3 perfbench/capacity.py [--seed 1] [--seconds 20]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import inputs
import loadgen
import run as bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    state = bench.Run("ask-capacity", args.seed, args.seconds, False)
    try:
        workload = bench.AskZipf(state, bench.corpus_groups(bench.program_version()))
        ops = [bench.ask_op(t) for t in inputs.zipf_stream(
            workload.groups, args.seed, int(args.seconds * 1000), bench.ASK_POOL)]
        argv_for = lambda i: [os.path.join(bench.HERE, "launcher.py"),
                              json.dumps(workload.config(i))]
        workload.child, first, _setups = bench.spawn(state, argv_for, 1, bench.healthy)
        workload.port = first["port"]
        try:
            workload.warm_up()
            start = loadgen.clock()
            sent = loadgen.closed_loop(workload.port, ops, bench.CONNECTIONS,
                                       start + args.seconds)
        finally:
            workload.child.close()
    finally:
        shutil.rmtree(state.work, ignore_errors=True)
    lat = [s.latency_ms for s in sent if s.ok]
    print(json.dumps({
        "ask_per_s": len(lat) / (max(s.end for s in sent) - start),
        "p50_ms": bench.percentile(lat, 0.50),
        "p95_ms": bench.percentile(lat, 0.95),
        "sent": len(sent),
        "failed": len(sent) - len(lat),
        "connections": bench.CONNECTIONS,
    }))
    return 0 if len(lat) == len(sent) else 1


if __name__ == "__main__":
    sys.exit(main())
