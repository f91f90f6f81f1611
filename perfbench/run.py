"""Client-side benchmark of the GCED evidence service and its batch job.

Run from the repository root:

    python3 perfbench/run.py --workload ingest-live --seed 1 \
        --seconds 25 --trace 0 [--out results.jsonl]

``--workload all`` runs every workload in turn.  The last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json, with
``--trace 1`` the per-layer ones.  See perfbench/README.md for what each
workload and metric means.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import loadgen  # noqa: E402
import procs  # noqa: E402
import spans  # noqa: E402

WARMUP_S = 1.0  # sent and checked, never measured
SETUP_SPAWNS = 2  # set-ups per untraced run; setup_s is their median
SAMPLE = 6  # outputs compared against an inline reference per run
CONNECTIONS = 2  # = nproc of the reference box

ASK_RATE = 14.0  # /ask per second: half of warm /ask capacity (capacity.py)
ASK_POOL = 50  # distinct questions behind the Zipf draw, all warmed up
# One ingest client waits for each durable ack, then thinks this long.
INGEST_THINK_S = 0.005
INGEST_READ_EVERY = 2  # every other operation of that client is an /ask
INGEST_COMPACT_EVERY = 48  # three to five compactions in a run
BATCH_CHUNK = 8  # triples per distill_many call

STAGES = ("ase", "tokenize", "qws", "wsptc", "efc", "oec", "finalize")


# ------------------------------------------------------------------ helpers
def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def mount_type(path: str) -> str:
    """File-system type of the mount holding ``path``."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts") as handle:
        for line in handle:
            fields = line.split()
            point = fields[1]
            if path == point or path.startswith(point.rstrip("/") + "/"):
                if len(point) > len(best):
                    best, kind = point, fields[2]
    return kind


def fingerprint(work: str) -> dict:
    """What two results must share before they may be compared."""
    cpu = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "wal_fs": mount_type(work),
    }


def program_version() -> dict:
    """Git commit when available, and a digest of the program source."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def speed_probe(n: int = 3) -> list[float]:
    """Milliseconds of a fixed pure-Python loop, ``n`` times.

    Not a metric: it shows how fast the box itself ran during a run, so a
    shift between two sets of results can be told from a program change.
    """
    times = []
    for _ in range(n):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(1000.0 * (time.perf_counter() - start))
    return times


def corpus_groups(version: dict) -> dict:
    """The served corpus's triples by paragraph, cached per program source.

    Generating the corpus costs seconds; the cache in ``.bench_work`` is
    keyed by the digest of ``src/``, so a changed program regenerates it.
    """
    path = os.path.join(ROOT, ".bench_work", f"corpus-{version['source_sha256']}.json")
    if os.path.exists(path):
        with open(path) as handle:
            rows = json.load(handle)
    else:
        rows = [[t.question, t.answer, t.context]
                for ts in inputs.by_context(inputs.load_examples(**inputs.CORPUS)).values()
                for t in ts]
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(rows, handle)
        os.replace(tmp, path)
    groups: dict = {}
    for q, a, c in rows:
        groups.setdefault(c, []).append(inputs.Triple(q, a, c))
    return groups


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# --------------------------------------------------------------------- runs
class Run:
    """State of one workload run: counters, report lines, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = (
            workload, seed, seconds, trace,
        )
        self.work = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.values: dict[str, float] = {}

    def say(self, text: str) -> None:
        print(text, flush=True)

    def count(self, sent: list) -> None:
        self.attempted += len(sent)
        bad = [s for s in sent if not s.ok]
        self.failed += len(bad)
        if bad:
            self.correct = False

    def check(self, name: str, mismatches: int, total: int) -> None:
        self.attempted += total
        self.failed += mismatches
        if mismatches:
            self.correct = False
        self.say(f"check {name}: {total - mismatches}/{total} match")

    def compare(self, name: str, served: list, reference: list) -> None:
        """Check under the documented contract; report bit-level drift too."""
        self.check(name, checks.count_mismatches(served, reference), len(reference))
        exact = checks.count_mismatches(served, reference, tolerant=False)
        self.say(f"  bit-exact: {len(reference) - exact}/{len(reference)}")
        for i, (a, b) in enumerate(zip(served, reference)):
            where = checks.first_difference(a, b, tolerant=False)
            if where:
                self.say(f"  sample {i} differs at {where}")

    def phases(self):
        """``(seconds, traced)`` after the warm-up: a traced run puts a
        traced half between two untraced quarters, so warming caches do
        not bias the overhead estimate."""
        if not self.trace:
            return [(self.seconds, False)]
        quarter = self.seconds / 4.0
        return [(quarter, False), (2 * quarter, True), (quarter, False)]


def spawn(run: Run, argv_for, n: int, ready) -> tuple:
    """Start ``n`` children one after another; keep the last, close the others.

    ``argv_for(i)`` gives child ``i``'s arguments.
    ``ready(child, first_reply)`` returns once the child serves; each
    set-up time runs from spawn to then, with no sibling alive.  Returns
    (child, first reply, set-up seconds of each).
    """
    setups = []
    for i in range(n):
        child = procs.Child(argv_for(i), os.path.join(run.work, f"child-{i}.log"), ROOT)
        try:
            first = child.recv(timeout=150)
            ready(child, first)
            setups.append(time.perf_counter() - child.started)
        except BaseException:
            child.close()
            raise
        if i < n - 1:
            child.close()
    return child, first, setups


def healthy(child, first) -> None:
    port = first["port"]
    deadline = time.perf_counter() + 60
    while time.perf_counter() < deadline:
        status, body = loadgen.request(port, "GET", "/healthz", timeout=5)
        if status == 200 and json.loads(body).get("status") == "ok":
            return
        time.sleep(0.005)
    raise TimeoutError("server never reported healthy")


def latency_metrics(run: Run, sent: list, routes: tuple) -> None:
    ok = [s for s in sent if s.ok and s.route in routes]
    lat = [s.latency_ms for s in ok]
    span = max(s.end for s in sent) - min(s.due for s in sent)
    run.values["ops_per_s"] = sum(s.ok for s in sent) / span
    run.values["p50_ms"] = percentile(lat, 0.50)
    run.values["p95_ms"] = percentile(lat, 0.95)
    run.say(f"{'+'.join(routes)}: {len(ok)} samples measured, "
            f"{sum(1 for v in lat if v > run.values['p95_ms'])} beyond p95")


def route_summary(run: Run, sent: list) -> None:
    for route in sorted({s.route for s in sent}):
        mine = [s for s in sent if s.route == route]
        ok = [s.latency_ms for s in mine if s.ok]
        line = f"{route}: sent {len(mine)}, succeeded {len(ok)}, failed {len(mine) - len(ok)}"
        if ok:
            line += (f"; p50 {percentile(ok, .5):.2f} ms, p95 {percentile(ok, .95):.2f} ms,"
                     f" p99 {percentile(ok, .99):.2f} ms (diagnostic)")
        run.say(line)


# -------------------------------------------------------------- workloads
def ask_op(t: inputs.Triple) -> loadgen.Op:
    return loadgen.Op("/ask", (t.question, t.answer), "POST", "/ask",
                      {"question": t.question, "answer": t.answer})


class ServerWorkload:
    """A fresh server process driven over HTTP by this process."""

    routes = ("/distill",)  # whose latency p50_ms and p95_ms report

    def __init__(self, run: Run, groups: dict):
        self.run = run
        self.groups = groups
        self.sent_all: list = []
        self.measured: list = []  # what the checks sample: no warm-up

    def config(self, i: int) -> dict:
        """ServiceConfig overrides for spawned server ``i``."""
        return dict(inputs.CORPUS)

    def execute(self) -> None:
        run = self.run
        n = 1 if run.trace else SETUP_SPAWNS
        def argv_for(i):
            argv = [os.path.join(HERE, "launcher.py"), json.dumps(self.config(i))]
            return argv + ["--trace", run.work] if run.trace else argv

        self.child, first, setups = spawn(run, argv_for, n, healthy)
        self.port = first["port"]
        try:
            run.values["setup_s"] = statistics.median(setups)
            run.say("setup_s samples: " + ", ".join(f"{t:.3f}" for t in setups))
            self.warm_up()
            traced, untraced = [], []
            for seconds, is_traced in run.phases():
                if is_traced:
                    stats0 = loadgen.get_json(self.port, "/stats")
                    self.child.call({"cmd": "trace", "on": True})
                    traced = self.drive(seconds)
                    self.child.call({"cmd": "trace", "on": False})
                    stats1 = loadgen.get_json(self.port, "/stats")
                else:
                    untraced += self.drive(seconds)
            self.measured = untraced + traced
            rss = self.child.call({"cmd": "rss"})["vmhwm_kb"]
            run.values["rss_peak_mb"] = rss / 1024.0
            run.count(self.sent_all)
            route_summary(run, self.sent_all)
            self.shares()
            self.correctness()
            if run.trace:
                self.layers(traced, untraced, stats0, stats1)
            else:
                latency_metrics(run, untraced, self.routes)
        finally:
            self.child.close()

    def drive(self, seconds: float) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        self.drive(WARMUP_S)

    def layers(self, traced, untraced, stats0, stats1) -> None:
        path = self.child.call({"cmd": "spans"})["path"]
        with open(path) as handle:
            data = json.load(handle)
        roots = {int(k): v for k, v in data["roots"].items()}
        client: dict[str, list] = {}
        for s in traced:
            if s.ok:
                client.setdefault(s.route, []).append(1000.0 * (s.end - s.sent))
        window = [tuple(x) for x in data["spans"]]
        folded = spans.fold_requests(window, roots, client)
        values = layer_values(folded, window, data["errors"])
        values.update(server_ratios(stats0, stats1, self.run))
        self.run.say("generator lag p95: %.2f ms (open loop only)" % percentile(
            [1000.0 * (s.sent - s.due) for s in traced], 0.95))
        base, with_trace = (
            statistics.median(s.latency_ms for s in part if s.ok and s.route in self.routes)
            for part in (untraced, traced)
        )
        values["trace.overhead_pct"] = 100.0 * (with_trace / base - 1.0)
        self.run.say(f"tracing overhead: {'+'.join(self.routes)} p50 {with_trace:.2f} ms "
                     f"traced vs {base:.2f} ms untraced")
        for route, entry in sorted(folded.items()):
            self.run.say(f"fold {route}: n={entry['n']} wall {entry['wall_ms']:.2f} ms = "
                         f"edge {entry['edge_ms']:.2f} + layers "
                         f"{sum(entry['layers'].values()):.2f} + unattributed "
                         f"{entry['unattributed_ms']:.2f}")
            for name, ms in sorted(entry["layers"].items(), key=lambda kv: -kv[1]):
                self.run.say(f"    {name:28s} {ms:9.3f} ms/request  "
                             f"{entry['calls'][name]:8.2f} calls/request")
        self.run.values.update(values)

    def shares(self) -> None:
        pass

    def correctness(self) -> None:
        pass


class DistillFresh(ServerWorkload):
    """Closed loop on /distill; every request a paragraph new to the run."""

    def __init__(self, run, groups):
        super().__init__(run, groups)
        self.ops = iter(
            loadgen.Op("/distill", t.context, "POST", "/distill",
                       {"question": t.question, "answer": t.answer, "context": t.context})
            for t in inputs.fresh_stream(groups, run.seed)
        )

    def drive(self, seconds):
        sent = loadgen.closed_loop(self.port, self.ops, CONNECTIONS,
                                   loadgen.clock() + seconds)
        self.sent_all += sent
        return sent

    def shares(self):
        share = inputs.repeated_share([s.key for s in self.sent_all])
        self.run.say(f"share of requests repeating a paragraph: {share:.4f}")

    def correctness(self):
        sample = [s for s in self.measured if s.ok][-SAMPLE:]
        served = [json.loads(s.body) for s in sample]
        items = [[s.payload["question"], s.payload["answer"], s.payload["context"]]
                 for s in sample]
        reference = self.child.call({"cmd": "ref_distill", "items": items}, timeout=300)
        self.run.compare("served /distill == inline GCED.distill", served, reference)


class AskZipf(ServerWorkload):
    """Open loop on /ask at a fixed rate; Zipf-weighted questions."""

    routes = ("/ask",)

    def __init__(self, run, groups):
        super().__init__(run, groups)
        n = int(run.seconds * ASK_RATE) + 10
        self.stream = [ask_op(t) for t in inputs.zipf_stream(groups, run.seed, n, ASK_POOL)]
        self.pos = 0

    def warm_up(self):
        """Ask every pool question once, so the measured phase is warm."""
        ops = [ask_op(t) for t in inputs.zipf_pool(self.groups, ASK_POOL)]
        self.sent_all += loadgen.closed_loop(self.port, ops, CONNECTIONS, math.inf)

    def drive(self, seconds):
        count = int(round(seconds * ASK_RATE))
        ops = self.stream[self.pos : self.pos + count]
        self.pos += count
        start = loadgen.clock()
        sent = loadgen.open_loop(self.port, ops, 1.0 / ASK_RATE, start,
                                 start + seconds, CONNECTIONS)
        self.sent_all += sent
        return sent

    def shares(self):
        keys = [s.key for s in self.sent_all]
        measured = keys[ASK_POOL:]
        repeats = sum(key in set(keys[:ASK_POOL]) for key in measured)
        self.run.say(f"share of /ask repeating an earlier question: "
                     f"{inputs.repeated_share(keys):.4f} over the run, "
                     f"{ratio(repeats, len(measured)):.4f} after the warm-up")

    def correctness(self):
        """The last distinct questions of the measured phase, which the
        result memo answered."""
        seen, sample = set(), []
        for s in reversed(self.measured):
            if s.ok and s.key not in seen and len(sample) < SAMPLE:
                seen.add(s.key)
                sample.append(s)
        items = [[s.payload["question"], s.payload["answer"], None] for s in sample]
        reference = self.child.call({"cmd": "ref_ask", "items": items}, timeout=300)
        served = [json.loads(s.body) for s in sample]
        self.run.compare("served /ask == inline retrieve+distill+rank",
                         served, reference)


class _Write(loadgen.Op):
    """An ingest or delete whose document id is known only once sent."""

    def __init__(self, op: inputs.WriteOp, index: int, ids: dict, log: dict):
        route = "/ingest" if op.kind == "add" else "/docs"
        super().__init__(route, op.kind, "", "")
        self.op, self.index, self.ids, self.log = op, index, ids, log

    def prepare(self):
        if self.op.kind == "add":
            return "POST", "/ingest", {"texts": [self.op.text]}
        return "DELETE", f"/docs/{self.ids[self.op.target]}", None

    def done(self, status, body):
        if not 200 <= status < 300:
            return
        if self.op.kind == "add":
            doc_id = json.loads(body)["doc_ids"][0]
            self.ids[self.index] = doc_id
            self.log["added"].append([doc_id, self.op.text])
        else:
            self.log["deleted"].append(self.ids[self.op.target])


class IngestLive(ServerWorkload):
    """One client writing (adds and deletes) and reading its own writes.

    The client waits for each durable ack, as an ingest pipeline does,
    and every other operation asks about the paragraph it wrote 20 writes
    before.  Its reads never overlap its writes.  p50_ms and p95_ms are
    the reads': an /ask against a corpus that grows, takes tombstones and
    compacts while it is read.  Write latency is printed per route only:
    a write takes a few milliseconds, mostly the HTTP edge and the fsync,
    and on a shared disk the spread of its median over runs of the same
    code was 7-31% and of its p95 15-140%, with one, four or eight
    paragraphs per write.
    A compaction stall shows in ``ops_per_s`` and in the /ingest p99.
    """

    routes = ("/ask",)

    def __init__(self, run, groups):
        super().__init__(run, groups)
        # Each operation is followed by a think, so a run sends no more than this.
        n_ops = int((WARMUP_S + run.seconds) / INGEST_THINK_S)
        n_writes = n_ops * (INGEST_READ_EVERY - 1) // INGEST_READ_EVERY + 10
        unseen = [
            t for ts in inputs.by_context(
                inputs.load_examples("squad11", 1000 + run.seed, 3 * n_writes, 0)
            ).values() for t in ts if t.context not in groups
        ]
        writes = inputs.write_stream(unseen, run.seed, n_writes)
        sequence = inputs.read_your_writes(
            writes, {t.context: t for t in unseen}, inputs.fresh_stream(groups, run.seed),
            INGEST_READ_EVERY,
        )
        self.ids: dict[int, int] = {}
        self.log = {"added": [], "deleted": []}
        self.ops = iter([
            _Write(writes[item], item, self.ids, self.log) if kind == "write"
            else ask_op(item)
            for kind, item in sequence
        ])

    def config(self, i):
        # Each spawned server gets its own, fresh ingest directory.
        return {**super().config(i), "compact_every": INGEST_COMPACT_EVERY,
                "ingest_dir": os.path.join(self.run.work, f"ingest-{i}")}

    def drive(self, seconds):
        sent = loadgen.closed_loop(self.port, self.ops, 1, loadgen.clock() + seconds,
                                   INGEST_THINK_S)
        self.sent_all += sent
        return sent

    def shares(self):
        writes = [s for s in self.sent_all if s.route != "/ask"]
        reads = [s.key for s in self.sent_all if s.route == "/ask"]
        deletes = sum(1 for s in writes if s.route == "/docs")
        self.run.say(f"share of requests that write: {ratio(len(writes), len(self.sent_all)):.4f}"
                     f" ({len(writes)} of {len(self.sent_all)}; {deletes} deletes)")
        self.run.say(f"share of /ask repeating an earlier question: "
                     f"{inputs.repeated_share(reads):.4f}")

    def correctness(self):
        stats = loadgen.get_json(self.port, "/stats")["ingest"]
        self.run.say(f"compactions: {stats['compactions']} "
                     f"(compact_every {INGEST_COMPACT_EVERY})")
        live = {doc_id for doc_id, _ in self.log["added"]} - set(self.log["deleted"])
        recent = [text for doc_id, text in reversed(self.log["added"]) if doc_id in live]
        about = {s.key: s for s in self.sent_all if s.route == "/ask"}
        queries = [text.split(".")[0] for text in recent[: SAMPLE // 2]]
        queries += [f"{q} {a}" for q, a in list(about)[: SAMPLE - len(queries)]]
        result = self.child.call(
            {"cmd": "rankings", "queries": queries, "k": 10, **self.log}, timeout=300
        )
        self.run.values["retrieval.live_docs"] = float(result["live_docs"])
        self.run.check("live ranking == rebuilt index", checks.ranking_mismatches(result),
                       len(queries) + 1)


class BatchOffline:
    """distill_many over fresh triples in a process-pool batch job."""

    def __init__(self, run: Run, groups: dict):
        self.run = run
        self.triples = [[t.question, t.answer, t.context]
                        for t in inputs.fresh_stream(groups, run.seed)]
        self.pos = 0

    def call_run(self, seconds: float, traced: bool) -> list:
        reply = self.child.call(
            {"cmd": "run", "triples": self.triples[self.pos : self.pos + 3000],
             "chunk": BATCH_CHUNK, "seconds": seconds, "trace": traced},
            timeout=seconds + 120,
        )
        self.pos += reply["used"]
        return reply["calls"]

    def execute(self) -> None:
        run = self.run
        n = 1 if run.trace else SETUP_SPAWNS
        argv = [os.path.join(HERE, "batchjob.py"), json.dumps(inputs.CORPUS)]
        if run.trace:
            argv += ["--trace", run.work]
        self.child, _first, setups = spawn(run, lambda i: argv, n, lambda c, f: None)
        try:
            run.values["setup_s"] = statistics.median(setups)
            run.say("setup_s samples: " + ", ".join(f"{t:.3f}" for t in setups))
            self.call_run(WARMUP_S, False)
            traced, untraced = [], []
            for seconds, is_traced in run.phases():
                calls = self.call_run(seconds, is_traced)
                if is_traced:
                    traced = calls
                    stats = self.child.call({"cmd": "stats"})
                else:
                    untraced += calls
            run.values["rss_peak_mb"] = self.child.call({"cmd": "rss"})["vmhwm_kb"] / 1024.0
            examples = sum(n for _s, _e, n in untraced + traced)
            run.attempted += examples
            run.say(f"batch: {examples} examples in {len(untraced) + len(traced)} "
                    f"distill_many calls of {BATCH_CHUNK}; repeated paragraphs: 0")
            check = self.child.call({"cmd": "check"}, timeout=300)
            run.compare("process-pool distill_many == serial GCED.distill",
                        check["process"], check["serial"])
            if run.trace:
                self.child.call({"cmd": "spans"})
            else:
                self.summarize(untraced)
        finally:
            self.child.close()
        if run.trace:
            self.layers(traced, untraced, stats)

    def summarize(self, calls) -> None:
        lat = [1000.0 * (e - s) for s, e, _n in calls]
        wall = calls[-1][1] - calls[0][0]
        self.run.values["ops_per_s"] = sum(n for _s, _e, n in calls) / wall
        self.run.values["p50_ms"] = percentile(lat, 0.50)
        self.run.values["p95_ms"] = percentile(lat, 0.95)
        self.run.say(f"distill_many: {len(lat)} calls; p99 {percentile(lat, .99):.2f} ms (diagnostic)")

    def layers(self, traced, untraced, stats) -> None:
        merged, values = [], {}
        for path in glob.glob(os.path.join(self.run.work, "spans-*.json")):
            with open(path) as handle:
                data = json.load(handle)
            if isinstance(data, dict):
                values = data["values"]
                data = data["spans"]
            merged += [tuple(x) for x in data]
        folded = spans.fold_batch(merged, [tuple(c) for c in traced])
        out = layer_values({"batch": folded}, merged, {})
        # Set-up layers: the pool warm-up and snapshot build, timed once.
        for _sid, name, start, end, _p, _r in merged:
            if name in ("executor.warmup", "snapshot.build"):
                out[name + "_ms"] = 1000.0 * (end - start)
        out["snapshot.bytes"] = values.get("snapshot.bytes", 0.0)
        for key, cache in (("batch.memo_hit_ratio", "results"),
                           ("qa.compiled_hit_ratio", "compiled_contexts"),
                           ("scoring.clip_hit_ratio", "clip_scores")):
            h, m = stats["caches"].get(cache, [0, 0])
            out[key] = ratio(h, h + m)
            self.run.say(f"{key} {out[key]:.4f} ({h} hits / {h + m} lookups, whole run)")
        rate = lambda calls: sum(n for *_x, n in calls) / sum(e - s for s, e, _n in calls)
        out["trace.overhead_pct"] = 100.0 * (rate(untraced) / rate(traced) - 1.0)
        self.run.say(f"tracing overhead: {rate(traced):.2f} ex/s traced vs "
                     f"{rate(untraced):.2f} ex/s untraced")
        self.run.say(f"fold batch: {folded['n']} examples, wall {folded['wall_ms']:.3f} ms/example,"
                     f" unattributed {folded['unattributed_ms']:.3f} ms/example")
        for name, ms in sorted(folded["layers"].items(), key=lambda kv: -kv[1]):
            self.run.say(f"    {name:28s} {ms:9.3f} ms/example  "
                         f"{folded['calls'][name]:8.2f} calls/example")
        self.run.values.update(out)


# ---------------------------------------------------------------- folding
def layer_values(folded: dict, window_spans, errors: dict) -> dict:
    """Per-layer metrics, averaged over every operation of the workload."""
    total = sum(entry["n"] for entry in folded.values()) or 1

    def mean(field, name):
        return sum(e["n"] * e[field].get(name, 0.0) for e in folded.values()) / total

    def overall(field):
        return sum(e["n"] * e.get(field, 0.0) for e in folded.values()) / total

    out = {
        "server.edge_ms": overall("edge_ms"),
        "unattributed_ms": overall("unattributed_ms"),
        "admission.ms": mean("layers", "admission"),
        "admission.shed": float(errors.get("admission", 0)),
        "scheduler.wait_ms": mean("layers", "scheduler.wait"),
        "batch.distill_many_ms": mean("layers", "batch.distill_many"),
        "executor.map_ms": mean("layers", "executor.map"),
        "qa.predict_ms": mean("layers", "qa.predict"),
        "qa.predict_calls": mean("calls", "qa.predict"),
        "metrics.informativeness_ms": mean("layers", "metrics.informativeness"),
        "retrieval.retrieve_ms": mean("layers", "retrieval.retrieve"),
        "retrieval.calls": mean("calls", "retrieval.retrieve"),
        "ingest.apply_ms": mean("layers", "ingest.apply"),
        "wal.sync_ms": mean("layers", "wal.sync"),
        "ingest.compact_ms": mean("layers", "ingest.compact"),
        "snapshot.refresh_ms": mean("layers", "snapshot.refresh"),
    }
    for stage in STAGES:
        out[f"stage.{stage}_ms"] = mean("layers", f"stage.{stage}")
        out[f"stage.{stage}_calls"] = mean("calls", f"stage.{stage}")
    names = [x[1] for x in window_spans]
    out["wal.syncs"] = float(names.count("wal.sync"))
    out["ingest.compactions"] = float(names.count("ingest.compact"))
    return out


def server_ratios(s0: dict, s1: dict, run: Run) -> dict:
    """Ratios over the traced window from /stats deltas, printed with bases."""
    def delta(*path):
        a, b = s0, s1
        for key in path:
            a, b = (a or {}).get(key), (b or {}).get(key)
        return (b or 0) - (a or 0)

    pairs = {
        "scheduler.batch_size": (delta("scheduler", "flushed"), delta("scheduler", "batches"),
                                 "requests flushed", "batches"),
        "scheduler.coalesced_ratio": (delta("scheduler", "coalesced"),
                                      delta("scheduler", "submitted"), "coalesced", "submitted"),
        "batch.memo_hit_ratio": (delta("batch", "n_cache_hits"),
                                 delta("batch", "n_cache_hits") + delta("batch", "n_distilled"),
                                 "memo hits", "lookups"),
        "qa.compiled_hit_ratio": (delta("service", "compiled_contexts", "hits"),
                                  delta("service", "compiled_contexts", "hits")
                                  + delta("service", "compiled_contexts", "misses"),
                                  "hits", "lookups"),
        "scoring.clip_hit_ratio": (delta("caches", "clip_scores", "hits"),
                                   delta("caches", "clip_scores", "hits")
                                   + delta("caches", "clip_scores", "misses"),
                                   "hits", "lookups"),
    }
    out = {}
    for name, (num, den, num_name, den_name) in pairs.items():
        out[name] = ratio(num, den)
        run.say(f"{name} {out[name]:.4f} ({num} {num_name} / {den} {den_name})")
    out["retrieval.live_docs"] = float((s1["service"].get("retrieval") or {}).get("docs", 0))
    return out


WORKLOADS = {
    "distill-fresh": DistillFresh,
    "ask-zipf": AskZipf,
    "ingest-live": IngestLive,
    "batch-offline": BatchOffline,
}


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool):
    run = Run(workload, seed, seconds, trace)
    try:
        run.say(f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}")
        version = program_version()
        stamp = {**fingerprint(run.work), **version, "seed": seed}
        run.say("fingerprint " + json.dumps(stamp, sort_keys=True))
        probes = speed_probe()
        groups = corpus_groups(version)
        WORKLOADS[workload](run, groups).execute()
        probe = statistics.median(probes + speed_probe())
        run.say(f"speed probe: {probe:.2f} ms (fixed loop before and after; "
                "higher is a slower box)")
        group = "per_layer" if trace else "end_to_end"
        metrics = {}
        for entry in spec[group]:
            name = entry["name"]
            value = run.values.get(name, 0.0 if trace else None)
            if value is None:
                raise RuntimeError(f"metric {name} was not measured")
            metrics[name] = {"value": value, "unit": entry["unit"]}
            if not trace or name in run.values:
                run.say(f"{name} = {value:.6g} {entry['unit']}")
        run.say(f"requests/operations: attempted {run.attempted}, "
                f"succeeded {run.attempted - run.failed}, failed {run.failed}")
        header = {"fingerprint": stamp, "speed_probe_ms": probe}
        return header, {"correct": run.correct, "attempted": run.attempted,
                       "failed": run.failed, "metrics": metrics}
    except Exception:
        for path in sorted(glob.glob(os.path.join(run.work, "child-*.log"))):
            with open(path, errors="replace") as handle:
                sys.stderr.write(f"--- {os.path.basename(path)} (tail)\n")
                sys.stderr.write("".join(handle.readlines()[-20:]))
        raise
    finally:
        shutil.rmtree(run.work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each result, stamped, as a JSON line")
    args = parser.parse_args(argv)
    # A terminated run still closes (and reaps) the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source under src/repro; run from a "
              "repository checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        header, result = run_one(spec, name, args.seed, args.seconds, bool(args.trace))
        results.append((name, result))
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps({"workload": name, "trace": args.trace,
                                         **header, **result}) + "\n")
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _n, r in results),
            "attempted": sum(r["attempted"] for _n, r in results),
            "failed": sum(r["failed"] for _n, r in results),
            "metrics": {f"{n}/{k}": v for n, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
