"""The load generator: a stdlib HTTP client and closed/open loops.

Every request opens a fresh connection, as ``repro.service.client``
does, but through this module's own code, so changes to the program's
client cannot change the load.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass

clock = time.perf_counter


@dataclass
class Sent:
    """One request as the client saw it (times on :func:`clock`)."""

    route: str
    key: object  # the input's identity, for repeat shares and checks
    due: float
    sent: float
    end: float
    status: int
    body: bytes
    payload: object = None  # the JSON the client sent, for the checks

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def latency_ms(self) -> float:
        """From when the request was due (open loop) or sent (closed)."""
        return 1000.0 * (self.end - self.due)


def request(port: int, method: str, path: str, payload=None, timeout=30.0):
    """One request on a fresh connection: ``(status, body)``; 0 on error."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return 0, b""
    finally:
        conn.close()


def get_json(port: int, path: str):
    status, body = request(port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


class Op:
    """An input: route, key, and how to build the HTTP call when sent."""

    def __init__(self, route: str, key, method: str, path: str, payload=None):
        self.route, self.key = route, key
        self.method, self.path, self.payload = method, path, payload

    def prepare(self):
        return self.method, self.path, self.payload

    def done(self, status: int, body: bytes) -> None:
        pass


def send(port: int, op: Op, due: float | None = None) -> Sent:
    """Send ``op``; a closed loop has no due time, so it counts from sent."""
    method, path, payload = op.prepare()
    sent = clock()
    status, body = request(port, method, path, payload)
    end = clock()
    op.done(status, body)
    return Sent(op.route, op.key, sent if due is None else due, sent, end, status,
                body, payload)


def closed_loop(port: int, ops, connections: int, until: float,
                think: float = 0.0) -> list[Sent]:
    """``connections`` clients, each sending its next op ``think`` seconds
    after a reply."""
    results: list[Sent] = []
    lock = threading.Lock()
    it = iter(ops)

    def client() -> None:
        while clock() < until:
            with lock:
                op = next(it, None)
            if op is None:
                return
            sent = send(port, op)
            with lock:
                results.append(sent)
            if think:
                time.sleep(think)

    run_threads(client, connections)
    return results


def open_loop(port: int, ops, interval: float, start: float, until: float,
              connections: int = 1) -> list[Sent]:
    """Op ``i`` is due at ``start + i * interval``; at most ``connections``
    in flight.  A late op goes out at once, and its latency still counts
    from when it was due."""
    results: list[Sent] = []
    lock = threading.Lock()
    it = enumerate(ops)

    def client() -> None:
        while True:
            with lock:
                i, op = next(it, (None, None))
            if op is None:
                return
            due = start + i * interval
            if due >= until:
                return
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            sent = send(port, op, due)
            with lock:
                results.append(sent)

    run_threads(client, connections)
    return results


def run_threads(target, n: int) -> None:
    threads = [threading.Thread(target=target, daemon=True) for _ in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
