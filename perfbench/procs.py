"""Child processes the benchmark starts, talks to and always reaps."""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time


def vmhwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, in KiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reply(payload) -> None:
    """Child side of the protocol: one JSON line on stdout."""
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


class Child:
    """A Python child speaking one JSON object per line on stdin/stdout.

    ``started`` is the spawn instant on :func:`time.perf_counter`; the
    child's stderr goes to ``log_path``.
    """

    def __init__(self, argv: list[str], log_path: str, cwd: str) -> None:
        self._log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=cwd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            bufsize=1,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def recv(self, timeout: float = 120.0):
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(f"no reply from child {self.proc.pid}") from None
        if line is None:
            raise RuntimeError(
                f"child {self.proc.pid} exited with {self.proc.wait()}"
            )
        return json.loads(line)

    def call(self, command: dict, timeout: float = 120.0):
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self.recv(timeout)

    def close(self, timeout: float = 30.0) -> None:
        """Ask the child to quit; kill it if it does not; always reap."""
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=timeout)
        except (OSError, subprocess.TimeoutExpired, ValueError):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self._reader.join(timeout=5.0)
            self._log.close()


def children_of(pid: int) -> list[int]:
    """Direct children of ``pid`` (its pool workers)."""
    path = f"/proc/{pid}/task/{pid}/children"
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        return [int(p) for p in handle.read().split()]
