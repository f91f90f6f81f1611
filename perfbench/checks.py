"""Output correctness checks; each returns the number of mismatches.

The program documents its determinism contract in docs/architecture.md:
served, inline, serial and parallel results are byte-identical, except
readability and the hybrid totals that include it, which the prefix-sum
scorer reproduces within 1e-9 of the direct walk.  ``tolerant=True``
applies exactly that exception; ``tolerant=False`` demands every byte.
"""

from __future__ import annotations

import json

TOLERANCE = {"readability": 1e-9, "hybrid": 1e-9, "hybrid_after": 1e-9}


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def first_difference(a, b, tolerant: bool = True, path: str = "") -> str | None:
    """Where two JSON values first differ, as ``path: a != b``."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            x, y = a.get(key), b.get(key)
            if (
                tolerant
                and key in TOLERANCE
                and isinstance(x, float)
                and isinstance(y, float)
                and abs(x - y) <= TOLERANCE[key]
            ):
                continue
            found = first_difference(x, y, tolerant, f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, tolerant, f"{path}[{i}]")
            if found:
                return found
        return None
    if canonical(a) == canonical(b):
        return None
    return f"{path or '.'}: {a!r:.80} != {b!r:.80}"


def count_mismatches(served: list, reference: list, tolerant: bool = True) -> int:
    """Pairs that differ, plus any missing pair."""
    mismatches = sum(
        first_difference(a, b, tolerant) is not None
        for a, b in zip(served, reference)
    )
    return mismatches + abs(len(served) - len(reference))


def ranking_mismatches(rankings: dict) -> int:
    """Live top-k rankings that differ from a from-scratch rebuild, plus
    one if the live document count is not the expected one."""
    mismatches = count_mismatches(rankings["live"], rankings["rebuilt"], False)
    if rankings["live_docs"] != rankings["expected_docs"]:
        mismatches += 1
    return mismatches
