"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of its arguments: the same seed gives
the same inputs.  The program under test only ever sees the generated
(question, answer, paragraph) values, never the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The served corpus: squad11 at this size yields about 5,000 unique
# paragraphs, large enough that retrieval is a real share of an /ask.
CORPUS = {"dataset": "squad11", "seed": 0, "n_train": 8000, "n_dev": 2000}


@dataclass(frozen=True)
class Triple:
    question: str
    answer: str
    context: str


def load_examples(dataset: str, seed: int, n_train: int, n_dev: int) -> list:
    """Answerable examples of one synthetic dataset, in generation order."""
    from repro.datasets.loader import load_dataset

    data = load_dataset(dataset, seed=seed, n_train=n_train, n_dev=n_dev)
    return [e for e in data.train + data.dev if not e.is_impossible]


def by_context(examples) -> dict[str, list[Triple]]:
    """Answerable triples grouped by paragraph, in first-seen order."""
    groups: dict[str, list[Triple]] = {}
    for e in examples:
        groups.setdefault(e.context, []).append(
            Triple(e.question, e.primary_answer, e.context)
        )
    return groups


def fresh_stream(groups: dict[str, list[Triple]], seed: int) -> list[Triple]:
    """One question per paragraph, paragraphs in a seeded order.

    No paragraph appears twice, so every request of a run that walks
    this stream carries a paragraph the server has not seen in the run.
    """
    rng = random.Random(f"fresh:{seed}")
    contexts = list(groups)
    rng.shuffle(contexts)
    return [rng.choice(groups[c]) for c in contexts]


def zipf_pool(groups: dict[str, list[Triple]], size: int, pool_seed: int = 0):
    """The question pool, one question per distinct paragraph, by rank.

    The pool does not depend on the run's seed, so seeds change which
    requests repeat and when, not which questions sit at the head of the
    distribution.
    """
    return fresh_stream(groups, pool_seed)[:size]


def zipf_stream(
    groups: dict[str, list[Triple]],
    seed: int,
    n: int,
    pool_size: int,
    exponent: float = 1.0,
) -> list[Triple]:
    """``n`` questions drawn from the Zipf-weighted pool of ``pool_size``.

    Rank ``r`` (from 1) is drawn with weight ``r ** -exponent``, in an
    order set by ``seed``.
    """
    pool = zipf_pool(groups, pool_size)
    weights = [(rank + 1) ** -exponent for rank in range(len(pool))]
    rng = random.Random(f"zipf:{seed}")
    return rng.choices(pool, weights=weights, k=n)


@dataclass(frozen=True)
class WriteOp:
    """``add`` carries a paragraph; ``delete`` names an earlier add."""

    kind: str
    text: str = ""
    target: int = -1  # index of the add op whose document is deleted


def write_stream(
    unseen: list[Triple], seed: int, n: int, delete_every: int = 5
) -> list[WriteOp]:
    """``n`` writes: unseen paragraphs, every ``delete_every``-th a delete.

    A delete targets a seeded choice among earlier adds that are still
    live, so no delete can miss.
    """
    rng = random.Random(f"writes:{seed}")
    paragraphs = list(dict.fromkeys(t.context for t in unseen))
    rng.shuffle(paragraphs)
    ops: list[WriteOp] = []
    live: list[int] = []
    for i in range(n):
        if (i + 1) % delete_every == 0 and live:
            target = live.pop(rng.randrange(len(live)))
            ops.append(WriteOp("delete", target=target))
        else:
            if not paragraphs:
                raise ValueError("not enough unseen paragraphs for the writes")
            live.append(i)
            ops.append(WriteOp("add", text=paragraphs.pop()))
    return ops


def read_your_writes(
    writes: list[WriteOp],
    about: dict[str, Triple],
    fresh: list[Triple],
    read_every: int = 10,
    lag: int = 20,
) -> list:
    """One client's sequence: the writes, with every ``read_every``-th
    operation an ``/ask``.

    A read asks about the paragraph of the write ``lag`` writes earlier
    when that write was an add; otherwise it asks the next fresh question.
    Returns ``("write", index into writes)`` and ``("read", Triple)``.
    """
    sequence: list = []
    fresh_reads = iter(fresh)
    w = 0
    while w < len(writes):
        if (len(sequence) + 1) % read_every == 0:
            triple = None
            if w >= lag and writes[w - lag].kind == "add":
                triple = about.get(writes[w - lag].text)
            sequence.append(("read", triple or next(fresh_reads)))
        else:
            sequence.append(("write", w))
            w += 1
    return sequence


def repeated_share(keys: list) -> float:
    """Share of items whose key already occurred earlier in ``keys``."""
    seen: set = set()
    repeats = 0
    for key in keys:
        if key in seen:
            repeats += 1
        seen.add(key)
    return repeats / len(keys) if keys else 0.0
