"""The retrieval facade: index + scorer → ranked paragraphs.

:class:`CorpusRetriever` is what the rest of the system talks to — the
``retrieve`` pipeline stage, the open-context distiller, the ``/ask``
endpoint, and the CLI all hold one of these.  It binds a sharded
:class:`~repro.retrieval.index.InvertedIndex` to a ranking scorer and
returns :class:`RetrievedParagraph` hits carrying everything downstream
ranking needs: the paragraph text, its corpus id, the retrieval score,
and the retrieval rank (the deterministic tie-break key for the evidence
re-ranking step).
"""

from __future__ import annotations

import pathlib
import threading
from dataclasses import dataclass
from typing import Iterable

from repro.engine.executor import build_executor
from repro.faults import CircuitBreaker, fault_point
from repro.obs.logs import get_logger
from repro.obs.trace import span as obs_span
from repro.retrieval.bm25 import BM25Scorer, RankingScorer
from repro.retrieval.index import InvertedIndex, Posting
from repro.retrieval.store import load_index, save_index

__all__ = ["CorpusRetriever", "RetrievedParagraph"]

_log = get_logger("retrieval")


@dataclass(frozen=True)
class RetrievedParagraph:
    """One retrieval hit.

    Attributes:
        doc_id: position of the paragraph in the indexed corpus.
        rank: 0-based retrieval rank (0 = best match).
        score: the scorer's relevance score.
        text: the paragraph itself.
    """

    doc_id: int
    rank: int
    score: float
    text: str

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "rank": self.rank,
            "score": self.score,
            "text": self.text,
        }


class _ReducedIndexView:
    """A duck-typed :class:`InvertedIndex` view over a shard subset.

    The degraded search surface: scorers only call ``n_docs`` /
    ``avg_doc_len`` / ``doc_freq`` / ``postings`` / ``doc_length``, all
    of which this view answers from the kept shards alone, so a search
    never touches the shards being dropped.  Corpus statistics are
    recomputed over the subset — degraded rankings are deterministic for
    a given subset, just computed from less of the corpus.
    """

    def __init__(self, index: InvertedIndex, n_keep: int) -> None:
        self._shards = index.shards[:n_keep]
        self._stride = len(index.shards)
        doc_freq: dict[str, int] = {}
        total_len = 0
        for shard in self._shards:
            total_len += sum(shard.doc_lengths.values())
            for term, postings in shard.postings.items():
                doc_freq[term] = doc_freq.get(term, 0) + len(postings)
        self._doc_freq = doc_freq
        self.n_docs = sum(shard.n_docs for shard in self._shards)
        self.avg_doc_len = total_len / self.n_docs if self.n_docs else 0.0
        self.n_shards = n_keep

    def doc_freq(self, term: str) -> int:
        return self._doc_freq.get(term, 0)

    def doc_length(self, doc_id: int) -> int:
        # Shard layout is doc_id % total shards; postings from kept
        # shards only ever name doc ids that land in kept shards.
        return self._shards[doc_id % self._stride].doc_lengths[doc_id]

    def postings(self, term: str) -> tuple[Posting, ...]:
        merged: list[Posting] = []
        for shard in self._shards:
            merged.extend(shard.postings.get(term, ()))
        merged.sort()
        return tuple(merged)


class CorpusRetriever:
    """Top-k paragraph retrieval over an inverted index.

    Wraps the search in a :class:`~repro.faults.CircuitBreaker`:
    repeated scorer failures trip it open, and searches degrade to the
    first half of the shards (recomputed statistics, deterministic
    ranking over the subset) instead of failing the request.  The
    service surfaces this through ``degraded: true`` and ``/healthz``.
    """

    def __init__(
        self,
        index: InvertedIndex,
        scorer: RankingScorer | None = None,
        breaker_failures: int = 3,
        breaker_reset_s: float = 30.0,
    ) -> None:
        self.index = index
        self.scorer = scorer or BM25Scorer()
        self.fleet = None
        self.breaker = CircuitBreaker(
            name="retrieval",
            failure_threshold=breaker_failures,
            reset_after_s=breaker_reset_s,
        )
        self._reduced: _ReducedIndexView | None = None
        self._stats_lock = threading.Lock()
        self._degraded_searches = 0

    # ----------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        # A retriever crosses process boundaries inside the pipeline
        # snapshot payload.  Locks, fleets (threads), and cached views
        # stay behind; the worker side searches inline over its
        # snapshot-hydrated index.
        state = self.__dict__.copy()
        del state["_stats_lock"]
        state["fleet"] = None
        state["_reduced"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._stats_lock = threading.Lock()

    @property
    def n_shards(self) -> int:
        """Shard count without materializing a mutable index's overlay."""
        index = self.index
        if hasattr(index, "n_shards"):
            return index.n_shards
        return len(index.shards)

    def attach_fleet(self, fleet) -> None:
        """Route searches through a :class:`~repro.retrieval.fleet.ShardFleet`.

        The fleet and the inline scorer rank identically (see the fleet
        module docstring); the retrieval breaker and reduced-shard
        fallback wrap the fleet exactly as they wrap inline search.
        """
        self.fleet = fleet

    # ------------------------------------------------------------ building
    @classmethod
    def build(
        cls,
        corpus: Iterable[str],
        n_shards: int = 4,
        workers: int = 1,
        scorer: RankingScorer | None = None,
        metadata: dict | None = None,
    ) -> "CorpusRetriever":
        """Index ``corpus`` on the engine executor and wrap it.

        ``workers`` picks the executor exactly as the batch distiller
        does; the built index is byte-identical regardless.
        """
        with build_executor(workers=workers) as executor:
            index = InvertedIndex.build(
                corpus, n_shards=n_shards, executor=executor, metadata=metadata
            )
        return cls(index, scorer=scorer)

    @classmethod
    def load(
        cls, path: str | pathlib.Path, scorer: RankingScorer | None = None
    ) -> "CorpusRetriever":
        """Load a retriever from a persisted index file."""
        return cls(load_index(path), scorer=scorer)

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Persist the underlying index (scorers are config, not state)."""
        return save_index(self.index, path)

    # ----------------------------------------------------------- retrieval
    def retrieve(self, query: str, k: int = 3) -> list[RetrievedParagraph]:
        """The ``k`` paragraphs most relevant to ``query``, best first.

        While the retrieval breaker is open (or on an individual search
        failure), the ranking comes from the reduced shard subset rather
        than an error — degraded recall beats a failed request for a
        read-only endpoint.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        with obs_span("retrieval.search", k=k) as search_span:
            if not self.breaker.allow():
                hits = self._search_reduced(query, k)
                search_span.tag(hits=len(hits), degraded=True)
            else:
                try:
                    fault_point("retrieval.search", detail=query)
                    if self.fleet is not None:
                        hits = self.fleet.search(query, k)
                    else:
                        hits = self.scorer.top_k(self.index, query, k)
                except Exception:
                    self.breaker.record_failure()
                    _log.warning(
                        "retrieval search failed; serving reduced-shard "
                        "results",
                        exc_info=True,
                        breaker=self.breaker.state,
                    )
                    hits = self._search_reduced(query, k)
                    search_span.tag(hits=len(hits), degraded=True)
                else:
                    self.breaker.record_success()
                    search_span.tag(hits=len(hits))
        return [
            RetrievedParagraph(
                doc_id=doc_id,
                rank=rank,
                score=score,
                text=self.index.doc_text(doc_id),
            )
            for rank, (doc_id, score) in enumerate(hits)
        ]

    def _search_reduced(self, query: str, k: int) -> list[tuple[int, float]]:
        """Rank over the first half of the shards (the degraded path).

        The view is cached only for immutable indexes — a mutable index
        changes under live ingest, so its degraded view is rebuilt per
        search from the materialized overlay.
        """
        n_keep = max(1, self.n_shards // 2)
        if isinstance(self.index, InvertedIndex):
            if self._reduced is None:
                self._reduced = _ReducedIndexView(self.index, n_keep)
            reduced = self._reduced
        else:
            reduced = _ReducedIndexView(self.index, n_keep)
        with self._stats_lock:
            self._degraded_searches += 1
        return self.scorer.top_k(reduced, query, k)

    @property
    def degraded(self) -> bool:
        """True while the retrieval breaker is open/half-open."""
        return self.breaker.degraded

    def recovery_info(self) -> dict:
        """Breaker + degraded-search counters for ``/stats``."""
        with self._stats_lock:
            degraded_searches = self._degraded_searches
        return {
            "degraded": self.degraded,
            "degraded_searches": degraded_searches,
            "reduced_shards": max(1, self.n_shards // 2),
            "n_shards": self.n_shards,
            "breaker": self.breaker.stats(),
        }

    def retrieve_for_qa(
        self, question: str, answer: str, k: int = 3
    ) -> list[RetrievedParagraph]:
        """Retrieve supporting paragraphs for a question-answer pair.

        The query concatenates question and answer: the answer terms are
        the strongest signal for *evidence* retrieval (the paragraph must
        contain the answer span to support it).
        """
        return self.retrieve(f"{question} {answer}", k=k)

    @property
    def corpus(self) -> tuple[str, ...]:
        """The raw indexed paragraphs (doc_id order)."""
        return self.index.docs
