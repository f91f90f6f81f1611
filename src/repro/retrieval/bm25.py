"""Ranking scorers over the sharded inverted index.

Two scorers share the :mod:`repro.retrieval.weighting` utilities (the same
IDF family :class:`repro.qa.tfidf.TfidfQA` weighs spans with):

* :class:`BM25Scorer` — Okapi BM25 with the Lucene-style positive-IDF
  floor; the default retriever.
* :class:`TfidfScorer` — sublinear TF × smoothed IDF; a simpler reference
  point and an ablation partner for BM25.

Determinism is part of the scoring contract: query terms are accumulated
in sorted order (float addition is not associative, so iteration order
must be pinned), and :meth:`RankingScorer.top_k` breaks score ties by
ascending ``doc_id``.  Two runs — or two processes — always return the
same ranking for the same index and query.
"""

from __future__ import annotations

from collections import Counter

from repro.retrieval.index import InvertedIndex, query_terms
from repro.retrieval.weighting import bm25_idf, bm25_tf, log_tf, smoothed_idf

__all__ = ["BM25Scorer", "RankingScorer", "TfidfScorer", "make_scorer"]


class RankingScorer:
    """Common query-scoring skeleton: score all matches, take top-k."""

    name = "abstract"

    def term_weight(
        self, index: InvertedIndex, term: str, tf: int, doc_len: int
    ) -> float:
        raise NotImplementedError

    def score_all(self, index: InvertedIndex, query: str) -> dict[int, float]:
        """Accumulated score per matching document (absent = no overlap)."""
        counts = Counter(query_terms(query))
        scores: dict[int, float] = {}
        for term in sorted(counts):
            qtf = counts[term]
            for doc_id, tf in index.postings(term):
                weight = self.term_weight(
                    index, term, tf, index.doc_length(doc_id)
                )
                scores[doc_id] = scores.get(doc_id, 0.0) + qtf * weight
        return scores

    def top_k(
        self, index: InvertedIndex, query: str, k: int
    ) -> list[tuple[int, float]]:
        """The ``k`` best ``(doc_id, score)`` pairs, deterministically.

        Ordered by score descending; exact ties resolve to the lower
        ``doc_id`` so rankings are reproducible across runs, executors,
        and persisted-index reloads.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        scores = self.score_all(index, query)
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:k]


class BM25Scorer(RankingScorer):
    """Okapi BM25 (k1 saturation, b length normalization)."""

    name = "bm25"

    def __init__(self, k1: float = 1.5, b: float = 0.75) -> None:
        if k1 < 0:
            raise ValueError("k1 must be non-negative")
        if not 0.0 <= b <= 1.0:
            raise ValueError("b must be in [0, 1]")
        self.k1 = k1
        self.b = b

    def term_weight(
        self, index: InvertedIndex, term: str, tf: int, doc_len: int
    ) -> float:
        return bm25_idf(index.n_docs, index.doc_freq(term)) * bm25_tf(
            tf, doc_len, index.avg_doc_len, k1=self.k1, b=self.b
        )


class TfidfScorer(RankingScorer):
    """Sublinear TF × add-one-smoothed IDF (no length normalization)."""

    name = "tfidf"

    def term_weight(
        self, index: InvertedIndex, term: str, tf: int, doc_len: int
    ) -> float:
        return smoothed_idf(index.n_docs, index.doc_freq(term)) * log_tf(tf)


_SCORERS = {"bm25": BM25Scorer, "tfidf": TfidfScorer}


def make_scorer(name: str, **kwargs) -> RankingScorer:
    """Instantiate a scorer by registry name (``bm25`` or ``tfidf``)."""
    try:
        factory = _SCORERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scorer {name!r}; known: {sorted(_SCORERS)}"
        ) from None
    return factory(**kwargs)
