"""Embedding-similarity QA: distributional matching beyond exact overlap.

Scores a span by the cosine similarity between the question's mean
embedding and the mean embedding of the span's surrounding window.
Catches paraphrases exact matchers miss ("defeated" vs "beat"), standing
in for the semantic matching a fine-tuned PLM performs.
"""

from __future__ import annotations

import numpy as np

from repro.lm.embeddings import CooccurrenceEmbeddings
from repro.qa.base import QuestionProfile, SpanScoringQA
from repro.text.tokenizer import Token

__all__ = ["EmbeddingQA"]


class EmbeddingQA(SpanScoringQA):
    """Mean-vector cosine matcher over a fitted embedding space.

    Args:
        embeddings: fitted :class:`CooccurrenceEmbeddings`.
        window: window (tokens) around the span contributing context.
    """

    name = "embedding"

    def __init__(self, embeddings: CooccurrenceEmbeddings, window: int = 12) -> None:
        if not embeddings.fitted:
            raise ValueError("embeddings must be fitted before use")
        self.embeddings = embeddings
        self.window = window
        self._question_cache: dict[str, np.ndarray] = {}

    def _mean_vector(self, words: list[str]) -> np.ndarray:
        if not words:
            return np.zeros(self.embeddings.dim)
        return self.embeddings.matrix(words).mean(axis=0)

    def _question_vector(self, terms: tuple[str, ...]) -> np.ndarray:
        key = " ".join(terms)
        if key not in self._question_cache:
            self._question_cache[key] = self._mean_vector(list(terms))
        return self._question_cache[key]

    def score_span(
        self,
        question_terms: list[str],
        tokens: list[Token],
        start: int,
        end: int,
        bounds: tuple[int, int] | None = None,
    ) -> float:
        qv = self._question_vector(tuple(question_terms))
        qn = np.linalg.norm(qv)
        if qn == 0.0:
            return 0.0
        lo_limit, hi_limit = bounds if bounds is not None else (0, len(tokens))
        lo = max(lo_limit, start - self.window)
        hi = min(hi_limit, end + self.window + 1)
        words = [tokens[i].lower for i in range(lo, hi) if tokens[i].is_word]
        sv = self._mean_vector(words)
        sn = np.linalg.norm(sv)
        if sn == 0.0:
            return 0.0
        return float(qv @ sv / (qn * sn))

    # ------------------------------------------------- prepared scoring path
    def _context_matrix(
        self, tokens: list[Token]
    ) -> tuple[np.ndarray, list[int]]:
        """The stacked word-embedding matrix + word-position prefix counts.

        A pure function of the context tokens (no question side), so it
        is shareable across every question asked of one paragraph.
        """
        word_prefix = [0] * (len(tokens) + 1)
        rows = []
        for i, tok in enumerate(tokens):
            if tok.is_word:
                rows.append(self.embeddings.vector(tok.lower))
            word_prefix[i + 1] = len(rows)
        matrix = np.vstack(rows) if rows else np.zeros((0, self.embeddings.dim))
        return matrix, word_prefix

    def span_prep(
        self, profile: QuestionProfile, tokens: list[Token], compiled=None
    ):
        """The question's mean vector and its norm.

        The context side — the stacked word-embedding matrix — is not
        part of the prep: it is question-independent, so with a compiled
        context it is derived once per paragraph (and charged once to the
        compiler's byte budget) and fetched at scoring time.
        """
        qv = self._question_vector(tuple(profile.terms))
        return (qv, np.linalg.norm(qv))

    def _context_table(
        self, tokens: list[Token], compiled
    ) -> tuple[np.ndarray, list[int]]:
        if compiled is None:
            return self._context_matrix(tokens)
        return compiled.derive(
            (self.prep_key, "embedding-matrix"),
            lambda: self._context_matrix(tokens),
        )

    def score_spans_prepared(
        self,
        prep,
        terms: list[str],
        profile: QuestionProfile,
        tokens: list[Token],
        spans,
        compiled=None,
    ) -> list[float]:
        """Window-mean cosines, one per distinct word window.

        A window mean is a contiguous row slice of the context matrix
        (word tokens inside a token range are consecutive in word-only
        order).  Spans clamp to their sentence bounds, so most spans of
        one call share a window with another; each distinct slice is
        averaged once.
        """
        if prep is None:
            return super().score_spans_prepared(
                prep, terms, profile, tokens, spans, compiled
            )
        qv, qn = prep
        if qn == 0.0:
            return [0.0] * len(spans)
        matrix, word_prefix = self._context_table(tokens, compiled)
        window = self.window
        by_window: dict[tuple[int, int], float] = {}
        scores = []
        for start, end, (lo_limit, hi_limit) in spans:
            rows = (
                word_prefix[max(lo_limit, start - window)],
                word_prefix[min(hi_limit, end + window + 1)],
            )
            score = by_window.get(rows)
            if score is None:
                score = by_window[rows] = self._window_cosine(qv, qn, matrix, *rows)
            scores.append(score)
        return scores

    def _window_cosine(
        self, qv: np.ndarray, qn: float, matrix: np.ndarray, lo: int, hi: int
    ) -> float:
        """Cosine between ``qv`` and the mean of ``matrix[lo:hi]``."""
        window = matrix[lo:hi]
        if window.shape[0] == 0:
            sv = np.zeros(self.embeddings.dim)
        else:
            sv = window.mean(axis=0)
        sn = np.linalg.norm(sv)
        if sn == 0.0:
            return 0.0
        return float(qv @ sv / (qn * sn))
