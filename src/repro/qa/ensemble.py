"""Weighted ensemble of span-scoring QA models.

The registry's "strong" baselines combine lexical, TF-IDF and embedding
signals; weights are per-member multipliers applied to (roughly
score-normalized) member outputs.
"""

from __future__ import annotations

from repro.qa.base import QuestionProfile, SpanScoringQA
from repro.text.tokenizer import Token

__all__ = ["EnsembleQA"]


class EnsembleQA(SpanScoringQA):
    """Linear combination of member span scores.

    Args:
        members: ``(model, weight)`` pairs; every model must be a
            :class:`SpanScoringQA` so spans are scored consistently.
    """

    name = "ensemble"

    def __init__(self, members: list[tuple[SpanScoringQA, float]]) -> None:
        if not members:
            raise ValueError("ensemble needs at least one member")
        for model, weight in members:
            if not isinstance(model, SpanScoringQA):
                raise TypeError(f"{model!r} is not a SpanScoringQA")
            if weight < 0:
                raise ValueError("member weights must be non-negative")
        self.members = list(members)

    def score_span(
        self,
        question_terms: list[str],
        tokens: list[Token],
        start: int,
        end: int,
        bounds: tuple[int, int] | None = None,
    ) -> float:
        return sum(
            weight * model.score_span(question_terms, tokens, start, end, bounds)
            for model, weight in self.members
        )

    # ------------------------------------------------- prepared scoring path
    def span_prep(
        self, profile: QuestionProfile, tokens: list[Token], compiled=None
    ):
        """The member preps, in member order.

        ``compiled`` passes through to the members, so any
        question-independent tables they derive are shared per paragraph
        even though the ensemble-level prep is memoized per question.
        """
        return [
            model.span_prep(profile, tokens, compiled=compiled)
            for model, _weight in self.members
        ]

    def score_spans_prepared(
        self,
        prep,
        terms: list[str],
        profile: QuestionProfile,
        tokens: list[Token],
        spans,
        compiled=None,
    ) -> list[float]:
        """Weighted member scores, one batch call per member.

        Each span's total is ``sum`` over the members in member order —
        the same float operations as :meth:`score_span`.
        """
        if prep is None:
            return super().score_spans_prepared(
                prep, terms, profile, tokens, spans, compiled
            )
        weights = [weight for _model, weight in self.members]
        member_scores = [
            model.score_spans_prepared(
                member_prep, terms, profile, tokens, spans, compiled
            )
            for (model, _weight), member_prep in zip(self.members, prep)
        ]
        return [
            sum(weight * score for weight, score in zip(weights, column))
            for column in zip(*member_scores)
        ]
