"""Compiled-context equivalence and cache behaviour.

The per-paragraph :class:`~repro.qa.compiled.CompiledContext` artifact
must be invisible to callers: predictions (and therefore clip searches
and full distillations) with the compiler on and off are bit-identical
for every span-scoring model, over randomized paragraphs that exercise
capitalized runs, numbers, hyphens, punctuation, and sentence breaks.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import GCED
from repro.core.config import GCEDConfig
from repro.qa.answer_types import AnswerType
from repro.qa.compiled import (
    CompiledContext,
    ContextCompiler,
    _opaque_bytes,
    estimate_compiled_bytes,
)
from repro.qa.base import SpanScoringQA

from tests.conftest import QA_CASES

# Word soup covering every candidate-span extractor: capitalized runs
# (with "of"/"the" bridges), numbers with units, hyphen compounds,
# phrases, pronouns, punctuation, and sentence terminators.
_WORDS = [
    "Denver", "Broncos", "defeated", "the", "champion", "Battle", "of",
    "Hastings", "in", "1066", "Santa", "Clara", "stadium", "game", "won",
    "title", "a", "crowd", "50", "points", "nearly", "3.5", "percent",
    "Knowles-Carter", "performed", "various", "singing", "competitions",
    "she", "they", "history", "famous", "Norman", "conquest",
]
_PUNCT = [",", ".", "!", "?", ";"]

_QUESTIONS = [
    "Who won the battle?",                      # PERSON
    "Where was the game played?",               # PLACE
    "When was the Battle of Hastings?",         # NUMBER
    "Which team earned the title?",             # ENTITY
    "What did she perform in?",                 # ENTITY
    "Describe the famous conquest result",      # PHRASE
]


def _random_paragraph(rng: random.Random) -> str:
    parts: list[str] = []
    for _ in range(rng.randrange(8, 45)):
        parts.append(rng.choice(_WORDS))
        if rng.random() < 0.18:
            parts.append(rng.choice(_PUNCT))
    parts.append(".")
    return " ".join(parts)


def _all_models(artifacts):
    reader = artifacts.reader
    return [reader] + [model for model, _weight in reader.members]


@pytest.fixture()
def fresh_models(artifacts):
    """The four span-scoring models, compilers reset around each test."""
    models = _all_models(artifacts)
    saved = [m.__dict__.get("_context_compiler") for m in models]
    for model in models:
        model.context_compiler = ContextCompiler()
    yield models
    for model, compiler in zip(models, saved):
        if compiler is None and "_context_compiler" in model.__dict__:
            del model.__dict__["_context_compiler"]
        else:
            model.context_compiler = compiler


class TestCompiledEquivalence:
    """Compiled-path predictions are bit-identical to the inline path."""

    def test_randomized_paragraphs_all_models(self, fresh_models):
        rng = random.Random(0)
        paragraphs = [_random_paragraph(rng) for _ in range(12)]
        for model in fresh_models:
            compiled = [
                model.predict(q, p) for q in _QUESTIONS for p in paragraphs
            ]
            model.context_compiler = None
            inline = [
                model.predict(q, p) for q in _QUESTIONS for p in paragraphs
            ]
            assert compiled == inline

    def test_predict_top_k_matches(self, fresh_models):
        rng = random.Random(1)
        paragraphs = [_random_paragraph(rng) for _ in range(6)]
        for model in fresh_models:
            compiled = [
                model.predict_top_k(q, p, k=4)
                for q in _QUESTIONS[:3]
                for p in paragraphs
            ]
            model.context_compiler = None
            inline = [
                model.predict_top_k(q, p, k=4)
                for q in _QUESTIONS[:3]
                for p in paragraphs
            ]
            assert compiled == inline

    def test_conftest_cases_match(self, fresh_models):
        for model in fresh_models:
            compiled = [model.predict(q, c) for q, _a, c in QA_CASES]
            model.context_compiler = None
            inline = [model.predict(q, c) for q, _a, c in QA_CASES]
            assert compiled == inline

    def test_empty_and_degenerate_contexts(self, fresh_models):
        for model in fresh_models:
            for context in ("", "   ", "...", "?"):
                with_compiler = model.predict("Who won?", context)
                model.context_compiler = None
                without = model.predict("Who won?", context)
                model.context_compiler = ContextCompiler()
                assert with_compiler == without


class TestDistillationEquivalence:
    """Full pipeline outputs are identical with the compiler on and off."""

    @pytest.mark.parametrize("incremental", [True, False])
    def test_distill_matches(self, artifacts, incremental):
        models = _all_models(artifacts)
        saved = [m.__dict__.get("_context_compiler") for m in models]
        config = GCEDConfig(incremental_scoring=incremental)
        try:
            for model in models:
                model.context_compiler = ContextCompiler()
            on = GCED(
                qa_model=artifacts.reader, artifacts=artifacts, config=config
            )
            with_compiler = [on.distill(*case) for case in QA_CASES]
            for model in models:
                model.context_compiler = None
            off = GCED(
                qa_model=artifacts.reader, artifacts=artifacts, config=config
            )
            without = [off.distill(*case) for case in QA_CASES]
        finally:
            for model, compiler in zip(models, saved):
                model.context_compiler = compiler
        for r_on, r_off in zip(with_compiler, without):
            assert r_on.evidence == r_off.evidence
            assert r_on.scores == r_off.scores
            assert r_on.clip_trace == r_off.clip_trace


class TestCompiledContextTables:
    def test_span_sets_match_inline_derivation(self):
        from repro.qa.answer_types import candidate_spans
        from repro.text.tokenizer import tokenize

        rng = random.Random(2)
        for _ in range(10):
            text = _random_paragraph(rng)
            compiled = CompiledContext(text)
            tokens = tokenize(text)
            for answer_type in AnswerType:
                typed, spans = compiled.span_sets(answer_type)
                want_typed = set(candidate_spans(tokens, answer_type))
                want_spans = set(want_typed)
                if answer_type is AnswerType.ENTITY or not want_spans:
                    want_spans |= set(
                        candidate_spans(tokens, AnswerType.PHRASE)
                    )
                assert typed == want_typed
                assert spans == want_spans

    def test_capitalized_kinds_share_one_extraction(self):
        compiled = CompiledContext("Denver Broncos won the Battle of Hastings.")
        person = compiled.span_sets(AnswerType.PERSON)
        place = compiled.span_sets(AnswerType.PLACE)
        assert person[0] is place[0]  # same frozenset object, not a copy

    def test_sentence_bounds_and_tags_computed_once(self):
        compiled = CompiledContext("Denver won. The crowd cheered.")
        model_tagger = SpanScoringQA._tagger

        class CountingTagger:
            def __init__(self):
                self.calls = 0

            def tag(self, texts):
                self.calls += 1
                return model_tagger.tag(texts)

        tagger = CountingTagger()
        first = compiled.pos_tags(tagger)
        assert compiled.pos_tags(tagger) is first
        assert tagger.calls == 1
        bounds = compiled.sentence_bounds(SpanScoringQA)
        assert compiled.sentence_bounds(SpanScoringQA) is bounds
        assert bounds == SpanScoringQA.sentence_bounds(compiled.tokens)


class TestCompilerCache:
    def test_repeat_contexts_hit(self, artifacts):
        reader = artifacts.reader
        saved = reader.__dict__.get("_context_compiler")
        try:
            reader.context_compiler = ContextCompiler()
            question, _answer, context = QA_CASES[0]
            reader.predict(question, context)
            snap1 = reader.context_compiler.snapshot()
            assert snap1.misses >= 1 and snap1.bytes > 0
            # Same paragraph, different question: compiled tables reused.
            reader.predict("Where was the game played?", context)
            snap2 = reader.context_compiler.snapshot()
            assert snap2.hits > snap1.hits
            assert snap2.misses == snap1.misses
        finally:
            reader.context_compiler = saved

    def test_prep_memoized_per_question(self, artifacts):
        reader = artifacts.reader
        compiled = CompiledContext(QA_CASES[0][2])
        profile = reader._question_profile(QA_CASES[0][0])
        first = compiled.prep(reader, profile)
        assert compiled.prep(reader, profile) is first

    def test_informativeness_predictions_use_scratch_cache(self, artifacts):
        from repro.metrics.informativeness import InformativenessScorer

        reader = artifacts.reader
        saved = reader.__dict__.get("_context_compiler")
        try:
            reader.context_compiler = ContextCompiler()
            scorer = InformativenessScorer(reader)
            # Candidate evidences are short-lived texts: they compile
            # into the scratch cache, never the paragraph-artifact LRU.
            scorer.score_batch(
                "Who won the game?",
                "the champion",
                [
                    "The champion won the game.",
                    "A crowd cheered in the stadium.",
                ],
            )
            scorer.score("Who won the game?", "the champion", "Denver won.")
            compiler = reader.context_compiler
            assert compiler.snapshot().size == 0
            assert compiler.scratch.snapshot().size == 3
            # The same candidate text for another question of the shared
            # paragraph reuses the scratch artifact.
            scorer.score("Who lost the game?", "Denver", "Denver won.")
            assert compiler.scratch.snapshot().hits > 0
            # Transient probes leave the paragraph cache's counters
            # untouched (they peek), so the /stats hit rate reflects
            # real paragraph traffic only.
            assert compiler.snapshot().hits == 0
            assert compiler.snapshot().misses == 0
            # Ordinary predictions still compile into the main cache.
            reader.predict("Who won the game?", "The champion won the game.")
            assert compiler.snapshot().size == 1
        finally:
            reader.context_compiler = saved

    def test_byte_budget_bounds_the_compiler(self):
        compiler = ContextCompiler(capacity=100, max_bytes=40_000)
        rng = random.Random(3)
        for _ in range(50):
            compiler.compile(_random_paragraph(rng))
        snap = compiler.snapshot()
        assert snap.size < 50
        assert snap.bytes <= 40_000


def _arrays(value):
    """Every numpy array reachable through a prep's containers."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)


class TestSharedMatrixBytes:
    def test_second_question_adds_only_question_bytes(self, fresh_models):
        reader = fresh_models[0]
        question, _answer, context = QA_CASES[0]
        reader.predict(question, context)
        compiled = reader.context_compiler.cache.peek(context)
        (matrix, _prefix), = [
            value
            for key, value in compiled._derived.items()
            if key[1] == "embedding-matrix"
        ]
        before = compiled.nbytes
        derived = dict(compiled._derived)
        preps = dict(compiled._preps)
        # Same answer type (ENTITY), new terms: only the question-keyed
        # prep and prediction entries may grow.
        reader.predict("Which team lost the title game?", context)
        assert compiled._derived == derived
        (new_key,) = set(compiled._preps) - set(preps)
        new_prep = compiled._preps[new_key]
        assert all(array.ndim == 1 for array in _arrays(new_prep))
        assert not any(array is matrix for array in _arrays(new_prep))
        expected = (
            96 + _opaque_bytes(new_prep)
            + 56 + len(reader.name) + len("Which team lost the title game?")
            + 112 + len(compiled._predictions[
                (reader.name, "Which team lost the title game?")
            ].text)
        )
        assert compiled.nbytes - before == expected
        assert compiled.nbytes - before < matrix.nbytes
        assert compiled.nbytes == estimate_compiled_bytes(compiled)


class TestAccountingCost:
    """Counts (not timings) of the per-fill accounting and scoring work.

    A fixed seeded distill workload, with the functions that do the work
    patched to count their calls; the counts repeat exactly run to run.
    """

    def test_fill_path_costs(self, artifacts, fresh_models, squad_dataset, monkeypatch):
        from repro.qa import compiled as compiled_module
        from repro.qa.embedding import EmbeddingQA

        calls = {"estimate": 0, "measured": 0, "stored": 0, "windows": 0,
                 "distinct": 0, "spans": 0}
        estimate = compiled_module.estimate_compiled_bytes
        measure = compiled_module._opaque_entry_bytes
        store = CompiledContext._store
        window_cosine = EmbeddingQA._window_cosine
        score_spans = EmbeddingQA.score_spans_prepared

        def counting_estimate(compiled):
            calls["estimate"] += 1
            return estimate(compiled)

        def counting_measure(key, value):
            calls["measured"] += 1
            return measure(key, value)

        def counting_store(self, table, key, value, cost):
            result = store(self, table, key, value, cost)
            if table in ("_preps", "_derived") and result is value:
                calls["stored"] += 1
            return result

        def counting_cosine(self, *args):
            calls["windows"] += 1
            return window_cosine(self, *args)

        def counting_spans(self, prep, terms, profile, tokens, spans, compiled=None):
            if prep is not None and prep[1] != 0.0:
                prefix = [0]
                for token in tokens:
                    prefix.append(prefix[-1] + token.is_word)
                calls["spans"] += len(spans)
                calls["distinct"] += len({
                    (prefix[max(lo, start - self.window)],
                     prefix[min(hi, end + self.window + 1)])
                    for start, end, (lo, hi) in spans
                })
            return score_spans(self, prep, terms, profile, tokens, spans, compiled)

        monkeypatch.setattr(compiled_module, "estimate_compiled_bytes", counting_estimate)
        monkeypatch.setattr(compiled_module, "_opaque_entry_bytes", counting_measure)
        monkeypatch.setattr(CompiledContext, "_store", counting_store)
        monkeypatch.setattr(EmbeddingQA, "_window_cosine", counting_cosine)
        monkeypatch.setattr(EmbeddingQA, "score_spans_prepared", counting_spans)

        pipeline = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        examples = [e for e in squad_dataset.dev if not e.is_impossible][:6]
        for example in examples:
            pipeline.distill(example.question, example.answers[0], example.context)
        for question, answer, context in QA_CASES:
            pipeline.distill(question, answer, context)

        # The fill path never re-walks an artifact ...
        assert calls["estimate"] == 0
        # ... and measures each stored prep / derived value exactly once.
        assert calls["stored"] > 0
        assert calls["measured"] == calls["stored"]
        # One window mean per distinct window, well below one per span.
        assert calls["windows"] == calls["distinct"]
        assert 0 < calls["windows"] < calls["spans"]
