"""Pipeline-snapshot plane: byte identity, shared-memory hygiene, staleness.

Covers the contracts the snapshot plane (:mod:`repro.engine.snapshot`)
states: save→load→save byte identity for every serialized section,
process-backend distillation byte-identical with the snapshot on or off,
no leaked ``/dev/shm`` segments (including after a worker crash), stale
snapshots refused on config change, and the byte-accurate accounting of
lazily-growing compiled artifacts.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading

import pytest
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory

from repro import GCED, QATrainer
from repro.core.batch import BatchDistiller
from repro.core.config import GCEDConfig
from repro.engine.executor import ParallelExecutor
from repro.engine.snapshot import (
    EntryMap,
    PipelineSnapshot,
    activate,
    deactivate,
    dump_for_workers,
    load_active_section,
    pack_entry_map,
)
from repro.lm.ngram import FlatNGramTables, NGramLanguageModel
from repro.qa.compiled import (
    _MAX_PREPS,
    CompiledContext,
    ContextCompiler,
    estimate_compiled_bytes,
)
from repro.retrieval.index import InvertedIndex
from repro.utils.cache import LRUCache, MISSING

from tests.conftest import CORPUS, QA_CASES


def _segment_exists(name: str) -> bool:
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    return True


def _boom(_item) -> None:
    # Hard worker death (no exception propagation): the pool breaks.
    os._exit(13)


# --------------------------------------------------------------- snapshot core


class TestPipelineSnapshot:
    def test_sections_round_trip_via_shared_memory(self):
        sections = {"a": b"alpha", "b": b"", "c": b"gamma-gamma"}
        snap = PipelineSnapshot(sections, fingerprint="fp")
        try:
            assert snap.section_names() == ("a", "b", "c")
            attached = PipelineSnapshot.attach(snap.handle)
            try:
                for name, blob in sections.items():
                    assert attached.section(name) == blob
                with pytest.raises(KeyError):
                    attached.section("missing")
            finally:
                attached.close()
        finally:
            snap.close(unlink=True)

    def test_inline_fallback_round_trip(self):
        snap = PipelineSnapshot({"x": b"12345"}, use_shared_memory=False)
        assert snap.shm_name is None
        attached = PipelineSnapshot.attach(snap.handle)
        assert attached.section("x") == b"12345"
        snap.close(unlink=True)

    def test_close_unlinks_segment(self):
        snap = PipelineSnapshot({"x": b"payload"})
        name = snap.shm_name
        assert name is not None and _segment_exists(name)
        snap.close(unlink=True)
        assert not _segment_exists(name)
        with pytest.raises(RuntimeError):
            snap.section("x")
        snap.close(unlink=True)  # idempotent

    def test_active_registry(self):
        snap = PipelineSnapshot({"lm": b"tables"}, use_shared_memory=False)
        activate(snap)
        try:
            assert load_active_section("lm") == b"tables"
            assert load_active_section("nope") is None
        finally:
            snap.close(unlink=True)
        # close() deactivates, so hollow objects fail loudly, not stalely.
        assert load_active_section("lm") is None
        deactivate()

    def test_entry_map_drops_unpicklable(self):
        blob = pack_entry_map({"good": 1, "bad": lambda: None})
        entries = EntryMap(blob)
        assert len(entries) == 1
        assert entries.get("good") == 1
        assert entries.get("bad", MISSING) is MISSING


# ----------------------------------------------------------- section identity


class TestSectionByteIdentity:
    def test_flat_lm_save_load_save(self, artifacts):
        lm = artifacts.language_model
        first = lm.snapshot_bytes()
        loaded = NGramLanguageModel.from_flat(FlatNGramTables.from_bytes(first))
        assert loaded.snapshot_bytes() == first
        assert loaded.vocab_size == lm.vocab_size
        assert loaded.unigrams == lm.unigrams
        assert loaded.bigrams == lm.bigrams
        assert loaded.trigrams == lm.trigrams
        tokens = CORPUS[0].lower().split()[:12]
        assert loaded.perplexity(tokens) == lm.perplexity(tokens)

    def test_hollow_lm_rehydrates_from_active_snapshot(self, artifacts):
        lm = artifacts.language_model
        payload = dump_for_workers(lm)
        snap = PipelineSnapshot({"lm": lm.snapshot_bytes()})
        try:
            activate(snap)
            hollow = pickle.loads(payload)
            assert hollow.unigrams is None
            assert hollow.probability("the") == lm.probability("the")
        finally:
            snap.close(unlink=True)
        orphan = pickle.loads(payload)
        with pytest.raises(RuntimeError, match="no snapshot is active"):
            orphan.probability("the")

    def test_index_save_load_save(self):
        index = InvertedIndex.build(CORPUS, n_shards=2)
        first = index.to_snapshot_bytes()
        loaded = InvertedIndex.from_snapshot_bytes(first)
        assert loaded.to_snapshot_bytes() == first
        assert loaded.postings("the") == index.postings("the")

    def test_compiled_export_import_export(self, artifacts):
        reader = artifacts.reader
        compiler = ContextCompiler()
        saved, reader.context_compiler = reader.context_compiler, compiler
        try:
            for question, _answer, context in QA_CASES[:3]:
                reader.predict(question, context)
        finally:
            reader.context_compiler = saved
        states = compiler.export_states()
        assert states  # the traffic compiled something
        for text, state in states.items():
            imported = CompiledContext.import_state(state)
            again = imported.export_state()
            assert pickle.dumps(again, protocol=pickle.HIGHEST_PROTOCOL) == (
                pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            ), f"export/import/export drifted for {text[:40]!r}"


# --------------------------------------------------------- distill equivalence


class TestDistillEquivalence:
    def test_process_backend_byte_identical_snapshot_on_off(self, artifacts):
        cases = QA_CASES[:4]
        warm = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        serial = [warm.distill(*case) for case in cases]

        # Snapshot ON: workers hydrate from the warm parent's state.
        with BatchDistiller(warm, workers=2, backend="process") as batch:
            hydrated = batch.distill_many(cases)
            info = batch.snapshot_info()
        # Snapshot OFF: cold workers, the pre-snapshot behaviour.
        cold_pipeline = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with BatchDistiller(
            cold_pipeline, workers=2, backend="process", snapshot=False
        ) as batch:
            cold = batch.distill_many(cases)

        for expected, on, off in zip(serial, hydrated, cold):
            assert on.evidence == expected.evidence == off.evidence
            assert on.scores == expected.scores == off.scores
            assert pickle.dumps(on.scores) == pickle.dumps(expected.scores)

        assert info is not None
        assert info["bytes"] > 0
        assert info["build_ms"] >= 0
        assert info["hydration"]["hits"] > 0
        for worker in info["workers"]:
            assert worker["snapshot"] is True
            assert worker["snapshot_load_ms"] >= 0

    def test_snapshot_off_reports_no_snapshot_info(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with BatchDistiller(
            gced, workers=2, backend="process", snapshot=False
        ) as batch:
            assert batch.snapshot_info() is None


# ------------------------------------------------------------- staleness


class TestStaleness:
    def test_distiller_rejects_stale_snapshot(self, artifacts):
        base = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        snap = base.build_snapshot()
        try:
            ablated = GCED(
                qa_model=artifacts.reader,
                artifacts=artifacts,
                config=GCEDConfig().ablate("clip"),
            )
            with pytest.raises(ValueError, match="stale pipeline snapshot"):
                BatchDistiller(
                    ablated, workers=2, backend="process", snapshot=snap
                )
        finally:
            snap.close(unlink=True)

    def test_adopt_snapshot_refuses_fingerprint_mismatch(self, artifacts):
        base = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        snap = base.build_snapshot(use_shared_memory=False)
        try:
            other = GCED(
                qa_model=artifacts.reader,
                artifacts=artifacts,
                config=GCEDConfig().ablate("r"),
            )
            assert other.adopt_snapshot(snap) is False
            assert other.profile.counters.get("snapshot_stale") == 1
            assert base.adopt_snapshot(snap) is True
        finally:
            snap.close(unlink=True)

    def test_pipeline_snapshot_caches_and_refreshes(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        first = gced.pipeline_snapshot()
        try:
            assert gced.pipeline_snapshot() is first
            second = gced.pipeline_snapshot(refresh=True)
            assert second is not first
            assert second.fingerprint == first.fingerprint
        finally:
            gced.pipeline_snapshot().close(unlink=True)


# ----------------------------------------------------- shared-memory hygiene


class TestSharedMemoryCleanup:
    def test_distiller_close_unlinks_owned_segment(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        batch = BatchDistiller(gced, workers=2, backend="process")
        name = batch._snapshot.shm_name
        assert name is not None and _segment_exists(name)
        batch.close()
        assert not _segment_exists(name)

    def test_segment_unlinked_even_after_worker_crash(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        batch = BatchDistiller(gced, workers=2, backend="process")
        name = batch._snapshot.shm_name
        assert name is not None
        with pytest.raises(BrokenProcessPool):
            batch.executor.map(_boom, [1, 2, 3])
        batch.close()
        assert not _segment_exists(name)

    def test_caller_owned_snapshot_survives_distiller_close(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        snap = gced.build_snapshot()
        try:
            name = snap.shm_name
            with BatchDistiller(
                gced, workers=2, backend="process", snapshot=snap
            ):
                pass
            # The distiller never owned it, so the segment is still live.
            assert name is None or _segment_exists(name)
        finally:
            snap.close(unlink=True)


# --------------------------------------------------------- executor lifecycle


class TestExecutorLifecycle:
    def test_map_after_close_raises(self):
        executor = ParallelExecutor(workers=2, backend="thread")
        executor.warmup()
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.map(str, [1, 2, 3])
        with pytest.raises(RuntimeError, match="closed"):
            executor.warmup()
        executor.close()  # idempotent

    def test_warmup_report_collects_probe_results(self):
        executor = ParallelExecutor(workers=2, backend="process")
        try:
            report = executor.warmup(probe=os.getpid)
            assert report.seconds >= 0
            assert len(report.worker_infos) == 2
            assert executor.last_warmup is report
        finally:
            executor.close()


# ----------------------------------------------------- byte-accurate accounting


class TestCompiledAccounting:
    def test_lru_bytes_track_lazy_growth(self, artifacts):
        reader = artifacts.reader
        compiler = ContextCompiler()
        saved, reader.context_compiler = reader.context_compiler, compiler
        try:
            for question, _answer, context in QA_CASES:
                reader.predict(question, context)
        finally:
            reader.context_compiler = saved
        cache = compiler.cache
        measured = sum(
            estimate_compiled_bytes(value) for _key, value in cache.items()
        )
        # The invariant: accounted bytes equal the estimator applied to
        # the *current* (lazily grown) values, and respect the budget.
        assert cache._bytes == measured
        assert cache.max_bytes is None or cache._bytes <= cache.max_bytes

    @staticmethod
    def _assert_accounted(cache: LRUCache) -> None:
        values = [value for _key, value in cache.items()]
        for value in values:
            assert value.nbytes == estimate_compiled_bytes(value)
        assert cache._bytes == sum(estimate_compiled_bytes(v) for v in values)
        assert cache.max_bytes is None or cache._bytes <= cache.max_bytes

    def test_bounded_tables_reset_uncharges_them(self, artifacts):
        reader = artifacts.reader
        compiler = ContextCompiler()
        saved, reader.context_compiler = reader.context_compiler, compiler
        question_count = 2 * _MAX_PREPS + 10
        _question, _answer, context = QA_CASES[0]
        try:
            compiled = compiler.compile(context)
            for i in range(question_count):
                # Distinct terms, so every question is a new prep.
                question = f"Which team won title number q{i}x?"
                reader.predict(question, context)
                compiled.sentence_predictions(
                    question,
                    lambda q=question: reader.predict_batch(
                        q, [s.text for s in compiled.sentences()]
                    ),
                )
        finally:
            reader.context_compiler = saved
        # Every bounded table reset at least once on the way.
        for table in (compiled._preps, compiled._predictions, compiled._sentence_preds):
            assert 0 < len(table) <= _MAX_PREPS + 1
        self._assert_accounted(compiler.cache)

    def test_import_state_hydration_keeps_accounting(self, artifacts):
        reader = artifacts.reader
        warm = ContextCompiler()
        saved, reader.context_compiler = reader.context_compiler, warm
        try:
            for question, _answer, context in QA_CASES:
                reader.predict(question, context)
            states = warm.export_states()
            for state in states.values():
                imported = CompiledContext.import_state(state)
                assert imported.nbytes == estimate_compiled_bytes(imported)
            cold = ContextCompiler()
            cold.attach_snapshot(lambda text: states.get(text, MISSING))
            reader.context_compiler = cold
            for question, _answer, context in QA_CASES:
                # A known pair (prediction memo), a re-worded question
                # with the same terms (imported prep promoted into the
                # prep table), and a new question.
                reader.predict(question, context)
                reader.predict(question.rstrip("?"), context)
                reader.predict("Who attended the ceremony?", context)
        finally:
            reader.context_compiler = saved
        assert cold.cache.loader_hits == len(states)
        self._assert_accounted(cold.cache)

    def test_concurrent_fills_charge_once(self, artifacts):
        reader = artifacts.reader
        # Small caches, so evictions race with fills as well.
        compiler = ContextCompiler(capacity=3, scratch_capacity=4)
        paragraphs = list(CORPUS) + [f"{CORPUS[0]} Extra {i}." for i in range(3)]
        questions = [q for q, _a, _c in QA_CASES]
        barrier = threading.Barrier(8, timeout=60)

        def hammer(seed: int) -> None:
            for i in range(30):
                # Every thread starts the same fresh pair at once, so
                # they race to fill the same slots.
                question = questions[i % len(questions)]
                context = paragraphs[i % len(paragraphs)]
                barrier.wait()
                reader.predict(question, context)
                with compiler.transient():
                    sentences = [s.strip() + "." for s in context.split(".") if s.strip()]
                    reader.predict_batch(question, sentences[seed % 2 :][:2])

        saved, reader.context_compiler = reader.context_compiler, compiler
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(hammer, range(8)))
        finally:
            sys.setswitchinterval(interval)
            reader.context_compiler = saved
        self._assert_accounted(compiler.cache)
        self._assert_accounted(compiler.scratch)

    def test_reaccount_evicts_on_growth(self):
        cache = LRUCache(
            capacity=8, size_estimator=lambda v: v["size"], max_bytes=100
        )
        small = {"size": 40}
        other = {"size": 40}
        cache.put("a", small)
        cache.put("b", other)
        assert cache._bytes == 80
        small["size"] = 90  # "a" grew in place
        assert cache.reaccount("a") == 90
        # Over budget now: the LRU entry that is not most-recent evicts.
        assert "b" in cache and "a" not in cache
        assert cache._bytes == 40
        assert cache.reaccount("missing") == 0

    def test_loader_read_through(self):
        cache = LRUCache(capacity=4)
        cache.loader = lambda key: key * 2 if key != "nope" else MISSING
        assert cache.get("ab") == "abab"
        assert cache.loader_hits == 1
        assert cache.get("ab") == "abab"  # now a real hit, loader not hit
        assert cache.loader_hits == 1
        assert cache.get("nope", "dflt") == "dflt"
        assert cache.loader_misses == 1


# ------------------------------------------------------- ASE sentence artifacts


class TestASECompiledSentences:
    def test_sentences_memoized_on_compiled_context(self, gced):
        question, answer, context = QA_CASES[0]
        compiled = gced.qa_model.compiled_context(context)
        first = compiled.sentences()
        assert compiled.sentences() is first
        result = gced.ase.extract(question, answer, context)
        assert result.sentences  # artifact-backed split produced output
        # The per-question sentence prediction batch is memoized too.
        assert question in compiled._sentence_preds
        calls = []
        preds = compiled.sentence_predictions(
            question, lambda: calls.append(1) or ()
        )
        assert calls == []  # factory not invoked on the memo hit
        assert len(preds) == len(first)

    def test_sentence_artifacts_ride_the_snapshot(self, gced):
        question, answer, context = QA_CASES[0]
        gced.ase.extract(question, answer, context)
        compiled = gced.qa_model.compiled_context(context)
        state = compiled.export_state()
        imported = CompiledContext.import_state(state)
        assert imported.sentences() == compiled.sentences()
        assert question in imported._sentence_preds


# ------------------------------------------------------- compiler hydration


class TestCompilerHydration:
    def test_attach_snapshot_hydrates_fresh_compiler(self, artifacts):
        reader = artifacts.reader
        warm = ContextCompiler()
        saved, reader.context_compiler = reader.context_compiler, warm
        try:
            question, _answer, context = QA_CASES[0]
            baseline = reader.predict(question, context)
            states = warm.export_states()

            fresh = ContextCompiler()
            fresh.attach_snapshot(
                lambda text: states.get(text, MISSING)
            )
            reader.context_compiler = fresh
            hydrated = reader.predict(question, context)
        finally:
            reader.context_compiler = saved
        assert hydrated == baseline
        assert fresh.cache.loader_hits == 1
        assert len(fresh.cache) == 1


# ----------------------------------------------------- snapshot generations


class TestSnapshotGeneration:
    def test_handle_carries_generation(self):
        snap = PipelineSnapshot(
            {"x": b"1"}, use_shared_memory=False, generation=3
        )
        attached = PipelineSnapshot.attach(snap.handle)
        assert attached.generation == 3
        snap.close(unlink=True)

    def test_pipeline_snapshot_refresh_bumps_generation(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        first = gced.pipeline_snapshot()
        try:
            assert first.generation == 0
            second = gced.pipeline_snapshot(refresh=True)
            assert second.generation == 1
        finally:
            gced.pipeline_snapshot().close(unlink=True)

    def test_readopting_same_generation_is_noop(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        snap = gced.build_snapshot(use_shared_memory=False, generation=1)
        try:
            assert gced.adopt_snapshot(snap) is True
            adopted = gced.profile.counters.get("snapshot_adopted")
            assert gced.adopt_snapshot(snap) is True
            assert gced.profile.counters.get("snapshot_readopt_noop") == 1
            assert gced.profile.counters.get("snapshot_adopted") == adopted
        finally:
            snap.close(unlink=True)

    def test_newer_generation_rebases_index_in_place(self, artifacts):
        from repro.retrieval import CorpusRetriever
        from repro.retrieval.mutable import MutableInvertedIndex

        main_index = MutableInvertedIndex(
            InvertedIndex.build(CORPUS, n_shards=2)
        )
        main = GCED(
            qa_model=artifacts.reader,
            artifacts=artifacts,
            retriever=CorpusRetriever(main_index),
        )
        worker_index = MutableInvertedIndex(
            InvertedIndex.build(CORPUS, n_shards=2)
        )
        worker = GCED(
            qa_model=artifacts.reader,
            artifacts=artifacts,
            retriever=CorpusRetriever(worker_index),
        )
        first = main.build_snapshot(use_shared_memory=False, generation=0)
        second = None
        try:
            assert worker.adopt_snapshot(first) is True
            new_text = "a freshly ingested paragraph about compaction"
            new_id = main_index.add(new_text)
            second = main.build_snapshot(use_shared_memory=False, generation=1)
            assert worker.adopt_snapshot(second) is True
            # Same object, new content: the pool's references stay valid.
            assert worker.retriever.index is worker_index
            assert worker_index.doc_text(new_id) == new_text
            assert worker.profile.counters.get("snapshot_refreshed") == 1
        finally:
            first.close(unlink=True)
            if second is not None:
                second.close(unlink=True)

    def test_refresh_snapshot_rehydrates_live_pool_in_place(self, artifacts):
        from repro.retrieval import CorpusRetriever
        from repro.retrieval.mutable import MutableInvertedIndex

        index = MutableInvertedIndex(InvertedIndex.build(CORPUS, n_shards=2))
        gced = GCED(
            qa_model=artifacts.reader,
            artifacts=artifacts,
            retriever=CorpusRetriever(index),
        )
        with BatchDistiller(gced, workers=2, backend="process") as batch:
            before = batch.snapshot_info()
            batch.executor.warmup()  # ensure every worker process is up
            pool_pids = set(batch.executor._pool._processes)
            index.add("a brand new live document about snapshots")
            outcome = batch.refresh_snapshot()
            assert outcome is not None
            assert outcome["generation"] == before["generation"] + 1
            # Same pids: the pool was re-hydrated, not respawned.
            assert set(batch.executor._pool._processes) == pool_pids
            assert {w["pid"] for w in outcome["workers"]} <= pool_pids
            info = batch.snapshot_info()
            assert info["refreshes"] == 1
            assert info["generation"] == outcome["generation"]
            assert info["last_refresh"]["broadcast_ms"] >= 0

    def test_refresh_snapshot_noop_for_thread_backend(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with BatchDistiller(gced, workers=2, backend="thread") as batch:
            assert batch.refresh_snapshot() is None
