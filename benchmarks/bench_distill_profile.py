"""Hot-path profile of the distillation stages — gates the clip search.

Runs a cold pipeline over a squad11 dev slice, then re-distills the same
examples through a fresh :class:`BatchDistiller` sharing the warm
pipeline — the *repeated-context* workload modelling open-context
re-asks, ablation sweeps, and batch traffic whose finished-results memo
has aged out.  The full per-stage/per-cache report lands in
``benchmarks/results/distill_profile.txt`` (uploaded as a CI artifact so
regressions are diagnosable from the workflow run); the JSON metrics
feed ``benchmarks/perf_gate.py``:

* ``distill.oec_ms`` / ``distill.ase_ms`` — mean stage wall-clock per
  call on the *cold* pass.  Latency metrics (``*_ms``) gate in the
  *upward* direction, at double the base tolerance to absorb
  runner-hardware variance: the gate fails when they grow more than that
  above baseline.
* ``distill.clip_scores_per_sec`` — candidate-evidence scoring events
  (node-set cache lookups) per second of ``oec`` time over the whole
  workload (cold + repeated); throughput, gated downward like the other
  ``*_per_sec`` metrics.
* ``distill.clip_scores_hit_rate`` — shared-cache hit rate of the clip
  search over the whole workload; gated downward, so a regression back
  to per-call (non-content-keyed) sessions trips CI.
* ``qa.predict_ms`` / ``qa.predict_prepared_ms`` — mean single
  ``reader.predict`` latency on warm repeated contexts, through the
  compiled-context artifact vs the inline prepared path (compiler
  disabled); both gate upward.

The JSON payload also carries the parse / informativeness /
compiled-context hit rates and a ``repeated`` block with the
repeated-pass cache deltas; the repeated-context ``clip_scores`` hit
rate being 0% is a hard failure (cross-call session reuse broke), both
here and as a CI check on the uploaded artifact.
"""

from __future__ import annotations

import time

from benchmarks.common import emit, emit_json, get_context, sample_size

N_EXAMPLES = sample_size("BENCH_N_EXAMPLES", 16)
N_PREDICT_ROUNDS = sample_size("BENCH_PREDICT_ROUNDS", 5)


def _cache_counts(gced) -> dict[str, tuple[int, int]]:
    """Live (hits, misses) per shared cache."""
    return {
        name: cache.snapshot()[:2]
        for name, cache in gced.shared_caches().items()
    }


def _delta(after: dict, before: dict) -> dict[str, dict]:
    """Per-cache hit/miss deltas between two snapshots."""
    out = {}
    for name, (hits, misses) in after.items():
        hits0, misses0 = before.get(name, (0, 0))
        d_hits, d_misses = hits - hits0, misses - misses0
        lookups = d_hits + d_misses
        out[name] = {
            "hits": d_hits,
            "misses": d_misses,
            "hit_rate": round(d_hits / lookups, 4) if lookups else 0.0,
        }
    return out


def _clear_prediction_memos(reader) -> None:
    """Drop whole-prediction memos so predict re-runs span scoring.

    The compiled context memoizes the *final* prediction per (model,
    question); a latency metric over repeated pairs would otherwise
    measure a dictionary hit (~1µs), which is meaningless to gate and
    brittle against a near-zero baseline.  Clearing only the prediction
    memo keeps the artifact tables (tokens, preps, tags) warm — exactly
    the path ``qa.predict_ms`` exists to protect.
    """
    compiler = reader.context_compiler
    if compiler is None:
        return
    for _, compiled in compiler.cache.items():
        compiled.clear_predictions()


def _predict_ms(reader, pairs, rounds: int) -> float:
    """Mean warm predict latency over ``pairs``, ``rounds`` repetitions."""
    for question, context in pairs:  # warm caches (question + context side)
        reader.predict(question, context)
    elapsed = 0.0
    for _ in range(rounds):
        _clear_prediction_memos(reader)
        started = time.perf_counter()
        for question, context in pairs:
            reader.predict(question, context)
        elapsed += time.perf_counter() - started
    return 1000.0 * elapsed / (rounds * len(pairs))


def test_distill_stage_profile():
    from repro.core import BatchDistiller
    from repro.core.pipeline import GCED

    ctx = get_context("squad11")
    examples = ctx.dataset.answerable_dev()[:N_EXAMPLES]

    # Fresh pipeline (cold scorer/clip caches) AND a fresh compiled-
    # context cache: the shared reader's compiler is per-model state, so
    # without the reset the "cold" pass would inherit whatever earlier
    # benchmark modules compiled in the same pytest process, making the
    # *_ms metrics depend on file order.  Only the shared parser memo
    # stays warm, as in a long-lived deployment.
    from repro.qa.compiled import ContextCompiler

    reader = ctx.artifacts.reader
    saved_compiler = reader.context_compiler
    reader.context_compiler = ContextCompiler()
    try:
        gced = GCED(
            qa_model=reader,
            artifacts=ctx.artifacts,
            parser=ctx.gced.wsptc.parser,
        )
        with BatchDistiller(gced) as batch:
            results = batch.distill_examples(examples)
        assert len(results) == len(examples)

        cold_counts = _cache_counts(gced)
        cold_oec = gced.profile.stages["oec"]
        cold_ase = gced.profile.stages["ase"]
        assert cold_oec.calls > 0 and cold_ase.calls > 0
        cold_oec_ms = cold_oec.mean_ms
        cold_ase_ms = cold_ase.mean_ms

        # Repeated-context pass: a fresh distiller defeats the results
        # memo, so every example re-runs the stage plan against warm
        # content-keyed sessions and compiled contexts.
        with BatchDistiller(gced) as repeat:
            repeated = repeat.distill_examples(examples)
        assert [r.evidence for r in repeated] == [
            r.evidence for r in results
        ]
        repeat_delta = _delta(_cache_counts(gced), cold_counts)
        # Cross-call session reuse is the point of the repeated workload:
        # a 0% clip_scores hit rate means sessions went back to per-call.
        assert repeat_delta["clip_scores"]["hits"] > 0, (
            "repeated-context workload produced no clip_scores cache "
            "hits — cross-call session reuse is broken"
        )

        # Cumulative profile over both passes: stage timings and shared-
        # cache counters accumulate on the shared pipeline, so the repeat
        # distiller's stats view already covers the whole workload.
        profile = repeat.stats().profile
        total_oec = gced.profile.stages["oec"]
        clip_cache = gced.scoring_engine.cache.snapshot()
        clip_lookups = clip_cache.hits + clip_cache.misses
        clip_scores_per_sec = (
            round(clip_lookups / total_oec.seconds, 2)
            if total_oec.seconds
            else 0.0
        )
        clip_hit_rate = (
            round(clip_cache.hits / clip_lookups, 4) if clip_lookups else 0.0
        )

        # Warm single-predict latency: compiled artifact vs inline
        # prepared path, on the question/paragraph mix the repeated
        # workload serves.
        pairs = [(e.question, e.context) for e in examples[:8]]
        predict_compiled_ms = _predict_ms(reader, pairs, N_PREDICT_ROUNDS)
        reader.context_compiler = None
        predict_prepared_ms = _predict_ms(reader, pairs, N_PREDICT_ROUNDS)

        hit_rates = {
            name: stats["hit_rate"]
            for name, stats in _delta(_cache_counts(gced), {}).items()
            if name in ("clip_scores", "parse", "informativeness",
                        "compiled_contexts", "clip_sessions")
        }
    finally:
        reader.context_compiler = saved_compiler

    emit("distill_profile", profile.report())
    emit_json(
        "distill_profile",
        {
            "examples": len(examples),
            "repeated_examples": len(examples),
            "stages": {
                name: timing.to_dict()
                for name, timing in profile.stages.items()
            },
            "cache_hit_rates": hit_rates,
            "repeated": repeat_delta,
            "metrics": {
                "distill.oec_ms": round(cold_oec_ms, 3),
                "distill.ase_ms": round(cold_ase_ms, 3),
                "distill.clip_scores_per_sec": clip_scores_per_sec,
                "distill.clip_scores_hit_rate": clip_hit_rate,
                "qa.predict_ms": round(predict_compiled_ms, 3),
                "qa.predict_prepared_ms": round(predict_prepared_ms, 3),
            },
        },
    )
