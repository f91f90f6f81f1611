"""Per-paragraph compiled artifacts shared across QA predictions.

Every :meth:`SpanScoringQA.predict` used to re-derive the same
context-side tables — tokenization, sentence bounds, POS tags, the typed
candidate-span sets, per-model span-scoring preps — even though real
workloads (several SQuAD questions per paragraph, ASE re-asking the same
sentence subsets, open-context re-asks, ablation sweeps) hit the same
paragraph over and over.  A :class:`CompiledContext` computes each table
lazily, once per context string, and a content-keyed, byte-bounded
:class:`ContextCompiler` LRU shares the artifacts across all QA pairs,
clip iterations, batch examples, and service requests.

Exactness contract: every table is the value the inline derivation in
:meth:`SpanScoringQA._ranked_spans` would produce, so predictions with
the compiler on and off are bit-identical
(``tests/test_compiled_context.py`` asserts this over randomized
paragraphs for all four span-scoring models).

Memory contract: every context keeps a running ``nbytes`` total of the
tables it has actually materialized.  Each lazy fill charges the bytes of
only the entry it just stored, in the same critical section that stores
it (a racing double compute charges once), and a ``_MAX_PREPS`` reset
subtracts the running total of the table it drops.  The owning cache
then re-reads ``nbytes`` in O(1) (see :meth:`CompiledContext.bind_accounting`
/ :meth:`repro.utils.cache.LRUCache.reaccount`), so the compiler's byte
budget is an invariant over the measured footprint — not a guess taken
at insert time.  :func:`estimate_compiled_bytes` walks a whole artifact
and stays the test oracle: ``nbytes`` always equals it.  Re-walking the
artifact on every fill took about 30% of a profiled fresh distill (see
``docs/performance.md``).  Question-independent arrays (the
embedding member's context matrix) live once in the derived table and
are never held by the per-question preps, so they are charged once per
paragraph.

Snapshot contract: compiled artifacts :meth:`export_state` /
:meth:`import_state` across process boundaries for the pipeline snapshot
plane (:mod:`repro.engine.snapshot`).  Preps are re-keyed from the
process-local ``prep_key`` to the owning model's stable ``name`` on
export, and imported states hydrate workers' caches read-through — a
worker's first prediction against a known paragraph reuses the parent's
tables instead of recompiling.
"""

from __future__ import annotations

import contextlib
import pickle
import threading

from repro.qa.answer_types import AnswerType, candidate_spans
from repro.text.sentences import Sentence, split_sentences
from repro.text.tokenizer import Token, tokenize
from repro.utils.cache import LRUCache, MISSING

__all__ = ["CompiledContext", "ContextCompiler", "estimate_compiled_bytes"]

# Typed span extraction is identical for the three capitalized-run types;
# sharing one slot avoids recomputing it when PERSON and ENTITY questions
# hit the same paragraph.
_SPAN_KIND = {
    AnswerType.NUMBER: "number",
    AnswerType.PERSON: "caps",
    AnswerType.PLACE: "caps",
    AnswerType.ENTITY: "caps",
    AnswerType.PHRASE: "phrase",
}

# Per-context caches of question-dependent preps reset above this many
# distinct questions; entries are pure values, so clearing only costs
# recomputation (same idiom as the trigram term cache).
_MAX_PREPS = 64


class CompiledContext:
    """Lazily-computed, shareable artifacts of one context paragraph.

    Attributes:
        text: the raw context string (the cache key's content).
        tokens: ``tokenize(text)``, computed eagerly — every consumer
            needs it, and its length drives the byte estimate.
        nbytes: running byte footprint of the materialized tables; equals
            :func:`estimate_compiled_bytes` at every point between fills.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens: list[Token] = tokenize(text)
        self._sentence_bounds: list[tuple[int, int]] | None = None
        self._tags: list[str] | None = None
        self._span_kinds: dict[str, frozenset[tuple[int, int]]] = {}
        self._span_sets: dict[
            AnswerType, tuple[frozenset[tuple[int, int]], frozenset[tuple[int, int]]]
        ] = {}
        # (prep_key, question terms) -> span_prep output; (key, tag) ->
        # question-independent derived values (e.g. embedding matrices).
        self._preps: dict = {}
        self._derived: dict = {}
        # prep_key -> model.name, so preps can be re-keyed stably when the
        # artifact is exported across a process boundary.
        self._prep_names: dict[int, str | None] = {}
        # (model name, question terms) -> prep, imported from a snapshot;
        # consulted on prep misses, promoted into _preps on first use.
        self._imported_preps: dict = {}
        # ASE-level artifacts: the paragraph's sentence split and the
        # per-question single-sentence prediction batches.
        self._sentences: tuple[Sentence, ...] | None = None
        self._sentence_preds: dict[str, tuple] = {}
        # (model name, question) -> final AnswerPrediction.  Predictions
        # are pure functions of (trained model, question, text), so the
        # whole result memoizes — ASE's subset loop re-asks the same
        # question of the same joined text constantly, and hydrated
        # workers skip span scoring entirely on known pairs.
        self._predictions: dict = {}
        self.nbytes = _base_bytes(self)
        # Running totals of the tables a _MAX_PREPS reset drops whole.
        self._bounded_bytes = dict.fromkeys(_BOUNDED_TABLES, 0)
        # Guards check-and-store plus the byte charge of every fill.
        self._lock = threading.Lock()
        # Owning-cache notification, installed by bind_accounting();
        # called after every lazy fill so byte accounting stays measured.
        self._accounting = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        # The accounting binding closes over the owning cache; the
        # receiving process re-binds when it caches the artifact.
        state["_accounting"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -------------------------------------------------------- byte accounting
    def bind_accounting(self, cache: LRUCache, key) -> None:
        """Re-read :attr:`nbytes` into ``cache`` whenever a table fills in.

        Bind *before* inserting into ``cache``: a fill that lands between
        the two then finds no entry to re-read, and the insert reads the
        already-grown total.
        """
        self._accounting = (cache, key)

    def _grown(self) -> None:
        binding = self._accounting
        if binding is not None:
            cache, key = binding
            cache.reaccount(key)

    def _store(self, table: str, key, value, cost):
        """Store ``value`` in table ``table`` under ``key``, once.

        Check, store and charge ``cost(key, value)`` bytes happen under
        one lock, so when racing threads compute the same entry the first
        store wins, the others get its value back, and the bytes are
        charged once.  Tables in ``_BOUNDED_TABLES`` reset when they hold
        more than ``_MAX_PREPS`` entries.
        """
        with self._lock:
            entries = getattr(self, table)
            current = entries.get(key, MISSING)
            if current is not MISSING:
                return current
            bounded = table in self._bounded_bytes
            if bounded and len(entries) > _MAX_PREPS:
                self._reset(table)
            size = cost(key, value)
            entries[key] = value
            self.nbytes += size
            if bounded:
                self._bounded_bytes[table] += size
        self._grown()
        return value

    def _store_slot(self, slot: str, value, cost):
        """:meth:`_store` for the single-valued tables (``None`` = empty)."""
        with self._lock:
            current = getattr(self, slot)
            if current is not None:
                return current
            setattr(self, slot, value)
            self.nbytes += cost(value)
        self._grown()
        return value

    def _reset(self, table: str) -> None:
        """Empty a bounded table and un-charge it; caller holds the lock."""
        getattr(self, table).clear()
        self.nbytes -= self._bounded_bytes[table]
        self._bounded_bytes[table] = 0

    def clear_predictions(self) -> None:
        """Drop the whole-prediction memo (keeps every other table warm)."""
        with self._lock:
            self._reset("_predictions")
        self._grown()

    # ------------------------------------------------------ context tables
    def sentence_bounds(self, model) -> list[tuple[int, int]]:
        """``SpanScoringQA.sentence_bounds(tokens)``, computed once."""
        bounds = self._sentence_bounds
        if bounds is None:
            bounds = self._store_slot(
                "_sentence_bounds", model.sentence_bounds(self.tokens), _bounds_bytes
            )
        return bounds

    def pos_tags(self, tagger) -> list[str]:
        """POS tags of the token texts, computed once.

        All span-scoring models share one class-level tagger, so the
        first caller's tagger fills the slot for everyone.
        """
        tags = self._tags
        if tags is None:
            tags = self._store_slot(
                "_tags", tagger.tag([t.text for t in self.tokens]), _tags_bytes
            )
        return tags

    def _kind_spans(self, kind: str, answer_type: AnswerType) -> frozenset:
        spans = self._span_kinds.get(kind)
        if spans is None:
            spans = self._store(
                "_span_kinds",
                kind,
                frozenset(candidate_spans(self.tokens, answer_type)),
                _span_kind_bytes,
            )
        return spans

    def span_sets(
        self, answer_type: AnswerType
    ) -> tuple[frozenset[tuple[int, int]], frozenset[tuple[int, int]]]:
        """The ``(typed, all)`` candidate-span sets for one answer type.

        ``typed`` is exactly ``set(candidate_spans(tokens, answer_type))``
        and ``all`` the enlarged pool :meth:`SpanScoringQA._ranked_spans`
        scores (typed spans plus the PHRASE fallback for ENTITY questions
        and for types that produced nothing).
        """
        cached = self._span_sets.get(answer_type)
        if cached is None:
            typed = self._kind_spans(_SPAN_KIND[answer_type], answer_type)
            spans = typed
            if answer_type is AnswerType.ENTITY or not spans:
                spans = spans | self._kind_spans("phrase", AnswerType.PHRASE)
            cached = self._store(
                "_span_sets", answer_type, (typed, spans), _span_set_bytes
            )
        return cached

    # ----------------------------------------------------- sentence artifacts
    def sentences(self) -> tuple[Sentence, ...]:
        """``split_sentences(text)``, computed once per paragraph.

        ASE's subset search re-splits the same paragraph for every
        question; the compiled split serves them all (and rides the
        snapshot to workers).
        """
        sents = self._sentences
        if sents is None:
            sents = self._store_slot(
                "_sentences", tuple(split_sentences(self.text)), _sentences_bytes
            )
        return sents

    def sentence_predictions(self, question: str, factory) -> tuple:
        """Per-question single-sentence prediction batch, memoized.

        ``factory`` must produce the model's ``predict_batch(question,
        [sentence texts])`` output; it runs at most once per distinct
        question (bounded like the prep table).
        """
        preds = self._sentence_preds.get(question, MISSING)
        if preds is MISSING:
            preds = self._store(
                "_sentence_preds", question, tuple(factory()), _sentence_preds_bytes
            )
        return preds

    def prediction(self, name: str | None, question: str, factory):
        """The model's final prediction for ``question``, memoized.

        ``factory`` runs the real span scoring at most once per (model
        name, question); the table is bounded like the prep table and
        rides the snapshot, so a worker's first predict over a known
        (question, paragraph) pair is a dictionary lookup.
        """
        key = (name, question)
        pred = self._predictions.get(key, MISSING)
        if pred is MISSING:
            pred = self._store("_predictions", key, factory(), _prediction_bytes)
        return pred

    # ------------------------------------------------- per-model artifacts
    def prep(self, model, profile):
        """The model's ``span_prep`` output, memoized per question terms.

        Preps are pure functions of (model, question terms, tokens) —
        answer type never enters span scoring — so one table serves every
        re-ask of the same question against this paragraph.  A miss first
        consults preps imported from a pipeline snapshot (keyed by the
        model's stable ``name``) before paying the derivation.
        """
        key = (model.prep_key, profile.terms)
        prep = self._preps.get(key, MISSING)
        if prep is MISSING:
            name = getattr(model, "name", None)
            prep = self._imported_preps.get((name, profile.terms), MISSING)
            if prep is MISSING:
                prep = model.span_prep(profile, self.tokens, compiled=self)
            self._prep_names[key[0]] = name
            prep = self._store("_preps", key, prep, _opaque_entry_bytes)
        return prep

    def derive(self, key, factory):
        """Memoize a question-independent derived value (e.g. the sliced
        embedding matrix) under ``key``; ``factory`` runs at most once."""
        value = self._derived.get(key, MISSING)
        if value is MISSING:
            value = self._store("_derived", key, factory(), _opaque_entry_bytes)
        return value

    # -------------------------------------------------------- snapshot plane
    def export_state(self) -> dict:
        """A picklable state dict for the pipeline snapshot plane.

        Span sets export as sorted lists (frozenset pickles are
        iteration-order dependent) and preps re-key from the
        process-local ``prep_key`` to the owning model's stable name;
        preps that fail to pickle are dropped (the worker re-derives
        them).  Derived slots are skipped — their keys embed process-
        local identities and their values rebuild from exported preps.
        Export→import→export is byte-identical, which the snapshot tests
        assert.
        """
        preps: dict = {}
        preps.update(self._imported_preps)
        for (prep_key, terms), value in self._preps.items():
            name = self._prep_names.get(prep_key)
            if name is not None:
                preps[(name, terms)] = value
        safe_preps: dict = {}
        for key, value in preps.items():
            if _picklable(value):
                safe_preps[key] = value
        return {
            "text": self.text,
            "tokens": list(self.tokens),
            "sentence_bounds": self._sentence_bounds,
            "tags": self._tags,
            "span_kinds": {
                kind: sorted(spans)
                for kind, spans in sorted(self._span_kinds.items())
            },
            "sentences": self._sentences,
            "sentence_preds": {
                question: preds
                for question, preds in self._sentence_preds.items()
                if _picklable(preds)
            },
            "predictions": {
                key: pred
                for key, pred in self._predictions.items()
                if _picklable(pred)
            },
            "preps": safe_preps,
        }

    @classmethod
    def import_state(cls, state: dict) -> "CompiledContext":
        """Rebuild a compiled artifact from :meth:`export_state` output."""
        compiled = cls.__new__(cls)
        compiled.text = state["text"]
        compiled.tokens = list(state["tokens"])
        compiled._sentence_bounds = state["sentence_bounds"]
        compiled._tags = state["tags"]
        compiled._span_kinds = {
            kind: frozenset(tuple(span) for span in spans)
            for kind, spans in state["span_kinds"].items()
        }
        compiled._span_sets = {}
        compiled._preps = {}
        compiled._derived = {}
        compiled._prep_names = {}
        compiled._imported_preps = dict(state["preps"])
        sentences = state["sentences"]
        compiled._sentences = tuple(sentences) if sentences is not None else None
        compiled._sentence_preds = dict(state["sentence_preds"])
        compiled._predictions = dict(state["predictions"])
        compiled._lock = threading.Lock()
        compiled._accounting = None
        compiled.nbytes = estimate_compiled_bytes(compiled)
        compiled._bounded_bytes = {
            table: _table_bytes(getattr(compiled, table), _TABLE_COSTS[table])
            for table in _BOUNDED_TABLES
        }
        return compiled


def _picklable(value) -> bool:
    try:
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return False
    return True


def _opaque_bytes(value, depth: int = 0) -> int:
    """Measured footprint of an opaque prep/derived value.

    Recurses through the container shapes preps actually use (tuples of
    arrays, dicts of floats) with array buffers measured exactly via
    ``nbytes``; unknown leaves get a flat object charge.
    """
    # Exact builtin scalars first: they fill the per-token prep tables
    # and have no ``nbytes`` (numpy scalars, which do, miss this path).
    kind = type(value)
    if kind is str:
        return 49 + len(value)
    if value is None or kind is int or kind is float or kind is bool:
        return 28
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int):
        return 16 + nbytes
    if isinstance(value, str):
        return 49 + len(value)
    if isinstance(value, bytes):
        return 33 + len(value)
    if value is None or isinstance(value, (int, float, bool)):
        return 28
    if depth >= 4:
        return 64
    if isinstance(value, (list, tuple, set, frozenset)):
        return 56 + sum([_opaque_bytes(item, depth + 1) for item in value])
    if isinstance(value, dict):
        return 64 + sum(
            _opaque_bytes(k, depth + 1) + _opaque_bytes(v, depth + 1)
            for k, v in value.items()
        )
    return 128


# Byte cost of one entry of each table; the fill path charges these one
# entry at a time and estimate_compiled_bytes sums them over a whole
# artifact, so the running total and the oracle share one definition.
def _base_bytes(compiled: CompiledContext) -> int:
    return (
        256
        + len(compiled.text)
        + 72 * len(compiled.tokens)
        + sum(len(token.text) for token in compiled.tokens)
    )


def _bounds_bytes(bounds) -> int:
    return 64 + 16 * len(bounds)


def _tags_bytes(tags) -> int:
    return 64 + 24 * len(tags)


def _sentences_bytes(sentences) -> int:
    return 64 + sum(88 + len(sentence.text) for sentence in sentences)


def _span_kind_bytes(_kind, spans) -> int:
    return 64 + 80 * len(spans)


def _span_set_bytes(_answer_type, pair) -> int:
    # The pair usually aliases the kind sets; a distinct union (ENTITY
    # fallback) is a new frozenset and charged as one.
    typed, spans = pair
    return 32 if spans is typed else 64 + 80 * len(spans)


def _sentence_preds_bytes(question, preds) -> int:
    return 56 + len(question) + sum(112 + len(pred.text) for pred in preds)


def _prediction_bytes(key, pred) -> int:
    name, question = key
    return 56 + len(name or "") + len(question) + 112 + len(pred.text)


def _opaque_entry_bytes(_key, value) -> int:
    return 96 + _opaque_bytes(value)


_SLOT_COSTS = {
    "_sentence_bounds": _bounds_bytes,
    "_tags": _tags_bytes,
    "_sentences": _sentences_bytes,
}
_TABLE_COSTS = {
    "_span_kinds": _span_kind_bytes,
    "_span_sets": _span_set_bytes,
    "_sentence_preds": _sentence_preds_bytes,
    "_predictions": _prediction_bytes,
    "_preps": _opaque_entry_bytes,
    "_imported_preps": _opaque_entry_bytes,
    "_derived": _opaque_entry_bytes,
}
# Tables that reset whole above _MAX_PREPS entries.
_BOUNDED_TABLES = ("_preps", "_predictions", "_sentence_preds")


def _table_bytes(entries: dict, cost) -> int:
    return sum(cost(key, value) for key, value in entries.items())


def estimate_compiled_bytes(compiled: CompiledContext) -> int:
    """Measured footprint of one compiled context's materialized tables.

    A full walk of the artifact.  The fill path never calls it: each fill
    charges only its own entry to :attr:`CompiledContext.nbytes`, and
    this function is the oracle the tests hold that running total (and
    the owning cache's accounted bytes) to.
    """
    total = _base_bytes(compiled)
    for slot, cost in _SLOT_COSTS.items():
        value = getattr(compiled, slot)
        if value is not None:
            total += cost(value)
    for table, cost in _TABLE_COSTS.items():
        total += _table_bytes(getattr(compiled, table), cost)
    return total


def _accounted_bytes(compiled: CompiledContext) -> int:
    """The compiler caches' ``size_estimator``: the running total, O(1)."""
    return compiled.nbytes


class ContextCompiler:
    """Content-keyed LRU of :class:`CompiledContext` artifacts.

    One compiler is shared per span-scoring model instance (lazily
    created by :class:`~repro.qa.base.SpanScoringQA`) and therefore —
    since the trained reader is reused by ASE, the informativeness
    scorer, the simulated baselines, and every pipeline built on the
    same artifacts — effectively per deployment.  Thread-safe: the LRU
    is locked, and the lazy tables inside a :class:`CompiledContext` are
    idempotent pure values, so a racing double-compute is waste, never
    wrongness.
    """

    def __init__(
        self,
        capacity: int = 1024,
        max_bytes: int | None = 48 * 1024 * 1024,
        scratch_capacity: int = 256,
        scratch_max_bytes: int | None = 16 * 1024 * 1024,
    ) -> None:
        self.cache = LRUCache(
            capacity=capacity,
            size_estimator=_accounted_bytes,
            max_bytes=max_bytes,
        )
        # Short-reuse texts — the clip search's candidate evidences,
        # identical across the adjacent questions of one paragraph but
        # dead afterwards — compile into this smaller side cache (see
        # :meth:`transient`), so they never evict long-lived paragraph
        # artifacts from the main LRU.
        self.scratch = LRUCache(
            capacity=scratch_capacity,
            size_estimator=_accounted_bytes,
            max_bytes=scratch_max_bytes,
        )
        self._transient = threading.local()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_transient"]  # thread-local: rebuilt empty on unpickle
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._transient = threading.local()

    @property
    def in_transient(self) -> bool:
        """True while the calling thread is inside :meth:`transient`."""
        return getattr(self._transient, "depth", 0) > 0

    @contextlib.contextmanager
    def transient(self):
        """Route this thread's compilations to the scratch cache.

        Used by callers predicting over short-lived texts (the
        informativeness scorer's candidate evidences: re-encounters are
        served from string/node-set memos, but the *same* candidate text
        recurs for each question of a shared paragraph).  Thread-local,
        so concurrent service threads predicting over real paragraphs
        keep filling the main cache.
        """
        self._transient.depth = getattr(self._transient, "depth", 0) + 1
        try:
            yield
        finally:
            self._transient.depth -= 1

    def compile(self, context: str) -> CompiledContext:
        """The (possibly cached) compiled artifact for ``context``.

        Transient compilations check the scratch cache, then *peek* the
        main cache (a candidate evidence equal to a known paragraph
        reuses its artifact) without touching the main cache's hit/miss
        counters — so the ``compiled_contexts`` stats in profiles and
        ``/stats`` keep measuring genuine paragraph traffic, not the
        firehose of one-shot candidate probes.
        """
        if self.in_transient:
            compiled = self.scratch.get(context, MISSING)
            if compiled is not MISSING:
                return compiled
            compiled = self.cache.peek(context, MISSING)
            if compiled is not MISSING:
                return compiled
            compiled = CompiledContext(context)
            compiled.bind_accounting(self.scratch, context)
            self.scratch.put(context, compiled)
            return compiled
        compiled = self.cache.get(context, MISSING)
        if compiled is MISSING:
            compiled = CompiledContext(context)
            compiled.bind_accounting(self.cache, context)
            self.cache.put(context, compiled)
        return compiled

    # -------------------------------------------------------- snapshot plane
    def export_states(self) -> dict[str, dict]:
        """Exported states of every cached paragraph artifact, by text."""
        states: dict[str, dict] = {}
        for text, compiled in self.cache.items():
            try:
                states[text] = compiled.export_state()
            except Exception:
                continue
        return states

    def attach_snapshot(self, lookup) -> None:
        """Install a read-through loader hydrating from snapshot states.

        ``lookup(text)`` returns an :meth:`CompiledContext.export_state`
        dict or ``MISSING``.  Hydrated artifacts enter the main cache
        with accounting bound, exactly like locally-compiled ones;
        hydration traffic shows up as the cache's ``loader_hits`` /
        ``loader_misses``.
        """

        def loader(text):
            state = lookup(text)
            if state is MISSING:
                return MISSING
            compiled = CompiledContext.import_state(state)
            compiled.bind_accounting(self.cache, text)
            return compiled

        self.cache.loader = loader

    def snapshot(self):
        """Hit/miss/size/bytes counters of the main (paragraph) LRU."""
        return self.cache.snapshot()
