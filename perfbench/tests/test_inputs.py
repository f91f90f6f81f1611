"""The input generator is a pure function of its seed."""

import inputs
from inputs import Triple


def groups(n=40, per=3, prefix="paragraph"):
    return {
        f"{prefix} {i}.": [Triple(f"q{i}-{j}?", f"a{i}", f"{prefix} {i}.") for j in range(per)]
        for i in range(n)
    }


def test_same_seed_same_inputs():
    g = groups()
    assert inputs.fresh_stream(g, 7) == inputs.fresh_stream(g, 7)
    assert inputs.zipf_stream(g, 7, 200, 30) == inputs.zipf_stream(g, 7, 200, 30)
    unseen = inputs.fresh_stream(groups(60, 1), 0)
    assert inputs.write_stream(unseen, 7, 50) == inputs.write_stream(unseen, 7, 50)


def test_other_seed_other_inputs():
    g = groups()
    assert inputs.fresh_stream(g, 1) != inputs.fresh_stream(g, 2)
    assert inputs.zipf_stream(g, 1, 200, 30) != inputs.zipf_stream(g, 2, 200, 30)


def test_fresh_stream_never_repeats_a_paragraph():
    stream = inputs.fresh_stream(groups(), 3)
    assert len(stream) == 40
    assert inputs.repeated_share([t.context for t in stream]) == 0.0


def test_zipf_stream_repeats_and_favours_low_ranks():
    stream = inputs.zipf_stream(groups(), 3, 500, 30)
    assert inputs.repeated_share(stream) > 0.9
    pool = inputs.fresh_stream(groups(), 0)[:30]  # the fixed pool
    assert stream.count(pool[0]) > stream.count(pool[-1])


def test_write_stream_deletes_only_live_earlier_adds():
    unseen = inputs.fresh_stream(groups(60, 1), 0)
    ops = inputs.write_stream(unseen, 5, 50, delete_every=5)
    assert sum(op.kind == "delete" for op in ops) == 10
    deleted = set()
    for i, op in enumerate(ops):
        if op.kind == "delete":
            assert op.target < i and ops[op.target].kind == "add"
            assert op.target not in deleted
            deleted.add(op.target)
    texts = [op.text for op in ops if op.kind == "add"]
    assert len(texts) == len(set(texts))


def test_read_your_writes_interleaves_reads_about_recent_adds():
    unseen = inputs.fresh_stream(groups(60, 1, "unseen"), 0)
    writes = inputs.write_stream(unseen, 5, 50)
    about = {t.context: t for t in unseen}
    fresh = inputs.fresh_stream(groups(), 5)
    sequence = inputs.read_your_writes(writes, about, fresh, read_every=10, lag=20)
    assert sequence == inputs.read_your_writes(writes, about, fresh, 10, 20)
    assert [i for kind, i in sequence if kind == "write"] == list(range(50))
    written = 0
    for pos, (kind, item) in enumerate(sequence):
        assert (kind == "read") == ((pos + 1) % 10 == 0)
        if kind == "write":
            written += 1
        elif item.context in about:
            assert writes[written - 20].text == item.context
    assert any(kind == "read" and item.context in about for kind, item in sequence)


def test_repeated_share():
    assert inputs.repeated_share(["a", "b", "a", "a"]) == 0.5
    assert inputs.repeated_share([]) == 0.0
