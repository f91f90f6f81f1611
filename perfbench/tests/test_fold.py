"""Self-time fold arithmetic on synthetic span trees."""

import pytest

import spans


def test_self_time_subtracts_children():
    tree = [
        (1, "root:/distill", 0.0, 10.0, None, (1,)),
        (2, "admission", 0.5, 1.0, 1, (1,)),
        (3, "retrieval.retrieve", 1.0, 4.0, 1, (1,)),
        (4, "qa.predict", 2.0, 3.5, 3, (1,)),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {1: pytest.approx(6.5), 2: pytest.approx(0.5),
                     3: pytest.approx(1.5), 4: pytest.approx(1.5)}


def test_union_length_merges_overlaps():
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.union_length([]) == 0


def test_fold_requests_adds_up_to_the_client_wall():
    # Two requests ride one flusher batch; each waited for all of it.
    tree = [
        (1, "root:/distill", 0.000, 0.010, None, (1,)),
        (2, "admission", 0.000, 0.001, 1, (1,)),
        (3, "root:/distill", 0.001, 0.012, None, (2,)),
        (4, "scheduler.wait", 0.001, 0.003, None, (1,)),
        (5, "scheduler.wait", 0.002, 0.003, None, (2,)),
        (6, "batch.distill_many", 0.003, 0.009, None, (1, 2)),
        (7, "stage.ase", 0.003, 0.005, 6, (1, 2)),
        (8, "stage.ase", 0.005, 0.008, 6, (1, 2)),
    ]
    client = {"/distill": [12.0, 13.0]}
    folded = spans.fold_requests(tree, {1: "/distill", 2: "/distill"}, client)
    entry = folded["/distill"]
    assert entry["n"] == 2
    assert entry["wall_ms"] == pytest.approx(12.5)
    assert entry["edge_ms"] == pytest.approx(12.5 - 10.5)  # roots 10 and 11 ms
    assert entry["layers"]["stage.ase"] == pytest.approx(5.0)
    assert entry["layers"]["batch.distill_many"] == pytest.approx(1.0)
    assert entry["layers"]["scheduler.wait"] == pytest.approx(1.5)
    assert entry["calls"]["stage.ase"] == 2
    # Request 1: 10 - (1 + 2 + 6) = 1; request 2: 11 - (1 + 6) = 4.
    assert entry["unattributed_ms"] == pytest.approx(2.5)
    total = entry["edge_ms"] + sum(
        v for k, v in entry["layers"].items() if k != "stage.ase"
    ) + entry["unattributed_ms"]
    # stage.ase is the child part of batch.distill_many: self times add up.
    assert total + entry["layers"]["stage.ase"] == pytest.approx(entry["wall_ms"])


def test_fold_requests_ignores_spans_outside_the_request():
    tree = [
        (1, "root:/ask", 1.0, 2.0, None, (1,)),
        (2, "batch.distill_many", 5.0, 6.0, None, (1,)),  # a stale carry
    ]
    entry = spans.fold_requests(tree, {1: "/ask"}, {})["/ask"]
    assert entry["layers"] == {}
    assert entry["unattributed_ms"] == pytest.approx(1000.0)


def test_fold_batch_counts_worker_cover_and_dispatch():
    calls = [(0.0, 1.0, 4)]
    tree = [
        (1, "batch.distill_many", 0.0, 1.0, None, ()),
        (2, "executor.map", 0.1, 1.0, 1, ()),
        (10, "stage.ase", 0.2, 0.6, None, ()),  # worker A
        (11, "qa.predict", 0.3, 0.5, 10, ()),
        (20, "stage.ase", 0.4, 0.8, None, ()),  # worker B
    ]
    folded = spans.fold_batch(tree, calls)
    assert folded["n"] == 4
    assert folded["layers"]["stage.ase"] == pytest.approx(1000 * 0.6 / 4)
    assert folded["layers"]["qa.predict"] == pytest.approx(1000 * 0.2 / 4)
    # Map 0.9 s, workers cover 0.2..0.8: 0.3 s of dispatch/idle.
    assert folded["layers"]["executor.map"] == pytest.approx(1000 * 0.3 / 4)
    assert folded["layers"]["batch.distill_many"] == pytest.approx(1000 * 0.1 / 4)
    assert folded["unattributed_ms"] == pytest.approx(0.0, abs=1e-9)
