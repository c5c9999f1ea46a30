"""The acked-write oracle every soak checks its verdict with: it must
see a loss when there is one, not only pass when there is none."""

from repro.testing.oracle import AckOracle


def test_lost_put_is_reported():
    oracle = AckOracle()
    oracle.ack_put(1, "a")
    oracle.ack_put(2, "b")
    oracle.ack_put(3, "c")
    state = {1: "a", 3: "stale"}
    assert oracle.lost(state.get) == [(2, "b", None), (3, "c", "stale")]
    assert oracle.lost({1: "a", 2: "b", 3: "c"}.get) == []


def test_delete_that_comes_back_is_reported():
    oracle = AckOracle()
    oracle.ack_put(5, "x")
    oracle.ack_delete(5)
    assert oracle.lost({5: "x"}.get) == [(5, None, "x")]
    assert oracle.lost({}.get) == []


def test_doubted_key_is_skipped():
    oracle = AckOracle()
    oracle.ack_put(1, "a")
    oracle.ack_put(2, "b")
    oracle.doubt(1)  # e.g. a write that failed below quorum
    oracle.doubt(7)  # never acked: nothing to forget
    assert len(oracle) == 1
    assert oracle.lost({}.get) == [(2, "b", None)]
    assert oracle.lost({1: "anything", 2: "b"}.get) == []


def test_later_ack_clears_the_doubt():
    oracle = AckOracle()
    oracle.ack_put(1, "a")
    oracle.doubt(1)
    oracle.ack_put(1, "b")
    assert oracle.lost({1: "a"}.get) == [(1, "b", "a")]
    oracle.doubt(1)
    oracle.ack_delete(1)
    assert oracle.lost({1: "b"}.get) == [(1, None, "b")]


def test_any_put_is_the_oldest_certain_put():
    oracle = AckOracle()
    assert oracle.any_put() is None
    oracle.ack_delete(9)
    oracle.ack_put(4, "d")
    oracle.ack_put(2, "b")
    assert oracle.any_put() == (4, "d")
    oracle.doubt(4)
    assert oracle.any_put() == (2, "b")
