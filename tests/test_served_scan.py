"""Served scans, column to column.

``range_page(start, end, limit, exclusive)`` is the served read surface
of a ``SCAN``: at most ``limit`` entries of ``[start, end)`` (``start``
itself left out when ``exclusive``) as ``(keys, values, done)``, with
``done`` true iff no entry of the range lies past the page.  Checked
here against ``range_query`` on every tree variant and on the
``ConcurrentTree``, ``DurableTree`` and ``Primary`` facades, then over
the wire: the page packed from columns has the bytes of the paired
page, and pages that do not pack still travel as literals.
"""

from __future__ import annotations

import random
import socket

import pytest

from repro.concurrency import ConcurrentTree
from repro.core import DurableTree, QuITTree, TreeConfig, codec
from repro.net import BackgroundServer, QuitClient, protocol
from repro.replication import Primary

from conftest import ALL_TREE_CLASSES

TINY = TreeConfig(leaf_capacity=4, internal_capacity=4)


def _expected(tree, start, end, limit, exclusive):
    """The page a scan reading one entry past ``limit`` would serve."""
    entries = [
        (k, v) for k, v in tree.range_query(start, end)
        if not (exclusive and k == start)
    ]
    page = entries[:limit]
    return [k for k, _ in page], [v for _, v in page], len(entries) <= limit


def _assert_page(reader, start, end, limit, exclusive=False):
    keys, values, done = reader.range_page(start, end, limit, exclusive)
    assert (keys, values, done) == _expected(
        reader, start, end, limit, exclusive
    ), (start, end, limit, exclusive)
    assert type(keys) is list and type(values) is list
    return keys, values, done


def _leaf_bounds(tree):
    """``(first_key, size)`` of every non-empty leaf, in chain order."""
    out = []
    for leaf in tree.leaves():
        keys = list(leaf.keys)
        if keys:
            out.append((keys[0], len(keys)))
    return out


def _check_cases(reader, tree, keys, seed=0):
    """Random pages plus the edge cases, on ``reader`` over ``tree``."""
    rng = random.Random(seed)
    lo, hi = min(keys) - 3, max(keys) + 3
    for _ in range(150):
        start = rng.choice(keys) if rng.random() < 0.5 else rng.randint(lo, hi)
        end = start + rng.randint(-2, hi - lo)
        _assert_page(reader, start, end, rng.randint(1, 40),
                     rng.random() < 0.5)
    # start >= end: an empty, finished page.
    assert reader.range_page(10, 10, 5) == ([], [], True)
    assert reader.range_page(10, 3, 5, True) == ([], [], True)
    # Pages that end exactly on a leaf edge, and pages whose limit is
    # exactly the count left in the range (``done`` must still be True).
    bounds = _leaf_bounds(tree)
    for first, size in bounds:
        _assert_page(reader, first, hi, size)
        _assert_page(reader, first - 1, hi, size)
        _assert_page(reader, first, hi, size - 1, exclusive=True)
        remaining = sum(1 for k in keys if first <= k < hi)
        assert _assert_page(reader, first, hi, remaining)[2] is True
        assert _assert_page(reader, first, hi, remaining - 1)[2] is False


@pytest.mark.parametrize("cls", ALL_TREE_CLASSES, ids=lambda c: c.name)
@pytest.mark.parametrize("slab", ["object", "typed"])
def test_page_read_matches_range_query(cls, slab):
    keys = list(range(0, 400, 3))
    tree = cls(TINY)
    if slab == "typed":
        tree.bulk_load([(k, -k) for k in keys])
        assert all(leaf.typed for leaf in tree.leaves())
    else:
        for k in random.Random(1).sample(keys, len(keys)):
            tree.insert(k, -k)
        assert not any(leaf.typed for leaf in tree.leaves())
    assert tree.range_query(-10, 1_000) == [(k, -k) for k in keys]
    _check_cases(tree, tree, keys)
    tree.validate(check_min_fill=False)


@pytest.mark.parametrize("cls", ALL_TREE_CLASSES, ids=lambda c: c.name)
def test_page_read_over_emptied_leaves(cls):
    """A descending load leaves QuIT's pole on the head leaf, and pole
    deletes skip eager rebalance, so emptying it keeps an empty leaf in
    the chain; pages must step over it."""
    tree = cls(TINY)
    for k in range(1_198, -1, -2):
        tree.insert(k, k * 3)
    for k in range(200, 700, 6):
        assert tree.delete(k)
    head = tree.head_leaf
    for k in list(head.keys):
        assert tree.delete(k)
    if issubclass(cls, QuITTree):
        assert head.size == 0 and head is tree.head_leaf
    keys = [k for k, _ in tree.range_query(-10, 2_000)]
    _check_cases(tree, tree, keys, seed=3)
    for limit in (1, 2, 3, 4, 5):
        _assert_page(tree, -10, 40, limit)


@pytest.mark.parametrize("cls", ALL_TREE_CLASSES, ids=lambda c: c.name)
def test_page_read_counts_like_a_scan_one_entry_past(cls):
    """One ``range_lookups`` per page, and the node and leaf accesses of
    a ``range_iter`` that reads one entry past the page."""
    tree = cls(TINY)
    tree.bulk_load([(k, k) for k in range(0, 300, 2)])
    rng = random.Random(7)
    fields = ("range_lookups", "node_accesses", "leaf_accesses")
    for _ in range(100):
        start = rng.randint(-5, 305)
        end = start + rng.randint(0, 120)
        limit = rng.randint(1, 30)
        exclusive = rng.random() < 0.5
        before = tree.stats.as_dict()
        taken = 0
        for key, _ in tree.range_iter(start, end):
            if exclusive and key == start:
                continue
            if taken == limit:
                break
            taken += 1
        mid = tree.stats.as_dict()
        tree.range_page(start, end, limit, exclusive)
        after = tree.stats.as_dict()
        for name in fields:
            assert after[name] - mid[name] == mid[name] - before[name], name


def test_page_read_under_concurrent_tree():
    keys = list(range(0, 500, 5))
    inner = QuITTree(TINY)
    for k in keys:
        inner.insert(k, str(k))
    tree = ConcurrentTree(inner)
    _check_cases(tree, inner, keys, seed=5)
    # range_iter is built on pages of ``_RANGE_CHUNK`` entries.
    big = QuITTree(TINY)
    big.bulk_load([(k, k) for k in range(1_000)])
    ct = ConcurrentTree(big)
    lookups = big.stats.range_lookups
    assert list(ct.range_iter(3, 900)) == [(k, k) for k in range(3, 900)]
    assert big.stats.range_lookups == lookups + 1
    assert ct.count_range(3, 900) == 897
    assert ct.range_query(3, 900) == [(k, k) for k in range(3, 900)]


@pytest.mark.parametrize("facade", ["durable", "primary"])
def test_page_read_through_facades(tmp_path, facade):
    keys = list(range(0, 300, 2))
    durable = DurableTree(QuITTree(TINY), tmp_path / "state", fsync="group")
    durable.insert_many([(k, k + 1) for k in keys])
    reader = durable if facade == "durable" else Primary(durable)
    try:
        _check_cases(reader, durable.tree, keys, seed=11)
    finally:
        reader.close()


class TestPackPage:
    @pytest.mark.parametrize("seed", range(12))
    def test_bytes_equal_the_paired_page(self, seed):
        rng = random.Random(seed)
        widths = [2**31 - 1, 2**63 - 1]
        n = rng.randint(1, 700)
        kw, vw = rng.choice(widths), rng.choice(widths)
        keys = sorted({rng.randint(-kw - 1, kw) for _ in range(n)})
        n = len(keys)
        values = [rng.randint(-vw - 1, vw) for _ in range(n)]
        done = rng.random() < 0.5
        page = codec.pack_page(keys, values, done)
        assert type(page) is codec.Packed
        assert page == codec.pack((list(zip(keys, values)), done))
        assert codec.unpack(page) == (list(zip(keys, values)), done)
        assert protocol.encode_payload(page) == page

    @pytest.mark.parametrize(
        "keys, values",
        [
            ([], []),
            (["a", "b"], [1, 2]),
            ([1, 2], [1.5, 2]),
            ([1, 2], [None, 2]),
            ([1, 2], [2**63, 0]),
            ([1, True], [1, 2]),
        ],
    )
    def test_unpackable_pages_return_none(self, keys, values):
        assert codec.pack_page(keys, values, True) is None
        assert codec.pack((list(zip(keys, values)), True)) is None


@pytest.fixture
def served(tmp_path):
    durable = DurableTree(QuITTree(TINY), tmp_path / "state", fsync="group")
    with BackgroundServer(durable) as bg:
        client = QuitClient("127.0.0.1", bg.port, deadline=5.0)
        yield durable, bg, client
        client.close()
    durable.close()


class TestServedPages:
    def test_packed_pages_across_page_edges(self, served):
        _durable, _bg, client = served
        pairs = [(k, k * 7) for k in range(0, 3_000, 2)]
        client.insert_many(pairs)
        # 1,500 entries: three full 512-entry pages, then one short one.
        assert client.range_query(-1, 5_000) == pairs
        assert list(client.range_iter(-1, 5_000)) == pairs
        # A range of exactly 512 entries ends on a page edge.
        assert client.range_query(0, 1_024) == pairs[:512]
        assert client.range_query(1, 1_025) == pairs[1:513]

    @pytest.mark.parametrize(
        "pairs",
        [
            [(f"k{i:04d}", i) for i in range(700)],
            [(i, i + 0.5) for i in range(700)],
            [(i, None if i % 3 else i) for i in range(700)],
            [(i, 2**63 + i) for i in range(700)],
        ],
        ids=["str-keys", "float-values", "none-values", "beyond-int64"],
    )
    def test_literal_fallback_pages_round_trip(self, served, pairs):
        _durable, _bg, client = served
        client.insert_many(pairs)
        lo, hi = pairs[0][0], pairs[-1][0]
        assert client.range_query(lo, hi) == pairs[:-1]
        assert list(client.range_iter(lo, hi)) == pairs[:-1]

    def test_incomparable_cursor_is_bad_request(self, served):
        _durable, bg, client = served
        client.insert_many([(k, k) for k in range(40)])
        frame = protocol.encode_request(
            protocol.OP_SCAN, 5, 5.0, ("a", "z", 16, False)
        )
        with socket.create_connection(("127.0.0.1", bg.port), timeout=5.0) as sock:
            sock.sendall(frame)
            body = protocol.read_frame_blocking(sock)
        assert body is not None
        status, rid, _boot, _flags, message = protocol.decode_response(body)
        assert (status, rid) == (protocol.ST_BAD_REQUEST, 5)
        assert "bad read payload" in message
        assert client.range_query(0, 3) == [(0, 0), (1, 1), (2, 2)]


class TestPlainLiterals:
    @pytest.mark.parametrize(
        "obj",
        [7, -2**70, "k", True, None, (1, 2**64, False), ("a", None, 3),
         (4, 8, 512, True), ()],
    )
    def test_plain_payloads_skip_the_parse_and_round_trip(self, obj):
        assert codec.is_plain(obj)
        assert protocol.decode_payload(protocol.encode_payload(obj)) == obj

    @pytest.mark.parametrize(
        "obj", [1.5, (1, 2.0), (1, (2,)), [1], ("a", [1]), {"a": 1}]
    )
    def test_other_payloads_are_not_plain(self, obj):
        assert not codec.is_plain(obj)

    def test_non_literal_still_refused(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_payload((1, float("nan")))
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_payload((1, object()))
