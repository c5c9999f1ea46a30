"""Benchmark harness: scale configuration, tree builders, timers.

Every experiment in :mod:`repro.bench.experiments` takes a
:class:`BenchScale`, so the whole evaluation can run at three sizes:

* ``smoke()`` — seconds; used by the pytest-benchmark suite;
* ``default()`` — minutes; the scale the committed EXPERIMENTS.md numbers
  were produced at;
* ``paper()`` — the paper's own N (500M keys, 510-entry leaves); provided
  for completeness, impractical in pure Python.

:func:`durable_ingest` and :func:`network_ingest` time the served ingest
path (a ``DurableTree`` in process, and the same tree behind a loopback
``QuitServer``) for the group-commit and network gates.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from ..concurrency import ConcurrentTree
from ..core import TREE_VARIANTS, DurableTree, QuITTree, TreeConfig
from ..sware import SABPlusTree

#: Variant registry in the paper's presentation order.
VARIANTS: dict[str, type] = {cls.name: cls for cls in TREE_VARIANTS}


@dataclass(frozen=True)
class BenchScale:
    """Workload sizing for one experiment run.

    Attributes:
        n: entries ingested per configuration.
        leaf_capacity: tree leaf capacity (also internal fan-out).
        point_lookups: point lookups per query phase (paper: 1% of n).
        range_lookups: range queries per selectivity (paper: 1000).
        sware_buffer_fraction: SWARE buffer size as a fraction of n
            (paper default: 1%).
        seed: base RNG seed.
        repeats: timed runs per measurement; the minimum is reported
            (single-core environments jitter by 10-20%).
        batch_size: when set, ingestion applies keys in chunks of this
            size through ``insert_many`` instead of one ``insert`` per
            key (the batched sorted-run ingest path).
    """

    n: int = 100_000
    leaf_capacity: int = 64
    point_lookups: int = 1_000
    range_lookups: int = 50
    sware_buffer_fraction: float = 0.01
    seed: int = 42
    repeats: int = 2
    batch_size: Optional[int] = None

    @classmethod
    def smoke(cls) -> "BenchScale":
        """Seconds-scale sizing for CI / pytest-benchmark."""
        return cls(n=20_000, point_lookups=500, range_lookups=20, repeats=1)

    @classmethod
    def default(cls) -> "BenchScale":
        """The scale EXPERIMENTS.md numbers are recorded at."""
        return cls(n=100_000, point_lookups=1_000, range_lookups=50)

    @classmethod
    def paper(cls) -> "BenchScale":
        """The paper's own scale (not practical in pure Python)."""
        return cls(
            n=500_000_000,
            leaf_capacity=510,
            point_lookups=5_000_000,
            range_lookups=1_000,
        )

    def with_n(self, n: int) -> "BenchScale":
        """Copy with a different entry count."""
        return replace(self, n=n)

    @property
    def tree_config(self) -> TreeConfig:
        """The TreeConfig this scale implies."""
        return TreeConfig(
            leaf_capacity=self.leaf_capacity,
            internal_capacity=self.leaf_capacity,
        )

    @property
    def sware_buffer_capacity(self) -> int:
        """SWARE buffer size in entries (paper default: 1% of n)."""
        return max(64, int(self.n * self.sware_buffer_fraction))


@dataclass
class IngestResult:
    """Outcome of timed ingestion into one index."""

    name: str
    tree: Any
    seconds: float
    n: int

    @property
    def per_op_us(self) -> float:
        """Mean insert latency in microseconds."""
        return self.seconds / self.n * 1e6 if self.n else 0.0

    @property
    def ops_per_sec(self) -> float:
        """Ingestion throughput."""
        return self.n / self.seconds if self.seconds else 0.0


def make_tree(name: str, scale: BenchScale) -> Any:
    """Instantiate the named index at the given scale (includes SWARE)."""
    if name == "SWARE":
        return SABPlusTree(
            scale.tree_config,
            buffer_capacity=scale.sware_buffer_capacity,
        )
    try:
        cls = VARIANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown index {name!r}; expected one of "
            f"{[*VARIANTS, 'SWARE']}"
        ) from None
    return cls(scale.tree_config)


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Disable the cyclic GC across a timed section (a major source of
    run-to-run jitter when millions of nodes are being allocated)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def ingest(
    tree: Any,
    keys: Iterable[int],
    value_of: Optional[Callable[[int], Any]] = None,
) -> float:
    """Insert every key (values default to the key) and return elapsed
    seconds (cyclic GC paused)."""
    insert = tree.insert
    with _gc_paused():
        start = time.perf_counter()
        if value_of is None:
            for k in keys:
                insert(k, k)
        else:
            for k in keys:
                insert(k, value_of(k))
        return time.perf_counter() - start


def ingest_batched(
    tree: Any,
    keys: Iterable[int],
    batch_size: int,
    value_of: Optional[Callable[[int], Any]] = None,
) -> float:
    """Apply keys in ``batch_size`` chunks through ``insert_many`` and
    return elapsed seconds (cyclic GC paused).

    The ``(key, value)`` pairs are materialized *outside* the timed
    section so the measurement captures the ingest path, not tuple
    construction — mirroring :func:`ingest`, whose timed loop receives a
    pre-built key list.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if value_of is None:
        items = [(k, k) for k in keys]
    else:
        items = [(k, value_of(k)) for k in keys]
    insert_many = tree.insert_many
    with _gc_paused():
        start = time.perf_counter()
        for lo in range(0, len(items), batch_size):
            insert_many(items[lo : lo + batch_size])
        return time.perf_counter() - start


def timed_ingest(
    name: str,
    scale: BenchScale,
    keys: Sequence[int] | np.ndarray,
    repeats: Optional[int] = None,
    batch_size: Optional[int] = None,
) -> IngestResult:
    """Build the named index, ingest ``keys``, time it.

    Runs ``repeats`` times (default: ``scale.repeats``) and reports the
    minimum; the returned tree is from the final run.  When
    ``batch_size`` (explicit, or ``scale.batch_size``) is set, ingestion
    goes through :func:`ingest_batched` instead of per-key ``insert``.
    """
    repeats = scale.repeats if repeats is None else repeats
    if batch_size is None:
        batch_size = scale.batch_size
    key_list = [int(k) for k in keys]
    best = float("inf")
    tree = None
    for _ in range(max(1, repeats)):
        tree = make_tree(name, scale)
        if batch_size is None:
            best = min(best, ingest(tree, key_list))
        else:
            best = min(best, ingest_batched(tree, key_list, batch_size))
    if name == "SWARE":
        tree.flush()
    return IngestResult(name=name, tree=tree, seconds=best, n=len(key_list))


def time_point_lookups(
    tree: Any, targets: Sequence[int], repeats: int = 2
) -> float:
    """Best-of-``repeats`` elapsed seconds for the point-lookup batch."""
    get = tree.get
    best = float("inf")
    with _gc_paused():
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            for k in targets:
                get(k)
            best = min(best, time.perf_counter() - start)
    return best


def time_point_lookups_alternating(
    trees: Sequence[Any], targets: Sequence[int], rounds: int = 2
) -> list[float]:
    """Best single-round point-lookup seconds for each of ``trees``.

    The trees are timed in rotating single rounds (round ``r`` starts at
    tree ``r``: A, B, C, then B, C, A, ...) and each keeps its best, so a
    host-speed episode lands on every side instead of on one whole batch.
    With two trees this alternates (A, B, then B, A).  With three or more,
    no tree is timed twice in a row, where its second pass would find the
    probes' leaves still cached.  At least two rounds, so each side also
    runs once late.
    """
    best = [float("inf")] * len(trees)
    for r in range(max(2, rounds)):
        for i in range(len(trees)):
            side = (r + i) % len(trees)
            best[side] = min(
                best[side],
                time_point_lookups(trees[side], targets, repeats=1),
            )
    return best


def time_point_lookups_batched(
    tree: Any,
    targets: Sequence[int],
    batch_size: int,
    repeats: int = 2,
) -> float:
    """Best-of-``repeats`` elapsed seconds for the same probe set served
    through ``get_many`` in ``batch_size`` chunks (the batched read
    path), mirroring :func:`time_point_lookups`."""
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    get_many = tree.get_many
    probes = targets if isinstance(targets, list) else [int(k) for k in targets]
    best = float("inf")
    with _gc_paused():
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            for lo in range(0, len(probes), batch_size):
                get_many(probes[lo : lo + batch_size])
            best = min(best, time.perf_counter() - start)
    return best


def time_range_queries(
    tree: Any, ranges: Sequence[tuple[int, int]]
) -> float:
    """Elapsed seconds for the full range-query batch."""
    rq = tree.range_query
    with _gc_paused():
        start = time.perf_counter()
        for lo, hi in ranges:
            rq(lo, hi)
        return time.perf_counter() - start


#: Commit tickets a :func:`durable_ingest` writer keeps in flight before
#: it awaits the oldest — the pipelining depth of the submit/await surface.
INFLIGHT_WINDOW = 64


def durable_ingest(
    policy: str,
    keys: list[int],
    writers: int,
    batch_size: int,
    scale: BenchScale,
) -> tuple[float, dict[str, Any]]:
    """One timed durable-ingest run; returns ``(seconds, wal_stats)``.

    ``writers`` threads share one ``DurableTree(ConcurrentTree(QuIT))``
    and split the key stream round-robin.  Every writer uses the
    pipelined submit/await surface: ``submit_insert`` per key
    (``batch_size == 1``) or ``submit_many`` per chunk, keeping at most
    :data:`INFLIGHT_WINDOW` tickets outstanding and draining them all
    before the clock stops — no acknowledgement is left in flight.  The
    client code is identical for every policy (non-group tickets come
    back already resolved, so the window never fills); what varies is
    purely who pays for which fsync.
    """
    directory = tempfile.mkdtemp(prefix=f"quit-durab-{policy}-")
    try:
        tree = DurableTree(
            ConcurrentTree(QuITTree(scale.tree_config)),
            directory,
            fsync=policy,
        )
        shards = [keys[i::writers] for i in range(writers)]
        errors: list[BaseException] = []

        def run(shard: list[int]) -> None:
            try:
                pending: deque = deque()
                if batch_size == 1:
                    submit = tree.submit_insert
                    for k in shard:
                        pending.append(submit(k, k))
                        if len(pending) > INFLIGHT_WINDOW:
                            pending.popleft().wait(120)
                else:
                    for lo in range(0, len(shard), batch_size):
                        pending.append(
                            tree.submit_many(
                                [(k, k) for k in shard[lo : lo + batch_size]]
                            )
                        )
                        if len(pending) > INFLIGHT_WINDOW:
                            pending.popleft().wait(120)
                for ticket in pending:
                    ticket.wait(120)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(shard,)) for shard in shards
        ]
        with _gc_paused():
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - start
        if errors:
            raise errors[0]
        wal = tree.wal
        wal_stats = {
            "syncs": wal.syncs,
            "group_batches": wal.group_batches,
            "group_batch_max": wal.group_batch_max,
            "group_batch_mean": round(
                wal.group_batch_records / wal.group_batches, 2
            )
            if wal.group_batches
            else 0.0,
            "unsynced_acks": wal.unsynced_acks,
        }
        tree.close()
        return elapsed, wal_stats
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def network_ingest(
    keys: list[int],
    writers: int,
    batch_size: int,
    window: int,
    scale: BenchScale,
) -> tuple[float, dict[str, Any]]:
    """One timed network-ingest run; returns ``(seconds, server_stats)``.

    A loopback :class:`~repro.net.server.QuitServer` fronts the same
    ``DurableTree(ConcurrentTree(QuIT), fsync="group")`` the in-process
    baseline uses; ``writers`` clients each pipeline their shard as
    ``PUT_MANY`` frames with up to ``window`` outstanding.  The timed
    section ends when every ack has been reaped — like the in-process
    baseline, no acknowledgement is left in flight.
    """
    from ..net import BackgroundServer, QuitClient

    directory = tempfile.mkdtemp(prefix="quit-netbench-")
    try:
        tree = DurableTree(
            ConcurrentTree(QuITTree(scale.tree_config)),
            directory,
            fsync="group",
        )
        shards = [keys[i::writers] for i in range(writers)]
        errors: list[BaseException] = []
        with BackgroundServer(tree, max_inflight=max(64, writers * window)) as bg:
            clients = [
                QuitClient("127.0.0.1", bg.port, deadline=120.0)
                for _ in shards
            ]

            def run(client: "QuitClient", shard: list[int]) -> None:
                try:
                    batches = [
                        [(k, k) for k in shard[lo : lo + batch_size]]
                        for lo in range(0, len(shard), batch_size)
                    ]
                    client.pipeline_insert_many(batches, window=window)
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(client, shard))
                for client, shard in zip(clients, shards)
            ]
            with _gc_paused():
                start = time.perf_counter()
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                elapsed = time.perf_counter() - start
            for client in clients:
                client.close()
            stats = bg.stats.as_dict()
        if errors:
            raise errors[0]
        tree.close()
        return elapsed, stats
    finally:
        shutil.rmtree(directory, ignore_errors=True)
