"""Machine-readable batched-path regression baselines.

Three modes, selected with ``--mode``, all measured for every index
entry point (the four fast-path variants, the classical B+-tree, SWARE,
and the concurrent wrapper) on a BoDS near-sorted stream:

* ``ingest`` (default): per-key ``insert`` vs batched ``insert_many``
  throughput — the PR 1 baseline::

      python -m repro.bench.regress --out BENCH_PR1.json

* ``reads``: per-key ``get`` vs batched ``get_many`` throughput against
  a pre-built index, replaying the near-sorted arrival order as the
  probe stream (chunked by ``--read-batch-size``)::

      python -m repro.bench.regress --mode reads --out BENCH_PR2.json

* ``mixed``: an interleaved read/write workload — each chunk of the
  stream is ingested and then immediately probed — comparing the
  per-key loops against ``insert_many`` + ``get_many``.

The committed ``BENCH_PR1.json`` / ``BENCH_PR2.json`` at the repository
root were produced by exactly the commands above (default scale:
n=100000, K=5%, L=5%, batch 4096).  Use ``--smoke`` for a seconds-scale
run in CI.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import tempfile
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Optional, Sequence

from ..concurrency import ConcurrentTree
from ..core import QuITTree
from ..core.durable import DurableTree
from ..sortedness.bods import generate_keys
from .harness import (
    VARIANTS,
    BenchScale,
    _gc_paused,
    ingest,
    ingest_batched,
    make_tree,
)

#: Indexes measured, in reporting order.  Every name maps to a builder
#: taking a BenchScale.
MATRIX: dict[str, Any] = {
    **{name: None for name in VARIANTS},
    "SWARE": None,
    "concurrent-QuIT": None,
}


def _build(name: str, scale: BenchScale) -> Any:
    if name == "concurrent-QuIT":
        return ConcurrentTree(QuITTree(scale.tree_config))
    return make_tree(name, scale)


def _flush_if_buffered(tree: Any) -> None:
    flush = getattr(tree, "flush", None)
    if flush is not None:
        flush()


def _time_per_key(name: str, scale: BenchScale, keys: list[int]) -> float:
    """Best-of-repeats seconds for a per-key insert loop (+ final flush
    for buffered indexes, inside the timed section)."""
    best = float("inf")
    for _ in range(max(1, scale.repeats)):
        tree = _build(name, scale)
        insert = tree.insert
        with _gc_paused():
            start = time.perf_counter()
            for k in keys:
                insert(k, k)
            _flush_if_buffered(tree)
            best = min(best, time.perf_counter() - start)
    return best


def _time_batched(
    name: str, scale: BenchScale, keys: list[int], batch_size: int
) -> tuple[float, Any]:
    """Best-of-repeats seconds for chunked ``insert_many`` (+ final flush
    inside the timed section).  Returns ``(seconds, last_tree)``."""
    items = [(k, k) for k in keys]
    best = float("inf")
    tree = None
    for _ in range(max(1, scale.repeats)):
        tree = _build(name, scale)
        insert_many = tree.insert_many
        with _gc_paused():
            start = time.perf_counter()
            for lo in range(0, len(items), batch_size):
                insert_many(items[lo : lo + batch_size])
            _flush_if_buffered(tree)
            best = min(best, time.perf_counter() - start)
    return best, tree


def _batch_stats(tree: Any) -> dict[str, int]:
    """Batch-path counters from whichever stats object the index exposes."""
    stats = getattr(tree, "stats", None)
    if stats is None and hasattr(tree, "tree"):
        stats = tree.tree.stats
    if stats is None:
        return {}
    return {
        key: getattr(stats, key)
        for key in (
            "batch_inserts",
            "batch_runs",
            "batch_coalesced",
            "batch_segments",
            "batch_fast_segments",
            "batch_chained_segments",
            "index_fallback_scans",
        )
        if hasattr(stats, key)
    }


def _meta(
    benchmark: str,
    mode: str,
    scale: BenchScale,
    k_fraction: float,
    l_fraction: float,
    batch_size: int,
    read_batch_size: Optional[int] = None,
) -> dict[str, Any]:
    """The shared ``meta`` block of every regression document."""
    command = (
        f"python -m repro.bench.regress --mode {mode}"
        f" --n {scale.n} --k {k_fraction} --l {l_fraction}"
        f" --batch-size {batch_size}"
    )
    if read_batch_size is not None:
        command += f" --read-batch-size {read_batch_size}"
    command += (
        f" --leaf-capacity {scale.leaf_capacity}"
        f" --seed {scale.seed} --repeats {scale.repeats}"
    )
    meta: dict[str, Any] = {
        "benchmark": benchmark,
        "mode": mode,
        "workload": "BoDS near-sorted stream",
        "n": scale.n,
        "k_fraction": k_fraction,
        "l_fraction": l_fraction,
        "batch_size": batch_size,
    }
    if read_batch_size is not None:
        meta["read_batch_size"] = read_batch_size
    meta.update(
        {
            "leaf_capacity": scale.leaf_capacity,
            "seed": scale.seed,
            "repeats": scale.repeats,
            "python": platform.python_version(),
            "command": command,
        }
    )
    return meta


def run_regression(
    scale: BenchScale,
    k_fraction: float,
    l_fraction: float,
    batch_size: int,
) -> dict[str, Any]:
    """Measure the ingest matrix and return the JSON-ready document."""
    keys = [
        int(k)
        for k in generate_keys(
            scale.n, k_fraction, l_fraction, seed=scale.seed
        )
    ]
    results = []
    for name in MATRIX:
        per_key_s = _time_per_key(name, scale, keys)
        batched_s, tree = _time_batched(name, scale, keys, batch_size)
        results.append(
            {
                "index": name,
                "per_key_seconds": round(per_key_s, 6),
                "batched_seconds": round(batched_s, 6),
                "per_key_ops": round(scale.n / per_key_s, 1),
                "batched_ops": round(scale.n / batched_s, 1),
                "speedup": round(per_key_s / batched_s, 3),
                "batch_stats": _batch_stats(tree),
            }
        )
    meta = _meta(
        "batched sorted-run ingest vs per-key insert",
        "ingest", scale, k_fraction, l_fraction, batch_size,
    )
    del meta["mode"]  # the PR 1 document predates the mode axis
    return {"meta": meta, "results": results}


def _tree_stats(tree: Any) -> Any:
    """The TreeStats object behind whichever facade ``tree`` is."""
    stats = getattr(tree, "stats", None)
    if stats is None and hasattr(tree, "tree"):
        stats = tree.tree.stats
    return stats


_READ_COUNTERS = (
    "point_lookups",
    "read_batches",
    "read_chain_hits",
    "read_redescents",
    "read_fast_hits",
    "read_fast_misses",
)


def _read_counters(diff: Any) -> dict[str, int]:
    """Nonzero-relevant read counters from a stats diff."""
    if diff is None:
        return {}
    return {
        key: getattr(diff, key)
        for key in _READ_COUNTERS
        if hasattr(diff, key)
    }


def _build_loaded(
    name: str, scale: BenchScale, keys: list[int], batch_size: int
) -> Any:
    """One index pre-loaded with the stream via the batched ingest path
    (buffered indexes flushed, so reads hit the steady state)."""
    tree = _build(name, scale)
    items = [(k, k) for k in keys]
    insert_many = tree.insert_many
    for lo in range(0, len(items), batch_size):
        insert_many(items[lo : lo + batch_size])
    _flush_if_buffered(tree)
    return tree


def run_read_regression(
    scale: BenchScale,
    k_fraction: float,
    l_fraction: float,
    batch_size: int,
    read_batch_size: int,
) -> dict[str, Any]:
    """Measure per-key ``get`` vs chunked ``get_many`` on pre-built
    indexes and return the JSON-ready document.

    The probe stream replays the BoDS arrival order (every key present,
    near-sorted) — the read phase of the paper's mixed workloads.  Each
    timing phase also reports the read counters it accumulated, so the
    fast-path read hits and the chain-vs-descent split are visible next
    to the wall-clock numbers.
    """
    keys = [
        int(k)
        for k in generate_keys(
            scale.n, k_fraction, l_fraction, seed=scale.seed
        )
    ]
    repeats = max(1, scale.repeats)
    results = []
    for name in MATRIX:
        tree = _build_loaded(name, scale, keys, batch_size)
        stats = _tree_stats(tree)
        get = tree.get
        before = stats.snapshot() if stats is not None else None
        per_key_s = float("inf")
        with _gc_paused():
            for _ in range(repeats):
                start = time.perf_counter()
                for k in keys:
                    get(k)
                per_key_s = min(per_key_s, time.perf_counter() - start)
        per_key_diff = (
            stats.diff(before) if stats is not None else None
        )
        get_many = tree.get_many
        before = stats.snapshot() if stats is not None else None
        batched_s = float("inf")
        with _gc_paused():
            for _ in range(repeats):
                start = time.perf_counter()
                for lo in range(0, len(keys), read_batch_size):
                    get_many(keys[lo : lo + read_batch_size])
                batched_s = min(batched_s, time.perf_counter() - start)
        batched_diff = (
            stats.diff(before) if stats is not None else None
        )
        results.append(
            {
                "index": name,
                "per_key_seconds": round(per_key_s, 6),
                "batched_seconds": round(batched_s, 6),
                "per_key_ops": round(scale.n / per_key_s, 1),
                "batched_ops": round(scale.n / batched_s, 1),
                "speedup": round(per_key_s / batched_s, 3),
                "per_key_read_stats": _read_counters(per_key_diff),
                "batched_read_stats": _read_counters(batched_diff),
            }
        )
    return {
        "meta": _meta(
            "batched sorted multi-probe reads vs per-key get",
            "reads", scale, k_fraction, l_fraction, batch_size,
            read_batch_size,
        ),
        "results": results,
    }


def run_mixed_regression(
    scale: BenchScale,
    k_fraction: float,
    l_fraction: float,
    batch_size: int,
    read_batch_size: int,
) -> dict[str, Any]:
    """Measure an interleaved read/write workload: each ``batch_size``
    chunk of the stream is ingested and then immediately probed
    (every key of the chunk), per-key loops vs
    ``insert_many`` + ``get_many``."""
    keys = [
        int(k)
        for k in generate_keys(
            scale.n, k_fraction, l_fraction, seed=scale.seed
        )
    ]
    repeats = max(1, scale.repeats)
    n_ops = 2 * scale.n  # one insert + one probe per key
    results = []
    for name in MATRIX:
        per_key_s = float("inf")
        for _ in range(repeats):
            tree = _build(name, scale)
            insert = tree.insert
            get = tree.get
            with _gc_paused():
                start = time.perf_counter()
                for lo in range(0, len(keys), batch_size):
                    chunk = keys[lo : lo + batch_size]
                    for k in chunk:
                        insert(k, k)
                    for k in chunk:
                        get(k)
                _flush_if_buffered(tree)
                per_key_s = min(per_key_s, time.perf_counter() - start)
        batched_s = float("inf")
        tree = None
        for _ in range(repeats):
            tree = _build(name, scale)
            insert_many = tree.insert_many
            get_many = tree.get_many
            with _gc_paused():
                start = time.perf_counter()
                for lo in range(0, len(keys), batch_size):
                    chunk = keys[lo : lo + batch_size]
                    insert_many([(k, k) for k in chunk])
                    for plo in range(0, len(chunk), read_batch_size):
                        get_many(chunk[plo : plo + read_batch_size])
                _flush_if_buffered(tree)
                batched_s = min(batched_s, time.perf_counter() - start)
        results.append(
            {
                "index": name,
                "per_key_seconds": round(per_key_s, 6),
                "batched_seconds": round(batched_s, 6),
                "per_key_ops": round(n_ops / per_key_s, 1),
                "batched_ops": round(n_ops / batched_s, 1),
                "speedup": round(per_key_s / batched_s, 3),
                "read_stats": _read_counters(None)
                if _tree_stats(tree) is None
                else _read_counters(_tree_stats(tree)),
            }
        )
    return {
        "meta": _meta(
            "interleaved chunked read/write: per-key loops vs "
            "insert_many + get_many",
            "mixed", scale, k_fraction, l_fraction, batch_size,
            read_batch_size,
        ),
        "results": results,
    }


#: fsync policies compared by ``--mode durability``, reporting order.
DURABILITY_POLICIES = ("always", "group", "interval", "none")

#: Commit tickets a durability-bench writer keeps in flight before it
#: awaits the oldest — the pipelining depth of the submit/await surface.
INFLIGHT_WINDOW = 64


def _durable_ingest_once(
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


def run_durability_regression(
    scale: BenchScale,
    k_fraction: float,
    l_fraction: float,
    writers_axis: Sequence[int],
    batch_sizes: Sequence[int],
) -> dict[str, Any]:
    """Durable-ingest throughput: fsync policy × writers × batch size.

    Every policy of a cell is timed **within one process**, alternating
    which policy goes first each repeat (cross-process fsync comparisons
    swing with page-cache and scheduler state), best-of-``scale.repeats``
    per policy.  The
    headline cell is ``writers=8, batch=1``: per-key pipelined submits,
    where ``fsync="group"`` amortizes one fsync over every record the
    flusher drains while ``"always"`` pays one per op.
    """
    keys = [
        int(k)
        for k in generate_keys(
            scale.n, k_fraction, l_fraction, seed=scale.seed
        )
    ]
    repeats = max(1, scale.repeats)
    results = []
    for writers in writers_axis:
        for batch_size in batch_sizes:
            best = {p: float("inf") for p in DURABILITY_POLICIES}
            stats = {p: {} for p in DURABILITY_POLICIES}
            for rep in range(repeats):
                order = (
                    DURABILITY_POLICIES
                    if rep % 2 == 0
                    else tuple(reversed(DURABILITY_POLICIES))
                )
                for policy in order:
                    elapsed, wal_stats = _durable_ingest_once(
                        policy, keys, writers, batch_size, scale
                    )
                    if elapsed < best[policy]:
                        best[policy] = elapsed
                        stats[policy] = wal_stats
            row: dict[str, Any] = {
                "writers": writers,
                "batch_size": batch_size,
            }
            for policy in DURABILITY_POLICIES:
                row[f"{policy}_seconds"] = round(best[policy], 6)
                row[f"{policy}_ops"] = round(scale.n / best[policy], 1)
            row["group_over_always"] = round(
                best["always"] / best["group"], 3
            )
            row["group_wal"] = stats["group"]
            row["always_syncs"] = stats["always"].get("syncs", 0)
            results.append(row)
    meta = _meta(
        "durable ingest: fsync policy interleaved A/B "
        "(always/group/interval/none)",
        "durability", scale, k_fraction, l_fraction,
        max(batch_sizes),
    )
    meta["writers_axis"] = list(writers_axis)
    meta["batch_sizes"] = list(batch_sizes)
    meta["index"] = "DurableTree(ConcurrentTree(QuIT))"
    return {"meta": meta, "results": results}


#: Pipelining windows (outstanding frames per client) swept by
#: ``--mode network``.  window=1 is classic request/response RPC;
#: deeper windows let group commit batch the WAL fsyncs across frames.
NETWORK_WINDOWS = (1, 8, 32)


def _network_ingest_once(
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


def run_network_regression(
    scale: BenchScale,
    k_fraction: float,
    l_fraction: float,
    batch_size: int,
    writers_axis: Sequence[int],
    windows: Sequence[int] = NETWORK_WINDOWS,
) -> dict[str, Any]:
    """Network-served ingest vs the in-process pipelined baseline.

    Every row compares ``writers`` loopback clients pipelining
    ``PUT_MANY`` frames (``window`` outstanding each) against the same
    number of in-process writer threads on the pipelined
    ``submit_many`` surface, identical tree/WAL/fsync configuration.
    ``network_over_inprocess`` is the wall-clock factor the socket hop,
    framing, and admission layer cost on top of the in-process path —
    the number the CI gate bounds.
    """
    keys = [
        int(k)
        for k in generate_keys(
            scale.n, k_fraction, l_fraction, seed=scale.seed
        )
    ]
    repeats = max(1, scale.repeats)
    results = []
    for writers in writers_axis:
        inprocess_s = float("inf")
        for _ in range(repeats):
            elapsed, _stats = _durable_ingest_once(
                "group", keys, writers, batch_size, scale
            )
            inprocess_s = min(inprocess_s, elapsed)
        for window in windows:
            net_s = float("inf")
            net_stats: dict[str, Any] = {}
            for _ in range(repeats):
                elapsed, stats = _network_ingest_once(
                    keys, writers, batch_size, window, scale
                )
                if elapsed < net_s:
                    net_s = elapsed
                    net_stats = stats
            results.append(
                {
                    "writers": writers,
                    "window": window,
                    "batch_size": batch_size,
                    "inprocess_seconds": round(inprocess_s, 6),
                    "network_seconds": round(net_s, 6),
                    "inprocess_ops": round(scale.n / inprocess_s, 1),
                    "network_ops": round(scale.n / net_s, 1),
                    "network_over_inprocess": round(net_s / inprocess_s, 3),
                    "server_stats": {
                        key: net_stats[key]
                        for key in (
                            "net_requests",
                            "net_applied",
                            "net_inflight_max",
                            "net_sheds",
                        )
                        if key in net_stats
                    },
                }
            )
    meta = _meta(
        "network-served pipelined ingest vs in-process submit_many",
        "network", scale, k_fraction, l_fraction, batch_size,
    )
    meta["writers_axis"] = list(writers_axis)
    meta["windows"] = list(windows)
    meta["index"] = "QuitServer(DurableTree(ConcurrentTree(QuIT)))"
    meta["transport"] = "loopback TCP, length-prefixed frames"
    return {"meta": meta, "results": results}


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for quit-regress."""
    parser = argparse.ArgumentParser(
        prog="quit-regress",
        description=(
            "Batched-path regression baselines: per-key loops vs "
            "insert_many / get_many across all index entry points."
        ),
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the JSON document here (default: stdout only)",
    )
    parser.add_argument(
        "--mode",
        choices=(
            "ingest", "reads", "mixed", "durability", "network",
        ),
        default="ingest",
        help=(
            "ingest: insert vs insert_many (PR 1 baseline); "
            "reads: get vs get_many on a pre-built index; "
            "mixed: interleaved chunked read/write; "
            "durability: durable-ingest fsync-policy A/B over "
            "writers x batch size; "
            "network: loopback-served pipelined ingest vs in-process "
            "submit_many (default: ingest)"
        ),
    )
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument(
        "--k", type=float, default=0.05,
        help="BoDS K: fraction of displaced keys (default 0.05)",
    )
    parser.add_argument(
        "--l", type=float, default=0.05,
        help="BoDS L: max displacement as a fraction of n (default 0.05)",
    )
    parser.add_argument("--batch-size", type=int, default=4096)
    parser.add_argument(
        "--read-batch-size", type=int, default=4096,
        help="probe chunk size handed to get_many (reads/mixed modes)",
    )
    parser.add_argument("--leaf-capacity", type=int, default=64)
    parser.add_argument(
        "--writers", default="1,8",
        help=(
            "durability mode: comma-separated writer-thread counts "
            "(default 1,8)"
        ),
    )
    parser.add_argument(
        "--durability-batches", default="1,64",
        help=(
            "durability mode: comma-separated submit batch sizes; 1 = "
            "per-op durable insert (default 1,64)"
        ),
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timed runs per cell; the minimum is reported (default 5)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale sizing for CI (n=20000, 2 repeats)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.batch_size <= 0:
        parser.error(f"--batch-size must be positive, got {args.batch_size}")
    if args.read_batch_size <= 0:
        parser.error(
            f"--read-batch-size must be positive, got {args.read_batch_size}"
        )
    n = 20_000 if args.smoke else args.n
    repeats = 2 if args.smoke else args.repeats
    scale = BenchScale(
        n=n,
        leaf_capacity=args.leaf_capacity,
        seed=args.seed,
        repeats=repeats,
        batch_size=args.batch_size,
    )
    if args.mode == "reads":
        doc = run_read_regression(
            scale, args.k, args.l, args.batch_size, args.read_batch_size
        )
    elif args.mode == "mixed":
        doc = run_mixed_regression(
            scale, args.k, args.l, args.batch_size, args.read_batch_size
        )
    elif args.mode == "durability":
        try:
            writers_axis = [int(w) for w in args.writers.split(",") if w]
            batch_sizes = [
                int(b) for b in args.durability_batches.split(",") if b
            ]
        except ValueError:
            parser.error(
                "--writers / --durability-batches must be comma-separated "
                "integers"
            )
        if not writers_axis or any(w <= 0 for w in writers_axis):
            parser.error(f"--writers must be positive, got {args.writers!r}")
        if not batch_sizes or any(b <= 0 for b in batch_sizes):
            parser.error(
                "--durability-batches must be positive, got "
                f"{args.durability_batches!r}"
            )
        doc = run_durability_regression(
            scale, args.k, args.l, writers_axis, batch_sizes
        )
    elif args.mode == "network":
        try:
            writers_axis = [int(w) for w in args.writers.split(",") if w]
        except ValueError:
            parser.error("--writers must be comma-separated integers")
        if not writers_axis or any(w <= 0 for w in writers_axis):
            parser.error(f"--writers must be positive, got {args.writers!r}")
        doc = run_network_regression(
            scale, args.k, args.l, args.batch_size, writers_axis
        )
    else:
        doc = run_regression(scale, args.k, args.l, args.batch_size)
    text = json.dumps(doc, indent=2) + "\n"
    if args.out is not None:
        args.out.write_text(text)
        print(f"wrote {args.out}")
    for row in doc["results"]:
        if args.mode == "durability":
            print(
                f"writers {row['writers']:>2d} batch {row['batch_size']:>4d}"
                f"  always {row['always_ops']:>9.0f} ops/s"
                f"  group {row['group_ops']:>9.0f} ops/s"
                f"  group/always {row['group_over_always']:.2f}x"
                f"  (batch mean {row['group_wal'].get('group_batch_mean', 0)})"
            )
        elif args.mode == "network":
            print(
                f"writers {row['writers']:>2d} window {row['window']:>3d}"
                f"  in-proc {row['inprocess_ops']:>9.0f} ops/s"
                f"  network {row['network_ops']:>9.0f} ops/s"
                f"  net/in-proc {row['network_over_inprocess']:.2f}x"
            )
        else:
            print(
                f"{row['index']:16s} per-key {row['per_key_ops']:>10.0f}"
                f" ops/s  batched {row['batched_ops']:>10.0f} ops/s"
                f"  speedup {row['speedup']:.2f}x"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
