#!/usr/bin/env python3
"""Group commit: batched fsync + pipelined acks, same durability.

``fsync="always"`` pays one fsync per write; ``fsync="group"`` hands
the flush to a dedicated flusher thread that coalesces every record
queued while the previous flush was in flight into a single
``write + fsync`` — and still never acknowledges a write before its
batch is durable. The ``submit_*`` surface makes the batching
reachable: it applies the write immediately (read-your-own-write) and
returns a ``CommitTicket`` whose ``result()`` blocks until the fsync
covering that record completes.

This script races 8 writers under ``always`` vs ``group``, prints the
fsync counts and throughput, then aborts the group tree mid-stream
(simulated process death) and shows recovery keeping every
acknowledged write.

Run:  python examples/group_commit.py
"""

import shutil
import tempfile
import threading
import time
from collections import deque
from pathlib import Path

from repro import QuITTree, TreeConfig
from repro.concurrency import ConcurrentTree
from repro.core import DurableTree

WRITERS = 8
PER_WRITER = 1_500
INFLIGHT = 64  # outstanding tickets per writer before awaiting one

CONFIG = TreeConfig(leaf_capacity=64, internal_capacity=64)


def ingest(policy: str, directory: Path) -> tuple[float, DurableTree]:
    """8 threads, each pipelining durable inserts through submit_*."""
    tree = DurableTree(
        ConcurrentTree(QuITTree(CONFIG)), directory, fsync=policy
    )

    def work(writer: int) -> None:
        pending: deque = deque()
        for i in range(PER_WRITER):
            pending.append(tree.submit_insert(writer * 10**6 + i, i))
            if len(pending) > INFLIGHT:
                pending.popleft().result(120)
        while pending:  # nothing counts until every ack landed
            pending.popleft().result(120)

    threads = [
        threading.Thread(target=work, args=(w,)) for w in range(WRITERS)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - start, tree


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="quit-group-commit-"))
    total = WRITERS * PER_WRITER
    try:
        # ------------------------------------------------- the A/B race
        results = {}
        for policy in ("always", "group"):
            seconds, tree = ingest(policy, root / policy)
            wal = tree.wal
            print(
                f"fsync={policy:<6} {total:,} durable inserts in "
                f"{seconds:5.2f}s  ({total / seconds:8,.0f} ops/s, "
                f"{wal.syncs:,} fsyncs)"
            )
            results[policy] = seconds
            if policy == "group":
                mean = wal.group_batch_records / wal.group_batches
                print(
                    f"             {wal.group_batches:,} batches, "
                    f"mean {mean:.1f} records/fsync "
                    f"(max {wal.group_batch_max}), "
                    f"unsynced acks: {wal.unsynced_acks}"
                )
            tree.close()
        speedup = results["always"] / results["group"]
        print(f"group commit speedup over per-op fsync: {speedup:.1f}x")

        # ---------------------------- same contract under process death
        crash_dir = root / "crash"
        tree = DurableTree(
            ConcurrentTree(QuITTree(CONFIG)), crash_dir, fsync="group"
        )
        acked = 0
        for i in range(5_000):
            tree.submit_insert(i, i).result(120)
            acked += 1
            if i == 3_333:
                break
        tree.abort()  # process death: queued-but-unacked work may be lost
        recovered, report = DurableTree.recover(crash_dir, QuITTree, CONFIG)
        print(
            f"aborted after {acked:,} acked submits; recovery replayed "
            f"{report.records_replayed:,} records (clean={report.clean})"
        )
        assert len(recovered) >= acked, "an acked write went missing"
        assert recovered.check(check_min_fill=False) == []
        recovered.close()
        print("every acknowledged write survived the crash")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
