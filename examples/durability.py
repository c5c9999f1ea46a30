#!/usr/bin/env python3
"""Crash-safe durability: WAL + checkpoints + recovery.

``DurableTree`` wraps any variant and write-ahead-logs every logical
operation before applying it, so an acknowledged write survives a
process crash. ``checkpoint()`` folds the log into a checksummed
snapshot; ``recover()`` rebuilds from snapshot + log, tolerating a torn
log tail. This script kills itself (logically, via the fault-injection
framework) in the middle of an ingest and shows recovery landing on
exactly the acknowledged state.

Run:  python examples/durability.py
"""

import shutil
import tempfile
from pathlib import Path

from repro import QuITTree, TreeConfig
from repro.core import DurableTree
from repro.testing import SimulatedCrash, faults

N_BEFORE_CHECKPOINT = 50_000
N_AFTER_CHECKPOINT = 5_000
CRASH_AFTER = 3_000  # acknowledged post-checkpoint writes before the "crash"


def main() -> None:
    state_dir = Path(tempfile.mkdtemp(prefix="quit-state-"))
    config = TreeConfig(leaf_capacity=64, internal_capacity=64)
    try:
        # ------------------------------------------------------ ingest
        tree = DurableTree(QuITTree(config), state_dir, fsync="none")
        tree.insert_many([(i, f"row-{i}") for i in range(N_BEFORE_CHECKPOINT)])
        snapshotted = tree.checkpoint()
        print(f"checkpointed {snapshotted:,} entries "
              f"-> {state_dir / 'snapshot.quit'}")

        # ------------------------------------------- crash mid-ingest
        # Arm a crash fault so the 3001st post-checkpoint insert dies
        # after its WAL append — the moment a real process could lose
        # power. SimulatedCrash subclasses BaseException: no cleanup
        # handler inside the library can swallow it, and nothing gets
        # flushed on the way down, just like a dead process.
        acknowledged = 0
        try:
            with faults.inject(
                "wal.after_append", "crash", hits_before=CRASH_AFTER
            ):
                for i in range(N_AFTER_CHECKPOINT):
                    tree.insert(N_BEFORE_CHECKPOINT + i, f"late-{i}")
                    acknowledged += 1
        except SimulatedCrash:
            print(f"crashed after {acknowledged:,} acknowledged "
                  f"post-checkpoint inserts (1 more was in flight)")

        # ----------------------------------------------------- recover
        recovered, report = DurableTree.recover(
            state_dir, QuITTree, config
        )
        print(f"recovered {len(recovered):,} entries: "
              f"{report.snapshot_entries:,} from the snapshot + "
              f"{report.records_replayed:,} WAL records replayed "
              f"(clean={report.clean})")

        expected = N_BEFORE_CHECKPOINT + acknowledged
        assert len(recovered) in (expected, expected + 1), (
            "recovery must land on the acknowledged state "
            "(the in-flight insert may or may not have reached the log)"
        )
        assert recovered.get(N_BEFORE_CHECKPOINT) == "late-0"
        assert recovered.check(check_min_fill=False) == []
        print("structural check passed; every acknowledged write survived")

        # The recovered tree is immediately writable and durable again.
        recovered.insert(10**9, "post-recovery")
        recovered.checkpoint()
        recovered.close()
        print("post-recovery write + checkpoint OK")
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
