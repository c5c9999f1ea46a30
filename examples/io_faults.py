#!/usr/bin/env python3
"""I/O fault tolerance: retries, read-only degradation, and the scrub.

The durability stack routes every file operation through the
``repro.testing.faults`` shims, so this script can make the "disk"
misbehave on demand and show each layer of the defence:

1. a transient EIO burst is absorbed by retry/backoff — callers never
   see it, the health monitor counts it;
2. a persistent ENOSPC exhausts the retries: the tree degrades to
   READ_ONLY (mutations refused fast, reads keep serving) until a
   checkpoint on the freed disk restores it;
3. silent bit rot in a closed WAL segment is caught by the scrubber's
   CRC pass, quarantined as evidence, and repaired from the live tree.

Run:  python examples/io_faults.py
"""

import shutil
import tempfile
from pathlib import Path

from repro import QuITTree, TreeConfig
from repro.core import DurableTree, ReadOnlyError, Scrubber
from repro.core.durable import WAL_DIRNAME
from repro.core.wal import segment_paths
from repro.testing import faults

N = 5_000


def main() -> None:
    state_dir = Path(tempfile.mkdtemp(prefix="quit-iofaults-"))
    config = TreeConfig(leaf_capacity=64, internal_capacity=64)
    try:
        tree = DurableTree(
            QuITTree(config), state_dir, fsync="always",
            segment_bytes=4 * 1024,
        )
        tree.insert_many([(i, f"row-{i}") for i in range(N)])
        print(f"ingested {N:,} rows, health={tree.health.state.value}")

        # ------------------------------------------- 1. transient EIO
        faults.arm("io.wal.write", "eio", times=3)
        for i in range(N, N + 100):
            tree.insert(i, f"row-{i}")  # never sees the fault
        faults.disarm("io.wal.write")
        print(f"EIO burst absorbed: {tree.health.retries} retries, "
              f"health={tree.health.state.value}")

        # -------------------------------------- 2. disk full -> READ_ONLY
        faults.arm("io.wal.fsync", "enospc")
        refused = 0
        try:
            for i in range(N + 100, N + 200):
                tree.insert(i, f"row-{i}")
        except ReadOnlyError:
            refused += 1
        for i in range(N + 100, N + 200):  # further writes refused fast
            try:
                tree.insert(i, f"row-{i}")
            except ReadOnlyError:
                refused += 1
        probe = tree.get(42)
        print(f"ENOSPC: degraded to {tree.health.state.value}, "
              f"{refused} mutations refused, reads still serve "
              f"(key 42 -> {probe!r})")
        faults.disarm("io.wal.fsync")  # operator freed space
        tree.checkpoint()  # proves the disk writable; restores health
        print(f"checkpoint healed the tree: "
              f"health={tree.health.state.value}, "
              f"recoveries={tree.health.recoveries}")

        # ------------------------------ 3. bit rot -> scrub + repair
        for i in range(N + 200, N + 1_200):
            tree.insert(i, f"late-{i}")  # individual WAL records
        closed = segment_paths(state_dir / WAL_DIRNAME)[:-1]
        victim = closed[len(closed) // 2]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF  # one flipped bit on the medium
        victim.write_bytes(bytes(data))

        scrubber = Scrubber(tree)
        report = scrubber.scrub_once(full=True)
        print(f"scrub: {len(report.issues)} corruption(s) in "
              f"{report.segments_checked} closed segment(s); "
              f"quarantined {len(report.quarantined)}, "
              f"repaired={report.repaired}")
        assert scrubber.scrub_once(full=True).clean

        # ------------------------------------------------ the receipts
        expected = dict(tree.items())
        tree.close()
        recovered, recovery = DurableTree.recover(
            state_dir, QuITTree, config
        )
        assert recovery.clean
        assert dict(recovered.items()) == expected
        print(f"cold recovery clean: {len(recovered):,} rows, every "
              f"acknowledged write intact")
        recovered.close()
    finally:
        faults.reset()
        shutil.rmtree(state_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
