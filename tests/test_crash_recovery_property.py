"""The acceptance property for the durability layer.

For EVERY registered crash site (control-flow and ``io.*`` write
sites alike): logically kill the process mid-way
through a random ~1k-op workload (inserts, deletes, batched inserts,
periodic checkpoints) on a ``DurableTree`` with ``fsync="always"``,
recover from the directory, and compare against a dict oracle of
acknowledged ops.

The contract being asserted:

* **no lost acknowledged writes** — every op that returned before the
  crash is present after recovery;
* **no phantom keys** — recovery never invents state.  The only
  tolerated ambiguity is the single *in-flight* op: log-then-apply
  means a crash after the WAL append but before the acknowledgement
  can leave that one op durable.  Recovered state must therefore equal
  ``apply(acked)`` or ``apply(acked + [inflight])`` — nothing else;
* a **corrupted WAL tail yields a RecoveryReport**, never an
  exception, and the recovered state is some exact prefix of the
  acknowledged history.
"""

import random

import pytest

from repro.core import DurableTree, QuITTree, TreeConfig
from repro.core.durable import WAL_DIRNAME
from repro.core.wal import segment_paths
from repro.testing import SimulatedCrash, faults

CFG = TreeConfig(leaf_capacity=8, internal_capacity=8)

#: Small segments so rotation-related failpoints actually fire inside a
#: 1k-op workload.
SEGMENT_BYTES = 512
N_OPS = 1000
KEYSPACE = 2000


def make_ops(seed: int, n: int = N_OPS) -> list[tuple]:
    """A deterministic random workload mixing every logged op kind."""
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        r = rng.random()
        if r < 0.55:
            ops.append(("i", rng.randrange(KEYSPACE), rng.randrange(10**6)))
        elif r < 0.75:
            ops.append(("d", rng.randrange(KEYSPACE)))
        elif r < 0.92:
            base = rng.randrange(KEYSPACE)
            batch = [
                (base + j, rng.randrange(10**6))
                for j in range(rng.randrange(1, 24))
            ]
            ops.append(("m", batch))
        else:
            ops.append(("c",))
    return ops


def apply_op(oracle: dict, op: tuple) -> None:
    tag = op[0]
    if tag == "i":
        oracle[op[1]] = op[2]
    elif tag == "d":
        oracle.pop(op[1], None)
    elif tag == "m":
        oracle.update(dict(op[1]))
    # "c" (checkpoint) changes no logical state.


def run_workload(directory, ops, fsync="always"):
    """Apply ops until completion or SimulatedCrash.

    Returns ``(oracle_of_acked_ops, inflight_op_or_None, facade_or_None)``.
    On a crash the facade is NOT closed — a dead process flushes
    nothing, which is exactly the state recovery must cope with.  Under
    ``fsync="group"`` the WAL is *aborted* instead: the flusher thread
    would otherwise keep absorbing appends after the "process died",
    which no real crash allows.
    """
    t = DurableTree(
        QuITTree(CFG), directory, segment_bytes=SEGMENT_BYTES, fsync=fsync
    )
    oracle: dict = {}
    op = None
    try:
        for op in ops:
            if op[0] == "c":
                t.checkpoint()
            elif op[0] == "i":
                t.insert(op[1], op[2])
            elif op[0] == "d":
                t.delete(op[1])
            else:
                t.insert_many(op[1])
            apply_op(oracle, op)  # acknowledged
        return oracle, None, t
    except SimulatedCrash:
        t.abort()
        return oracle, op, None


def allowed_states(oracle: dict, inflight) -> list[dict]:
    """The oracle, plus (when an op was in flight) oracle+that-op."""
    states = [oracle]
    if inflight is not None and inflight[0] != "c":
        extra = dict(oracle)
        apply_op(extra, inflight)
        if extra != oracle:
            states.append(extra)
    return states


#: Every site where a crash is permitted, in registry order: the
#: control-flow sites first, then the ``io.*`` write sites (appended
#: after them, so the seeds derived from each index stay put).  The
#: single-node workload below cannot reach replication sites; those are
#: crash-tested by tests/test_replication.py and the chaos soak.
CRASH_SITES = [
    site
    for site, kinds in faults.SITES.items()
    if "crash" in kinds and not site.startswith("repl.")
]

#: The wal.group.* sites only exist on the group-commit flusher, which
#: fsync="always" never starts — they get their own sweep below.
CORE_FAILPOINTS = [s for s in CRASH_SITES if not s.startswith("wal.group.")]

#: Under fsync="group" every core site fires — the shared ones from the
#: flusher thread (write/fsync/rotate) or the writer thread (enqueue),
#: plus the three batch-boundary sites unique to the pipeline.
GROUP_FAILPOINTS = CRASH_SITES


class TestCrashAtEveryFailpoint:
    @pytest.mark.parametrize("hits_before", [0, 2], ids=["hit0", "hit2"])
    @pytest.mark.parametrize("failpoint", CORE_FAILPOINTS)
    def test_recovers_to_oracle(self, tmp_path, failpoint, hits_before):
        seed = CORE_FAILPOINTS.index(failpoint) * 10 + hits_before
        ops = make_ops(seed)
        with faults.inject(
            failpoint, "crash", hits_before=hits_before
        ) as state:
            oracle, inflight, survivor = run_workload(tmp_path, ops)
        assert survivor is None and state.fired == 1, (
            f"{failpoint} never fired — the workload does not cover it"
        )
        recovered, report = DurableTree.recover(tmp_path, QuITTree, CFG)
        got = dict(recovered.tree.items())
        states = allowed_states(oracle, inflight)
        assert any(got == s for s in states), (
            f"crash at {failpoint}: recovered state is neither the "
            f"acknowledged oracle ({len(oracle)} keys) nor "
            f"oracle+inflight {inflight!r}; got {len(got)} keys "
            f"(missing={len(set(oracle) - set(got))}, "
            f"phantom={len(set(got) - set(states[-1]))})"
        )
        # Structural integrity and a working fast path after replay.
        assert recovered.check(check_min_fill=False) == []
        assert report.scrub is not None
        recovered.insert(10**9, "post-recovery")
        assert recovered.get(10**9) == "post-recovery"
        recovered.close()

    def test_acked_writes_survive_a_second_crash_and_recovery(
        self, tmp_path
    ):
        """Crash → recover → keep writing → crash again → recover:
        acknowledgements from both lives must survive."""
        ops = make_ops(seed=999)
        with faults.inject(
            "wal.before_fsync", "crash", hits_before=120
        ):
            oracle, inflight, _ = run_workload(tmp_path, ops)
        recovered, _ = DurableTree.recover(tmp_path, QuITTree, CFG)
        got = dict(recovered.tree.items())
        assert any(got == s for s in allowed_states(oracle, inflight))
        # Second life: adopt the recovered state as the new oracle and
        # keep going until a second crash.
        oracle2 = dict(got)
        op = None
        try:
            with faults.inject(
                "wal.after_append", "crash", hits_before=60
            ):
                for op in make_ops(seed=1000, n=300):
                    if op[0] == "c":
                        recovered.checkpoint()
                    elif op[0] == "i":
                        recovered.insert(op[1], op[2])
                    elif op[0] == "d":
                        recovered.delete(op[1])
                    else:
                        recovered.insert_many(op[1])
                    apply_op(oracle2, op)
        except SimulatedCrash:
            pass
        final, report = DurableTree.recover(tmp_path, QuITTree, CFG)
        got2 = dict(final.tree.items())
        assert any(got2 == s for s in allowed_states(oracle2, op))
        assert final.check(check_min_fill=False) == []


class TestCrashAtEveryGroupFailpoint:
    """The same acceptance property under ``fsync="group"``.

    A crash mid-batch — before the fsync, after it, or between the
    fsync and the acks — must never lose an acknowledged write and
    never invent one.  The workload is single-threaded, so at most one
    data record is in flight; the batch carrying it is the only
    ambiguity and the standard two-state oracle still applies.
    """

    @pytest.mark.parametrize("hits_before", [0, 2], ids=["hit0", "hit2"])
    @pytest.mark.parametrize("failpoint", GROUP_FAILPOINTS)
    def test_recovers_to_oracle(self, tmp_path, failpoint, hits_before):
        seed = GROUP_FAILPOINTS.index(failpoint) * 100 + hits_before
        ops = make_ops(seed)
        with faults.inject(
            failpoint, "crash", hits_before=hits_before
        ) as state:
            oracle, inflight, survivor = run_workload(
                tmp_path, ops, fsync="group"
            )
        assert survivor is None and state.fired == 1, (
            f"{failpoint} never fired under fsync='group'"
        )
        recovered, report = DurableTree.recover(tmp_path, QuITTree, CFG)
        got = dict(recovered.tree.items())
        states = allowed_states(oracle, inflight)
        assert any(got == s for s in states), (
            f"group-commit crash at {failpoint}: recovered state is "
            f"neither the acknowledged oracle ({len(oracle)} keys) nor "
            f"oracle+inflight {inflight!r}; got {len(got)} keys "
            f"(missing={len(set(oracle) - set(got))}, "
            f"phantom={len(set(got) - set(states[-1]))})"
        )
        assert recovered.check(check_min_fill=False) == []
        recovered.insert(10**9, "post-recovery")
        assert recovered.get(10**9) == "post-recovery"
        recovered.close()

    def test_group_recovery_reopens_as_group(self, tmp_path):
        """Crash under group commit, recover straight back into
        ``fsync="group"``: the new facade's flusher works and acked
        writes from both lives survive a clean close."""
        ops = make_ops(seed=31337)
        with faults.inject(
            "wal.group.pre_fsync", "crash", hits_before=50
        ):
            oracle, inflight, _ = run_workload(tmp_path, ops, fsync="group")
        recovered, _ = DurableTree.recover(
            tmp_path, QuITTree, CFG, fsync="group"
        )
        got = dict(recovered.tree.items())
        assert any(got == s for s in allowed_states(oracle, inflight))
        oracle2 = dict(got)
        for op in make_ops(seed=31338, n=200):
            if op[0] == "c":
                recovered.checkpoint()
            else:
                if op[0] == "i":
                    recovered.insert(op[1], op[2])
                elif op[0] == "d":
                    recovered.delete(op[1])
                else:
                    recovered.insert_many(op[1])
                apply_op(oracle2, op)
        recovered.close()
        final, report = DurableTree.recover(tmp_path, QuITTree, CFG)
        assert dict(final.tree.items()) == oracle2
        assert final.check(check_min_fill=False) == []


class TestNoCrashControl:
    def test_full_workload_recovers_exactly(self, tmp_path):
        ops = make_ops(seed=424242)
        oracle, inflight, t = run_workload(tmp_path, ops)
        assert inflight is None
        t.close()
        recovered, report = DurableTree.recover(tmp_path, QuITTree, CFG)
        assert report.clean
        assert dict(recovered.tree.items()) == oracle
        assert recovered.check(check_min_fill=False) == []


class TestCorruptedTailProperty:
    def test_corrupt_tail_reports_and_recovers_a_prefix(self, tmp_path):
        """After a crash, additionally corrupt the WAL tail: recovery
        must return a report (not raise) and land on an *exact prefix*
        of the acknowledged history — no phantoms, no reordering."""
        ops = make_ops(seed=7)
        with faults.inject(
            "wal.before_fsync", "crash", hits_before=200
        ):
            oracle, inflight, _ = run_workload(tmp_path, ops)
        segs = segment_paths(tmp_path / WAL_DIRNAME)
        assert segs, "workload must leave WAL segments behind"
        data = bytearray(segs[-1].read_bytes())
        assert data, "last segment unexpectedly empty"
        data[-1] ^= 0xFF
        segs[-1].write_bytes(bytes(data))

        recovered, report = DurableTree.recover(tmp_path, QuITTree, CFG)

        assert not report.clean
        assert report.checksum_failures == 1 or report.truncated_tail
        assert report.tail_bytes_dropped > 0
        # Enumerate every prefix state of the history since the last
        # acknowledged checkpoint cannot be distinguished here; instead
        # build ALL prefix states of the full acknowledged run (+ the
        # in-flight op) and require an exact match with one of them.
        prefixes = []
        state: dict = {}
        prefixes.append(dict(state))
        for op in ops:
            apply_op(state, op)
            prefixes.append(dict(state))
            if state == oracle:
                break
        if inflight is not None:
            apply_op(state, inflight)
            prefixes.append(dict(state))
        got = dict(recovered.tree.items())
        assert any(got == p for p in prefixes), (
            "corrupted-tail recovery produced a state that is not a "
            "prefix of the acknowledged history"
        )
        assert recovered.check(check_min_fill=False) == []
