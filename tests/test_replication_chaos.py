"""Chaos-soak suite: randomized kill/partition/restart schedules.

Every schedule asserts the two replication guarantees: no acknowledged
write is ever lost, and all replicas converge byte-for-byte with the
final primary (whose directory must also recover to exactly the served
state).

The default run keeps tier-1 fast (a few short schedules); CI fans out
with environment knobs::

    CHAOS_SCHEDULES=10 CHAOS_SEED_OFFSET=40 CHAOS_OPS=1000 pytest ...
"""

from __future__ import annotations

import os

import pytest

from repro.testing.chaos import ChaosConfig, ChaosSoak, run_soak

SCHEDULES = int(os.environ.get("CHAOS_SCHEDULES", "3"))
SEED_OFFSET = int(os.environ.get("CHAOS_SEED_OFFSET", "0"))
OPS = int(os.environ.get("CHAOS_OPS", "300"))


def assert_clean(report) -> None:
    assert report.lost_writes == [], report.summary()
    assert report.divergent_replicas == [], report.summary()
    assert report.invariant_violations == [], report.summary()
    assert report.recovered_matches, report.summary()
    assert report.converged, report.summary()
    assert report.ok


@pytest.mark.parametrize(
    "seed", [SEED_OFFSET + i for i in range(SCHEDULES)]
)
def test_soak_loses_no_acked_write(tmp_path, seed):
    report = run_soak(tmp_path, ChaosConfig(seed=seed, ops=OPS))
    assert_clean(report)
    assert report.ops == OPS


def test_soak_actually_injects_faults(tmp_path):
    """A guard against the harness silently degrading into a calm run:
    with cranked probabilities the counters must show real chaos."""
    config = ChaosConfig(
        seed=1234,
        ops=500,
        event_probability=0.08,
        drop_probability=0.15,
        duplicate_probability=0.15,
    )
    report = run_soak(tmp_path, config)
    assert_clean(report)
    assert report.failovers > 0
    assert report.partitions > 0
    assert report.primary_kills + report.replica_kills > 0
    assert report.injected["repl.transport.drop:drop"] > 0
    assert report.injected["repl.transport.reorder:replay"] > 0
    assert report.fenced_rejects + report.ack_failures > 0
    assert report.final_epoch > 1


def test_soak_without_node_faults_is_lossless_async(tmp_path):
    """With no kills or partitions, asynchronous replication (acks=0)
    is also lossless — only the links misbehave."""
    config = ChaosConfig(
        seed=7,
        ops=400,
        required_acks=0,
        event_probability=0.0,
        drop_probability=0.2,
        duplicate_probability=0.2,
    )
    report = run_soak(tmp_path, config)
    assert_clean(report)
    assert report.failovers == 0
    assert report.acked == report.ops


def test_soak_forces_segment_rotation_and_checkpoints(tmp_path):
    """The stream must survive rotation + checkpoint truncation."""
    config = ChaosConfig(
        seed=11, ops=400, segment_bytes=512, checkpoint_every=60,
        event_probability=0.0,
    )
    soak = ChaosSoak(tmp_path, config)
    report = soak.run()
    assert_clean(report)
    assert report.checkpoints >= 5


def test_report_summary_is_printable(tmp_path):
    report = run_soak(tmp_path, ChaosConfig(seed=SEED_OFFSET, ops=120))
    text = report.summary()
    assert f"seed={SEED_OFFSET}" in text
    assert "acked" in text
