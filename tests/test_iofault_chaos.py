"""Disk-chaos soak: EIO bursts, an ENOSPC window, and one bit-rot event
against a replicated pair under live traffic.

Every schedule asserts the fault-tolerance contract end to end: no
acknowledged write lost, read-only degradation refuses mutations while
reads keep serving, the scrub detects + quarantines the rot, the
replica re-heals from its peer, and the pair converges byte for byte.

The default run keeps tier-1 fast; CI fans out with environment
knobs::

    IOFAULT_SCHEDULES=6 CHAOS_SEED_OFFSET=40 IOFAULT_OPS=900 pytest ...
"""

from __future__ import annotations

import os

import pytest

from repro.testing.chaos import IOFaultConfig, run_iofault_soak

SCHEDULES = int(os.environ.get("IOFAULT_SCHEDULES", "2"))
SEED_OFFSET = int(os.environ.get("CHAOS_SEED_OFFSET", "0"))
OPS = int(os.environ.get("IOFAULT_OPS", "600"))


@pytest.mark.parametrize(
    "seed", [SEED_OFFSET + i for i in range(SCHEDULES)]
)
def test_soak_survives_every_fault_phase(tmp_path, seed):
    report = run_iofault_soak(
        tmp_path, IOFaultConfig(seed=seed, ops=OPS)
    )
    assert report.lost_writes == [], report.summary()
    assert report.divergent_replicas == [], report.summary()
    assert report.invariant_violations == [], report.summary()
    assert report.recovered_matches, report.summary()
    assert report.converged, report.summary()
    # Each phase must have demonstrably bitten — a calm run would
    # vacuously "pass" the guarantees above.
    assert report.health_retries > 0, report.summary()
    assert report.read_only_trips > 0, report.summary()
    assert report.read_only_refusals > 0, report.summary()
    assert report.reads_served_degraded > 0, report.summary()
    assert report.recoveries > 0, report.summary()
    assert report.scrub_corruptions > 0, report.summary()
    assert report.scrub_quarantines > 0, report.summary()
    assert report.peer_repairs > 0, report.summary()
    assert report.ok


def test_report_summary_is_printable(tmp_path):
    report = run_iofault_soak(
        tmp_path, IOFaultConfig(seed=SEED_OFFSET, ops=OPS)
    )
    text = report.summary()
    assert f"seed={SEED_OFFSET}" in text
    assert "acked" in text
    assert "bit-rot" in text
