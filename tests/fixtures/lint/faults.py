"""Fixture: fault-site registry with a never-fired control site and a
never-shimmed io site.  Paired with ``caller.py``; seeded violations
for ``fault-parity``.  Never imported."""

CONTROL_SITES = (
    "wal.ok",
    "wal.never_fired",
)
IO_WRITE_SITES = (
    "io.ok.write",
    "io.never_shimmed",
)
IO_READ_SITES = ("io.ok.read",)
