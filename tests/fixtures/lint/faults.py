"""Fixture: fault-site registry with a never-fired control site, a
never-shimmed io site and one link site.  Paired with ``caller.py``;
seeded violations for ``fault-parity``.  Never imported."""

CONTROL_SITES = (
    "wal.ok",
    "wal.never_fired",
)
IO_WRITE_SITES = (
    "io.ok.write",
    "io.never_shimmed",
)
IO_READ_SITES = ("io.ok.read",)
LINK_SITES = ("repl.link.ok",)
