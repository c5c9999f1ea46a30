"""Fixture: fault calls that drift from the registry in ``faults.py``
(same directory).  Seeded violations for ``fault-parity``.  Never
imported."""

from . import faults  # noqa: F401  (fixture only; never executed)


def do_io(name, fh, data, path):
    faults.fire("wal.ok")  # registered control site: fine
    faults.write("io.ok.write", fh, data)  # registered write site: fine
    faults.read_bytes("io.ok.read", path)  # registered read site: fine
    faults.fire("wal.unregistered")  # fire site not registered
    faults.fsync("io.unregistered", fh)  # shim site not registered
    faults.fire(name)  # non-literal: invisible to coverage
    faults.fire("io.ok.read")  # fire on an io-only site
    faults.write("wal.ok", fh, data)  # shim on a control site
    faults.link("repl.link.ok")  # registered link site: fine
    faults.fire("repl.link.ok")  # fire on a link site
