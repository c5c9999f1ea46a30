"""Run the shipped ``quit-serve serve`` with the benchmark's spans installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_traced.py DUMP.json serve DIR [quit-serve options]

Installs the span wrappers of ``spans.py`` in this process, captures the
backend that ``DurableTree.recover`` returns and the ``QuitServer``
instance, then calls ``repro.net.cli.main`` with the remaining
arguments.  On ``SIGUSR1`` — which the benchmark sends before it kills
the server — and when ``main`` returns, it writes the spans plus the
``TreeStats`` (since recovery), WAL and ``ServerStats`` counters to
``DUMP.json`` (atomically, so the benchmark can poll for the file).
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402

WAL_COUNTERS = ("records_appended", "bytes_appended", "syncs",
                "group_batches", "group_batch_records")


def main(argv: list[str]) -> int:
    dump_path = Path(argv[0])
    tracer = spans.Tracer()
    span_costs_ns = tracer.calibrate()
    captured: dict[str, Any] = {}

    def on_recover(result: Any, _args: tuple, sid: int) -> None:
        durable, report = result
        captured.update(durable=durable, base=durable.stats.snapshot(),
                        recover_sid=sid,
                        records_replayed=report.records_replayed,
                        entries_replayed=report.entries_replayed)

    from repro.core import QuITTree
    from repro.net import cli

    spans.install_tree(tracer, QuITTree)
    spans.install_durable(tracer, on_recover=on_recover)
    spans.install_server(tracer, on_start=lambda s: captured.update(server=s))

    def dump(*_sig: Any) -> None:
        durable = captured.get("durable")
        server = captured.get("server")
        payload = {
            "spans": tracer.spans.to_json(),
            "span_costs_ns": span_costs_ns,
            "tree": (durable.stats.diff(captured["base"]).as_dict()
                     if durable is not None else {}),
            "wal": ({k: getattr(durable.wal, k) for k in WAL_COUNTERS}
                    if durable is not None else {}),
            "server": server.stats.as_dict() if server is not None else {},
            "records_replayed": captured.get("records_replayed", 0),
            "entries_replayed": captured.get("entries_replayed", 0),
        }
        tmp = dump_path.with_name(dump_path.name + ".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, dump_path)

    signal.signal(signal.SIGUSR1, dump)
    code = cli.main(argv[1:])
    dump()
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
