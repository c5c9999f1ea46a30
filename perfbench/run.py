"""The repository's benchmark: one command, two workloads.

    python3 perfbench/run.py --workload tree-nearsorted --seed 1 \\
        --seconds 20 --trace 0

runs one workload against the shipped public API from the root of a
checkout (``src/`` is put on the import path), checks every answer, and
prints, as its last line, one JSON object::

    {"correct": true, "attempted": N, "failed": F,
     "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` an untraced pass runs first, then
a traced pass (spans around the program's public functions, in this
process and in the server), and the metrics are the ``per_layer`` ones.
Times and rates are scaled to a reference host by the yardstick timed
next to each window (``yardstick.py``).  The line before the result is
a diagnostics object: per-window quartiles of every windowed metric,
of the raw rates, and of the yardstick.

A wrong answer prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import estimators  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(m: workloads.Measurements) -> tuple[dict[str, float], dict]:
    """End-to-end metrics of one pass and their per-window quartiles.

    Times and rates are scaled to the reference host of
    ``yardstick.py``; ``raw.*`` in the diagnostics are the rates and
    times as measured on this host."""
    values, windows = {}, {}
    for phase, metric in (("insert", "insert_keys_per_s"),
                          ("get", "lookup_keys_per_s"),
                          ("scan", "scan_keys_per_s")):
        measured = m.windows[phase]
        raw = estimators.window_rates([(s, u) for s, u, _h in measured])
        rates = [yardstick.rate_at_reference(r, host)
                 for r, (_s, _u, host) in zip(raw, measured)]
        values[metric] = statistics.median(rates)
        windows[metric] = rates
        windows[f"raw.{metric}"] = raw
    for kind in ("get", "put"):
        for q in (50, 99):
            name = f"{kind}_p{q}_ms"
            # None (p99 only): the run sent too few requests of this kind
            # for a p99 with ten samples beyond it.
            values[name] = m.latency[kind].median(q)
            windows[name] = m.latency[kind].values[q]
    windows["host.calib_ops_per_s"] = m.calib
    for name, samples in m.durations.items():
        values[name] = statistics.median(
            [yardstick.time_at_reference(t, host) for t, host in samples])
        windows[f"raw.{name}"] = [t for t, _host in samples]
    values["disk_bytes_per_key"] = statistics.median(m.disk_per_key)
    values["peak_rss_mb"] = statistics.median(m.rss_mb)
    diagnostics = {
        name: {"windows": len(w),
               "quartiles": [float(f"{x:.6g}")
                             for x in estimators.quartiles(w)]}
        for name, w in windows.items() if w
    }
    return values, diagnostics


def throughput_index(values: dict[str, float]) -> float:
    """Geometric mean of the three throughputs (trace overhead base)."""
    names = ("insert_keys_per_s", "lookup_keys_per_s", "scan_keys_per_s")
    return math.exp(sum(math.log(values[n]) for n in names) / len(names))


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so every server gets killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workloads.pin(0, workloads.CPU)
    shutil.rmtree(workloads.RUN_DIR, ignore_errors=True)
    workloads.RUN_DIR.mkdir(parents=True)
    run = workloads.WORKLOADS[args.workload]
    try:
        untraced = workloads.Measurements()
        run(untraced, args.seed, args.seconds, None)
        values, diagnostics = end_to_end(untraced)
        calib = statistics.median(untraced.calib)
        attempted, failed = untraced.attempted, untraced.failed
        counters = untraced.counters
        if args.trace:
            served = args.workload in workloads.SERVED
            tracer = spans.Tracer(cpu_clock=time.thread_time_ns if served
                                  else int)
            costs = tracer.calibrate()
            spans.install_client(tracer)
            spans.install_durable(tracer)
            traced = workloads.Measurements()
            # One minimal pass: spans of every call stay in memory.
            run(traced, args.seed, 0, tracer)
            traced_values, _ = end_to_end(traced)
            overhead = (throughput_index(values)
                        / throughput_index(traced_values) - 1)
            latency = {k: values[k] or 0.0 for k in values
                       if k.endswith("p99_ms")}
            values, split = layers.per_layer(untraced, traced, tracer, costs,
                                             calib, overhead)
            values.update(latency)
            diagnostics["trace"] = split
            attempted += traced.attempted
            failed += traced.failed
            counters = traced.counters
    except workloads.WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workloads.RUN_DIR, ignore_errors=True)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": float(value),
                                   "unit": metric["unit"]}
    diagnostics["rounds"] = untraced.rounds
    diagnostics["counters"] = counters
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
