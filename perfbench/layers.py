"""Per-layer metrics of a traced pass.

Layer self times come from the spans that ``spans.py`` recorded in the
benchmark process and in every server process, kept only when a span
began inside a measured phase (all processes read the same monotonic
clock).  On the served workload a layer's self time is CPU time: both
processes share one core, so a span's wall time can hold the other
process's work.  Each span's self time has the tracer's measured
per-span cost taken off.  Counts come from the program's own counters (``TreeStats``,
the WAL, ``ServerStats``) as the traced launcher dumped them.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Any, Sequence

import estimators
import spans as spans_mod
import workloads

#: Layer spans whose self time is CPU of the process that holds the
#: index.  Not the admission span: ``admit`` awaits ``wait_for``, which
#: always yields to the loop, so its span holds other tasks' work too;
#: nor the ticket wait (an executor thread blocked on the group fsync)
#: or the request span.
CPU_SPANS = {
    "net.protocol": ("net.protocol.decode_request",
                     "net.protocol.encode_response"),
    "durable": ("durable.submit_insert", "durable.submit_delete",
                "durable.submit_many"),
    "wal": ("wal.submit_insert", "wal.submit_delete",
            "wal.submit_insert_many"),
    "tree": tuple(f"tree.{m}" for m in spans_mod.TREE_METHODS),
}


class SpanSet:
    """Spans of one process that began inside a measured phase, with
    their wall and CPU self times and the phase each began in.

    ``shared_core``: another busy process ran on this process's core,
    so layer self times are taken from CPU time, not wall time.  Alone
    on its core (the in-process workload), wall time is the more
    precise: the CPU clock is a system call, coarser than the wall
    clock on a 1 µs call."""

    def __init__(self, table: spans_mod.SpanTable, costs: Sequence[float],
                 phases: list[tuple[int, int, str]],
                 shared_core: bool) -> None:
        wall_cost, cpu_cost = costs
        starts = [a for a, _b, _n in phases]
        rows = list(table)
        selfs = estimators.self_times(rows)
        cpu_selfs = estimators.self_cpu(rows, table.cpu_by_sid())
        self.all_rows = rows
        self.rows, self.phase, self.self_ns, self.layer_ns = [], {}, {}, {}
        for r in rows:
            i = bisect.bisect_right(starts, r[2]) - 1
            if i >= 0 and r[2] <= phases[i][1]:
                self.rows.append(r)
                self.phase[r[0]] = phases[i][2]
                self.self_ns[r[0]] = max(0.0, selfs[r[0]] - wall_cost)
                if not shared_core:
                    self.layer_ns[r[0]] = self.self_ns[r[0]]
                elif r[0] in cpu_selfs:
                    self.layer_ns[r[0]] = max(
                        0.0, cpu_selfs[r[0]] - cpu_cost)

    def named(self, *names: str) -> list[tuple]:
        return [r for r in self.rows if r[1] in names]

    def self_total(self, *names: str) -> float:
        """Layer self time of the spans named (see ``shared_core``)."""
        return sum(self.layer_ns.get(r[0], 0.0) for r in self.named(*names))

    def durations(self, *names: str) -> list[float]:
        return [r[3] - r[2] for r in self.named(*names)]


def _pct(values: list[float], q: float, scale: float) -> float:
    return estimators.percentile(values, q) * scale if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tree_metrics(counters: dict, prefix_insert: str,
                 prefix_get: str) -> dict[str, float]:
    c = lambda name, p: counters.get(f"{p}{name}", 0)  # noqa: E731
    inserts = (c("fast_inserts", prefix_insert)
               + c("top_inserts", prefix_insert))
    return {
        "tree.fast_insert_ratio": _ratio(c("fast_inserts", prefix_insert),
                                         inserts),
        "tree.top_inserts": c("top_inserts", prefix_insert),
        "tree.leaf_splits": c("leaf_splits", prefix_insert),
        "tree.variable_splits": c("variable_splits", prefix_insert),
        "tree.redistributions": c("redistributions", prefix_insert),
        "tree.pole_resets": c("pole_resets", prefix_insert),
        "tree.nodes_per_insert": _ratio(
            c("insert_traversal_nodes", prefix_insert), inserts),
        "tree.leaf_accesses_per_lookup": _ratio(
            c("leaf_accesses", prefix_get), c("point_lookups", prefix_get)),
        "tree.batch_fast_segment_ratio": _ratio(
            c("batch_fast_segments", prefix_insert),
            c("batch_segments", prefix_insert)),
        "tree.gap_hit_ratio": _ratio(c("gap_hits", prefix_insert), inserts),
    }


def per_layer(untraced: Any, traced: Any, tracer: spans_mod.Tracer,
              local_costs: Sequence[float], calib: float,
              overhead: float) -> tuple[dict[str, float], dict]:
    """Every per-layer metric, plus a per-phase CPU split for the
    diagnostics line."""
    phases = sorted((a, b, name) for name, runs in traced.phases.items()
                    for a, b, _k in runs)
    served = bool(traced.dumps)
    local = SpanSet(tracer.spans, local_costs, phases, served)
    measured = [d for d in traced.dumps if d["role"] == "measured"]
    recovered = [d for d in traced.dumps if d["role"] == "recovered"]
    server_sets = [SpanSet(spans_mod.SpanTable.from_json(d["spans"]),
                           d["span_costs_ns"], phases, True)
                   for d in traced.dumps]
    # The tree and the WAL live in the server process when served.
    holders = server_sets if served else [local]

    def held_total(*names: str) -> float:
        return sum(s.self_total(*names) for s in holders)

    def server_durations(*names: str) -> list[float]:
        return [d for s in server_sets for d in s.durations(*names)]

    moved = traced.moved
    keys = sum(moved.values())
    inserted, looked_up = moved.get("insert", 0), moved.get("get", 0)
    scanned = moved.get("scan", 0)
    out: dict[str, float] = {
        "tree.insert_ns_per_key": _ratio(
            held_total("tree.insert", "tree.insert_many"), inserted),
        "tree.get_ns_per_key": _ratio(
            held_total("tree.get", "tree.get_many"), looked_up),
        "tree.scan_ns_per_entry": _ratio(held_total("tree.range_iter"),
                                         scanned),
    }
    if served:
        out.update(tree_metrics(traced.counters, "served.", "served."))
    else:
        out.update(tree_metrics(traced.counters, "insert.", "get."))

    wal = {k: sum(d["wal"].get(k, 0) for d in measured)
           for k in ("syncs", "group_batches", "group_batch_records",
                     "bytes_appended")}
    checkpoints = [r[3] - r[2] for s in [local] + server_sets
                   for r in s.all_rows if r[1] == "durable.checkpoint"]
    recover = [r[3] - r[2]
               for d in recovered
               for r in spans_mod.SpanTable.from_json(d["spans"])
               if r[1] == "durable.recover"]
    out.update({
        "wal.submit_ns_per_key": _ratio(
            held_total(*CPU_SPANS["wal"]), inserted if served else 0),
        "durable.submit_self_ns_per_key": _ratio(
            held_total(*CPU_SPANS["durable"]), inserted if served else 0),
        "wal.ticket_wait_ms_p50": _pct(server_durations("wal.ticket_wait"),
                                       50, 1e-6),
        "wal.ticket_wait_ms_p99": _pct(server_durations("wal.ticket_wait"),
                                       99, 1e-6),
        "wal.syncs_per_put": _ratio(wal["syncs"], traced.put_requests),
        "wal.group_batch_mean": _ratio(wal["group_batch_records"],
                                       wal["group_batches"]),
        "wal.bytes_per_user_byte": _ratio(
            wal["bytes_appended"],
            inserted * workloads.USER_BYTES_PER_PAIR if served else 0),
        "durable.recover_s": (statistics.median(recover) / 1e9
                              if recover else 0.0),
        "durable.records_replayed": (recovered[0]["records_replayed"]
                                     if recovered else 0),
        "durable.checkpoint_s": (statistics.median(checkpoints) / 1e9
                                 if checkpoints else 0.0),
    })

    for name in ("encode_request", "decode_response"):
        out[f"net.protocol.{name}_ns_per_key"] = _ratio(
            local.self_total(f"net.protocol.{name}"), keys if served else 0)
    for name in ("decode_request", "encode_response"):
        out[f"net.protocol.{name}_ns_per_key"] = _ratio(
            sum(s.self_total(f"net.protocol.{name}") for s in server_sets),
            keys)
    out["net.protocol.wire_bytes_per_key"] = _ratio(tracer.wire_bytes,
                                                    keys if served else 0)

    admit = server_durations("net.admission.admit")
    out.update({
        "net.admission.admit_us_p50": _pct(admit, 50, 1e-3),
        "net.admission.admit_us_p99": _pct(admit, 99, 1e-3),
        "net.admission.sheds": sum(d["server"].get("net_sheds", 0)
                                   for d in measured),
        "net.admission.inflight_max": max(
            (d["server"].get("net_inflight_max", 0) for d in measured),
            default=0),
    })

    requests = {r[5]: r for s in server_sets
                for r in s.named(spans_mod.REQUEST_SPAN)}
    request_self = [s.self_ns[r[0]] for s in server_sets
                    for r in s.named(spans_mod.REQUEST_SPAN)]
    server_cpu = sum(untraced.server_cpu.values())
    untraced_keys = sum(untraced.moved.values())
    out.update({
        "net.server.request_us_p50": _pct(
            [r[3] - r[2] for r in requests.values()], 50, 1e-3),
        "net.server.request_us_p99": _pct(
            [r[3] - r[2] for r in requests.values()], 99, 1e-3),
        "net.server.self_us_p50": _pct(request_self, 50, 1e-3),
        "net.server.cpu_us_per_key": _ratio(server_cpu * 1e6, untraced_keys),
    })

    client_requests = local.named("net.client.request")
    codec: dict[int, float] = {}
    for r in local.named("net.protocol.encode_request",
                         "net.protocol.decode_response"):
        if r[4] is not None:
            codec[r[4]] = codec.get(r[4], 0.0) + (r[3] - r[2])
    wire = []
    for r in client_requests:
        srv = requests.get(tracer.span_rid.get(r[0]))
        if srv is not None:
            wire.append((r[3] - r[2]) - (srv[3] - srv[2]) - codec.get(r[0], 0))
    out.update({
        "net.client.request_us_p50": _pct(
            [r[3] - r[2] for r in client_requests], 50, 1e-3),
        "net.client.wire_us_p50": _pct(wire, 50, 1e-3),
        "net.client.cpu_us_per_key": _ratio(
            sum(untraced.client_cpu.values()) * 1e6,
            untraced_keys) if served else 0.0,
    })

    # CPU accounting of the process that holds the index, per phase.
    layer_of = {n: layer for layer, names in CPU_SPANS.items() for n in names}
    self_by_phase: dict[str, dict[str, float]] = {}
    for s in holders:
        for r in s.rows:
            layer = layer_of.get(r[1])
            if layer is not None:
                split = self_by_phase.setdefault(s.phase[r[0]], {})
                split[layer] = (split.get(layer, 0.0)
                                + s.layer_ns.get(r[0], 0.0))
    process_cpu = traced.server_cpu if served else traced.client_cpu
    attributed_by_phase = {}
    for phase, runs in traced.phases.items():
        phase_keys = sum(k for _a, _b, k in runs)
        split = {layer: _ratio(self_by_phase.get(phase, {}).get(layer, 0.0)
                               / 1e3, phase_keys) for layer in CPU_SPANS}
        split["process_cpu"] = _ratio(process_cpu.get(phase, 0.0) * 1e6,
                                      phase_keys)
        attributed_by_phase[phase] = {k: round(v, 3) for k, v in split.items()}
    attributed = sum(held_total(*names) for names in CPU_SPANS.values()) / 1e9
    cpu_total = sum(process_cpu.values())
    out.update({
        "host.calib_ops_per_s": calib,
        "trace.unattributed_share": (1 - attributed / cpu_total
                                     if cpu_total else 0.0),
        "trace.overhead": overhead,
        "failed_op_ratio": _ratio(untraced.failed + traced.failed,
                                  untraced.attempted + traced.attempted),
    })
    for k, v in out.items():
        if not math.isfinite(v):
            raise ValueError(f"per-layer metric {k} is {v}")
    return out, {"cpu_us_per_key_by_phase": attributed_by_phase}
