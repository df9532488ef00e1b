"""Per-layer counters of one cell, read from the program's public outputs:
``RunResult.telemetry`` (TelemetryHub channels), ``extra["kernel_profile"]``
(DES kernel self-profiler), ``extra["snapshot"]`` and ``extra["cluster"]``.

The pass that feeds this runs with the telemetry hub and the kernel
profiler installed; both are passive (they never move a simulated event),
so every count equals the untraced cell's.
"""

from __future__ import annotations


def _channel_totals(telemetry: dict) -> dict:
    """Rate and deriv channels sum over buckets; gauges report their peak
    and keep their mean under ``<name>.mean``."""
    totals = {}
    for name, values in telemetry["channels"].items():
        if telemetry["kinds"][name] == "gauge":
            totals[name] = max(values, default=0.0)
            totals[name + ".mean"] = (sum(values) / len(values)
                                      if values else 0.0)
        else:
            totals[name] = sum(values)
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counters(spec, result) -> dict:
    tel = _channel_totals(result.telemetry)
    kp = result.extra["kernel_profile"]
    snap = result.extra["snapshot"]
    shards = snap["per_shard"] if spec.system == "cluster" else [snap]
    flush_b = tel.get("lsm.flush_bytes", 0.0)
    compact_b = tel.get("lsm.compaction_bytes", 0.0)
    redirected = result.extra.get("redirected_writes", 0)
    out = {
        "sim.wall_us_per_event": _ratio(kp["wall_ns"] / 1e3, kp["heap_pops"]),
        "sim.heap_pushes": kp["heap_pushes"],
        "sim.timeout_pool_hit_rate": kp["timeout_pool_hit_rate"],
        "sim.resource_queued_share": _ratio(kp["resource_queued"],
                                            kp["resource_requests"]),
        "sim.macro_coalesce_factor": kp["macro"]["coalesce_factor"],
        "lsm.flushes": sum(s["flushes"] for s in shards),
        "lsm.compactions": sum(s["compactions"] for s in shards),
        "lsm.flush_bytes": flush_b,
        "lsm.compaction_bytes": compact_b,
        "lsm.write_amp": _ratio(flush_b + compact_b, result.write_bytes),
        "lsm.stall_events": result.stall_events,
        "lsm.slowdown_events": result.slowdown_events,
        "lsm.levels_nonempty": max(sum(1 for n in s["levels"] if n)
                                   for s in shards),
        "device.pcie_tx_bytes": tel.get("pcie.tx_bytes", 0.0),
        "device.pcie_rx_bytes": tel.get("pcie.rx_bytes", 0.0),
        "device.nand_busy_s": tel.get("nand.busy_time", 0.0),
        "device.kv_commands": tel.get("kv.commands", 0.0),
        "device.devlsm_peak_bytes": tel.get("devlsm.bytes", 0.0),
        "core.redirected_writes": redirected,
        "core.redirected_share": _ratio(redirected, result.write_ops),
        "core.rollbacks": result.extra.get("rollbacks", 0),
        "core.rollback_entries": tel.get("rollback.entries", 0.0),
        "core.detector_stall_share": tel.get(
            "detector.stall_condition.mean", 0.0),
        "cluster.shards": len(shards) if spec.system == "cluster" else 0,
        "cluster.shard_imbalance": 0.0,
        "workload.write_ops": result.write_ops,
        "workload.read_ops": result.read_ops,
        "obs.trace_spans": 0,
        "obs.journal_records": 0,
        "obs.lineage_ops": 0,
    }
    if spec.system == "cluster":
        writes = [row["write_ops"]
                  for row in result.extra["cluster"]["per_shard"]]
        out["cluster.shard_imbalance"] = _ratio(
            max(writes), sum(writes) / len(writes))
    tracer = result.extra.get("tracer")
    if tracer is not None:
        out["obs.trace_spans"] = tracer.span_count
    journal = result.extra.get("journal")
    if journal is not None:
        out["obs.journal_records"] = (journal.event_count + journal.site_count
                                      + journal.checkpoint_count)
    lineage = result.extra.get("lineage")
    if lineage is not None:
        out["obs.lineage_ops"] = lineage["op_count"]
    return out
