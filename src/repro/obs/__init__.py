"""Observability: sim-time tracing, telemetry, and trace exporters.

``repro.obs`` mirrors the fault registry's installation pattern: a plane
is attached to the simulation :class:`~repro.sim.Environment` by its
``install`` (``tracer.install(env)``), which binds the verbs it consumes on
``env.probes`` to its own methods.  The stack calls those verbs at every
site without testing for a plane; an unclaimed verb is a do-nothing
function, so production simulations are bit-identical with every plane off
and pay one no-op call per visit.

Pieces:

* :class:`Tracer` — nestable sim-time **spans** (``write``, ``flush``,
  ``compaction[Lx->Ly]``, ``rollback.eager``, ``nand.program``, ...) and
  point **instants** (stall enter/exit, detector verdicts, slowdown rate
  changes, interface switches), timestamped from the DES clock;
* exporters — Chrome ``trace_event`` JSON (open in Perfetto or
  ``chrome://tracing``) and a human stall attribution report
  (``python -m repro.obs report trace.json``);
* :class:`TelemetryHub` — unified per-second time-series channels every
  layer publishes into (``env.probes.add``);
* :class:`HealthMonitor` + :func:`default_rules` — windowed SLO
  predicates (stall storms, zero-traffic-while-stalled, ...) emitting
  typed :class:`HealthEvent` edges;
* a terminal sparkline dashboard of the telemetry (``python -m repro.obs
  dash``), and the exact compare of
  ``BENCH_<exp>.json`` determinism pins (``python -m repro.obs compare
  A.json B.json``; the format lives in :mod:`repro.bench.baseline`);
* :class:`Journal` — the deterministic flight recorder (``env.journal``):
  every executed kernel event, every fault-site visit,
  periodic per-layer state digests; with the first-divergence bisector
  (``python -m repro.obs diff A.jsonl.gz B.jsonl.gz``) it turns a golden
  mismatch into "first divergent event at t=…, process=…, site=…".
"""

from .attribution import (
    StallAttribution,
    attribution_report,
    stall_attribution,
    top_spans,
)
from .export import (
    chrome_trace_events,
    load_chrome_trace,
    spans_from_chrome,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from .profiler import (
    DEFAULT_BANDS,
    LINEAGE_SCHEMA,
    SEGMENTS,
    LineageProfiler,
    check_lineage_invariant,
    lineage_report,
    percentile_bands,
)
from .journal import (
    Journal,
    digest_state,
    first_divergence,
    format_divergence,
    load_journal,
    register_digest_sources,
    replay_window,
    write_divergence_artifact,
    write_journal,
)
from .rules import (
    HealthEvent,
    HealthMonitor,
    HealthRule,
    cluster_shard_rules,
    default_rules,
)
from .telemetry import Channel, TelemetryHub
from .tracer import CounterRecord, InstantRecord, SpanRecord, Tracer

__all__ = [
    "Tracer",
    "SpanRecord",
    "InstantRecord",
    "CounterRecord",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "spans_from_chrome",
    "validate_chrome_trace",
    "StallAttribution",
    "stall_attribution",
    "attribution_report",
    "top_spans",
    "Channel",
    "TelemetryHub",
    "HealthEvent",
    "HealthRule",
    "HealthMonitor",
    "default_rules",
    "cluster_shard_rules",
    "LineageProfiler",
    "SEGMENTS",
    "DEFAULT_BANDS",
    "LINEAGE_SCHEMA",
    "percentile_bands",
    "lineage_report",
    "check_lineage_invariant",
    "Journal",
    "digest_state",
    "register_digest_sources",
    "write_journal",
    "load_journal",
    "first_divergence",
    "format_divergence",
    "write_divergence_artifact",
    "replay_window",
]
