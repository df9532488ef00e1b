"""Bench pin store: ``BENCH_<exp>.json`` determinism pins.

``python -m repro.bench <exp> --json`` summarises every cell of an
experiment into one JSON document — throughput, tail latency, stall
books, kernel events processed, and the per-rule health summary from the
telemetry layer.  Every value is simulated, so the document is the same
on any host; ``python -m repro.obs compare`` checks a fresh one against
the checked-in ``benchmarks/BENCH_<exp>.json`` for exact equality (the
reader and the schema header live in :mod:`repro.obs.compare`).  Host
wall-clock stays out of the document: it is in ``RunResult.extra`` and
is judged by ``benchmarks/e2e``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..obs.compare import SCHEMA_NAME, SCHEMA_VERSION

__all__ = ["SCHEMA_NAME", "SCHEMA_VERSION", "cell_metrics",
           "build_baseline", "write_baseline", "default_baseline_path"]


def cell_metrics(result) -> dict:
    """Flatten one RunResult into the pin's per-cell record."""
    out = {
        "write_throughput_ops": float(result.write_throughput_ops),
        "read_throughput_ops": float(result.read_throughput_ops),
        "write_p99_us": float(result.write_p99_us),
        "total_stall_time": float(result.total_stall_time),
        "stall_events": int(result.stall_events),
        "slowdown_events": int(result.slowdown_events),
        "total_delayed_time": float(result.total_delayed_time),
        "cpu_utilization": float(result.cpu_utilization),
        "efficiency": float(result.efficiency),
        "duration": float(result.duration),
        "write_ops": int(result.write_ops),
        "read_ops": int(result.read_ops),
        "health": {k: int(v) for k, v in result.health_summary().items()},
    }
    # Kernel events the cell scheduled (absent on hand-built results).
    if "events_processed" in result.extra:
        out["events_processed"] = int(result.extra["events_processed"])
    return out


def build_baseline(experiment: str, profile: str, results: dict,
                   checks_passed: bool, quick: bool = False) -> dict:
    """Assemble the document for one experiment's ``{label: RunResult}``."""
    return {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "experiment": experiment,
        "profile": profile,
        "quick": quick,
        "checks_passed": bool(checks_passed),
        "cells": {label: cell_metrics(r)
                  for label, r in sorted(results.items())},
    }


def default_baseline_path(experiment: str,
                          directory: Union[str, Path, None] = None) -> Path:
    base = Path(directory) if directory else Path(".")
    return base / f"BENCH_{experiment}.json"


def write_baseline(doc: dict, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
