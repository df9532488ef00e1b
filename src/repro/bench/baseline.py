"""Bench pin store: ``BENCH_<exp>.json`` determinism pins.

``python -m repro.bench <exp> --json`` summarises every cell of an
experiment into one JSON document — throughput, tail latency, stall
books, kernel events processed, and the per-rule health summary from the
telemetry layer.  Every value is simulated, so the same code produces
the same document on any host at any ``--jobs``.  ``python -m repro.obs
compare OLD.json NEW.json`` checks two documents for plain equality: a
difference in any field of any cell means the model changed, never
noise.  An intended model change regenerates the checked-in pin with the
command that wrote it.  Host wall-clock stays out of the document: it is
in ``RunResult.extra`` and is judged by ``benchmarks/e2e``.

This module is the format's one owner: header, writer, reader and
compare.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

__all__ = ["SCHEMA_NAME", "SCHEMA_VERSION", "cell_metrics",
           "build_baseline", "write_baseline", "default_baseline_path",
           "load_baseline", "compare_baselines", "format_comparison"]

SCHEMA_NAME = "repro-bench-baseline"
# v3 drops the per-cell host wall-clock fields (wall_clock_s,
# events_per_sec) that v2 carried: every remaining value is simulated.
SCHEMA_VERSION = 3

_MISSING = "<missing>"


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


def load_baseline(path: str) -> dict:
    """Read a pin document; ValueError unless it carries this version's
    header (the file is input from outside the program)."""
    with open(path) as fh:
        doc = json.load(fh)
    if (not isinstance(doc, dict) or doc.get("schema") != SCHEMA_NAME
            or doc.get("version") != SCHEMA_VERSION
            or not isinstance(doc.get("cells"), dict)
            or not all(isinstance(c, dict) for c in doc["cells"].values())):
        raise ValueError(f"{path}: not a {SCHEMA_NAME} v{SCHEMA_VERSION} "
                         f"document")
    return doc


def _field_diffs(where: str, old: dict, new: dict) -> list:
    return [(where, key, old.get(key, _MISSING), new.get(key, _MISSING))
            for key in sorted(set(old) | set(new))
            if old.get(key, _MISSING) != new.get(key, _MISSING)]


def compare_baselines(old_doc: dict, new_doc: dict) -> list:
    """Every difference as ``(cell, field, old, new)``; ``[]`` means the
    documents are equal.

    Header fields report under the cell ``<document>``; a cell present on
    one side only is one ``<cell>`` row, not one row per field.
    """
    old_cells, new_cells = old_doc["cells"], new_doc["cells"]
    diffs = _field_diffs(
        "<document>",
        {k: v for k, v in old_doc.items() if k != "cells"},
        {k: v for k, v in new_doc.items() if k != "cells"})
    for label in sorted(set(old_cells) | set(new_cells)):
        if label not in new_cells:
            diffs.append((label, "<cell>", "present", _MISSING))
        elif label not in old_cells:
            diffs.append((label, "<cell>", _MISSING, "present"))
        else:
            diffs.extend(_field_diffs(label, old_cells[label],
                                      new_cells[label]))
    return diffs


def format_comparison(diffs: list, old_path: str = "old",
                      new_path: str = "new") -> str:
    """Human-readable report; the CLI prints this and exits 1 on any row."""
    lines = [f"pin compare: {old_path} -> {new_path}"]
    for cell, key, old, new in diffs:
        lines.append(f"  ({cell}, {key}): {old!r} -> {new!r}")
    lines.append(f"  {len(diffs)} difference(s)" if diffs else "  equal")
    return "\n".join(lines)
