"""Exact compare of ``BENCH_<exp>.json`` determinism pins.

``python -m repro.obs compare OLD.json NEW.json`` checks two pin
documents (written by ``python -m repro.bench <exp> --json``) for plain
equality.  The simulator is deterministic and the documents carry no
host wall-clock value, so the same code produces the same document on
any host at any ``--jobs``: a difference in any field of any cell means
the model changed, never noise.  An intended model change regenerates
the checked-in pin with the command that wrote it.
"""

from __future__ import annotations

import json

__all__ = ["SCHEMA_NAME", "SCHEMA_VERSION", "load_baseline",
           "compare_baselines", "format_comparison"]

SCHEMA_NAME = "repro-bench-baseline"
# v3 drops the per-cell host wall-clock fields (wall_clock_s,
# events_per_sec) that v2 carried: every remaining value is simulated.
SCHEMA_VERSION = 3

_MISSING = "<missing>"


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
