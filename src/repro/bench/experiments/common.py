"""Shared helpers for the experiment modules."""

from __future__ import annotations

import gc
import multiprocessing
from pathlib import PurePath
from typing import Optional

from ...obs import Journal, Tracer, write_chrome_trace, write_journal
from ..profiles import ExperimentProfile, active_profile, mini_profile
from ..runner import LIVE_EXTRA_KEYS, RunOptions, run_workload

__all__ = ["resolve_profile", "run_cells", "splice_path"]


def resolve_profile(profile: Optional[ExperimentProfile],
                    quick: bool) -> ExperimentProfile:
    """Default profile selection: explicit > REPRO_PROFILE > mini64.

    ``quick=True`` swaps in the 4x-faster mini256 profile (used by CI-style
    runs and the test suite; shapes hold, statistics are noisier).
    """
    if profile is not None:
        return profile
    if quick:
        return mini_profile(256)
    return active_profile()


def splice_path(base: str, default_ext: str, *tags: str) -> str:
    """``base`` with ``.<tag>`` for each of ``tags`` spliced in before its
    extension (the compound ``.jsonl.gz`` counts as one), or appended
    together with ``default_ext`` when it has none.  Characters of a tag
    other than letters, digits, ``-`` and ``_`` become ``_``, so a cell
    label is a safe file-name part."""
    tag = ".".join("".join(c if c.isalnum() or c in "-_" else "_" for c in t)
                   for t in tags)
    ext = (".jsonl.gz" if base.endswith(".jsonl.gz")
           else PurePath(base).suffix)
    if not ext:
        return f"{base}.{tag}{default_ext}"
    return f"{base[:-len(ext)]}.{tag}{ext}"


def _run_cell(payload):
    """Run one cell and write its per-cell trace and journal files, named
    from the cell's position ``idx`` in its experiment's spec order."""
    idx, spec, profile, options = payload
    # Free the world of the cell this process ran before.  A dropped world
    # is cyclic (its daemons' suspended generators hold it) and only a
    # full collection frees it, which may not come for many cells.  The
    # first pass runs those generators' finalizers, which resurrect the
    # world; the second frees it.  Not inside run_workload, which is timed.
    gc.collect()
    gc.collect()
    tracer = Tracer() if options.trace_path is not None else None
    journal = (Journal(period=profile.sample_period)
               if options.journal_path is not None else None)
    result = run_workload(spec, profile, tracer=tracer,
                          telemetry=options.telemetry,
                          lineage=options.lineage, journal=journal)
    tags = (f"{idx + 1:02d}", spec.display)
    if tracer is not None:
        path = splice_path(options.trace_path, ".json", *tags)
        write_chrome_trace(tracer, path, label=spec.display)
        result.extra["trace_path"] = path
    if journal is not None:
        path = splice_path(options.journal_path, ".jsonl.gz", *tags)
        write_journal(journal, path,
                      meta={"cell": spec.display, "seed": spec.seed,
                            "profile": profile.name})
        result.extra["journal_path"] = path
    return result


def _cell_worker(payload):
    """Run one cell in a worker process (module-level for picklability).

    Live objects (:data:`LIVE_EXTRA_KEYS`: tracer, telemetry hub, health
    monitor, journal) hold Environment references or generators and
    cannot cross the process boundary; the data they back
    (``result.telemetry``, ``result.health_events``, the written trace
    file) already lives on the RunResult, so workers strip the objects.
    """
    result = _run_cell(payload)
    for key in LIVE_EXTRA_KEYS:
        result.extra.pop(key, None)
    return payload[0], result


def run_cells(specs: list, profile: ExperimentProfile,
              options: Optional[RunOptions] = None) -> dict:
    """Run every spec and key results by display label.

    With ``options.jobs > 1`` independent cells fan out over worker
    processes.  Each cell is a self-contained simulation with its own
    Environment and seed, so the per-cell results — and therefore the
    merged dict, which is always assembled in spec order — are identical
    to a serial run (modulo the wall-clock fields in ``extra``).  Each
    cell's trace and journal are written by the process that ran it.
    """
    if options is None:
        options = RunOptions()
    payloads = [(i, spec, profile, options) for i, spec in enumerate(specs)]
    if options.jobs > 1 and len(specs) > 1:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        with ctx.Pool(processes=min(options.jobs, len(specs))) as pool:
            done = pool.map(_cell_worker, payloads)
        # map() preserves submission order; key by spec order explicitly
        # anyway so completion order can never leak into the output.
        by_index = dict(done)
        return {spec.display: by_index[i] for i, spec in enumerate(specs)}
    return {spec.display: _run_cell(payload)
            for spec, payload in zip(specs, payloads)}
