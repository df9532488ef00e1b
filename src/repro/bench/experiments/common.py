"""Shared helpers for the experiment modules."""

from __future__ import annotations

import multiprocessing
from typing import Optional

from ..profiles import ExperimentProfile, active_profile, mini_profile
from ..runner import LIVE_EXTRA_KEYS, RunOptions, RunSpec, run_workload

__all__ = ["resolve_profile", "run_cells"]


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


def _cell_worker(payload):
    """Run one cell in a worker process (module-level for picklability).

    Live objects (:data:`LIVE_EXTRA_KEYS`: tracer, telemetry hub, fleet and
    per-shard health monitors, journal) hold Environment references or
    generators and cannot cross the process boundary; the data they back
    (``result.telemetry``, ``result.health_events``, the written trace
    file) already lives on the RunResult, so workers strip the objects.
    """
    idx, spec, profile, options = payload
    result = run_workload(spec, profile, options=options, cell_index=idx)
    for key in LIVE_EXTRA_KEYS:
        result.extra.pop(key, None)
    return idx, result


def run_cells(specs: list, profile: ExperimentProfile,
              options: Optional[RunOptions] = None) -> dict:
    """Run every spec and key results by display label.

    With ``options.jobs > 1`` independent cells fan out over worker
    processes.  Each cell is a self-contained simulation with its own
    Environment and seed, so the per-cell results — and therefore the
    merged dict, which is always assembled in spec order — are identical
    to a serial run (modulo the wall-clock fields in ``extra``).
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
    results = {}
    for i, spec in enumerate(specs):
        results[spec.display] = run_workload(spec, profile, options=options,
                                             cell_index=i)
    return results
