"""Cells run one after another do not stack their worlds in memory.

``run_workload`` runs each cell with the cyclic collector paused, and a
finished cell's world is cyclic garbage (its daemons' suspended generators
hold it), so without an explicit collection every world of a serial
experiment stays resident until a full collection happens to run — at
paper scale, gigabytes a cell.  ``run_cells`` frees the previous world
before each cell, and a result keeps its observability planes (telemetry
hub, health monitor, tracer, journal) without the world they observed.
"""

import dataclasses
import gc

import pytest

from repro.bench import RunSpec, mini_profile
from repro.bench.experiments.common import run_cells
from repro.bench.runner import RunOptions
from repro.sim import Environment


def _live_environments() -> int:
    return sum(type(o) is Environment for o in gc.get_objects())


def _worlds_left(options=None, collect=False) -> int:
    """Worlds alive after three tiny serial cells, beyond those before;
    with ``collect``, only the worlds something still holds."""
    profile = dataclasses.replace(mini_profile(512), duration=0.2)
    specs = [RunSpec("kvaccel", "A", seed=seed, rollback="eager",
                     label=f"serial-worlds/seed{seed}")
             for seed in (1, 2, 3)]
    gc.collect()
    gc.collect()                    # worlds earlier tests dropped
    before = _live_environments()   # worlds something still holds
    results = run_cells(specs, profile, options)
    assert list(results) == [s.display for s in specs]
    if collect:
        gc.collect()
        gc.collect()
    return _live_environments() - before


def test_serial_cells_leave_at_most_one_world_alive():
    # The last cell's world is freed before the next cell, not after it.
    assert _worlds_left() <= 1


@pytest.mark.parametrize("plane", ["telemetry", "trace", "journal"])
def test_results_keep_their_planes_not_their_worlds(plane, tmp_path):
    """Each result holds its live plane (``extra["telemetry_hub"]`` and
    ``["health_monitor"]``, ``["tracer"]``, ``["journal"]``); once the run
    is over, the plane lets go of the Environment."""
    options = {
        "telemetry": RunOptions(telemetry=True),
        "trace": RunOptions(trace_path=str(tmp_path / "t.json")),
        "journal": RunOptions(journal_path=str(tmp_path / "j.jsonl.gz")),
    }[plane]
    assert _worlds_left(options, collect=True) == 0
