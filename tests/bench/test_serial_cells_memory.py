"""Cells run one after another do not stack their worlds in memory.

``run_workload`` runs each cell with the cyclic collector paused, and a
finished cell's world is cyclic garbage (its daemons' suspended generators
hold it), so without an explicit collection every world of a serial
experiment stays resident until a full collection happens to run — at
paper scale, gigabytes a cell.  ``run_cells`` frees the previous world
before each cell.
"""

import dataclasses
import gc

from repro.bench import RunSpec, mini_profile
from repro.bench.experiments.common import run_cells
from repro.sim import Environment


def _live_environments() -> int:
    return sum(type(o) is Environment for o in gc.get_objects())


def test_serial_cells_leave_at_most_one_world_alive():
    profile = dataclasses.replace(mini_profile(512), duration=0.2)
    specs = [RunSpec("kvaccel", "A", seed=seed, rollback="eager",
                     label=f"serial-worlds/seed{seed}")
             for seed in (1, 2, 3)]
    gc.collect()
    gc.collect()                    # worlds earlier tests dropped
    before = _live_environments()   # worlds something still holds
    results = run_cells(specs, profile)
    assert list(results) == [s.display for s in specs]
    # The last cell's world is freed before the next cell, not after it.
    assert _live_environments() - before <= 1
