"""Regression: a rollback still in flight at the run's horizon tears down
cleanly.

``run_workload`` closes every open span at end-of-run; the suspended
``rollback_once`` generator is finalized later (garbage collection) and its
``finally`` used to end the already-closed span again — one ignored
``RuntimeError: span already closed`` on stderr per traced cell.
"""

import gc
import sys

from repro.bench.profiles import get_profile
from repro.bench.runner import RunSpec, run_workload
from repro.obs import Tracer


def _run_traced_cell():
    """Run the cell; return (rollback span args, completed rollbacks) and
    drop every reference to the world so it can be finalized."""
    profile = get_profile("mini128")
    spec = RunSpec("kvaccel", "A", seed=1, rollback="eager",
                   duration=profile.duration * 0.25)
    tracer = Tracer()
    result = run_workload(spec, profile, tracer=tracer)
    return ([sp.args or {} for sp in tracer.spans("rollback")],
            result.extra["rollbacks"])


def test_traced_eager_rollback_cell_reaches_horizon_without_unraisables(
        monkeypatch, capfd):
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook",
                        lambda u: unraisable.append(repr(u.exc_value)))
    span_args, completed = _run_traced_cell()
    assert completed, "cell must roll back"
    # The horizon cuts the last rollback mid-flight: its span was closed by
    # the end-of-run sweep, not by rollback_once.
    assert len(span_args) == completed + 1
    assert "entries" not in span_args[-1]

    gc.collect()            # finalize the suspended rollback generator
    assert unraisable == []
    assert capfd.readouterr().err == ""
