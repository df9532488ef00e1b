"""Failover determinism: same seed, same bytes; a perturbed replication
link is *named* by the bisector.

Three recordings of the full failover story (client workload, armed
CRASH on the primary's write path, heartbeat detection, catch-up,
promotion) with the flight recorder on:

* two clean runs with the same seed must produce **byte-identical**
  journal files — the whole point of running failover inside the DES;
* a third run with one extra DELAY armed on the replication link
  diverges, and ``python -m repro.obs diff``'s first-divergence report
  names a ``repl.*`` site as the suspect — chaos on the replication
  path is attributed to the replication path, not smeared over the
  workload;
* ``REPRO_FAULT_SEED`` reseeds the scenario end to end (the same
  contract the single-node fault harness honors).
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.cluster import REPLAY, run_failover_scenario  # noqa: E402
from repro.faults import (  # noqa: E402
    DELAY,
    FaultAction,
    NthOccurrencePlan,
    fault_seed,
)
from repro.obs.journal import (  # noqa: E402
    first_divergence,
    format_divergence,
    load_journal,
)

OPS = 50


def _delay_replication_link(registry, env, cluster):
    registry.arm("repl.link.send", NthOccurrencePlan(2),
                 FaultAction(DELAY, delay=0.002))


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    d = tmp_path_factory.mktemp("failover_journals")
    paths = {"a": str(d / "a.jsonl.gz"), "b": str(d / "b.jsonl.gz"),
             "perturbed": str(d / "perturbed.jsonl.gz")}
    reports = {
        "a": run_failover_scenario(REPLAY, ops=OPS,
                                   journal_path=paths["a"]),
        "b": run_failover_scenario(REPLAY, ops=OPS,
                                   journal_path=paths["b"]),
        "perturbed": run_failover_scenario(
            REPLAY, ops=OPS, journal_path=paths["perturbed"],
            extra_arms=_delay_replication_link),
    }
    return paths, reports


def test_same_seed_failover_journals_byte_identical(recorded):
    paths, reports = recorded
    assert reports["a"].ok and reports["a"].failovers >= 1, \
        reports["a"].describe()
    ba = Path(paths["a"]).read_bytes()
    bb = Path(paths["b"]).read_bytes()
    assert ba == bb, ("same seed must give byte-identical failover "
                      "journals (promotion included)")
    loaded = load_journal(paths["a"])
    sites = {r[4] for r in loaded["records"] if r[0] == "site"}
    # The promotion choreography is on the record, not just the workload.
    for site in ("repl.primary.kill", "repl.heartbeat.miss",
                 "repl.promote", "repl.failover.complete"):
        assert site in sites, site


def test_bisector_names_the_replication_link(recorded):
    paths, reports = recorded
    assert reports["perturbed"].ok, reports["perturbed"].describe()
    report = first_divergence(load_journal(paths["a"]),
                              load_journal(paths["perturbed"]))
    assert report["divergent"] is True
    assert report["suspect_site"] is not None
    assert report["suspect_site"]["site"].startswith("repl."), \
        format_divergence(report, "clean", "delayed-link")


def test_fault_seed_honors_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SEED", "0xBEEF")
    assert fault_seed() == 0xBEEF
    r = run_failover_scenario(REPLAY, ops=20, kill_site=None)
    assert r.seed == 0xBEEF
    monkeypatch.delenv("REPRO_FAULT_SEED")
    assert fault_seed(7) == 7


def test_malformed_fault_seed_is_an_error_not_the_default_seed(monkeypatch):
    """Replaying a printed seed with a typo must fail loudly: the cluster
    entry point used to swallow it and run ``DEFAULT_SEED`` instead."""
    monkeypatch.setenv("REPRO_FAULT_SEED", "0xC0FFEEZ")
    with pytest.raises(ValueError, match="REPRO_FAULT_SEED"):
        run_failover_scenario(REPLAY, ops=20, kill_site=None)
