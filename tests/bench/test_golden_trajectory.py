"""Pin the exact simulated trajectory of one fig11 cell.

The DES kernel's fast paths (the single-waiter fast slot, the inline
process-resume loop in ``Environment.run``) are allowed to change how
*fast* the simulator runs, never *what* it computes: same-timestamp
scheduling order and interrupt priority are part of the determinism
contract (MODEL.md).
This test locks one full KVAccel cell — every sampled series, latency
percentile, and stall interval — against a JSON snapshot taken before the
fast paths landed.  If it fails, a kernel change altered the trajectory,
not just the wall clock; regenerate only when a *model* change is the
intended cause:

    PYTHONPATH=src python -c "
    import json
    from repro.bench import RunSpec, mini_profile, run_workload
    r = run_workload(RunSpec('kvaccel', 'A', 1, rollback='disabled'),
                     mini_profile(256))
    with open('tests/data/golden_fig11_cell.json', 'w') as fh:
        json.dump(r.to_json(), fh, indent=2, sort_keys=True)
        fh.write('\\n')"
"""

import json
from pathlib import Path

from repro.bench import RunSpec, mini_profile, run_workload
from repro.obs import Journal, write_divergence_artifact

DATA = Path(__file__).resolve().parents[1] / "data"
GOLDEN = DATA / "golden_fig11_cell.json"
GOLDEN_DIGESTS = DATA / "golden_fig11_journal_digests.jsonl"


def _check_fields(produced: dict, golden: dict, journal=None) -> None:
    assert set(produced) == set(golden)
    for field in golden:
        if produced[field] != golden[field]:
            # Point the red check at the evidence: emit the mismatch (and
            # the flight recorder, when one ran) as a divergence artifact.
            # No-op unless REPRO_DIVERGENCE_DIR is set.
            artifact = write_divergence_artifact(
                f"golden_fig11_{field}",
                {"divergent": True, "field": field,
                 "produced": produced[field], "golden": golden[field]},
                journal=journal)
            raise AssertionError(
                f"trajectory diverged in field {field!r} — a kernel or "
                f"model change altered simulation results, not just speed"
                + (f" (divergence artifact: {artifact})" if artifact
                   else ""))


def test_fig11_cell_matches_golden_trajectory():
    result = run_workload(RunSpec("kvaccel", "A", 1, rollback="disabled"),
                          mini_profile(256))
    produced = json.loads(json.dumps(result.to_json()))
    _check_fields(produced, json.loads(GOLDEN.read_text()))


def test_fig11_journal_enabled_run_matches_golden_trajectory():
    """The flight recorder is purely passive: a journal-ENABLED run must
    reproduce the pinned golden bit-identically, and its per-layer digest
    checkpoint stream must match the pinned digest golden record for
    record.  Regenerate the digest pin together with the trajectory pin:

        PYTHONPATH=src python -c "
        import json
        from repro.bench import RunSpec, mini_profile, run_workload
        from repro.obs import Journal
        p = mini_profile(256)
        r = run_workload(RunSpec('kvaccel', 'A', 1, rollback='disabled'),
                         p, journal=Journal(period=p.sample_period))
        with open('tests/data/golden_fig11_journal_digests.jsonl', 'w') as fh:
            for rec in r.extra['journal'].records:
                if rec[0] == 'digest':
                    fh.write(json.dumps(list(rec),
                                        separators=(',', ':')) + '\\n')"
    """
    profile = mini_profile(256)
    result = run_workload(RunSpec("kvaccel", "A", 1, rollback="disabled"),
                          profile,
                          journal=Journal(period=profile.sample_period))
    journal = result.extra["journal"]
    produced = json.loads(json.dumps(result.to_json()))
    _check_fields(produced, json.loads(GOLDEN.read_text()), journal=journal)

    produced_digests = [list(rec) for rec in journal.records
                        if rec[0] == "digest"]
    golden_digests = [json.loads(line) for line in
                      GOLDEN_DIGESTS.read_text().splitlines() if line]
    assert len(produced_digests) == len(golden_digests), (
        f"digest checkpoint count changed: {len(produced_digests)} vs "
        f"golden {len(golden_digests)}")
    for i, (got, want) in enumerate(zip(produced_digests, golden_digests)):
        if got != want:
            artifact = write_divergence_artifact(
                "golden_fig11_digest_stream",
                {"divergent": True, "ordinal": i,
                 "produced": got, "golden": want},
                journal=journal)
            raise AssertionError(
                f"digest stream diverged at checkpoint record #{i}: "
                f"layer {want[3]!r} at t={want[2]} — got {got}"
                + (f" (divergence artifact: {artifact})" if artifact
                   else ""))
