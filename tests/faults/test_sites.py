"""Arm-time site validation and the honesty of the site catalogue."""

import re
from pathlib import Path

import pytest

from repro.faults.plan import AlwaysPlan
from repro.faults.registry import FAIL, FaultAction, FaultRegistry
from repro.faults.sites import (
    DYNAMIC_SUFFIXES,
    KNOWN_SITES,
    UnknownSiteError,
    matching_sites,
    validate_pattern,
)

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

# Site names produced by f-strings rather than literals, per family.
DYNAMIC_FAMILIES = {
    "nand.read", "nand.program", "nand.erase",        # f"nand.{op}"
    "pcie.transfer",                                  # f"{name}.transfer"
    "resil.healthy.enter", "resil.recovering.enter",  # f"resil.{state}.enter"
    "resil.degraded.enter",
    # KvDevice._write spells the write verbs' pair once:
    # f"kv.{verb}.submit" / f"kv.{verb}.complete"
    "kv.put.submit", "kv.put.complete",
    "kv.put_batch.submit", "kv.put_batch.complete",
    "kv.delete.submit", "kv.delete.complete",
}


def _source_literal_sites() -> set:
    # A site is visited as ``<probes>.touch("…")`` / ``<probes>.at("…")``,
    # where <probes> is ``env.probes`` spelled out or a local alias of it.
    pat = re.compile(r'\b(?:p|probes)\.(?:touch|at)\(\s*"([^"{]+)"')
    sites = set()
    for path in SRC.rglob("*.py"):
        for m in pat.finditer(path.read_text(encoding="utf-8")):
            sites.add(m.group(1))
    return sites


# ------------------------------------------------------------ validation
def test_exact_known_site_accepted():
    validate_pattern("kv.put.submit")
    validate_pattern("rollback.complete")


def test_dynamic_suffix_accepted():
    validate_pattern("some-other-link.transfer")


def test_typo_rejected():
    with pytest.raises(UnknownSiteError):
        validate_pattern("kv.putbatch.submit")     # the original bug
    with pytest.raises(UnknownSiteError):
        validate_pattern("wal.appendx")


def test_glob_must_match_some_site():
    validate_pattern("kv.*.submit")
    validate_pattern("rollback.*")
    with pytest.raises(UnknownSiteError):
        validate_pattern("kvx.*")
    with pytest.raises(UnknownSiteError):
        validate_pattern("mylink.*")     # dynamic family globs rejected


def test_matching_sites_lists_expansion():
    got = matching_sites("kv.*.submit")
    assert "kv.put.submit" in got
    assert "kv.put_batch.submit" in got
    assert got == sorted(got)


# ------------------------------------------------------------- arm hook
def test_arm_rejects_unknown_site():
    reg = FaultRegistry(seed=1)
    with pytest.raises(UnknownSiteError):
        reg.arm("kv.putbatch.submit", AlwaysPlan(), FaultAction(FAIL))


def test_arm_escape_hatch():
    reg = FaultRegistry(seed=1)
    reg.arm("totally.synthetic.site", AlwaysPlan(), FaultAction(FAIL),
            validate=False)


# ---------------------------------------------------- catalogue honesty
def test_every_source_literal_is_catalogued():
    missing = _source_literal_sites() - KNOWN_SITES
    assert not missing, f"probe sites missing from KNOWN_SITES: {missing}"


def test_no_stale_catalogue_entries():
    stale = KNOWN_SITES - _source_literal_sites() - DYNAMIC_FAMILIES
    assert not stale, f"KNOWN_SITES entries with no probe in src: {stale}"


def test_dynamic_suffixes_documented():
    assert ".transfer" in DYNAMIC_SUFFIXES


# ------------------------------------------------------- one probe idiom
# The stack calls its verbs on ``env.probes`` unconditionally.  What may
# still test a plane (or a span ``begin`` returned), each for its reason:
PLANE_TESTS = {
    # Construction-time channel/gauge declaration with callbacks (set-up,
    # not a visit): nine ``if tel is not None:`` blocks ...
    "lsm/write_controller.py": 1, "lsm/db.py": 1, "core/controller.py": 1,
    "core/detector.py": 1, "device/nand.py": 1, "device/pcie.py": 1,
    "device/devlsm.py": 1, "resil/degrade.py": 1,
    # ... the ninth, plus rollback_once's ``finally`` closing a span an
    # abort left open.
    "core/rollback.py": 2,
    # Two registration functions (``if tel is None: return``) and _spawn,
    # which wraps the shard generator only under lineage (the wrap is an
    # extra frame on every resume).
    "cluster/cluster.py": 3,
    # A span argument that walks every scanned entry.
    "device/kv_dev.py": 1,
    # The scenario driver owns the journal it installs (a local variable).
    "cluster/scenario.py": 2,
}
STACK = ("lsm", "core", "device", "resil", "cluster", "workload", "adoc")


def test_stack_tests_no_plane_outside_the_listed_exceptions():
    pat = re.compile(
        r"(?:faults|tracer|telemetry|lineage|journal) is (?:not )?None"
        r"|\b(?:tr|tel|lp|_sp) is (?:not )?None")
    found = {}
    for pkg in STACK:
        for path in sorted((SRC / pkg).rglob("*.py")):
            n = len(pat.findall(path.read_text(encoding="utf-8")))
            if n:
                found[path.relative_to(SRC).as_posix()] = n
    assert found == PLANE_TESTS
    assert sum(found.values()) == 16


def test_stack_reaches_sites_only_through_probes():
    # No stack module imports or calls the registry's free functions.
    pat = re.compile(r"\bfault_point\b|(?<![\w.])touch\(|import[^\n]*\btouch\b")
    users = [path.relative_to(SRC).as_posix()
             for pkg in STACK for path in sorted((SRC / pkg).rglob("*.py"))
             if pat.search(path.read_text(encoding="utf-8"))]
    assert users == []
