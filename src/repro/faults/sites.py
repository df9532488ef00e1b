"""The catalogue of fault-site names, and arm-time validation.

Fault probes identify themselves with string site names; before this
module existed a typo'd pattern in a plan ("kv.putbatch.submit") armed
successfully and then never fired — a silent no-op that looks exactly
like "the system survived the fault".  :func:`validate_pattern` closes
that hole: :meth:`FaultRegistry.arm` rejects patterns that cannot match
any site the stack actually probes.

``KNOWN_SITES`` is the hand-maintained list of every static site name in
the tree (``tests/faults/test_sites.py`` greps the source to keep it
honest).  A few sites are built dynamically — per-link PCIe transfer
probes are ``f"{link.name}.transfer"`` — so any name ending in a
``DYNAMIC_SUFFIXES`` entry is accepted too.
"""

from __future__ import annotations

from fnmatch import fnmatchcase

__all__ = ["KNOWN_SITES", "DYNAMIC_SUFFIXES", "UnknownSiteError",
           "validate_pattern", "matching_sites"]

KNOWN_SITES = frozenset({
    # device/nand.py — f"nand.{op}"
    "nand.read", "nand.program", "nand.erase",
    # device/pcie.py — f"{name}.transfer"; the default link name is
    # "pcie", other names are covered by the dynamic suffix.
    "pcie.transfer",
    # device/kv_dev.py — the three write verbs' pairs are
    # f"kv.{verb}.submit" / f"kv.{verb}.complete"
    "kv.put.submit", "kv.put.complete",
    "kv.put_batch.submit", "kv.put_batch.complete",
    "kv.delete.submit", "kv.delete.complete",
    "kv.get.submit",
    "kv.bulk_scan.start", "kv.bulk_scan.complete",
    "kv.reset.start", "kv.reset.complete",
    # device/devlsm.py
    "devlsm.put.applied", "devlsm.flush.start", "devlsm.flush.complete",
    "devlsm.get", "devlsm.reset",
    # lsm/fs.py + lsm/wal.py
    "fs.append.alloc", "fs.append.complete", "fs.read.start",
    "wal.segment.switch", "wal.append",
    "wal.flush.start", "wal.flush.complete",
    # lsm/db.py
    "db.write.gate", "db.write.applied", "db.memtable.seal",
    "db.flush.start", "db.flush.install",
    "db.compact.start", "db.compact.install",
    "db.bg_error.set", "db.resume",
    # core/controller.py + core/rollback.py + core/recovery.py
    "ctl.put.redirect", "ctl.put.normal",
    "ctl.delete.redirect", "ctl.delete.normal",
    "ctl.get.dev", "ctl.get.main",
    "rollback.start", "rollback.scan.done", "rollback.merge.batch",
    "rollback.metadata.cleared", "rollback.complete",
    "recovery.start", "recovery.scan.done", "recovery.merge.batch",
    "recovery.complete",
    # resil/degrade.py + core/controller.py fallback path
    "resil.healthy.enter", "resil.recovering.enter", "resil.degraded.enter",
    "resil.fallback",
    # cluster/replica.py — replication link, apply paths, failure detector
    # and the promotion protocol (the replication pipe itself is a PcieLink
    # named "shard<N>.repl", so it also probes the dynamic
    # "shard<N>.repl.transfer" site per frame).
    "repl.link.send", "repl.apply", "repl.ship.install",
    "repl.primary.kill", "repl.heartbeat.miss",
    "repl.failover.start", "repl.catchup.start", "repl.catchup.batch",
    "repl.promote", "repl.failover.complete",
    # cluster/cluster.py — live resharding (router seed bump + migration)
    "reshard.start", "reshard.migrate.batch", "reshard.forward.read",
    "reshard.complete",
})

# Site-name families built at runtime: any name with one of these suffixes
# is a real probe even if not listed above (e.g. "host-link.transfer").
DYNAMIC_SUFFIXES = (".transfer",)

_GLOB_CHARS = set("*?[")


class UnknownSiteError(ValueError):
    """An armed pattern cannot match any fault site in the stack."""

    def __init__(self, pattern: str):
        super().__init__(
            f"fault pattern {pattern!r} matches no known fault site "
            f"(typo'd sites silently never fire; pass validate=False to "
            f"arm a site outside the built-in stack)")
        self.pattern = pattern


def matching_sites(pattern: str) -> list[str]:
    """Known static sites the glob ``pattern`` matches."""
    return sorted(s for s in KNOWN_SITES if fnmatchcase(s, pattern))


def validate_pattern(pattern: str) -> None:
    """Raise :class:`UnknownSiteError` unless ``pattern`` can fire.

    Exact names must be a known site or carry a dynamic suffix; glob
    patterns must match at least one known site (a glob aimed only at a
    dynamic family, e.g. ``"mylink.*"``, cannot be proven reachable and
    is rejected — arm the full dynamic name instead).
    """
    if not _GLOB_CHARS.isdisjoint(pattern):
        if matching_sites(pattern):
            return
        raise UnknownSiteError(pattern)
    if pattern in KNOWN_SITES or pattern.endswith(DYNAMIC_SUFFIXES):
        return
    raise UnknownSiteError(pattern)
