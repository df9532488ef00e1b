"""Live resharding state: which keys moved, and who answers reads
mid-migration (ISSUE 10 tentpole, rebalance half).

A rebalance is a router swap: the cluster atomically repoints
``self.router`` at a new placement (same policy, bumped seed) and spawns
a migration driver that walks each shard's key range and copies the keys
whose owner changed.  :class:`Migration` is the pure bookkeeping that
makes the window between "writes cut over" and "copy finished" correct:

* **writes** route by the *new* placement immediately (the cut-over is
  atomic at the router swap);
* **reads** go to the new owner first; a miss on a *moved, not-yet-dirty*
  key forwards to the old owner (dual-read), because the copy may not
  have arrived yet;
* ``fresh`` records keys written (or deleted) *after* the cut-over — the
  migration driver must never overwrite those with the old shard's stale
  copy, and reads of them must not forward (a fresh delete would
  otherwise resurrect via the old owner);
* ``installing`` is the per-key install barrier: the keys of the copy
  batch currently being written to its destination shard.  A facade
  write to one of those keys *waits* until the install lands, because
  sequence numbers are allocated inside the destination's write path —
  a client write racing an in-flight install could otherwise commit
  first (earlier sequence) and be shadowed by the stale copy landing
  with a later one.  ``fresh`` alone cannot close that window: it is
  checked when the batch is grouped, strictly before the install's own
  sequence allocation.

All sets here are touched synchronously at routing time (pure Python, no
Environment interaction), so a run with no rebalance — where
``ClusterDb._migration`` stays ``None`` — has a bit-identical trajectory
to a build of the tree without this module.
"""

from __future__ import annotations

from .router import HashRouter

__all__ = ["Migration"]


# Keys per source-shard discovery scan.
SCAN_CHUNK = 256
# Moved keys per shard-to-shard copy batch.
MIGRATE_BATCH = 64


class Migration:
    """One in-flight rebalance: old placement, new placement, and the
    dual-read / fresh-write bookkeeping for the window in between."""

    def __init__(self, env, old_router: HashRouter,
                 new_router: HashRouter):
        self.env = env
        self.old_router = old_router
        self.new_router = new_router
        # Keys written through the facade after the cut-over, mapped to
        # their latest value (None = deleted): the new-owner copy is
        # authoritative, the old shard's value is stale.
        self.fresh: dict = {}
        # Keys mid-install on their destination shard (see module doc).
        self.installing: set = set()
        self.moved_keys = 0
        self.scanned_keys = 0
        self.done = False
        self.started_at = env.now
        self.finished_at = None

    def moved(self, key: bytes) -> bool:
        """Did this key's owner change in the rebalance?"""
        return self.old_router.route(key) != self.new_router.route(key)

    def note_write(self, key: bytes, value=None) -> None:
        """Record a post-cut-over write (``value=None`` for deletes);
        only moved keys matter (an unmoved key's single copy is always
        authoritative)."""
        if self.moved(key):
            self.fresh[key] = value

    def forward_read(self, key: bytes) -> bool:
        """Should a new-owner miss on ``key`` fall back to the old owner?

        Yes only while the copy is still running, for keys that moved and
        have *not* been freshly written — a fresh write (or delete)
        supersedes whatever the old shard holds.
        """
        return (not self.done and self.moved(key)
                and key not in self.fresh)

    def report(self) -> dict:
        return {
            "moved_keys": self.moved_keys,
            "scanned_keys": self.scanned_keys,
            "fresh_writes": len(self.fresh),
            "done": self.done,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
