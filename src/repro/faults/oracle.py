"""Differential oracle: an in-memory shadow of every acknowledged write.

The oracle is the ground truth both the crash-point scheduler and the
model-based fault tests check the system against.  It records three
things per user key:

* the **committed** value — the newest acknowledged ``put`` (or ``None``
  after an acknowledged ``delete``);
* the **attempt history** — every value any submitted operation ever
  carried, acked or not (the no-phantom check: nothing outside this set
  may ever be read back);
* the single **in-flight** operation at crash time — the one the crash
  interrupted between submission and acknowledgement.

Crash-consistency contract checked by :meth:`verify`:

1. *Acked-write durability*: each key reads back its committed value —
   except that the in-flight op's value is also legal when the crash hit
   at or after the op's persistence point (``allow_inflight=True``).
2. *No phantom writes*: when the crash site is pre-persistence (site name
   ends in ``.submit``, or any route/decision site), the interrupted op
   must be invisible: only the committed value is legal.

Reads issued while the workload runs are checked inline (strict equality
with the committed view), so divergence is caught at the op that caused
it, not at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

__all__ = ["DifferentialOracle", "Violation"]


@dataclass(frozen=True)
class Violation:
    """One invariant breach found after crash recovery."""

    key: bytes
    got: Optional[bytes]
    allowed: tuple
    kind: str            # "durability" | "phantom"

    def describe(self) -> str:
        return (f"{self.kind}: key={self.key!r} read back {self.got!r}, "
                f"allowed {self.allowed!r}")


class DifferentialOracle:
    """Dict-shadow of acked puts/deletes with in-flight tracking."""

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed
        self.committed: dict[bytes, Optional[bytes]] = {}
        self.history: dict[bytes, set] = {}
        self.inflight: Optional[dict[bytes, Optional[bytes]]] = None
        self.acked_ops = 0
        self.aborted_ops = 0
        self.checked_reads = 0

    # -- write tracking ----------------------------------------------------
    def begin_put(self, key: bytes, value: bytes) -> None:
        self.begin_batch([(key, value)])

    def begin_delete(self, key: bytes) -> None:
        self.begin_batch([(key, None)])

    def begin_batch(self, pairs: list) -> None:
        """Mark a write batch as submitted (``value=None`` = delete)."""
        if self.inflight is not None:
            raise RuntimeError("previous op never acked")
        self.inflight = {}
        for key, value in pairs:
            self.inflight[key] = value
            self.history.setdefault(key, set()).add(value)

    def ack(self) -> None:
        """The in-flight batch completed: fold it into the committed view."""
        if self.inflight is None:
            raise RuntimeError("no op in flight")
        self.committed.update(self.inflight)
        self.acked_ops += 1
        self.inflight = None

    def abort(self) -> None:
        """The in-flight op failed cleanly (e.g. InjectedFault surfaced to
        the caller): it is known not-committed, drop it."""
        self.aborted_ops += 1
        self.inflight = None

    # -- read checking -----------------------------------------------------
    def check_read(self, key: bytes, got: Optional[bytes]) -> None:
        """Inline differential check for a read during the workload."""
        want = self.committed.get(key)
        self.checked_reads += 1
        assert got == want, (
            f"divergence at live read: key={key!r} got={got!r} want={want!r}"
            + (f" (seed={self.seed:#x})" if self.seed is not None else "")
        )

    def check_scan(self, start_key: bytes, rows: list, count: int) -> None:
        """Inline differential check for a range scan during the workload."""
        want = [(k, v) for k, v in sorted(self.committed.items())
                if k >= start_key and v is not None][:count]
        assert rows == want, (
            f"divergence at live scan from {start_key!r}: got {len(rows)} "
            f"rows, want {len(want)}"
        )

    # -- post-recovery verification -----------------------------------------
    def tracked_keys(self) -> list[bytes]:
        return sorted(self.history)

    def expected(self, key: bytes, allow_inflight: bool) -> tuple:
        allowed = [self.committed.get(key)]
        if (allow_inflight and self.inflight is not None
                and key in self.inflight
                and self.inflight[key] not in allowed):
            allowed.append(self.inflight[key])
        return tuple(allowed)

    def verify(self, db, allow_inflight: bool = True) -> Generator:
        """Drive post-recovery point reads of every tracked key; returns
        the list of :class:`Violation` (empty = all invariants hold)."""
        violations: list[Violation] = []
        for key in self.tracked_keys():
            got = yield from db.get(key)
            allowed = self.expected(key, allow_inflight)
            if got in allowed:
                continue
            inflight_val = (self.inflight or {}).get(key, _MISSING)
            kind = ("phantom" if (not allow_inflight and got == inflight_val)
                    else "durability")
            violations.append(Violation(key=key, got=got,
                                        allowed=allowed, kind=kind))
        return violations


_MISSING = object()
