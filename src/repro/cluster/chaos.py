"""Shard-scoped fault injection: aim a registry plan at one shard.

The :class:`~repro.faults.registry.FaultRegistry` is a per-Environment
singleton and fault sites carry fixed names (``kv.put.submit`` fires for
*every* shard's device), so in a cluster an armed plan would storm the
whole fleet.  :class:`ShardScopedPlan` restores isolation: it wraps an
inner plan and consults it only when the site is reached by a process
working on behalf of the target shard — identified by the
``shard<N>.``-prefixed process names the cluster facade and the client
population give every piece of shard work (see
:func:`~repro.cluster.cluster.shard_process_name`), and which each
shard's own KVACCEL daemons inherit from their ``shard<N>``-named db.

Scoping is by the *active process* at the moment the site is hit; hits
from other shards do not advance the inner plan's occurrence-dependent
state (the wrapper keeps its own per-shard occurrence count), so
``NthOccurrencePlan(3)`` scoped to shard 2 means "the 3rd time *shard 2*
reaches this site".  An optional ``op`` narrows the scope further, to
one kind of shard work (``op="wl"`` matches ``shard2.wl*`` but not
``shard2.put_batch`` — or the shard's replication daemons, which is what
keeps a primary-kill fault from also crashing the replica group's link).

Cluster chaos runs are seeded like the single-node fault harness:
through :func:`repro.faults.fault_seed`, which honors
``REPRO_FAULT_SEED``.
"""

from __future__ import annotations

from ..faults.plan import FaultPlan
from ..sim import Environment

__all__ = ["ShardScopedPlan", "arm_shard"]


class ShardScopedPlan(FaultPlan):
    """Delegate to ``inner`` only for hits attributable to shard ``sid``."""

    def __init__(self, env: Environment, sid: int, inner: FaultPlan,
                 op: str = ""):
        self.env = env
        self.prefix = f"shard{sid}.{op}"
        self.inner = inner
        self.scoped_occurrences = 0
        self.foreign_hits = 0

    def _in_scope(self) -> bool:
        proc = self.env.active_process
        name = getattr(proc, "name", None) if proc is not None else None
        return bool(name) and name.startswith(self.prefix)

    def should_fire(self, occurrence: int, now: float) -> bool:
        if not self._in_scope():
            self.foreign_hits += 1
            return False
        self.scoped_occurrences += 1
        return self.inner.should_fire(self.scoped_occurrences, now)

    def __repr__(self) -> str:
        return (f"ShardScopedPlan({self.prefix!r}, {self.inner!r}, "
                f"scoped={self.scoped_occurrences})")


def arm_shard(registry, env: Environment, sid: int, site: str,
              plan: FaultPlan, action, op: str = "", **kw):
    """Arm ``site`` so ``plan``/``action`` apply only to shard ``sid``
    (optionally only its ``op``-named processes).

    Returns the :class:`ShardScopedPlan` wrapper (its ``foreign_hits``
    counter is the cheap way to assert the blast radius stayed put).
    """
    scoped = ShardScopedPlan(env, sid, plan, op=op)
    registry.arm(site, scoped, action, **kw)
    return scoped
