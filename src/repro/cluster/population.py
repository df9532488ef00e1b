"""Client-population model: open-loop multi-tenant traffic for a cluster.

A :class:`ClientPopulation` is a set of tenants, each an independent
open-loop arrival process: inter-arrival times are exponential around the
tenant's (time-varying) target rate, and an arriving op is spawned as its
own process rather than awaited — a slow shard therefore builds *queueing*
(rising in-flight count, fattening tails) instead of silently throttling
the source, which is exactly the difference between closed-loop db_bench
drivers and a serving fleet (and why tenant isolation is measurable at
all: arrivals to healthy shards do not slow down when one shard stalls).

Determinism contract (MODEL.md "Cluster clock"): one ``random.Random``
stream per tenant, seeded from ``(population seed, tenant name)``; key
choice, arrival jitter and op mix all draw from that stream only, so
adding a tenant never perturbs another tenant's schedule.

Skew comes from ``repro.workload.keygen`` (:class:`ZipfianKeys`,
:class:`HotspotKeys`, :class:`RandomKeys`); traffic shape is a pure
multiplier on the base rate:

* ``steady``  — constant;
* ``diurnal`` — sinusoid with configurable period/amplitude (day/night);
* ``flash``   — steady with a flash-crowd window at ``flash_at`` lasting
  ``flash_duration`` at ``flash_factor`` times the base rate.

Per-tenant token buckets model admission control: an arrival that finds
the bucket empty is *rejected* (counted, never issued), the standard
open-loop shed policy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Generator, Optional

from ..metrics import LatencyHistogram
from ..sim import Environment
from ..workload import HotspotKeys, RandomKeys, ZipfianKeys, value_for
from .cluster import ClusterDb, shard_process_name

__all__ = ["TenantSpec", "TokenBucket", "ClientPopulation",
           "TRAFFIC_SHAPES", "KEY_SKEWS"]

TRAFFIC_SHAPES = ("steady", "diurnal", "flash")
KEY_SKEWS = ("uniform", "zipfian", "hotspot")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: who they are and how they drive the cluster."""

    name: str
    rate: float = 1000.0            # mean arrivals/sec (open loop)
    write_fraction: float = 1.0     # rest are point reads
    skew: str = "zipfian"           # uniform | zipfian | hotspot
    theta: float = 0.99             # zipfian skew parameter
    hot_fraction: float = 0.01      # hotspot: size of the hot set
    hot_mass: float = 0.9           # hotspot: probability mass on it
    shape: str = "steady"           # steady | diurnal | flash
    diurnal_period: float = 2.0     # sim-seconds per day
    diurnal_amplitude: float = 0.8  # peak/trough swing, in (0, 1]
    flash_at: float = 0.5           # flash-crowd start (sim-seconds)
    flash_duration: float = 0.25
    flash_factor: float = 5.0
    rate_limit: Optional[float] = None   # token-bucket ops/sec (None = off)
    burst: float = 100.0                 # token-bucket capacity

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if self.skew not in KEY_SKEWS:
            raise ValueError(f"skew must be one of {KEY_SKEWS}")
        if self.shape not in TRAFFIC_SHAPES:
            raise ValueError(f"shape must be one of {TRAFFIC_SHAPES}")
        if not 0.0 < self.diurnal_amplitude <= 1.0:
            raise ValueError("diurnal_amplitude must be in (0, 1]")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError("rate_limit must be positive when set")

    def multiplier(self, t: float) -> float:
        """Traffic-shape rate multiplier at simulated time ``t`` (pure)."""
        if self.shape == "diurnal":
            phase = 2.0 * math.pi * t / self.diurnal_period
            return max(0.05, 1.0 + self.diurnal_amplitude * math.sin(phase))
        if self.shape == "flash":
            if self.flash_at <= t < self.flash_at + self.flash_duration:
                return self.flash_factor
            return 1.0
        return 1.0


class TokenBucket:
    """Deterministic token bucket refilled lazily from simulated time."""

    __slots__ = ("rate", "burst", "tokens", "_last")

    def __init__(self, rate: float, burst: float, now: float = 0.0):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last = now

    def try_take(self, now: float, n: float = 1.0) -> bool:
        self.tokens = min(self.burst,
                          self.tokens + (now - self._last) * self.rate)
        self._last = now
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False


class _TenantState:
    """Runtime counters for one tenant (all pure-Python bookkeeping)."""

    def __init__(self, spec: TenantSpec, rng: random.Random, keys,
                 bucket: Optional[TokenBucket], shards: int):
        self.spec = spec
        self.rng = rng
        self.keys = keys
        self.bucket = bucket
        self.issued = 0
        self.completed = 0
        self.rejected = 0           # token bucket said no
        self.errors = 0             # op raised (degraded shard, etc.)
        self.inflight = 0
        self.write_hist = LatencyHistogram()
        self.read_hist = LatencyHistogram()
        self.shard_ops = [0] * shards

    def report(self) -> dict:
        return {
            "tenant": self.spec.name,
            "issued": self.issued,
            "completed": self.completed,
            "rejected": self.rejected,
            "errors": self.errors,
            "inflight": self.inflight,
            "shard_ops": list(self.shard_ops),
            "write_latency": (self.write_hist.summary()
                              if self.write_hist.total_count else None),
            "read_latency": (self.read_hist.summary()
                             if self.read_hist.total_count else None),
        }


class ClientPopulation:
    """Drive a :class:`ClusterDb` with N open-loop tenants."""

    def __init__(self, env: Environment, cluster: ClusterDb,
                 tenants: list, duration: float,
                 key_space: int = 1 << 16, key_size: int = 4,
                 value_size: int = 128, seed: int = 1):
        if not tenants:
            raise ValueError("population needs at least one tenant")
        self.env = env
        self.cluster = cluster
        self.duration = duration
        self.key_space = key_space
        self.key_size = key_size
        self.value_size = value_size
        self.seed = seed
        self.states = [self._make_state(spec) for spec in tenants]

    def _make_state(self, spec: TenantSpec) -> _TenantState:
        # One stream per tenant, seeded by (population seed, tenant name):
        # the determinism contract MODEL.md pins.
        rng = random.Random(f"{self.seed}:pop:{spec.name}")
        key_seed = rng.randrange(1 << 62)
        if spec.skew == "zipfian":
            keys = ZipfianKeys(self.key_space, self.key_size,
                               theta=spec.theta, seed=key_seed)
        elif spec.skew == "hotspot":
            keys = HotspotKeys(self.key_space, self.key_size,
                               hot_fraction=spec.hot_fraction,
                               hot_mass=spec.hot_mass, seed=key_seed)
        else:
            keys = RandomKeys(self.key_space, self.key_size, seed=key_seed)
        bucket = (TokenBucket(spec.rate_limit, spec.burst, now=self.env.now)
                  if spec.rate_limit is not None else None)
        return _TenantState(spec, rng, keys, bucket,
                            self.cluster.shard_count)

    # -- op execution --------------------------------------------------------
    def _op(self, state: _TenantState, key: bytes,
            is_write: bool) -> Generator:
        t0 = self.env.now
        try:
            if is_write:
                yield from self.cluster.put(
                    key, value_for(key, self.value_size))
            else:
                yield from self.cluster.get(key)
        except Exception:
            # A degraded shard refusing work is a tenant-visible error,
            # not a population crash — isolation asserts count them.
            state.errors += 1
        else:
            state.completed += 1
            hist = state.write_hist if is_write else state.read_hist
            hist.record((self.env.now - t0) * 1e6)
        finally:
            state.inflight -= 1

    def _tenant_loop(self, state: _TenantState) -> Generator:
        spec, rng, env = state.spec, state.rng, self.env
        t_end = env.now + self.duration
        while env.now < t_end:
            m = spec.multiplier(env.now)
            gap = rng.expovariate(spec.rate * m)
            yield env.timeout(gap)
            if env.now >= t_end:
                break
            if state.bucket is not None and not state.bucket.try_take(env.now):
                state.rejected += 1
                continue
            key = state.keys.next_key()
            sid = self.cluster.router.route(key)
            state.shard_ops[sid] += 1
            is_write = rng.random() < spec.write_fraction
            state.issued += 1
            state.inflight += 1
            # Open loop: spawn, don't await.  The process carries the
            # owning shard's name prefix so fault scoping and traces can
            # attribute it.
            env.process(self._op(state, key, is_write),
                        name=shard_process_name(sid, f"pop.{spec.name}"))

    def run(self) -> Generator:
        """Drive all tenants for ``duration``, then return (in-flight ops
        may still be draining — follow with :meth:`drain`)."""
        procs = [self.env.process(self._tenant_loop(s),
                                  name=f"pop.{s.spec.name}")
                 for s in self.states]
        yield self.env.all_of(procs)

    def drain(self, poll: float = 0.005, timeout: float = 30.0) -> Generator:
        """Wait until every spawned op completed (bounded by ``timeout``)."""
        deadline = self.env.now + timeout
        while any(s.inflight for s in self.states):
            if self.env.now >= deadline:
                break
            yield self.env.timeout(poll)

    # -- reporting -----------------------------------------------------------
    def report(self) -> dict:
        return {
            "tenants": [s.report() for s in self.states],
            "issued": sum(s.issued for s in self.states),
            "completed": sum(s.completed for s in self.states),
            "rejected": sum(s.rejected for s in self.states),
            "errors": sum(s.errors for s in self.states),
        }
