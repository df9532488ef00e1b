"""Declarative health/SLO rules over the telemetry stream.

A :class:`HealthRule` is a windowed predicate over the last N telemetry
buckets; the :class:`HealthMonitor` subscribes to a
:class:`~repro.obs.telemetry.TelemetryHub` and evaluates every rule each
sim-second.  Rules are edge-triggered: a rule *fires* on the first bucket
where its predicate turns true (``phase="enter"``) and *clears* on the
first bucket where it turns false again (``phase="clear"``), so a
10-minute stall storm yields two events, not six hundred.

The built-in rules encode the paper's pathologies:

* ``stall_storm`` — the Fig 2 picture: the write controller spends a
  large fraction of a sliding window stalled;
* ``zero_traffic_while_stalled`` — the Fig 4 diagnosis: writes are
  stopped *and* the host-SSD link is idle, i.e. the device starves while
  the host blocks (the exact waste KVACCEL's Dev-LSM redirection fills);
* ``rollback_not_converging`` — Dev-LSM rollback active for a whole
  window without shrinking the Dev-LSM footprint;
* ``delayed_rate_floor`` — slowdown mode has throttled user writes below
  a floor derived from ``delayed_write_rate``.

Windows are measured in *buckets*; the mini profiles scale the sampling
period with the clock, so one paper-second is one bucket at every scale
and rule parameters transfer unchanged between quick and full profiles.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..workload.db_bench import VALUE_SIZE
from .telemetry import TelemetryHub

__all__ = ["HealthEvent", "HealthRule", "HealthMonitor", "default_rules",
           "cluster_shard_rules"]

MiB = 1 << 20
# The testbed device's measured peak bandwidth (Section VI-A: 630 MB/s).
DEVICE_PEAK_BW = 630 * MiB
# Device-command retries per second that count as a retry storm.
RETRY_STORM_RATE = 200.0


class HealthEvent:
    """One edge of a health rule (enter or clear)."""

    __slots__ = ("rule", "severity", "t", "phase", "message", "data")

    def __init__(self, rule: str, severity: str, t: float, phase: str,
                 message: str, data: Optional[dict] = None):
        self.rule = rule
        self.severity = severity
        self.t = t
        self.phase = phase          # "enter" | "clear"
        self.message = message
        self.data = data or {}

    def to_dict(self) -> dict:
        return {"rule": self.rule, "severity": self.severity, "t": self.t,
                "phase": self.phase, "message": self.message,
                "data": dict(self.data)}

    def __repr__(self) -> str:
        return (f"HealthEvent({self.rule} {self.phase} @ {self.t:.3f} "
                f"[{self.severity}])")


class HealthRule:
    """A named windowed predicate.

    ``predicate(window)`` receives the last ``window`` samples, oldest
    first, each a ``{channel: bucket_value}`` dict (missing channels read
    as 0.0 via the monitor's accessor helpers).  It may return a bare
    bool, or a ``(bool, data_dict)`` pair to attach diagnostics to the
    emitted event.
    """

    def __init__(self, name: str, severity: str, window: int,
                 predicate: Callable[[list], object],
                 description: str = ""):
        if window < 1:
            raise ValueError("window must be >= 1")
        if severity not in ("info", "warning", "critical"):
            raise ValueError(f"unknown severity {severity!r}")
        self.name = name
        self.severity = severity
        self.window = window
        self.predicate = predicate
        self.description = description

    def __repr__(self) -> str:
        return f"HealthRule({self.name}, window={self.window})"


def _get(sample: dict, name: str) -> float:
    return sample.get(name, 0.0)


class HealthMonitor:
    """Evaluates rules against a hub's sample stream, emitting
    :class:`HealthEvent` edges into ``events`` (and the tracer, if one is
    installed on the hub's environment).

    Pass ``hub=None`` for a detached monitor fed manually through
    :meth:`observe` — the live dashboard replays the runner's sample
    stream into one of these for its status line.
    """

    def __init__(self, hub: Optional[TelemetryHub], rules: list[HealthRule]):
        self.hub = hub
        self.rules = list(rules)
        self.events: list[HealthEvent] = []
        self.active: dict[str, HealthEvent] = {}   # rule name -> enter event
        maxw = max((r.window for r in self.rules), default=1)
        self._window: deque = deque(maxlen=maxw)
        if hub is not None:
            hub.on_sample(self._on_sample)

    # -- evaluation ----------------------------------------------------------
    def observe(self, t: float, sample: dict) -> None:
        """Feed one bucket into a detached (``hub=None``) monitor."""
        self._on_sample(t, sample)

    def _on_sample(self, t: float, sample: dict) -> None:
        self._window.append(sample)
        buf = list(self._window)
        for rule in self.rules:
            if len(buf) < rule.window:
                continue
            verdict = rule.predicate(buf[-rule.window:])
            if isinstance(verdict, tuple):
                firing, data = verdict
            else:
                firing, data = verdict, None
            was_active = rule.name in self.active
            if firing and not was_active:
                self._emit(rule, t, "enter", data)
            elif not firing and was_active:
                self._emit(rule, t, "clear", data)

    def _emit(self, rule: HealthRule, t: float, phase: str,
              data: Optional[dict]) -> None:
        msg = rule.description or rule.name
        ev = HealthEvent(rule.name, rule.severity, t, phase, msg, data)
        self.events.append(ev)
        if phase == "enter":
            self.active[rule.name] = ev
        else:
            self.active.pop(rule.name, None)
        tr = (getattr(self.hub.env, "tracer", None)
              if self.hub is not None else None)
        if tr is not None:
            tr.instant("health", f"{rule.name}.{phase}",
                       actor="health", args={"severity": rule.severity,
                                             **(data or {})})

    # -- summaries -----------------------------------------------------------
    def fired(self, rule_name: str) -> bool:
        """Did this rule enter at least once during the run?"""
        return any(e.rule == rule_name and e.phase == "enter"
                   for e in self.events)

    def summary(self) -> dict:
        """Per-rule enter counts — the shape stored in bench baselines."""
        out: dict[str, int] = {r.name: 0 for r in self.rules}
        for e in self.events:
            if e.phase == "enter":
                out[e.rule] = out.get(e.rule, 0) + 1
        return out

    def __repr__(self) -> str:
        return (f"HealthMonitor(rules={len(self.rules)}, "
                f"events={len(self.events)}, active={sorted(self.active)})")


# WriteController state encoding on the wc.state gauge channel.
DELAYED, STOPPED = 1.0, 2.0


def _instance(rule: str, shard: Optional[int]) -> str:
    """A rule's name: the fleet rule's own, or ``rule.shard{k}``."""
    return rule if shard is None else f"{rule}.shard{shard}"


def _event_data(shard: Optional[int], data: dict) -> dict:
    """An event's data: a per-shard instance names its shard first."""
    return data if shard is None else {"shard": shard, **data}


def _stall_storm(period: float, stall_time: str, state: Optional[str] = None,
                 shard: Optional[int] = None) -> HealthRule:
    """Write stalls in at least 30 % of a 10-bucket window.  A bucket is
    stalled when over half of it was spent in ``stall_time`` or, where
    the store publishes a write-controller ``state`` gauge, when it ends
    STOPPED."""

    def stall_storm(win):
        stalled = sum(1 for s in win
                      if (state is not None and _get(s, state) == STOPPED)
                      or _get(s, stall_time) > 0.5 * period)
        frac = stalled / len(win)
        return frac >= 0.3, _event_data(shard,
                                         {"stalled_frac": round(frac, 3)})

    where = "" if shard is None else f" on shard {shard}"
    return HealthRule(_instance("stall_storm", shard), "critical", 10,
                      stall_storm,
                      f"write stalls dominate a 10-bucket window{where}")


def _degraded_mode_entered(state: str,
                           shard: Optional[int] = None) -> HealthRule:
    """The resilience ``state`` gauge (HEALTHY=0 / RECOVERING=1 /
    DEGRADED=2) reads DEGRADED; a missing channel reads 0.0, so a store
    without the resilience stack can never trip it."""

    def degraded_mode_entered(win):
        value = _get(win[-1], state)
        return value >= 2.0, _event_data(shard, {"resil_state": value})

    description = (
        "resilience state machine entered DEGRADED: Dev-LSM admission "
        "suspended, all writes on Main-LSM" if shard is None else
        f"shard {shard} entered DEGRADED: Dev-LSM admission suspended")
    return HealthRule(_instance("degraded_mode_entered", shard), "critical",
                      1, degraded_mode_entered, description)


def _retry_storm(rate: float, period: float, retries: str,
                 shard: Optional[int] = None) -> HealthRule:
    """At least ``rate`` device-command retries a second, averaged over a
    3-bucket window.  Retries are recoverable by design, but a storm of
    them means the device is flapping: this flags sustained retry
    pressure before the degradation threshold turns it into an outage."""
    storm_retries = rate * period

    def retry_storm(win):
        avg = sum(_get(s, retries) for s in win) / len(win)
        return avg >= storm_retries, _event_data(
            shard, {"retries_per_bucket": round(avg, 1)})

    where = "" if shard is None else f" on shard {shard}"
    return HealthRule(_instance("retry_storm", shard), "warning", 3,
                      retry_storm,
                      f"sustained device-command retry pressure{where}")


def _shard_failover(failovers: str, shard: int) -> HealthRule:
    """Replica-group promotion: the cluster bumps the per-shard
    ``failovers`` rate channel exactly once per completed failover, so any
    positive bucket is a promotion edge.  The channel only exists on
    replicated clusters; elsewhere this reads 0 forever."""

    def shard_failover(win):
        n = _get(win[-1], failovers)
        return n > 0, {"shard": shard, "failovers": n}

    return HealthRule(_instance("shard_failover", shard), "critical", 1,
                      shard_failover,
                      f"shard {shard} failed over to a promoted backup")


def _rebalance_stuck() -> HealthRule:
    """A rebalance that stops making progress: the migration is active for
    a whole window but the moved-keys gauge never advances (e.g. the
    driver is starved or wedged behind a dead shard)."""

    def rebalance_stuck(win):
        active = all(_get(s, "cluster.reshard.active") > 0 for s in win)
        moved0 = _get(win[0], "cluster.reshard.moved")
        moved1 = _get(win[-1], "cluster.reshard.moved")
        return (active and moved1 <= moved0,
                {"moved_keys": moved1})

    return HealthRule(
        "rebalance_stuck", "warning", 5, rebalance_stuck,
        "live resharding active for a full window with no key movement")


def default_rules(period: float = 1.0,
                  delayed_write_rate: float = 16 * MiB,
                  retry_storm_rate: float = RETRY_STORM_RATE
                  ) -> list[HealthRule]:
    """The built-in rule set, parameterised from the run's profile.

    ``period`` scales byte-per-bucket thresholds; windows stay in buckets
    (1 paper-second == 1 bucket under the mini profiles).
    """
    # "Idle" link: both directions together below 0.5% of what the device
    # could move in one bucket.
    idle_bytes = 0.005 * DEVICE_PEAK_BW * period

    def zero_traffic_while_stalled(win):
        tail = win[-2:]
        bad = all(
            (_get(s, "wc.state") == STOPPED
             or _get(s, "wc.stall_time") >= 0.95 * period)
            and (_get(s, "pcie.tx_bytes") + _get(s, "pcie.rx_bytes"))
            < idle_bytes
            for s in tail)
        link = sum(_get(s, "pcie.tx_bytes") + _get(s, "pcie.rx_bytes")
                   for s in tail)
        return bad, {"link_bytes": link}

    def rollback_not_converging(win):
        if not all(_get(s, "rollback.active") > 0 for s in win):
            return False
        start = _get(win[0], "devlsm.bytes")
        end = _get(win[-1], "devlsm.bytes")
        return end >= start > 0, {"devlsm_bytes": end}

    # Floor: slowdown should still admit about delayed_write_rate bytes/s;
    # flag windows where admitted user writes sit below half of that.
    # Requires actual throttle time in every bucket (wc.delayed_time), so
    # a DELAYED-state DB that isn't sleeping writers — KVACCEL's Main-LSM
    # runs with slowdown disabled — can't trip it; redirected writes count
    # as admitted (the user saw them complete).
    floor_ops = 0.5 * delayed_write_rate * period / VALUE_SIZE

    def delayed_rate_floor(win):
        bad = all(_get(s, "wc.state") == DELAYED
                  and _get(s, "wc.delayed_time") > 0
                  and (_get(s, "lsm.write_ops")
                       + _get(s, "ctl.redirected")) < floor_ops
                  for s in win)
        return bad, {"floor_ops": floor_ops,
                     "write_ops": _get(win[-1], "lsm.write_ops")}

    return [
        _stall_storm(period, "wc.stall_time", state="wc.state"),
        HealthRule("zero_traffic_while_stalled", "critical", 2,
                   zero_traffic_while_stalled,
                   "host blocked on stall while the PCIe link sits idle"),
        HealthRule("rollback_not_converging", "warning", 20,
                   rollback_not_converging,
                   "rollback active but Dev-LSM footprint not shrinking"),
        HealthRule("delayed_rate_floor", "warning", 5, delayed_rate_floor,
                   "slowdown throttled writes below the delayed-rate floor"),
        # Resilience layer (repro.resil): systems without it export
        # neither channel and never trip these.
        _degraded_mode_entered("resil.state"),
        _retry_storm(retry_storm_rate, period, "resil.retries"),
    ]


def cluster_shard_rules(shards: int, period: float = 1.0) -> list[HealthRule]:
    """Per-shard instances of the cluster-relevant rules.

    One ``stall_storm`` + ``degraded_mode_entered`` + ``retry_storm``
    triple per shard — built by the fleet rules' own factories over the
    ``cluster.shard{k}.*`` channels the cluster facade publishes — plus
    a ``shard_failover`` rule per shard and one ``rebalance_stuck``.  The
    shard id is carried in both the rule name and the emitted event's
    ``data``, so a fleet dashboard can tell *which* shard is storming,
    not just that one is.  The retry channel only exists on
    resilience-enabled shards; elsewhere the rule reads 0 and stays
    quiet.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    rules: list[HealthRule] = []
    for k in range(shards):
        ch = f"cluster.shard{k}"
        rules.append(_stall_storm(period, f"{ch}.stall_time", shard=k))
        rules.append(_degraded_mode_entered(f"{ch}.resil_state", shard=k))
        rules.append(_retry_storm(RETRY_STORM_RATE, period, f"{ch}.retries",
                                  shard=k))
        rules.append(_shard_failover(f"{ch}.failovers", k))
    rules.append(_rebalance_stuck())
    return rules
