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


def default_rules(period: float = 1.0,
                  delayed_write_rate: float = 16 * MiB,
                  retry_storm_rate: float = RETRY_STORM_RATE
                  ) -> list[HealthRule]:
    """The built-in rule set, parameterised from the run's profile.

    ``period`` scales byte-per-bucket thresholds; windows stay in buckets
    (1 paper-second == 1 bucket under the mini profiles).
    """
    # WriteController state encoding on the wc.state gauge channel.
    DELAYED, STOPPED = 1.0, 2.0

    def stall_storm(win):
        stalled = sum(1 for s in win if _get(s, "wc.state") == STOPPED
                      or _get(s, "wc.stall_time") > 0.5 * period)
        frac = stalled / len(win)
        return frac >= 0.3, {"stalled_frac": round(frac, 3)}

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

    # Resilience layer (repro.resil): the resil.state gauge encodes
    # HEALTHY=0 / RECOVERING=1 / DEGRADED=2; a missing channel reads 0.0,
    # so systems without the resilience stack can never trip these.
    def degraded_mode_entered(win):
        state = _get(win[-1], "resil.state")
        return state >= 2.0, {"resil_state": state}

    # Retries are recoverable by design, but a storm of them means the
    # device is flapping — flag sustained retry pressure before the
    # degradation threshold turns it into an outage.
    storm_retries = retry_storm_rate * period

    def retry_storm(win):
        total = sum(_get(s, "resil.retries") for s in win)
        avg = total / len(win)
        return avg >= storm_retries, {"retries_per_bucket": round(avg, 1)}

    return [
        HealthRule("stall_storm", "critical", 10, stall_storm,
                   "write stalls dominate a 10-bucket window"),
        HealthRule("zero_traffic_while_stalled", "critical", 2,
                   zero_traffic_while_stalled,
                   "host blocked on stall while the PCIe link sits idle"),
        HealthRule("rollback_not_converging", "warning", 20,
                   rollback_not_converging,
                   "rollback active but Dev-LSM footprint not shrinking"),
        HealthRule("delayed_rate_floor", "warning", 5, delayed_rate_floor,
                   "slowdown throttled writes below the delayed-rate floor"),
        HealthRule("degraded_mode_entered", "critical", 1,
                   degraded_mode_entered,
                   "resilience state machine entered DEGRADED: Dev-LSM "
                   "admission suspended, all writes on Main-LSM"),
        HealthRule("retry_storm", "warning", 3, retry_storm,
                   "sustained device-command retry pressure"),
    ]


def cluster_shard_rules(shards: int, period: float = 1.0) -> list[HealthRule]:
    """Per-shard instances of the cluster-relevant rules.

    One ``stall_storm`` + ``degraded_mode_entered`` + ``retry_storm``
    triple per shard, reading the ``cluster.shard{k}.*`` channels the
    cluster facade publishes, with the shard id carried in both the rule
    name and the emitted event's ``data`` — so a fleet dashboard can
    tell *which* shard is storming, not just that one is.  The retry
    channel only exists on resilience-enabled shards; elsewhere the
    rule reads 0 and stays quiet.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    storm_retries = RETRY_STORM_RATE * period
    rules: list[HealthRule] = []
    for k in range(shards):
        stall_ch = f"cluster.shard{k}.stall_time"
        resil_ch = f"cluster.shard{k}.resil_state"
        retry_ch = f"cluster.shard{k}.retries"

        def shard_stall_storm(win, _ch=stall_ch, _k=k):
            stalled = sum(1 for s in win if _get(s, _ch) > 0.5 * period)
            frac = stalled / len(win)
            return frac >= 0.3, {"shard": _k,
                                 "stalled_frac": round(frac, 3)}

        def shard_degraded(win, _ch=resil_ch, _k=k):
            state = _get(win[-1], _ch)
            return state >= 2.0, {"shard": _k, "resil_state": state}

        def shard_retry_storm(win, _ch=retry_ch, _k=k):
            avg = sum(_get(s, _ch) for s in win) / len(win)
            return avg >= storm_retries, {"shard": _k,
                                          "retries_per_bucket": round(avg, 1)}

        # Replica-group promotion: the cluster bumps the per-shard
        # ``failovers`` rate channel exactly once per completed failover,
        # so any positive bucket is a promotion edge.  The channel only
        # exists on replicated clusters; elsewhere this reads 0 forever.
        failover_ch = f"cluster.shard{k}.failovers"

        def shard_failover(win, _ch=failover_ch, _k=k):
            n = _get(win[-1], _ch)
            return n > 0, {"shard": _k, "failovers": n}

        rules.append(HealthRule(
            f"stall_storm.shard{k}", "critical", 10, shard_stall_storm,
            f"write stalls dominate a 10-bucket window on shard {k}"))
        rules.append(HealthRule(
            f"degraded_mode_entered.shard{k}", "critical", 1,
            shard_degraded,
            f"shard {k} entered DEGRADED: Dev-LSM admission suspended"))
        rules.append(HealthRule(
            f"retry_storm.shard{k}", "warning", 3, shard_retry_storm,
            f"sustained device-command retry pressure on shard {k}"))
        rules.append(HealthRule(
            f"shard_failover.shard{k}", "critical", 1, shard_failover,
            f"shard {k} failed over to a promoted backup"))

    # A rebalance that stops making progress: the migration is active for
    # a whole window but the moved-keys gauge never advances (e.g. the
    # driver is starved or wedged behind a dead shard).
    def rebalance_stuck(win):
        active = all(_get(s, "cluster.reshard.active") > 0 for s in win)
        moved0 = _get(win[0], "cluster.reshard.moved")
        moved1 = _get(win[-1], "cluster.reshard.moved")
        return (active and moved1 <= moved0,
                {"moved_keys": moved1})

    rules.append(HealthRule(
        "rebalance_stuck", "warning", 5, rebalance_stuck,
        "live resharding active for a full window with no key movement"))
    return rules
