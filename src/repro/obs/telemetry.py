"""TelemetryHub: the unified per-second time-series pipeline.

The paper's entire evaluation is 1-second telemetry — Intel PCM link
samples and ops/s series are what Figs 2/4/5/11/14 are made of.  The hub
is the simulation-side equivalent of that measurement rig: one sampling
process wakes every ``period`` simulated seconds and closes a *bucket*
across every named channel, so all series share a single time axis.

Install pattern (mirrors ``repro.faults`` and the :class:`Tracer`)::

    hub = TelemetryHub(env, period=1.0).install(env)   # env.telemetry = hub

``install`` also binds ``env.probes.add`` to :meth:`TelemetryHub.add`, the
one verb publishers in the stack call (unconditionally: without a hub it is
a do-nothing function, so disabled runs stay bit-identical).  Components
declare their gauge/deriv callbacks at construction, under the one
``env.telemetry is not None`` test that is set-up rather than a visit.  The
hub itself is purely passive: its tick process only reads state and never
perturbs the simulated trajectory.

Channel kinds:

* **rate** — publishers call :meth:`add`; each bucket holds the sum of
  amounts added during it (ops, bytes, events);
* **gauge** — a callback sampled at each bucket end (memtable bytes, L0
  file count, write-controller state);
* **deriv** — a callback returning a *cumulative* quantity; each bucket
  holds the delta since the previous sample (NAND busy seconds, stall
  seconds) — how a hardware counter sampled once a second behaves.

Consumers: :class:`~repro.obs.rules.HealthMonitor` subscribes via
:meth:`on_sample`; exporters render the same data as Prometheus text,
CSV, or terminal sparklines.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["Channel", "TelemetryHub", "RATE", "GAUGE", "DERIV"]

RATE = "rate"
GAUGE = "gauge"
DERIV = "deriv"

_KINDS = (RATE, GAUGE, DERIV)


class Channel:
    """One named per-bucket series."""

    __slots__ = ("name", "kind", "fn", "values", "_acc", "_last_cum")

    def __init__(self, name: str, kind: str,
                 fn: Optional[Callable[[], float]] = None):
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if kind in (GAUGE, DERIV) and fn is None:
            raise ValueError(f"{kind} channel {name!r} needs a callback")
        self.name = name
        self.kind = kind
        self.fn = fn
        self.values: list[float] = []
        self._acc = 0.0           # rate: amount accumulated this bucket
        self._last_cum: Optional[float] = None   # deriv: previous sample

    def _close_bucket(self) -> float:
        """Compute and append this bucket's value."""
        if self.kind == RATE:
            v, self._acc = self._acc, 0.0
        elif self.kind == GAUGE:
            v = float(self.fn())
        else:  # DERIV
            cum = float(self.fn())
            v = cum - self._last_cum if self._last_cum is not None else cum
            self._last_cum = cum
        self.values.append(v)
        return v

    @property
    def total(self) -> float:
        """Sum over all closed buckets (plus, for rate, the open bucket)."""
        if self.kind == RATE:
            return sum(self.values) + self._acc
        return sum(self.values)

    def __repr__(self) -> str:
        return f"Channel({self.name}, {self.kind}, buckets={len(self.values)})"


class TelemetryHub:
    """Named per-second channels on one shared sim-time axis."""

    def __init__(self, env, period: float = 1.0):
        if period <= 0:
            raise ValueError("period must be positive")
        self.env = env
        self.period = period
        self.times: list[float] = []
        self.channels: dict[str, Channel] = {}
        self._callbacks: list[Callable[[float, dict], None]] = []
        self._stopped = False
        self._t_start = env.now
        self._t_last = env.now     # end of the last closed bucket
        self.process = env.process(self._run(), name="telemetry")

    # -- wiring ------------------------------------------------------------
    def install(self, env) -> "TelemetryHub":
        """Attach to an Environment and claim its ``add`` verb."""
        env.telemetry = self
        env.probes.add = self.add
        return self

    def on_sample(self, callback: Callable[[float, dict], None]) -> None:
        """Subscribe ``callback(t, {channel: bucket_value})`` to every
        closed bucket.  Callbacks must be read-only with respect to the
        simulation — they run inside the sampling process."""
        self._callbacks.append(callback)

    # -- channel declaration ------------------------------------------------
    def _declare(self, name: str, kind: str, fn=None) -> Channel:
        ch = self.channels.get(name)
        if ch is None:
            ch = Channel(name, kind, fn)
            # Channels born mid-run backfill zeros so every series stays
            # aligned with ``times``.
            ch.values = [0.0] * len(self.times)
            self.channels[name] = ch
        elif ch.kind != kind:
            raise ValueError(
                f"channel {name!r} is {ch.kind}, not {kind}")
        return ch

    def rate(self, name: str) -> Channel:
        """Declare (or fetch) a rate channel."""
        return self._declare(name, RATE)

    def gauge(self, name: str, fn: Callable[[], float]) -> Channel:
        """Declare a gauge channel sampled at each bucket end."""
        return self._declare(name, GAUGE, fn)

    def deriv(self, name: str, fn: Callable[[], float]) -> Channel:
        """Declare a cumulative-counter channel exported as per-bucket
        deltas."""
        return self._declare(name, DERIV, fn)

    # -- the hot path --------------------------------------------------------
    def add(self, name: str, amount: float = 1.0) -> None:
        """Accumulate into a rate channel (auto-declared on first use)."""
        ch = self.channels.get(name)
        if ch is None:
            ch = self._declare(name, RATE)
        ch._acc += amount

    # -- sampling ------------------------------------------------------------
    def _sample(self) -> None:
        t = self.env.now
        self.times.append(t)
        self._t_last = t
        sample = {name: ch._close_bucket()
                  for name, ch in self.channels.items()}
        for cb in self._callbacks:
            cb(t, sample)

    def _run(self):
        while not self._stopped:
            yield self.env.timeout(self.period)
            if self._stopped:
                break
            self._sample()

    def flush(self) -> bool:
        """Close the final partial bucket at the current sim time.

        Returns True if a bucket was emitted.  The end-of-horizon partial
        bucket must not be silently dropped — series built here have to
        agree in length with :class:`~repro.device.TrafficLedger`'s
        bucketing, which rounds the horizon *up*.
        """
        if self.env.now > self._t_last:
            self._sample()
            return True
        return False

    def stop(self, flush: bool = True) -> None:
        self._stopped = True
        if flush:
            self.flush()

    # -- reading -------------------------------------------------------------
    def series(self, name: str) -> list[float]:
        return list(self.channels[name].values)

    def names(self) -> list[str]:
        return sorted(self.channels)

    def last(self, name: str, default: float = 0.0) -> float:
        vals = self.channels[name].values if name in self.channels else None
        return vals[-1] if vals else default

    def export(self) -> dict:
        """Plain-data view: one shared time axis + every channel series."""
        return {
            "period": self.period,
            "t_start": self._t_start,
            "times": list(self.times),
            "channels": {name: list(ch.values)
                         for name, ch in sorted(self.channels.items())},
            "kinds": {name: ch.kind
                      for name, ch in sorted(self.channels.items())},
        }

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:
        return (f"TelemetryHub(period={self.period}, buckets={len(self.times)}, "
                f"channels={len(self.channels)})")
