"""Live terminal dashboard over the telemetry stream.

``python -m repro.obs dash`` runs one bench cell and re-renders a
sparkline panel each sim-second bucket: ops rates, per-direction PCIe
bytes, LSM pressure, write-controller state, Dev-LSM occupancy, and the
health-rule status line.  ``--once`` skips the live redraws and prints a
single final snapshot — the mode CI uses.

Rendering is driven by the runner's ``sample_callback`` — the dashboard
never touches the simulation, it only watches the bucket stream; health
status comes from a detached :class:`~repro.obs.rules.HealthMonitor`
replaying the same stream.
"""

from __future__ import annotations

import sys
from collections import deque

from .rules import HealthMonitor, default_rules

__all__ = ["Dashboard", "run_dash", "add_dash_args"]

# Channels shown as sparklines, in panel order: (channel, label)
_PANEL = [
    ("lsm.write_ops", "write ops/s"),
    ("lsm.read_ops", "read ops/s"),
    ("pcie.tx_bytes", "pcie tx B/s"),
    ("pcie.rx_bytes", "pcie rx B/s"),
    ("wc.state", "wc state"),
    ("lsm.l0", "L0 files"),
    ("lsm.pending_bytes", "pending B"),
    ("nand.busy_time", "nand busy s"),
    ("devlsm.bytes", "devlsm B"),
    ("ctl.redirected", "redirected/s"),
]

_CLEAR = "\x1b[2J\x1b[H"
# Buckets of history each sparkline shows, and its width in characters.
WINDOW = 60
WIDTH = 60
_STATE_NAMES = {0: "normal", 1: "DELAYED", 2: "STOPPED"}


class Dashboard:
    """Accumulates bucket samples and renders the terminal panel."""

    def __init__(self, title: str, rules: list,
                 refresh: int = 1, live: bool = True):
        self.title = title
        self.refresh = max(1, refresh)
        self.live = live
        self.monitor = HealthMonitor(None, rules)
        self.history: dict[str, deque] = {}
        self.times: deque = deque(maxlen=WINDOW)
        self.buckets = 0

    # -- the runner's sample_callback -------------------------------------
    def __call__(self, t: float, sample: dict) -> None:
        self.times.append(t)
        for name, value in sample.items():
            h = self.history.get(name)
            if h is None:
                h = self.history[name] = deque(maxlen=WINDOW)
            h.append(value)
        self.monitor.observe(t, sample)
        self.buckets += 1
        if self.live and self.buckets % self.refresh == 0:
            sys.stdout.write(_CLEAR + self.render())
            sys.stdout.flush()

    # -- rendering ----------------------------------------------------------
    def render(self) -> str:
        from ..bench.report import series_sparkline
        lines = []
        t = self.times[-1] if self.times else 0.0
        lines.append(f"== {self.title}   t={t:.1f}s   "
                     f"bucket {self.buckets}")
        for channel, label in _PANEL:
            h = self.history.get(channel)
            if not h:
                continue
            lines.append("  " + series_sparkline(
                list(h), width=WIDTH, label=f"{label:>13s} "))
        lines.append(self._health_line())
        recent = self.monitor.events[-5:]
        if recent:
            lines.append("  recent health events:")
            for e in recent:
                lines.append(f"    [{e.severity:>8s}] t={e.t:9.2f}  "
                             f"{e.rule} {e.phase}")
        return "\n".join(lines) + "\n"

    def _health_line(self) -> str:
        wc = self.history.get("wc.state")
        state = _STATE_NAMES.get(int(wc[-1]) if wc else 0, "?")
        if self.monitor.active:
            status = "UNHEALTHY: " + ", ".join(sorted(self.monitor.active))
        else:
            status = "healthy"
        fired = self.monitor.summary()
        total = sum(fired.values())
        return (f"  health: {status}   wc={state}   "
                f"{total} rule firing(s) so far")


def add_dash_args(parser) -> None:
    parser.add_argument("--system", default="kvaccel",
                        choices=["rocksdb", "adoc", "kvaccel"])
    parser.add_argument("--workload", default="A")
    parser.add_argument("--threads", type=int, default=1,
                        help="compaction threads (default 1)")
    parser.add_argument("--no-slowdown", action="store_true",
                        help="disable the slowdown mechanism "
                             "(rocksdb/adoc cells)")
    parser.add_argument("--rollback", default="disabled",
                        choices=["eager", "lazy", "disabled"])
    parser.add_argument("--quick", action="store_true",
                        help="mini256 profile (seconds, not minutes)")
    parser.add_argument("--duration", type=float, default=None,
                        help="override the profile horizon (paper seconds)")
    parser.add_argument("--refresh", type=int, default=1,
                        help="redraw every N buckets (default 1)")
    parser.add_argument("--once", action="store_true",
                        help="no live redraws; print one final snapshot "
                             "(CI mode)")


def run_dash(args) -> int:
    # Imported lazily: repro.bench imports repro.obs, so a module-level
    # import here would be circular.
    from ..bench.experiments.common import resolve_profile
    from ..bench.runner import RunSpec, run_workload

    profile = resolve_profile(None, args.quick)
    spec = RunSpec(system=args.system, workload=args.workload,
                   compaction_threads=args.threads,
                   slowdown=not args.no_slowdown,
                   rollback=args.rollback,
                   duration=args.duration)
    rules = default_rules(
        period=profile.sample_period,
        delayed_write_rate=profile.options.delayed_write_rate)
    dash = Dashboard(title=f"{spec.display} / workload {args.workload} "
                           f"({profile.name})",
                     rules=rules, refresh=args.refresh, live=not args.once)
    result = run_workload(spec, profile, sample_callback=dash)
    if args.once:
        sys.stdout.write(dash.render())
    print(f"\nrun complete: {result.write_ops} writes, "
          f"{result.read_ops} reads over {result.duration:.1f}s; "
          f"{len([e for e in result.health_events if e['phase'] == 'enter'])}"
          f" health firing(s)")
    for rule, count in sorted(result.health_summary().items()):
        print(f"  {rule}: {count}")
    return 0
