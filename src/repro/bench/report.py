"""ASCII reporting for experiment results.

Every bench prints (a) the rows/series the paper reports, (b) the paper's
own numbers next to ours, and (c) a shape verdict.  The goal of the
reproduction is the *shape* — orderings, signs of deltas, rough factors —
not absolute numbers (our substrate is a calibrated simulator, not the
authors' Cosmos+ testbed).
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["table", "series_sparkline", "shape_check", "ShapeCheck",
           "kops", "fmt"]

_SPARK = "▁▂▃▄▅▆▇█"


def kops(ops_per_s: float) -> str:
    return f"{ops_per_s / 1000:.1f}"


def fmt(value: float, digits: int = 2) -> str:
    if value == float("inf"):
        return "inf"
    return f"{value:.{digits}f}"


def table(headers: Sequence[str], rows: Sequence[Sequence],
          title: str = "") -> str:
    """Render a simple aligned ASCII table, indented two spaces."""
    indent = "  "
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = indent + "-+-".join("-" * w for w in widths)
    lines.append(indent + " | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(indent + " | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def series_sparkline(values: Sequence[float], width: int = 72,
                     label: str = "") -> str:
    """Compress a time series into a unicode sparkline (terminal figure)."""
    if not values:
        return f"{label} (empty)"
    n = len(values)
    if n > width:
        # bucket-average down to `width` points
        out = []
        for i in range(width):
            lo = i * n // width
            hi = max(lo + 1, (i + 1) * n // width)
            out.append(sum(values[lo:hi]) / (hi - lo))
        values = out
    vmax = max(values) or 1.0
    chars = "".join(_SPARK[min(len(_SPARK) - 1,
                               int(v / vmax * (len(_SPARK) - 1)))]
                    for v in values)
    return f"{label}{chars}  (max={vmax:.3g})"


class ShapeCheck:
    """Collects named shape assertions and renders a verdict block."""

    def __init__(self, name: str):
        self.name = name
        self.checks: list[tuple[str, bool, str]] = []

    def expect(self, description: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((description, bool(ok), detail))
        return bool(ok)

    def expect_order(self, description: str, bigger: float, smaller: float,
                     slack: float = 1.0) -> bool:
        """bigger >= smaller * slack (slack<1 tolerates near-ties)."""
        ok = bigger >= smaller * slack
        return self.expect(description, ok,
                           f"{bigger:.3g} vs {smaller:.3g} (slack {slack})")

    @property
    def passed(self) -> bool:
        return all(ok for _d, ok, _x in self.checks)

    def render(self) -> str:
        lines = [f"shape checks — {self.name}:"]
        for desc, ok, detail in self.checks:
            mark = "PASS" if ok else "FAIL"
            suffix = f"  [{detail}]" if detail else ""
            lines.append(f"  [{mark}] {desc}{suffix}")
        return "\n".join(lines)

    def assert_all(self) -> None:
        if not self.passed:
            raise AssertionError(self.render())


def shape_check(name: str) -> ShapeCheck:
    return ShapeCheck(name)
