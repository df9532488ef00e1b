"""Per-stall attribution: the *why* behind every write stall.

The paper attributes stalls to memtable / L0 / pending-bytes pressure by
eyeballing 1-second PCM aggregates.  With a trace we can do it exactly:
for every stall span the report lists the latched
:class:`~repro.lsm.write_controller.StallReason`, the LSM pressure at
entry (L0 count, immutable backlog, compaction debt), how much compaction
ran concurrently with the stall window, and how many bytes the Dev-LSM
absorbed through the KV interface while the main path was blocked.

Every analysis here reads the span dicts that
:func:`~repro.obs.export.spans_from_chrome` returns (``cat``, ``name``,
``actor``, ``t0``, ``t1``, ``args``): the trace file is the input, whether
the run that wrote it is still in memory or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = ["StallAttribution", "stall_attribution", "attribution_report",
           "top_spans"]


def _fields(span: dict) -> tuple:
    """(cat, name, actor, t0, t1, args) of a span dict."""
    return (span.get("cat", ""), span.get("name", ""),
            span.get("actor", ""), span["t0"], span["t1"],
            span.get("args") or {})


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


@dataclass
class StallAttribution:
    """One stall window, explained."""

    start: float
    end: float
    reason: str
    l0_files: Optional[int] = None
    immutable_memtables: Optional[int] = None
    pending_compaction_bytes: Optional[int] = None
    concurrent_compaction_time: float = 0.0     # span-seconds overlapping
    concurrent_compactions: int = 0
    concurrent_flush_time: float = 0.0
    redirect_bytes: float = 0.0                 # Dev-LSM absorption
    redirect_ops: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def stall_attribution(spans: Iterable[dict]) -> list[StallAttribution]:
    """Attribute every stall span among ``spans``."""
    spans = list(spans)
    out: list[StallAttribution] = []
    for span in spans:
        cat, _name, _actor, t0, t1, args = _fields(span)
        if cat != "stall":
            continue
        att = StallAttribution(
            start=t0, end=t1,
            reason=str(args.get("reason", "unknown")),
            l0_files=args.get("l0"),
            immutable_memtables=args.get("imm"),
            pending_compaction_bytes=args.get("pending_bytes"),
        )
        for other in spans:
            ocat, oname, _oactor, o0, o1, oargs = _fields(other)
            ov = _overlap(t0, t1, o0, o1)
            if ov <= 0:
                continue
            if ocat == "compaction":
                att.concurrent_compaction_time += ov
                att.concurrent_compactions += 1
            elif ocat == "flush":
                att.concurrent_flush_time += ov
            elif ocat == "kv" and oname.startswith(("kv.put", "kv.delete")):
                att.redirect_bytes += float(oargs.get("bytes", 0) or 0)
                att.redirect_ops += 1
        out.append(att)
    out.sort(key=lambda a: a.start)
    return out


def attribution_report(spans: Iterable[dict],
                       title: str = "Stall attribution") -> str:
    """Human-readable per-stall table (the ``--report`` output)."""
    atts = stall_attribution(spans)
    lines = [title, "=" * len(title)]
    if not atts:
        lines.append("no stall spans in trace")
        return "\n".join(lines)
    hdr = (f"{'#':>3} {'start':>9} {'dur(ms)':>9} {'reason':<14} "
           f"{'L0':>4} {'imm':>4} {'debt(MiB)':>10} {'compact(ms)':>12} "
           f"{'flush(ms)':>10} {'redirect':>12}")
    lines.append(hdr)
    lines.append("-" * len(hdr))
    for i, a in enumerate(atts, 1):
        debt = (f"{a.pending_compaction_bytes / (1 << 20):.1f}"
                if a.pending_compaction_bytes is not None else "-")
        lines.append(
            f"{i:>3} {a.start:>9.3f} {a.duration * 1e3:>9.2f} "
            f"{a.reason:<14} "
            f"{a.l0_files if a.l0_files is not None else '-':>4} "
            f"{a.immutable_memtables if a.immutable_memtables is not None else '-':>4} "
            f"{debt:>10} {a.concurrent_compaction_time * 1e3:>12.2f} "
            f"{a.concurrent_flush_time * 1e3:>10.2f} "
            f"{a.redirect_bytes / 1024:>10.1f}KiB")
    total = sum(a.duration for a in atts)
    by_reason: dict[str, float] = {}
    for a in atts:
        by_reason[a.reason] = by_reason.get(a.reason, 0.0) + a.duration
    lines.append("-" * len(hdr))
    lines.append(f"{len(atts)} stall(s), {total * 1e3:.2f} ms total; "
                 + ", ".join(f"{r}: {t * 1e3:.2f} ms"
                             for r, t in sorted(by_reason.items())))
    return "\n".join(lines)


def top_spans(spans: Iterable[dict], n: int = 5
              ) -> dict[str, list[tuple[float, str, float]]]:
    """Per category, the ``n`` longest spans as (duration, name, t0)."""
    by_cat: dict[str, list[tuple[float, str, float]]] = {}
    for span in spans:
        cat, name, _actor, t0, t1, _args = _fields(span)
        by_cat.setdefault(cat, []).append((t1 - t0, name, t0))
    return {
        cat: sorted(items, key=lambda it: -it[0])[:n]
        for cat, items in sorted(by_cat.items())
    }
