"""Latency lineage: per-op critical-path decomposition on the sim clock.

The telemetry layer (PR 3) says *that* stalls happened; this module says
*which ops paid for them and through which path*.  A
:class:`LineageProfiler` claims the ``op_begin``/``op_end``/``enter``/
``leave`` verbs of ``env.probes`` (do-nothing functions, zero allocations
while off) and follows each operation from the workload driver down
through db → write_controller → wal/memtable → controller redirect →
kv_dev/devlsm → pcie → nand, plus the resilience layer's retry backoffs
and degraded-mode fallbacks.

**Attribution model (leaf-stack).**  Probes bracket interesting stretches
with ``enter(segment)`` / ``leave()``.  Segments nest; every instant of
an op's lifetime is attributed to the *innermost* open segment at that
instant, so a WAL append that spends its time inside a PCIe transfer
bills that time to ``pcie``, not ``wal``.  This makes the decomposition a
partition: the per-segment seconds of one op sum to its end-to-end
latency exactly, with any uncovered stretch reported as the explicit
``unattributed`` segment — never silently dropped.  The profiler checks
this invariant on every op and records (rather than hides) violations.

Everything here runs on the **simulation clock** and is purely passive:
probes never yield and never touch the event heap, so a profiled run
takes the exact same simulated trajectory as an unprofiled one.  The
wall-clock counterpart (where does the *Python interpreter* spend time)
is :class:`repro.sim.KernelProfile`.

Top-K exemplars are selected deterministically: op ids are assigned in
``op_begin`` order (itself deterministic under a fixed seed) and ties on
end-to-end latency are broken toward the earliest op id.
"""

from __future__ import annotations

from heapq import heappush, heappushpop
from typing import Optional

__all__ = [
    "LineageProfiler",
    "SEGMENTS",
    "DEFAULT_BANDS",
    "LINEAGE_SCHEMA",
    "percentile_bands",
    "lineage_report",
    "ops_from_chrome",
    "exemplars_from_chrome",
    "check_lineage_invariant",
]

LINEAGE_SCHEMA = "repro-lineage"
LINEAGE_VERSION = 1

# Canonical segment names, in display order.  Probes may introduce others;
# unknown segments sort after these.
SEGMENTS = (
    "stall",          # write controller STOPPED wait
    "slowdown",       # write controller DELAYED naps
    "cpu",            # host CPU service (put path, NVMe submit, ...)
    "wal",            # WAL buffering / group commit (host file system)
    "memtable",       # memtable insert + switch-on-full
    "redirect",       # KVACCEL controller Dev-LSM redirect path
    "queue",          # waiting for a pcie/nand resource slot
    "pcie",           # PCIe link transfer service
    "nand",           # NAND array busy time
    "retry",          # repro.resil retry backoff sleeps
    "degraded",       # degraded-mode Main-LSM fallback writes
    "unattributed",   # residual not covered by any probe
)

# Percentile bands for the conditioned decomposition, as (lo, hi) in
# percent of the per-op end-to-end latency distribution.
DEFAULT_BANDS = ((0.0, 50.0), (50.0, 90.0), (90.0, 99.0), (99.0, 100.0))

# Float-accumulation tolerance for the sum(segments) == e2e invariant,
# relative to the op's end-to-end latency.
_INVARIANT_RTOL = 1e-9
_INVARIANT_ATOL = 1e-12


class _OpCtx:
    """Live lineage record of one in-flight operation."""

    __slots__ = ("op_id", "kind", "count", "nbytes", "scope", "t0",
                 "proc", "stack", "segs", "spans", "trace_span")

    def __init__(self, op_id: int, kind: str, count: int, nbytes: int,
                 scope: str, t0: float, proc):
        self.op_id = op_id
        self.kind = kind
        self.count = count
        self.nbytes = nbytes
        self.scope = scope
        self.t0 = t0
        self.proc = proc
        # Stack frames are [segment, accrual_mark, span_t0]; on enter the
        # current top accrues elapsed time and re-marks, so each instant
        # lands in exactly one (innermost) segment.
        self.stack: list[list] = []
        self.segs: dict[str, float] = {}
        self.spans: list[tuple] = []   # (segment, t0, t1, depth)
        self.trace_span = None


class LineageProfiler:
    """Collects per-op segment decompositions from an instrumented run.

    Install with ``LineageProfiler(env).install()``; drivers bracket each
    logical op with :meth:`op_begin` / :meth:`op_end`, components bracket
    their interesting stretches with :meth:`enter` / :meth:`leave`.
    Probe calls made by a process with no op in flight (background flush,
    compaction, samplers) are no-ops, so lineage naturally measures the
    *foreground* critical path.
    """

    def __init__(self, env, top_k: int = 5, keep_ops: bool = True):
        self.env = env
        self.top_k = int(top_k)
        self.keep_ops = keep_ops
        self.ops: list[dict] = []
        self.op_count = 0
        self.invariant_violations = 0
        self.violations: list[dict] = []
        self._active: dict = {}        # Process -> _OpCtx
        self._next_id = 0
        self._exemplars: list[tuple] = []   # min-heap (e2e, -op_id, rec)

    def install(self) -> "LineageProfiler":
        """Attach to the Environment and claim its four lineage verbs."""
        self.env.lineage = self
        p = self.env.probes
        p.op_begin, p.op_end = self.op_begin, self.op_end
        p.enter, p.leave = self.enter, self.leave
        return self

    # -- op bracketing -----------------------------------------------------
    def op_begin(self, kind: str, count: int = 1, nbytes: int = 0,
                 scope: str = "db") -> Optional[_OpCtx]:
        """Open a lineage record for the active process; returns the ctx
        (``None`` if no process is active or one op is already open —
        lineage ops do not nest within a process)."""
        env = self.env
        proc = env._active_process
        if proc is None or proc in self._active:
            return None
        ctx = _OpCtx(self._next_id, kind, count, nbytes, scope,
                     env._now, proc)
        self._next_id += 1
        self._active[proc] = ctx
        tr = env.tracer
        if tr is not None:
            ctx.trace_span = tr.begin("op", kind, args={
                "op_id": ctx.op_id, "count": count, "nbytes": nbytes,
                "scope": scope})
        return ctx

    def op_end(self, ctx: Optional[_OpCtx]) -> Optional[dict]:
        """Close the record: drain dangling segments, compute the residual
        ``unattributed`` slice, enforce the partition invariant, and fold
        the op into the aggregate + exemplar sets."""
        if ctx is None:
            return None
        env = self.env
        now = env._now
        stack = ctx.stack
        segs = ctx.segs
        while stack:   # dangling frames (exception unwound past a leave)
            seg, mark, span_t0 = stack.pop()
            segs[seg] = segs.get(seg, 0.0) + (now - mark)
            ctx.spans.append((seg, span_t0, now, len(stack)))
            if stack:
                stack[-1][1] = now
        e2e = now - ctx.t0
        attributed = sum(segs.values())
        residual = e2e - attributed
        tol = _INVARIANT_ATOL + _INVARIANT_RTOL * abs(e2e)
        if residual < -tol:
            # Over-attribution: segments claim more time than the op took.
            # By construction this cannot happen; record it loudly.
            self.invariant_violations += 1
            if len(self.violations) < 16:
                self.violations.append({
                    "op_id": ctx.op_id, "kind": ctx.kind, "e2e": e2e,
                    "attributed": attributed, "residual": residual})
        segs["unattributed"] = residual if residual > 0.0 else 0.0
        rec = {
            "op_id": ctx.op_id,
            "kind": ctx.kind,
            "scope": ctx.scope,
            "count": ctx.count,
            "nbytes": ctx.nbytes,
            "t0": ctx.t0,
            "e2e": e2e,
            "segs": dict(segs),
        }
        self.op_count += 1
        if self.keep_ops:
            self.ops.append(rec)
        if self.top_k > 0:
            # Deterministic top-K: min-heap keyed (e2e, -op_id), so equal
            # latencies keep the earliest op id.  The heap copy carries the
            # full span tree; evicted ops drop theirs.
            item = (e2e, -ctx.op_id,
                    dict(rec, spans=[list(s) for s in ctx.spans]))
            if len(self._exemplars) < self.top_k:
                heappush(self._exemplars, item)
            elif item[:2] > self._exemplars[0][:2]:
                heappushpop(self._exemplars, item)
        if ctx.trace_span is not None:
            args = {"e2e": e2e}
            for seg, v in segs.items():
                args[f"seg_{seg}"] = v
            env.tracer.end(ctx.trace_span, args=args)
        self._active.pop(ctx.proc, None)
        return rec

    # -- segment bracketing ------------------------------------------------
    def enter(self, segment: str) -> None:
        """Open ``segment`` for the active process's in-flight op (no-op
        when that process has none)."""
        env = self.env
        ctx = self._active.get(env._active_process)
        if ctx is None:
            return
        now = env._now
        stack = ctx.stack
        if stack:
            top = stack[-1]
            ctx.segs[top[0]] = ctx.segs.get(top[0], 0.0) + (now - top[1])
            top[1] = now
        stack.append([segment, now, now])

    def leave(self) -> None:
        """Close the innermost open segment (no-op when none is open)."""
        env = self.env
        ctx = self._active.get(env._active_process)
        if ctx is None:
            return
        stack = ctx.stack
        if not stack:
            return
        now = env._now
        seg, mark, span_t0 = stack.pop()
        ctx.segs[seg] = ctx.segs.get(seg, 0.0) + (now - mark)
        ctx.spans.append((seg, span_t0, now, len(stack)))
        if stack:
            stack[-1][1] = now

    # -- export ------------------------------------------------------------
    def exemplars(self) -> list[dict]:
        """Top-K slowest ops (with span trees), slowest first."""
        return [item[2] for item in
                sorted(self._exemplars, key=lambda it: (-it[0], it[1]))]

    def to_dict(self) -> dict:
        """Plain-data export (picklable: survives the parallel cell
        runner's fork boundary and JSON serialization)."""
        return {
            "schema": LINEAGE_SCHEMA,
            "version": LINEAGE_VERSION,
            "op_count": self.op_count,
            "top_k": self.top_k,
            "ops": [dict(r, segs=dict(r["segs"])) for r in self.ops],
            "exemplars": self.exemplars(),
            "invariant_violations": self.invariant_violations,
            "violations": list(self.violations),
        }


# -- invariant ---------------------------------------------------------------

def check_lineage_invariant(ops: list[dict]) -> list[str]:
    """Verify sum(segments) == e2e for every op record; returns a list of
    violation strings (empty = the partition holds)."""
    problems = []
    for rec in ops:
        e2e = rec["e2e"]
        total = sum(rec["segs"].values())
        tol = _INVARIANT_ATOL + _INVARIANT_RTOL * abs(e2e)
        # The explicit `unattributed` slice must make the sum exact.
        if abs(total - e2e) > max(tol, 1e-9 * max(1.0, abs(e2e))):
            problems.append(
                f"op {rec.get('op_id')}: segments sum to {total!r}, "
                f"e2e is {e2e!r} (diff {total - e2e:+.3e})")
        if "unattributed" not in rec["segs"]:
            problems.append(
                f"op {rec.get('op_id')}: missing explicit "
                f"'unattributed' segment")
    return problems


# -- aggregation -------------------------------------------------------------

def _segment_rank(names) -> list[str]:
    known = [s for s in SEGMENTS if s in names]
    unknown = sorted(n for n in names if n not in SEGMENTS)
    return known + unknown


def percentile_bands(ops: list[dict],
                     bands: tuple = DEFAULT_BANDS) -> list[dict]:
    """Percentile-conditioned decomposition: ops are ranked by end-to-end
    latency and sliced into percentile bands; each band reports how its
    summed latency splits across segments ("ops in the p99 bucket spend
    71% of their time in stall")."""
    if not ops:
        return []
    ranked = sorted(ops, key=lambda r: (r["e2e"], r["op_id"]))
    n = len(ranked)
    out = []
    for lo, hi in bands:
        i0 = int(n * lo / 100.0)
        i1 = n if hi >= 100.0 else int(n * hi / 100.0)
        chunk = ranked[i0:i1]
        if not chunk:
            continue
        total = sum(r["e2e"] for r in chunk)
        seg_seconds: dict[str, float] = {}
        for r in chunk:
            for seg, v in r["segs"].items():
                seg_seconds[seg] = seg_seconds.get(seg, 0.0) + v
        shares = {seg: (v / total if total > 0.0 else 0.0)
                  for seg, v in seg_seconds.items()}
        out.append({
            "band": f"p{lo:g}-p{hi:g}",
            "lo": lo,
            "hi": hi,
            "n": len(chunk),
            "mean_e2e": total / len(chunk),
            "total_e2e": total,
            "seg_seconds": seg_seconds,
            "shares": shares,
        })
    return out


# -- rendering ---------------------------------------------------------------

def _fmt_us(seconds: float) -> str:
    return f"{seconds * 1e6:,.0f}"


def lineage_report(ops: list[dict], title: str = "lineage",
                   exemplars: Optional[list[dict]] = None,
                   bands: tuple = DEFAULT_BANDS,
                   max_segments: int = 8) -> str:
    """Human-readable percentile-conditioned segment table (plus exemplar
    span trees when provided)."""
    lines = [f"latency lineage — {title}"]
    if not ops:
        lines.append("  (no ops recorded)")
        return "\n".join(lines)
    rows = percentile_bands(ops, bands=bands)
    overall: dict[str, float] = {}
    for row in rows:
        for seg, v in row["seg_seconds"].items():
            overall[seg] = overall.get(seg, 0.0) + v
    ranked_segs = _segment_rank(overall)
    # Keep the biggest contributors as columns; always show unattributed.
    by_weight = sorted(ranked_segs, key=lambda s: -overall.get(s, 0.0))
    cols = [s for s in ranked_segs if s in set(by_weight[:max_segments])
            or s == "unattributed"]
    total_e2e = sum(r["e2e"] for r in ops)
    lines.append(f"  ops: {len(ops)}   total e2e: "
                 f"{_fmt_us(total_e2e)} us (sim clock)")
    hdr = f"  {'band':<10} {'n':>7} {'mean_us':>10}"
    for seg in cols:
        hdr += f" {seg[:9]:>9}"
    lines.append(hdr)
    for row in rows:
        line = (f"  {row['band']:<10} {row['n']:>7} "
                f"{row['mean_e2e'] * 1e6:>10,.1f}")
        for seg in cols:
            share = row["shares"].get(seg, 0.0)
            line += f" {share * 100:>8.1f}%"
        lines.append(line)
    if exemplars:
        lines.append(f"  top-{len(exemplars)} slowest ops:")
        for rec in exemplars:
            segs = sorted(((v, s) for s, v in rec["segs"].items() if v > 0),
                          reverse=True)
            top = ", ".join(f"{s}={_fmt_us(v)}us" for v, s in segs[:4])
            lines.append(f"    op #{rec['op_id']} {rec['kind']} "
                         f"[{rec.get('scope', 'db')}] "
                         f"e2e={_fmt_us(rec['e2e'])}us  {top}")
            for seg, t0, t1, depth in sorted(rec.get("spans", []),
                                             key=lambda s: (s[1], s[3])):
                indent = "      " + "  " * int(depth)
                lines.append(f"{indent}{seg}: {_fmt_us(t1 - t0)}us "
                             f"@t={t0:.6f}")
    return "\n".join(lines)


# -- chrome-trace round trip -------------------------------------------------

def ops_from_chrome(doc: dict) -> list[dict]:
    """Rebuild op records from a Chrome trace recorded with lineage on.

    ``op_end`` flattens each decomposition into json-safe span args
    (``seg_<name>``), so the CLI can recompute the full percentile table
    from the trace file alone."""
    from .export import spans_from_chrome
    ops = []
    for span in spans_from_chrome(doc):
        args = span.get("args") or {}
        if span.get("cat") != "op" or "e2e" not in args:
            continue
        segs = {k[4:]: float(v) for k, v in args.items()
                if k.startswith("seg_")}
        ops.append({
            "op_id": int(args.get("op_id", len(ops))),
            "kind": span.get("name", "op"),
            "scope": args.get("scope", "db"),
            "count": int(args.get("count", 1)),
            "nbytes": int(args.get("nbytes", 0)),
            "t0": span["t0"],
            "e2e": float(args["e2e"]),
            "segs": segs,
        })
    return ops


def exemplars_from_chrome(doc: dict, ops: Optional[list[dict]] = None,
                          top_k: int = 5) -> list[dict]:
    """Top-K slowest ops from a trace, with span trees reconstructed by
    same-actor time containment (the trace already carries the component
    spans recorded inside each op's window)."""
    from .export import spans_from_chrome
    if ops is None:
        ops = ops_from_chrome(doc)
    ranked = sorted(ops, key=lambda r: (-r["e2e"], r["op_id"]))[:top_k]
    spans = spans_from_chrome(doc)
    op_windows = {}
    for span in spans:
        args = span.get("args") or {}
        if span.get("cat") == "op" and "op_id" in args:
            op_windows[int(args["op_id"])] = span
    out = []
    eps = 1e-12
    for rec in ranked:
        window = op_windows.get(rec["op_id"])
        children = []
        if window is not None:
            inside = [s for s in spans
                      if s is not window
                      and s.get("actor") == window.get("actor")
                      and s["t0"] >= window["t0"] - eps
                      and s["t1"] <= window["t1"] + eps]
            inside.sort(key=lambda s: (s["t0"], -(s["t1"] - s["t0"])))
            open_stack: list[dict] = []
            for s in inside:
                while open_stack and s["t0"] >= open_stack[-1]["t1"] - eps:
                    open_stack.pop()
                children.append([s["name"], s["t0"], s["t1"],
                                 len(open_stack)])
                open_stack.append(s)
        out.append(dict(rec, spans=children))
    return out
