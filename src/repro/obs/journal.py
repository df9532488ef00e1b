"""Deterministic flight recorder + first-divergence bisector.

The :class:`Journal` is the fourth observability plane (after tracer,
telemetry and lineage): a black-box recorder of every executed kernel
event — monotonic index, sim time, owning process, event class — plus
every fault-site visit and periodic per-layer state digests.  Like the
other planes it is absent until installed (``env.journal`` is None, the
site verbs on ``env.probes`` do nothing), and an installed journal is
purely *passive* — it never yields, never schedules events, never touches
the heap — so a journal-ENABLED run takes the exact same simulated
trajectory as a bare one (pinned by the golden fig11 tests).

Why it exists: every guarantee here rests on bit-identical determinism,
but a failed golden check used to be a giant diff of final series.  Two
journals of the "same" run turn that into *"first divergent event at
t=…, process=…, site=…"*:

* **events** — :meth:`Journal.observe`, an observer of the kernel's
  dispatch loop, records one entry per dispatched event;
* **sites** — the ``fault_point``/``touch`` chokepoint in
  ``repro.faults.registry`` records every named site visit (with or
  without a FaultRegistry installed), so divergence reports can name the
  semantic location, not just the event class;
* **digests** — registered layers (Main-LSM, controller, detector,
  Dev-LSM, FTL wear, resilience) expose ``state_digest()`` dicts the
  journal hashes into checkpoint records every ``period`` sim-seconds,
  which lets the bisector narrow a divergence to one checkpoint window
  before walking events.

Exports are JSONL (optionally gzip with ``mtime=0``), so the same
profile + seed produces *byte-identical* files — the property the
``planes-smoke`` CI job and the determinism tests pin.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
from array import array
from collections import Counter
from functools import partial
from itertools import compress
from pathlib import Path
from typing import Callable, Optional

from ..faults.registry import fault_point, touch
from ..sim.core import Process
from .columns import ColumnStore, RowView

__all__ = [
    "Journal",
    "digest_state",
    "register_digest_sources",
    "write_journal",
    "load_journal",
    "first_divergence",
    "format_divergence",
    "write_divergence_artifact",
    "divergence_dir",
    "replay_window",
    "DIVERGENCE_DIR_ENV",
]

# Record kinds (field 0 of every record tuple), and the byte that stands
# for each in the kind column.
EVENT = "event"
SITE = "site"
DIGEST = "digest"
_KIND_NAMES = (EVENT, SITE, DIGEST)
_EVENT, _SITE, _DIGEST = range(3)

DIVERGENCE_DIR_ENV = "REPRO_DIVERGENCE_DIR"


def digest_state(state: dict) -> str:
    """Stable short hash of a layer's ``state_digest()`` dict.

    ``sort_keys`` + compact separators make the serialization canonical;
    ``default=_clean`` covers sets and other non-JSON scalars so layers
    can report e.g. retired-block sets directly.
    """
    def _clean(obj):
        if isinstance(obj, (set, frozenset)):
            return sorted(obj)
        return str(obj)

    blob = json.dumps(state, sort_keys=True, separators=(",", ":"),
                      default=_clean)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Journal(ColumnStore):
    """The flight recorder attached to one Environment.

    Records read as tuples ``(kind, idx, t, proc, tag)``:

    * ``("event", idx, t, proc_name, event_class)`` — one per dispatched
      kernel event (``proc_name`` is ``""`` when no Process owns it);
    * ``("site", idx, t, proc_name, site_name)`` — one per fault-site
      visit;
    * ``("digest", idx, t, layer_name, hexdigest)`` — one per registered
      layer at each checkpoint boundary.

    ``idx`` is a monotonic global index over *all* records (it keeps
    counting even when ``ring`` evicts or ``window`` skips, so a crash
    tail or a suspect-window recording still reports absolute positions).

    The journal stores them as columns (:mod:`repro.obs.columns`): the
    kind, one byte; ``t``, a double; ``proc`` and ``tag`` as ids into one
    name table that interns each string on first sight (it keeps every
    name it has seen, each digest's among them, also under ``ring``).
    ``idx`` is implied by the row's position and is stored only once
    ``window`` has skipped a record.  That is 17 bytes a record;
    :attr:`records` builds the tuples when they are read.

    ``ring=N`` keeps only the last N records (crash tails, bounded
    memory); ``window=(t0, t1)`` records only events/sites inside the
    closed sim-time interval (the ``replay-to`` mode).
    """

    def __init__(self, period: float = 1.0, ring: Optional[int] = None,
                 window: Optional[tuple] = None):
        if period <= 0:
            raise ValueError("period must be positive")
        if ring is not None and ring <= 0:
            raise ValueError("ring must be positive")
        super().__init__(ring)
        self.period = float(period)
        self.ring = ring
        self.window = window
        self._kind = bytearray()
        self._t = array("d")
        self._proc = array("I")
        self._tag = array("I")
        self._columns = (self._kind, self._t, self._proc, self._tag)
        # ``idx`` of row 0 while every index is implied by position; the
        # first record the window skips turns this into a column.
        self._idx0 = 0
        self._idxs: Optional[array] = None
        self.event_count = 0
        self.site_count = 0
        self.checkpoint_count = 0
        self._idx = 0
        # First checkpoint boundary; ``observe`` compares each popped
        # event's timestamp against this before the event dispatches.
        self._next_ckpt = self.period
        self._sources: list[tuple[str, Callable[[], dict]]] = []
        self.layer_names: list[str] = []
        self._env = None

    # -- wiring ------------------------------------------------------------
    def install(self, env) -> "Journal":
        """Attach to an Environment: claim its site verbs (the same pair
        the fault registry installs — they record here and reach the
        registry, whichever is present) and observe the dispatch loop."""
        env.journal = self
        env.probes.touch = partial(touch, env)
        env.probes.at = partial(fault_point, env)
        env.add_observer(self.observe)
        self._env = env
        return self

    def detach(self) -> None:
        """Let go of the world once the run is over: the Environment and
        the digest sources (their names stay in ``layer_names``, for the
        file header).  The records stay readable; no checkpoint can be
        taken any more."""
        self._env = None
        self._sources = None

    def add_digest_source(self, name: str, fn: Callable[[], dict]) -> None:
        """Register a layer digest; hashed at every checkpoint in
        registration order (so the digest stream is deterministic)."""
        self._sources.append((name, fn))
        self.layer_names.append(name)

    # -- recording (called from the kernel / fault probes) ------------------
    def observe(self, when: float, event) -> None:
        """The dispatch loop's observer: one record per executed event,
        named after the first process it resumes, preceded by a digest
        checkpoint whenever the event crosses the next boundary — before
        it dispatches, so the digest captures layer state as of the
        boundary itself."""
        if when >= self._next_ckpt:
            self._checkpoint(when)
        proc = event._proc
        if proc is not None:
            name = proc.name
        else:
            name = ""
            for cb in event.callbacks:
                owner = getattr(cb, "__self__", None)
                if type(owner) is Process:
                    name = owner.name
                    break
        self.record_event(when, name, type(event).__name__)

    def record_event(self, t: float, proc: str, cls: str) -> None:
        self.event_count += 1
        self._record(_EVENT, t, proc, cls)

    def site(self, t: float, proc: str, site: str) -> None:
        self.site_count += 1
        self._record(_SITE, t, proc, site)

    def _record(self, kind: int, t: float, proc: str, tag: str) -> None:
        """Take the next index and store the record, unless it is an
        event or a site and ``t`` falls outside the window."""
        idx = self._idx
        self._idx = idx + 1
        w = self.window
        if w is not None and kind != _DIGEST and not (w[0] <= t <= w[1]):
            if self._idxs is None:
                self._idxs = array("q", range(self._idx0,
                                              self._idx0 + len(self._t)))
                self._columns += (self._idxs,)
            return
        if self._bound is not None:
            self._admit()
        if self._idxs is not None:
            self._idxs.append(idx)
        ids = self._ids
        try:
            proc_id = ids[proc]
            tag_id = ids[tag]
        except KeyError:
            proc_id = self._intern(proc)
            tag_id = self._intern(tag)
        self._kind.append(kind)
        self._t.append(t)
        self._proc.append(proc_id)
        self._tag.append(tag_id)

    def _trimmed(self, n: int) -> None:
        self._idx0 += n

    def _checkpoint(self, t: float) -> None:
        """Take a digest checkpoint; called by ``observe`` when the popped
        event's timestamp crosses the next boundary (and manually via
        :meth:`checkpoint_now`).  Records carry the *boundary* time, so
        two runs checkpoint at identical labels while their trajectories
        agree."""
        ck_t = self._next_ckpt
        # Skip idle gaps: one checkpoint per crossing, labeled with the
        # last boundary at or before t.
        nxt = self._next_ckpt
        while nxt <= t:
            ck_t = nxt
            nxt += self.period
        self._next_ckpt = nxt
        self._digest_all(ck_t)

    def checkpoint_now(self, t: Optional[float] = None) -> None:
        """Force a checkpoint (end-of-run flush, so even runs shorter
        than one period carry at least one digest record)."""
        if t is None:
            t = self._env.now if self._env is not None else 0.0
        self._digest_all(t)

    def _digest_all(self, ck_t: float) -> None:
        if self._sources is None:
            raise RuntimeError("the journal is detached from its run; "
                               "it takes no more checkpoints")
        self.checkpoint_count += 1
        for name, fn in self._sources:
            self._record(_DIGEST, ck_t, name, digest_state(fn()))

    # -- views ---------------------------------------------------------------
    @property
    def records(self) -> RowView:
        """The stored records, oldest first, as a read-only sequence of
        ``(kind, idx, t, proc, tag)`` tuples built on access."""
        return self._view(self._row, self._rows)

    def _row(self, p: int) -> tuple:
        idx = self._idxs[p] if self._idxs is not None else self._idx0 + p
        table = self._table
        return (_KIND_NAMES[self._kind[p]], idx, self._t[p],
                table[self._proc[p]], table[self._tag[p]])

    def _rows(self, head: int):
        name = self._table.__getitem__
        idxs = (self._idxs[head:] if self._idxs is not None
                else range(self._idx0 + head, self._idx0 + len(self._t)))
        return zip(map(_KIND_NAMES.__getitem__, self._kind[head:]), idxs,
                   self._t[head:], map(name, self._proc[head:]),
                   map(name, self._tag[head:]))

    @staticmethod
    def record_dict(rec: tuple) -> dict:
        kind = rec[0]
        key = "layer" if kind == DIGEST else "proc"
        tag_key = {EVENT: "class", SITE: "site", DIGEST: "digest"}[kind]
        return {"kind": kind, "idx": rec[1], "t": rec[2],
                key: rec[3], tag_key: rec[4]}

    def tail(self, n: Optional[int] = None) -> list:
        """The most recent records as plain dicts, oldest first — the
        crash-tail view the fault harness attaches to its reports."""
        records = list(self.records)
        if n is not None:
            records = records[-n:]
        return [self.record_dict(r) for r in records]

    def event_class_histogram(self) -> dict:
        head = self._head
        counts = Counter(compress(self._tag[head:],
                                  map(_EVENT.__eq__, self._kind[head:])))
        return {self._table[tag]: n for tag, n in counts.items()}

    def __repr__(self) -> str:
        return (f"Journal(records={len(self)}, "
                f"events={self.event_count}, sites={self.site_count}, "
                f"checkpoints={self.checkpoint_count}, "
                f"period={self.period})")


# -- digest-source wiring ----------------------------------------------------

def register_digest_sources(journal: Journal, db, ssd=None,
                            scope: str = "") -> None:
    """Register every layer of a built system on ``journal``.

    Duck-typed over the three system shapes the bench runner builds:
    a ClusterDb fans out per shard under ``cluster.shard{k}.`` scopes
    (the channel-naming convention telemetry and lineage already use), a
    KvaccelDb registers all four model layers, and a plain DbImpl/AdocDb
    registers the LSM plus FTL wear.
    """
    if hasattr(db, "shards") and hasattr(db, "router"):      # ClusterDb
        for sh in db.shards:
            register_digest_sources(journal, sh.db, sh.ssd,
                                    scope=f"cluster.shard{sh.sid}.")
        # Replica groups (replication-enabled clusters only — an empty
        # ``groups`` adds no sources, keeping unreplicated digest streams
        # byte-identical): the group's own protocol digest plus the full
        # layer set of every backup stack.  Sources bind the stacks they
        # see *now*; after a promotion the promoted stack keeps digesting
        # under its backup scope and the group digest's ``epoch`` moves.
        groups = getattr(db, "groups", None) or {}
        for sid in sorted(groups):
            grp = groups[sid]
            journal.add_digest_source(f"cluster.shard{sid}.repl",
                                      grp.state_digest)
            for j, b in enumerate(grp.backups):
                register_digest_sources(
                    journal, b.db, b.ssd,
                    scope=f"cluster.shard{sid}.backup{j}.")
        return
    if hasattr(db, "main") and hasattr(db, "controller"):    # KvaccelDb
        dev = ssd if ssd is not None else db.ssd
        journal.add_digest_source(scope + "lsm", db.main.state_digest)
        journal.add_digest_source(scope + "controller",
                                  db.controller.state_digest)
        journal.add_digest_source(scope + "detector",
                                  db.detector.state_digest)
        journal.add_digest_source(scope + "devlsm", dev.devlsm.state_digest)
        journal.add_digest_source(scope + "ftl", dev.ftl.state_digest)
        if db.resil is not None:
            def resil_digest(db=db, dev=dev):
                out = db.resil.state_digest()
                out["kv_retry"] = dev.kv.retry.stats.as_dict()
                out["block_retry"] = dev.block.retry.stats.as_dict()
                return out
            journal.add_digest_source(scope + "resil", resil_digest)
        return
    if hasattr(db, "state_digest"):                          # DbImpl / AdocDb
        journal.add_digest_source(scope + "lsm", db.state_digest)
    if ssd is not None and hasattr(ssd, "ftl"):
        journal.add_digest_source(scope + "ftl", ssd.ftl.state_digest)


# -- export / import ---------------------------------------------------------

def _serialize(journal: Journal, meta: Optional[dict] = None) -> bytes:
    header = {
        "kind": "header", "schema": "repro-journal", "version": 1,
        "period": journal.period,
        "events": journal.event_count, "sites": journal.site_count,
        "checkpoints": journal.checkpoint_count,
        "dropped": journal.dropped,
        "layers": journal.layer_names,
    }
    if meta:
        header.update(meta)
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    dumps = json.dumps
    for rec in journal.records:
        lines.append(dumps(list(rec), separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode()


def write_journal(journal: Journal, path: str,
                  meta: Optional[dict] = None) -> str:
    """Write the journal as JSONL (gzip when ``path`` ends in ``.gz``).

    Gzip is written with ``mtime=0`` and no embedded filename, so two
    recordings of the same trajectory are *byte*-identical files — the
    determinism tests and the CI planes-smoke job diff them directly.
    """
    payload = _serialize(journal, meta)
    p = Path(path)
    if p.parent != Path("."):
        p.parent.mkdir(parents=True, exist_ok=True)
    if path.endswith(".gz"):
        with open(p, "wb") as fh:
            with gzip.GzipFile(filename="", mode="wb", fileobj=fh,
                               mtime=0) as gz:
                gz.write(payload)
    else:
        p.write_bytes(payload)
    return str(p)


def load_journal(path: str) -> dict:
    """Load a journal file: ``{"meta": header, "records": [tuple, ...]}``."""
    raw = Path(path).read_bytes()
    if path.endswith(".gz") or raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    lines = raw.decode().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty journal")
    meta = json.loads(lines[0])
    if meta.get("schema") != "repro-journal":
        raise ValueError(f"{path}: not a repro-journal file")
    records = [tuple(json.loads(line)) for line in lines[1:] if line]
    return {"meta": meta, "records": records}


# -- the bisector -------------------------------------------------------------

def _records_differ(x: tuple, y: tuple) -> bool:
    # Compare content, not idx: positions already align by construction.
    return x[0] != y[0] or x[2] != y[2] or x[3] != y[3] or x[4] != y[4]


def _nearest_site(records: list, pos: int) -> Optional[tuple]:
    """The closest site record strictly before ``pos``.

    Site records are emitted *before* a fault action applies (the journal
    hook sits ahead of the registry guard), so the record streams of a
    clean and a perturbed run are identical up to and including the
    perturbed site's own record — the nearest site preceding the first
    divergent record names the injection point."""
    for i in range(min(pos, len(records)) - 1, -1, -1):
        if records[i][0] == SITE:
            return records[i]
    return None


def first_divergence(a: dict, b: dict, context: int = 6) -> dict:
    """Locate the first divergence between two loaded journals.

    Two passes, cheapest first:

    1. walk the digest-checkpoint streams to the first mismatching
       ``(t, layer, digest)`` — this brackets the divergence between two
       checkpoints without touching the (much longer) event stream;
    2. walk the full record streams to the first record whose content
       differs (or the first extra record when one stream is a prefix of
       the other), then attach surrounding context and the nearest
       preceding site record from the same process.

    Returns a plain JSON-able report; ``report["divergent"]`` is False
    when the journals are record-identical.
    """
    ra, rb = a["records"], b["records"]

    # Pass 1: checkpoint digests.
    da = [r for r in ra if r[0] == DIGEST]
    db = [r for r in rb if r[0] == DIGEST]
    checkpoint = None
    for i, (x, y) in enumerate(zip(da, db)):
        if x[2] != y[2] or x[3] != y[3] or x[4] != y[4]:
            checkpoint = {
                "ordinal": i, "layer": x[3],
                "t_a": x[2], "t_b": y[2],
                "digest_a": x[4], "digest_b": y[4],
                "last_match_t": da[i - 1][2] if i else 0.0,
            }
            break
    else:
        if len(da) != len(db):
            i = min(len(da), len(db))
            extra = (da if len(da) > len(db) else db)[i]
            checkpoint = {
                "ordinal": i, "layer": extra[3],
                "t_a": extra[2] if len(da) > len(db) else None,
                "t_b": extra[2] if len(db) > len(da) else None,
                "digest_a": extra[4] if len(da) > len(db) else None,
                "digest_b": extra[4] if len(db) > len(da) else None,
                "last_match_t": da[i - 1][2] if i else 0.0,
            }

    # Pass 2: first divergent record.
    pos = None
    for i, (x, y) in enumerate(zip(ra, rb)):
        if _records_differ(x, y):
            pos = i
            break
    else:
        if len(ra) != len(rb):
            pos = min(len(ra), len(rb))

    report = {
        "divergent": pos is not None or checkpoint is not None,
        "records_a": len(ra), "records_b": len(rb),
        "checkpoint": checkpoint,
        "first_divergence": None,
        "suspect_site": None,
        "context_a": [], "context_b": [],
    }
    if pos is None:
        return report

    rec_a = ra[pos] if pos < len(ra) else None
    rec_b = rb[pos] if pos < len(rb) else None
    # The run with the extra/changed record anchors the report; prefer b
    # (conventionally the candidate run) when both exist.
    anchor, anchor_stream = ((rec_b, rb) if rec_b is not None
                             else (rec_a, ra))
    site_rec = _nearest_site(anchor_stream, pos)
    report["first_divergence"] = {
        "index": pos,
        "t": anchor[2],
        "kind": anchor[0],
        "proc": anchor[3] if anchor[0] != DIGEST else "",
        "tag": anchor[4],
        "a": Journal.record_dict(rec_a) if rec_a is not None else None,
        "b": Journal.record_dict(rec_b) if rec_b is not None else None,
    }
    if site_rec is not None:
        report["suspect_site"] = {"site": site_rec[4], "t": site_rec[2],
                                  "proc": site_rec[3]}
    lo = max(0, pos - context)
    hi = pos + context
    report["context_a"] = [Journal.record_dict(r) for r in ra[lo:hi]]
    report["context_b"] = [Journal.record_dict(r) for r in rb[lo:hi]]
    return report


def format_divergence(report: dict, name_a: str = "A",
                      name_b: str = "B") -> str:
    """Human rendering of a :func:`first_divergence` report."""
    lines = [f"journal diff: {name_a} vs {name_b}",
             f"  records: {report['records_a']} vs {report['records_b']}"]
    if not report["divergent"]:
        lines.append("  identical: no divergence found")
        return "\n".join(lines)
    ck = report.get("checkpoint")
    if ck is not None:
        lines.append(
            f"  first digest mismatch: layer={ck['layer']} "
            f"checkpoint#{ck['ordinal']} "
            f"(t_a={ck['t_a']}, t_b={ck['t_b']}; "
            f"last matching checkpoint t={ck['last_match_t']})")
    else:
        lines.append("  digest checkpoints: all matching "
                     "(divergence after the last checkpoint)")
    fd = report.get("first_divergence")
    if fd is not None:
        proc = fd["proc"] or "<no process>"
        lines.append(
            f"  first divergent record: #{fd['index']} "
            f"t={fd['t']:.9g} process={proc} "
            f"kind={fd['kind']} tag={fd['tag']}")
        if fd["a"] is None:
            lines.append(f"    (extra record only in {name_b})")
        elif fd["b"] is None:
            lines.append(f"    (extra record only in {name_a})")
        else:
            lines.append(f"    {name_a}: {fd['a']}")
            lines.append(f"    {name_b}: {fd['b']}")
    site = report.get("suspect_site")
    if site is not None:
        lines.append(
            f"  suspect site: {site['site']} "
            f"(t={site['t']:.9g}, process={site['proc'] or '<none>'})")
    ctx = report.get("context_b") or report.get("context_a")
    if ctx:
        lines.append("  context (candidate run):")
        for rec in ctx:
            tag = rec.get("class") or rec.get("site") or rec.get("digest")
            who = rec.get("proc", rec.get("layer", ""))
            lines.append(f"    #{rec['idx']:>8d} t={rec['t']:<12.9g} "
                         f"{rec['kind']:<6s} {who:<28s} {tag}")
    return "\n".join(lines)


# -- divergence artifacts ------------------------------------------------------

def divergence_dir() -> Optional[Path]:
    """Artifact directory from ``REPRO_DIVERGENCE_DIR`` (None = off)."""
    raw = os.environ.get(DIVERGENCE_DIR_ENV)
    return Path(raw) if raw else None


def write_divergence_artifact(name: str, report: dict,
                              journal: Optional[Journal] = None,
                              directory: Optional[Path] = None,
                              meta: Optional[dict] = None) -> Optional[str]:
    """Emit a divergence report (plus the journal, when given) under the
    artifact directory.  Returns the report path, or None when no
    directory is configured — callers embed the path in their failure
    message so a red golden/oracle check points straight at the evidence.
    """
    directory = directory if directory is not None else divergence_dir()
    if directory is None:
        return None
    directory.mkdir(parents=True, exist_ok=True)
    doc = {"schema": "repro-divergence", "version": 1, "name": name,
           "report": report}
    if meta:
        doc["meta"] = meta
    report_path = directory / f"{name}.divergence.json"
    report_path.write_text(json.dumps(doc, indent=2, sort_keys=True,
                                      default=str) + "\n")
    if journal is not None:
        write_journal(journal, str(directory / f"{name}.journal.jsonl.gz"),
                      meta={"artifact": name})
    return str(report_path)


# -- replay-to ----------------------------------------------------------------

def replay_window(system: str, workload: str, profile, t0: float, t1: float,
                  out_path: str, seed: int = 1,
                  rollback: str = "disabled") -> dict:
    """Re-run one cell recording only the suspect window ``[t0, t1]``
    into ``out_path``.

    The full trajectory is re-simulated (determinism makes that exact);
    only journal *storage* is windowed, so the output stays small while
    record indices remain the absolute positions ``first_divergence``
    reported.  Returns ``{"path", "records", "events"}``.
    """
    # Imported here: repro.bench imports repro.obs at module load.
    from ..bench.runner import RunSpec, run_workload

    if t1 < t0:
        raise ValueError("need t0 <= t1")
    spec = RunSpec(system, workload, 1, seed=seed, rollback=rollback)
    journal = Journal(period=profile.sample_period, window=(t0, t1))
    run_workload(spec, profile, journal=journal)
    path = write_journal(journal, out_path,
                         meta={"cell": spec.display, "seed": spec.seed,
                               "profile": profile.name})
    return {"path": path, "records": len(journal),
            "events": journal.event_count}
