"""KVACCEL Controller (paper Section V-C): dynamic I/O redirection.

The Controller routes every point operation to the correct interface:

* Write path — stall detected: allocate a sequence number, mark the key in
  the Metadata Manager, PUT through the key-value interface.  No stall:
  write into Main-LSM; if the key had a Dev-LSM copy, the metadata record
  is deleted (the Main-LSM copy is now newest — step 3-1).
* Read path — Metadata Manager membership decides the interface: keys in
  the Dev-LSM are served by KV GET, all others (or when the Dev-LSM is
  empty) by Main-LSM.

Sequence numbers come from the Main-LSM's global counter, so newest-wins
holds across both interfaces and rollback merges land in the right order.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..device.kv_dev import KvDevice
from ..lsm.db import DbImpl
from ..resil.errors import DeviceError
from ..sim import Environment
from ..types import KIND_DELETE, make_entry
from .detector import WriteStallDetector
from .metadata import MetadataManager

__all__ = ["KvaccelController"]

# Per write verb: its (redirect, normal) site pair, built once.
_SITES = {verb: (f"ctl.{verb}.redirect", f"ctl.{verb}.normal")
          for verb in ("put", "delete")}


class KvaccelController:
    """Routes operations between Main-LSM and the Dev-LSM."""

    def __init__(self, env: Environment, main: DbImpl, kv: KvDevice,
                 detector: WriteStallDetector, metadata: MetadataManager,
                 resil=None):
        self.env = env
        self.main = main
        self.kv = kv
        self.detector = detector
        self.metadata = metadata
        # Optional repro.resil.DegradationManager.  When set, persistent
        # Dev-LSM failures flip the system DEGRADED: redirection is
        # suspended and failed redirected batches fall back to Main-LSM
        # with their already-allocated sequence numbers, so no ack is lost.
        self.resil = resil
        self.redirected_writes = 0
        self.normal_writes = 0
        self.dev_reads = 0
        self.main_reads = 0
        self.last_write_time = env.now
        # Set by the RollbackManager while a rollback runs: redirection is
        # suspended so the Dev-LSM reset cannot drop late arrivals.
        self.rollback_in_progress = False
        self._last_route: Optional[str] = None
        tel = env.telemetry
        if tel is not None:
            tel.rate("ctl.redirected")
            tel.rate("ctl.normal")

    def state_digest(self) -> dict:
        """Routing-decision state for journal digest checkpoints."""
        return {
            "redirected_writes": self.redirected_writes,
            "normal_writes": self.normal_writes,
            "dev_reads": self.dev_reads,
            "main_reads": self.main_reads,
            "rollback_in_progress": self.rollback_in_progress,
            "last_route": self._last_route,
            "marked_keys": len(self.metadata),
        }

    def _redirect_allowed(self) -> bool:
        """Should this write go to the Dev-LSM?"""
        return (self.detector.stall_condition
                and not self.rollback_in_progress
                and (self.resil is None or self.resil.allows_redirect()))

    def _fallback(self, triples: list, exc: DeviceError) -> Generator:
        """Serve a failed redirected batch from Main-LSM instead.

        The sequence numbers were already allocated, so the entries are
        written through ``write_entries`` (seq-preserving); the keys are
        un-marked in the metadata table because their newest copy now
        lives in Main-LSM.
        """
        self.resil.record_error(exc)
        p = self.env.probes
        p.touch("resil.fallback")
        for key, _seq, _value in triples:
            if not self.metadata.is_empty and self.metadata.contains(key):
                self.metadata.remove(key)
        entries = [make_entry(k, s, v) for k, s, v in triples]
        p.enter("degraded")
        try:
            yield from self.main.write_entries(entries)
        finally:
            p.leave()
        for _ in entries:
            self.resil.record_fallback()

    def _route(self, to: str) -> None:
        """Trace an interface switch (main<->dev) on route changes."""
        if to != self._last_route:
            if self._last_route is not None:
                self.env.probes.instant("ctl", "ctl.switch",
                                        "write_controller", {"to": to})
            self._last_route = to

    # -- write path ----------------------------------------------------------
    def put(self, key: bytes, value) -> Generator:
        return self.put_batch([(key, value)])

    def put_batch(self, pairs: list) -> Generator:
        """Route a write batch (a ``None`` value is a delete)."""
        return self._write(pairs, _SITES["put"], self.kv.put_batch)

    def delete(self, key: bytes) -> Generator:
        """Route a delete: a tombstone on :meth:`put_batch`'s path, sent to
        the Dev-LSM as a KV DELETE command."""
        return self._write([(key, None)], _SITES["delete"],
                           lambda triples: self.kv.delete(key, triples[0][1]))

    def _write(self, pairs: list, sites: tuple, to_dev) -> Generator:
        """The write path of Section V-C: while the detector's latched
        verdict (refreshed every 0.1 s, paper Section VI-A) reports a stall,
        ``pairs`` get Main-LSM sequence numbers and go to the Dev-LSM as
        ``to_dev(triples)``; otherwise they go to Main-LSM."""
        self.last_write_time = self.env.now
        p = self.env.probes
        redirect_site, normal_site = sites
        if self._redirect_allowed():
            self._route("dev")
            yield from p.at(redirect_site)
            t0 = self.env.now
            triples = []
            for key, value in pairs:
                seq = self.main.next_seq()
                self.metadata.insert(key)
                triples.append((key, seq, value))
            p.enter("redirect")
            try:
                if self.resil is None:
                    yield from to_dev(triples)
                else:
                    try:
                        yield from to_dev(triples)
                        self.resil.record_success()
                    except DeviceError as exc:
                        yield from self._fallback(triples, exc)
            finally:
                p.leave()
            self.redirected_writes += len(triples)
            p.add("ctl.redirected", len(triples))
            # Redirected writes complete too — record their latency in the
            # same books as Main-LSM writes so P99 covers the whole system.
            self.main.stats.record_write_latency(self.env.now - t0,
                                                 count=len(triples))
        else:
            self._route("main")
            yield from p.at(normal_site)
            for key, _value in pairs:
                if not self.metadata.is_empty and self.metadata.contains(key):
                    self.metadata.remove(key)  # Main-LSM copy becomes newest
            yield from self.main.put_batch(pairs)
            self.normal_writes += len(pairs)
            p.add("ctl.normal", len(pairs))

    # -- read path -------------------------------------------------------------
    def get(self, key: bytes) -> Generator:
        """Read path steps (1)-(3) of Section V-C."""
        if not self.kv.is_empty and self.metadata.contains(key):
            yield from self.env.probes.at("ctl.get.dev")
            try:
                entry = yield from self.kv.get(key)
            except DeviceError as exc:
                # Do NOT fall back to Main-LSM here: the Dev-LSM holds the
                # newest copy, so a main read would return stale data.
                # Surface the error; the degradation manager notes it.
                if self.resil is not None:
                    self.resil.record_error(exc)
                raise
            self.dev_reads += 1
            if entry is None:
                # metadata said Dev-LSM but a rollback raced us: fall back.
                value = yield from self.main.get(key)
                return value
            if entry[2] == KIND_DELETE:
                return None
            return entry[3]
        yield from self.env.probes.at("ctl.get.main")
        value = yield from self.main.get(key)
        self.main_reads += 1
        return value
