"""Drills: timed direct calls into one layer's public functions.

No DES world is built (except by the two ``repro.perf`` kernel benches,
which are the kernel's own isolated drills).  Inputs are fixed and seeded;
each drill runs ``ROUNDS`` times and reports the best round, since a drill
asks what the code costs, not what the host did meanwhile.  A drill's
number moves only when that function moves, which is what makes a ledger
share explainable: share = calls x cost per call.
"""

from __future__ import annotations

import random
import time

ROUNDS = 5
# Calls per round of the per-call drills: enough that a round lasts tens
# of milliseconds, few enough that all drills fit in about two seconds.
PROBES = 20_000


def _best(body) -> float:
    """Least seconds of ``ROUNDS`` calls to ``body()``; ``body`` builds its
    input, then returns a callable that does only the timed work."""
    best = float("inf")
    for _ in range(ROUNDS):
        work = body()
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return best


def run_drills(seed: int) -> dict:
    from repro.bench.profiles import get_profile
    from repro.cluster import HashRouter
    from repro.core.metadata import MetadataManager
    from repro.device import CpuModel, NandGeometry
    from repro.device.ftl import Ftl
    from repro.device.pcie import TrafficLedger
    from repro.lsm import DictMemTable, SSTable
    from repro.lsm.bloom import BloomFilter
    from repro.lsm.iterator import k_way_merge
    from repro.lsm.version import FileMetadata, Version
    from repro.perf import bench_resource_handoff, bench_timeout_chain
    from repro.sim import Environment
    from repro.types import ValueRef, encode_key, entry_size
    from repro.workload.keygen import RandomKeys

    rng = random.Random(seed)
    value = 4096
    keys = sorted(rng.sample(range(1 << 22), 4096))
    entries = [(encode_key(k), i + 1, 1, ValueRef(k, value))
               for i, k in enumerate(keys)]
    shuffled = entries[:]
    rng.shuffle(shuffled)
    out = {}

    out["lsm.sstable_build_us_per_entry"] = _best(
        lambda: lambda: SSTable(1, entries)) / len(entries) * 1e6

    bloom = BloomFilter(len(entries))
    bloom.add_all(e[0] for e in entries)
    probes = [encode_key(rng.randrange(1 << 22)) for _ in range(PROBES)]

    def probe():
        may = bloom.may_contain
        for k in probes:
            may(k)
    out["lsm.bloom_probe_ns"] = _best(lambda: probe) / len(probes) * 1e9

    # DictMemTable is the memtable DbImpl builds by default, so it is the
    # one whose cost reaches a cell.
    adds = [shuffled[i % len(shuffled)] for i in range(PROBES)]

    def fill_memtable():
        mem = DictMemTable()
        return lambda: [mem.add(e) for e in adds]
    out["lsm.memtable_add_us"] = _best(fill_memtable) / len(adds) * 1e6

    # A 600-file, 3-level version shaped like a mid-fill mini128 tree.
    options = get_profile("mini128").options
    tables = [SSTable(n, entries[n * 6:n * 6 + 6]) for n in range(600)]
    levels = [[] for _ in range(options.num_levels)]
    for n, table in enumerate(tables):
        level = 0 if n < 12 else 1 if n < 120 else 2
        levels[level].append(FileMetadata(n, level, table))
    version = Version(options.num_levels, levels)

    def score():
        for _ in range(200):
            version.best_compaction_level(options)
            version.pending_compaction_bytes(options)
    out["lsm.version_score_us"] = _best(lambda: score) / 200 * 1e6

    runs = [entries[i::8] for i in range(8)]
    out["lsm.kway_merge_ns_per_entry"] = _best(
        lambda: lambda: sum(1 for _ in k_way_merge(runs))
    ) / len(entries) * 1e9

    pages = 20_000

    def ftl_writes():
        ftl = Ftl(NandGeometry(blocks_per_way=64))
        lpns = [rng.randrange(pages) for _ in range(pages)]
        return lambda: ftl.write_batch(lpns)
    out["device.ftl_write_batch_us_per_page"] = _best(ftl_writes) / pages * 1e6

    def ledger_records():
        ledger = TrafficLedger(bucket=1.0 / 128)
        spans = [(t := i * 1e-4, t + 3e-4, 16384.0) for i in range(PROBES)]
        return lambda: [ledger.record(*s) for s in spans]
    out["device.ledger_record_ns"] = _best(ledger_records) / PROBES * 1e9

    out["sim.timeout_chain_events_per_s"] = max(
        bench_timeout_chain(procs=32, iters=1000).events_per_sec
        for _ in range(ROUNDS))
    out["sim.resource_handoff_events_per_s"] = max(
        bench_resource_handoff(workers=16, rounds=500).events_per_sec
        for _ in range(ROUNDS))

    def metadata_inserts():
        meta = MetadataManager(CpuModel(Environment(), cores=8, name="host"))
        return lambda: [meta.insert(k) for k in probes]
    out["core.metadata_insert_ns"] = _best(
        metadata_inserts) / len(probes) * 1e9

    router = HashRouter(4, seed=seed)

    def route():
        r = router.route
        for k in probes:
            r(k)
    out["cluster.route_ns"] = _best(lambda: route) / len(probes) * 1e9

    batches = [[(k, None) for k in probes[i:i + 32]]
               for i in range(0, PROBES, 32)]
    out["cluster.split_batch_us"] = _best(
        lambda: lambda: [router.split_batch(b) for b in batches]
    ) / len(batches) * 1e6

    def keygen():
        gen = RandomKeys(1 << 22, 4, seed=seed).next_key
        return lambda: [gen() for _ in range(PROBES)]
    out["workload.keygen_ns"] = _best(keygen) / PROBES * 1e9

    def sizes():
        for e in entries:
            entry_size(e)
    out["types.entry_size_ns"] = _best(lambda: sizes) / len(entries) * 1e9
    return out
