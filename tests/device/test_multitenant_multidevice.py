"""Tests for per-tenant namespaces and the two-device deployment."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_options  # noqa: E402

from repro.core import KvaccelDb  # noqa: E402
from repro.device import (  # noqa: E402
    CpuModel,
    DevLsmConfig,
    HybridSsd,
    HybridSsdConfig,
    KiB,
    MiB,
    MultiDeviceSetup,
    NandGeometry,
)
from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402


def small_cfg(**kw):
    geo = NandGeometry(channels=2, ways=2, blocks_per_way=64,
                       pages_per_block=16, page_size=4096)
    base = dict(geometry=geo, peak_nand_bandwidth=50 * MiB,
                devlsm=DevLsmConfig(memtable_bytes=8 * KiB))
    base.update(kw)
    return HybridSsdConfig(**base)


def tenant_ssd(env):
    cpu = CpuModel(env, cores=8)
    return HybridSsd(env, cpu, small_cfg()), cpu


def mapped_file_pages(ns, db):
    """The mapped LPNs of every live file of ``db``'s Main-LSM on ``ns``."""
    fs, ftl = db.main.fs, ns.block.ftl
    return [lpn for name in fs.list_files()
            for off, n in fs.open(name).extents
            for lpn in ns.block.pages(off, n) if ftl.is_mapped(lpn)]


class TestKvNamespaces:
    def test_create_and_isolation(self):
        env = Environment()
        ssd, _ = tenant_ssd(env)
        a = ssd.create_namespace("tenant-a", 64 * KiB, 1 * MiB)
        b = ssd.create_namespace("tenant-b", 64 * KiB, 1 * MiB)
        assert a.nsid != b.nsid

        run(env, a.kv.put(encode_key(1), 1, b"a-value"))
        run(env, b.kv.put(encode_key(1), 2, b"b-value"))
        ea = run(env, a.kv.get(encode_key(1)))
        eb = run(env, b.kv.get(encode_key(1)))
        assert ea[3] == b"a-value"
        assert eb[3] == b"b-value"
        # a key written only by A is invisible to B
        run(env, a.kv.put(encode_key(7), 3, b"only-a"))
        assert run(env, b.kv.get(encode_key(7))) is None

    def test_capacity_limit(self):
        """One ledger per region: the KV quotas of all namespaces fit in
        the KV region together."""
        env = Environment()
        ssd, _ = tenant_ssd(env)
        kv_bytes = len(ssd.devlsm.lpns) * ssd.devlsm.page_size
        with pytest.raises(ValueError):
            ssd.create_namespace("huge", 4 * KiB, kv_bytes + 1)
        ssd.create_namespace("half", 4 * KiB, kv_bytes // 2)
        with pytest.raises(ValueError):
            ssd.create_namespace("overflow", 4 * KiB, kv_bytes // 2 + 4096)

    def test_delete_resets_tenant(self):
        env = Environment()
        ssd, _ = tenant_ssd(env)
        a = ssd.create_namespace("a", 64 * KiB, 1 * MiB)
        run(env, a.kv.put(encode_key(1), 1, b"v"))
        ssd.delete_namespace(a.nsid)
        assert a.kv.is_empty
        assert ssd.namespaces() == []
        with pytest.raises(KeyError):
            ssd.delete_namespace(a.nsid)

    def test_tenants_map_disjoint_pages(self):
        """Each namespace flushes into its own run of the KV region: two
        tenants' runs occupy the sum of their pages, and deleting one
        trims only its own."""
        env = Environment()
        ssd, _ = tenant_ssd(env)
        a = ssd.create_namespace("a", 64 * KiB, 1 * MiB)
        b = ssd.create_namespace("b", 64 * KiB, 1 * MiB)

        def pages(ns):
            page = ssd.config.geometry.page_size
            return sum(max(1, -(-r.data_bytes // page))
                       for r in ns.kv.devlsm.runs)

        for ns, base in ((a, 0), (b, 10_000)):
            for i in range(40):
                run(env, ns.kv.put(encode_key(base + i), i + 1, b"t" * 1024))
        assert pages(a) > 0 and pages(b) > 0
        assert ssd.ftl.mapped_pages("kv") == pages(a) + pages(b)
        ssd.delete_namespace(a.nsid)
        assert ssd.ftl.mapped_pages("kv") == pages(b)
        assert run(env, b.kv.get(encode_key(10_000))) is not None
        c = ssd.create_namespace("c", 64 * KiB, 1 * MiB)   # reuses a's runs
        assert c.kv.devlsm.lpns == a.kv.devlsm.lpns
        assert c.block.lpns == a.block.lpns
        assert not set(c.kv.devlsm.lpns) & set(b.kv.devlsm.lpns)

    def test_tenants_share_nand_contention(self):
        """Two tenants writing concurrently see the shared NAND queue."""
        env = Environment()
        ssd, _ = tenant_ssd(env)
        a = ssd.create_namespace("a", 64 * KiB, 1 * MiB)
        b = ssd.create_namespace("b", 64 * KiB, 1 * MiB)

        def tenant(ns, base):
            for i in range(200):
                yield from ns.kv.put(encode_key(base + i), i + 1, b"y" * 512)

        pa = env.process(tenant(a, 0))
        pb = env.process(tenant(b, 10_000))
        env.run(until=env.all_of([pa, pb]))
        assert all(ns.kv.devlsm.total_bytes > 0 for ns in ssd.namespaces())
        assert ssd.nand.total_bytes > 0
        assert len(ssd.namespaces()) == 2


class TestNamespaceIsolation:
    def test_deleting_a_namespace_carved_first_spares_the_other_stack(self):
        """A stack on ``tenant-a`` keeps its files when ``tenant-b``, carved
        first at the start of the block region, is deleted."""
        env = Environment()
        ssd, cpu = tenant_ssd(env)
        ns_b = ssd.create_namespace("tenant-b", 4 * MiB, 1 * MiB)
        ns_a = ssd.create_namespace("tenant-a", 4 * MiB, 1 * MiB)
        db = KvaccelDb(env, small_options(), ns_a, cpu, name="tenant-a",
                       rollback="eager")

        def fill():
            for i in range(500):
                yield from db.put(encode_key(i), b"A" * 512)
            yield from db.wait_for_quiesce()

        run(env, fill())
        pages = mapped_file_pages(ns_a, db)
        assert pages and set(pages) <= set(ns_a.block.lpns)
        ssd.delete_namespace(ns_b.nsid)
        assert all(map(ssd.ftl.is_mapped, pages))
        for i in range(500):
            assert run(env, db.get(encode_key(i))) == b"A" * 512, i
        db.close()

    def test_unaligned_namespaces_share_no_block_page(self):
        env = Environment()
        ssd, _ = tenant_ssd(env)
        page = ssd.config.geometry.page_size
        first = ssd.create_namespace("first", 10_000, 10_000)
        second = ssd.create_namespace("second", 10_000, 10_000)

        def block_pages(ns):
            lo = ns.block_offset // page
            return set(range(lo, (ns.block_offset + ns.block_bytes - 1)
                             // page + 1))

        assert not block_pages(first) & block_pages(second)
        for ns in (first, second):
            run(env, ns.block.write(0, ns.block_bytes))
        ssd.delete_namespace(first.nsid)
        assert all(map(ssd.ftl.is_mapped, second.block.lpns))
        assert not any(map(ssd.ftl.is_mapped, first.block.lpns))

    def test_two_tenant_stacks_share_one_device(self):
        """Two KVACCEL stacks on two namespaces of one device, each with
        redirected writes in its own Dev-LSM: deleting one namespace
        leaves the other's reads intact."""
        env = Environment()
        ssd, cpu = tenant_ssd(env)
        namespaces = [ssd.create_namespace(f"tenant-{t}", 4 * MiB, 1 * MiB)
                      for t in "ab"]
        dbs = [KvaccelDb(env, small_options(), ns, cpu, name=ns.name,
                         rollback="disabled") for ns in namespaces]
        for db in dbs:
            db.detector.stop()

        def value(tag, i):
            return (b"%s-%d." % (tag, i)).ljust(256, b"v")

        def fill(db, tag):
            for i in range(200):
                yield from db.put(encode_key(i), value(tag, i))
            db.detector.stall_condition = True
            for i in range(200, 300):
                yield from db.put(encode_key(i), value(tag, i))
            db.detector.stall_condition = False
            yield from db.wait_for_quiesce()

        env.run(until=env.all_of([env.process(fill(db, tag))
                                  for db, tag in zip(dbs, (b"a", b"b"))]))
        for db, ns in zip(dbs, namespaces):
            assert db.controller.redirected_writes == 100
            assert ns.kv.devlsm.total_bytes > 0
        db_a, db_b = dbs
        a_pages = mapped_file_pages(namespaces[0], db_a)
        assert a_pages
        db_b.close()
        ssd.delete_namespace(namespaces[1].nsid)
        assert namespaces[1].kv.is_empty
        assert not namespaces[0].kv.is_empty
        assert all(map(ssd.ftl.is_mapped, a_pages))
        for i in (0, 199, 200, 299):
            assert run(env, db_a.get(encode_key(i))) == value(b"a", i), i
        db_a.close()


class TestMultiDevice:
    def test_kvaccel_runs_on_two_devices(self):
        env = Environment()
        cpu = CpuModel(env, cores=8)
        setup = MultiDeviceSetup(env, cpu, small_cfg(), small_cfg())
        db = KvaccelDb(env, small_options(), setup, cpu, rollback="disabled")
        db.detector.stop()

        def gen():
            for i in range(200):
                yield from db.put(encode_key(i), b"m-%d" % i)
            db.detector.stall_condition = True
            for i in range(200, 400):
                yield from db.put(encode_key(i), b"d-%d" % i)
            db.detector.stall_condition = False

        run(env, gen())
        assert db.controller.redirected_writes == 200
        for k in (0, 250, 399):
            assert run(env, db.get(encode_key(k))) is not None, k
        db.close()

    def test_redirected_traffic_lands_on_second_device(self):
        env = Environment()
        cpu = CpuModel(env, cores=8)
        setup = MultiDeviceSetup(env, cpu, small_cfg(), small_cfg())
        db = KvaccelDb(env, small_options(), setup, cpu, rollback="disabled")
        db.detector.stop()
        db.detector.stall_condition = True

        def gen():
            for i in range(100):
                yield from db.put(encode_key(i), b"x" * 1024)

        run(env, gen())
        # KV payloads cross device B's link; device A's NAND only holds the
        # (empty) Main-LSM artifacts.
        assert setup.kv_ssd.pcie.ledger.total_bytes >= 100 * 1024
        assert setup.kv_ssd.nand.total_bytes >= 0
        assert setup.block_ssd.devlsm.is_empty
        assert not setup.kv_ssd.devlsm.is_empty
        db.close()

    def test_multi_device_avoids_nand_contention(self):
        """Rollback merge traffic hits device A while device B serves the
        bulk scan: the single-device setup funnels both through one NAND."""
        env = Environment()
        cpu = CpuModel(env, cores=8)
        setup = MultiDeviceSetup(env, cpu, small_cfg(), small_cfg())
        db = KvaccelDb(env, small_options(), setup, cpu, rollback="disabled")
        db.detector.stop()
        db.detector.stall_condition = True

        def load():
            for i in range(300):
                yield from db.put(encode_key(i), b"z" * 512)
            db.detector.stall_condition = False

        run(env, load())
        run(env, db.final_rollback())
        assert setup.kv_ssd.devlsm.is_empty
        for k in (0, 150, 299):
            assert run(env, db.get(encode_key(k))) is not None
        db.close()
