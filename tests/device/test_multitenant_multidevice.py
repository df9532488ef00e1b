"""Tests for per-tenant KV namespaces and the two-device deployment."""

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


class TestKvNamespaces:
    def _iface(self, env):
        cpu = CpuModel(env, cores=8)
        ssd = HybridSsd(env, cpu, small_cfg())
        return ssd.kv_namespaces(cpu), ssd

    def test_create_and_isolation(self):
        env = Environment()
        iface, _ = self._iface(env)
        a = iface.create("tenant-a", quota_bytes=1 * MiB)
        b = iface.create("tenant-b", quota_bytes=1 * MiB)
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

    def test_quota_accounting(self):
        env = Environment()
        iface, _ = self._iface(env)
        a = iface.create("a", quota_bytes=4 * KiB)
        assert not a.over_quota
        for i in range(8):
            run(env, a.kv.put(encode_key(i), i, b"x" * 1024))
        assert a.used_bytes > 4 * KiB
        assert a.over_quota

    def test_capacity_limit(self):
        env = Environment()
        iface, ssd = self._iface(env)
        with pytest.raises(ValueError):
            iface.create("huge", quota_bytes=ssd.kv_capacity_bytes + 1)
        iface.create("half", quota_bytes=ssd.kv_capacity_bytes // 2)
        with pytest.raises(ValueError):
            iface.create("overflow",
                         quota_bytes=ssd.kv_capacity_bytes // 2 + 4096)

    def test_delete_resets_tenant(self):
        env = Environment()
        iface, _ = self._iface(env)
        a = iface.create("a", quota_bytes=1 * MiB)
        run(env, a.kv.put(encode_key(1), 1, b"v"))
        iface.delete(a.nsid)
        assert a.kv.is_empty
        with pytest.raises(KeyError):
            iface.get(a.nsid)
        with pytest.raises(KeyError):
            iface.delete(a.nsid)

    def test_tenants_map_disjoint_pages(self):
        """Each namespace flushes into its own slice of the KV region: two
        tenants' runs occupy the sum of their pages, and deleting one
        trims only its own."""
        env = Environment()
        iface, ssd = self._iface(env)
        a = iface.create("a", quota_bytes=1 * MiB)
        b = iface.create("b", quota_bytes=1 * MiB)

        def pages(ns):
            page = ssd.config.geometry.page_size
            return sum(max(1, -(-r.nbytes // page))
                       for r in ns.kv.devlsm.runs)

        for ns, base in ((a, 0), (b, 10_000)):
            for i in range(40):
                run(env, ns.kv.put(encode_key(base + i), i + 1, b"t" * 1024))
        assert pages(a) > 0 and pages(b) > 0
        assert ssd.ftl.mapped_pages("kv") == pages(a) + pages(b)
        iface.delete(a.nsid)
        assert ssd.ftl.mapped_pages("kv") == pages(b)
        assert run(env, b.kv.get(encode_key(10_000))) is not None
        c = iface.create("c", quota_bytes=1 * MiB)     # reuses a's slice
        assert not set(c.kv.devlsm.lpns) & set(b.kv.devlsm.lpns)

    def test_tenants_share_nand_contention(self):
        """Two tenants writing concurrently see the shared NAND queue."""
        env = Environment()
        iface, ssd = self._iface(env)
        a = iface.create("a", quota_bytes=1 * MiB)
        b = iface.create("b", quota_bytes=1 * MiB)

        def tenant(ns, base):
            for i in range(200):
                yield from ns.kv.put(encode_key(base + i), i + 1, b"y" * 512)

        pa = env.process(tenant(a, 0))
        pb = env.process(tenant(b, 10_000))
        env.run(until=env.all_of([pa, pb]))
        assert sum(ns.used_bytes for ns in iface.namespaces()) > 0
        assert ssd.nand.ledger.total_bytes > 0
        assert len(iface.namespaces()) == 2

    def test_custom_memtable_budget(self):
        env = Environment()
        iface, _ = self._iface(env)
        a = iface.create("a", quota_bytes=1 * MiB, memtable_bytes=2 * KiB)
        assert a.kv.devlsm.config.memtable_bytes == 2 * KiB


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
        assert setup.kv_ssd.nand.ledger.total_bytes >= 0
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
