"""Tests for the NVMe-KV command layer and the assembled hybrid SSD."""

import pytest

from repro.device import (
    CpuModel,
    DevLsmConfig,
    HybridSsd,
    HybridSsdConfig,
    KiB,
    MiB,
    NandGeometry,
)
from repro.sim import Environment
from repro.types import ValueRef, encode_key


def small_ssd(env, host_cpu=None, **devlsm_kw):
    geo = NandGeometry(channels=2, ways=2, blocks_per_way=64,
                       pages_per_block=16, page_size=4096)
    cfg = HybridSsdConfig(
        geometry=geo,
        peak_nand_bandwidth=50 * MiB,
        devlsm=DevLsmConfig(memtable_bytes=8 * KiB, **devlsm_kw),
    )
    host_cpu = host_cpu or CpuModel(env, cores=8, name="host")
    return HybridSsd(env, host_cpu, cfg)


def run(env, gen):
    return env.run(until=env.process(gen))


class TestKvDevice:
    def test_put_get_roundtrip(self):
        env = Environment()
        ssd = small_ssd(env)
        run(env, ssd.kv.put(encode_key(1), 100, b"value-1"))
        e = run(env, ssd.kv.get(encode_key(1)))
        assert e[3] == b"value-1"

    def test_get_missing(self):
        env = Environment()
        ssd = small_ssd(env)
        assert run(env, ssd.kv.get(encode_key(9))) is None

    def test_exist(self):
        env = Environment()
        ssd = small_ssd(env)
        run(env, ssd.kv.put(encode_key(2), 1, b"x"))
        assert run(env, ssd.kv.exist(encode_key(2))) is True
        assert run(env, ssd.kv.exist(encode_key(3))) is False

    def test_delete_makes_exist_false(self):
        env = Environment()
        ssd = small_ssd(env)
        run(env, ssd.kv.put(encode_key(4), 1, b"x"))
        run(env, ssd.kv.delete(encode_key(4), 2))
        assert run(env, ssd.kv.exist(encode_key(4))) is False

    def test_put_charges_pcie_payload(self):
        env = Environment()
        ssd = small_ssd(env)
        before = ssd.pcie.ledger.total_bytes
        run(env, ssd.kv.put(encode_key(5), 1, ValueRef(seed=5, size=4096)))
        delta = ssd.pcie.ledger.total_bytes - before
        assert delta >= 4096 + 4  # value + key at least

    def test_iterator_commands(self):
        env = Environment()
        ssd = small_ssd(env)
        for k in (1, 3, 5, 7):
            run(env, ssd.kv.put(encode_key(k), k, b"v%d" % k))
        snapshot = run(env, ssd.kv.create_iterator())
        rows, first = run(env, ssd.kv.iter_seek(snapshot, encode_key(2)))
        assert first[0] == encode_key(3)
        nxt = run(env, ssd.kv.iter_next(rows))
        assert nxt[0] == encode_key(5)
        run(env, ssd.kv.iter_next(rows))
        assert run(env, ssd.kv.iter_next(rows)) is None
        assert ssd.kv.command_counts["iter_next"] == 3
        # A seek past the last key returns no entry.
        assert run(env, ssd.kv.iter_seek(snapshot, encode_key(8)))[1] is None

    def test_bulk_scan_and_reset(self):
        env = Environment()
        ssd = small_ssd(env)
        for k in range(20):
            run(env, ssd.kv.put(encode_key(k), k, b"b" * 64))
        columns = run(env, ssd.kv.bulk_scan())
        assert len(columns[0]) == 20
        run(env, ssd.kv.reset())
        assert ssd.kv.is_empty

    def test_command_counts_and_host_cpu(self):
        env = Environment()
        host = CpuModel(env, cores=8, name="host")
        ssd = small_ssd(env, host_cpu=host)
        for k in range(5):
            run(env, ssd.kv.put(encode_key(k), k, b"v"))
        run(env, ssd.kv.get(encode_key(0)))
        assert ssd.kv.command_counts["put"] == 5
        assert ssd.kv.command_counts["get"] == 1
        assert host.busy_by_tag["nvme_kv"] > 0


class TestHybridSsd:
    def test_block_and_kv_coexist(self):
        env = Environment()
        ssd = small_ssd(env)

        def proc():
            yield from ssd.block.write(0, 64 * KiB)
            yield from ssd.kv.put(encode_key(1), 1, b"kv-value")
            data = yield from ssd.kv.get(encode_key(1))
            return data

        e = env.run(until=env.process(proc()))
        assert e[3] == b"kv-value"
        assert ssd.block.bytes_written == 64 * KiB

    def test_disaggregation_point_splits_space(self):
        env = Environment()
        ssd = small_ssd(env)
        assert 0 < ssd.ftl.disaggregation_point < ssd.ftl.total_logical_pages
        assert ssd.block.capacity_bytes > 0
        assert len(ssd.devlsm.lpns) > 0

    def test_both_interfaces_share_pcie_ledger(self):
        env = Environment()
        ssd = small_ssd(env)

        def proc():
            yield from ssd.block.write(0, 32 * KiB)
            yield from ssd.kv.put(encode_key(1), 1, b"x" * 1024)

        env.run(until=env.process(proc()))
        assert ssd.pcie.ledger.total_bytes >= 32 * KiB + 1024

    def test_block_write_out_of_range(self):
        env = Environment()
        ssd = small_ssd(env)
        from repro.device import FtlError

        def proc():
            yield from ssd.block.write(ssd.block.capacity_bytes, 4096)

        with pytest.raises(FtlError):
            env.run(until=env.process(proc()))

    def test_namespaces_pair_block_and_kv(self):
        env = Environment()
        ssd = small_ssd(env)
        ns1 = ssd.create_namespace("tenant-a", 256 * KiB, 64 * KiB)
        ns2 = ssd.create_namespace("tenant-b", 256 * KiB, 64 * KiB)
        assert ns1.nsid != ns2.nsid
        assert ns2.block_offset == ns1.block_offset + ns1.block_bytes
        assert len(ssd.namespaces()) == 2
        ssd.delete_namespace(ns1.nsid)
        assert len(ssd.namespaces()) == 1

    def test_namespace_exhaustion(self):
        env = Environment()
        ssd = small_ssd(env)
        with pytest.raises(ValueError):
            ssd.create_namespace("huge", ssd.block.capacity_bytes + 1, 1024)
        kv_bytes = len(ssd.devlsm.lpns) * ssd.devlsm.page_size
        with pytest.raises(ValueError):
            ssd.create_namespace("hugekv", 1024, kv_bytes + 1)
        with pytest.raises(KeyError):
            ssd.delete_namespace(99)
