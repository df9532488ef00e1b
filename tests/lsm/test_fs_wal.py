"""Tests for the file layer, page cache, and WAL."""

import pytest

from repro.device import BlockDevice, Ftl, MiB, NandArray, NandGeometry, PcieLink
from repro.lsm import FileSystem, FsError, PageCache, Wal
from repro.sim import Environment


def make_fs(env, page_cache=None):
    g = NandGeometry(channels=1, ways=1, blocks_per_way=128, pages_per_block=32,
                     page_size=4096)
    ftl = Ftl(g, split_fraction=0.75)
    nand = NandArray(env, g, peak_bandwidth=100 * MiB)
    pcie = PcieLink(env, bandwidth=400 * MiB)
    dev = BlockDevice(env, ftl, nand, pcie)
    return FileSystem(dev, page_cache=page_cache), dev


def run(env, gen):
    return env.run(until=env.process(gen))


class TestFileSystem:
    def test_create_open_exists(self):
        env = Environment()
        fs, _ = make_fs(env)
        f = fs.create("a")
        assert fs.open("a") is f
        assert fs.exists("a")
        assert not fs.exists("b")

    def test_duplicate_create_raises(self):
        env = Environment()
        fs, _ = make_fs(env)
        fs.create("a")
        with pytest.raises(FsError):
            fs.create("a")

    def test_open_missing_raises(self):
        env = Environment()
        fs, _ = make_fs(env)
        with pytest.raises(FsError):
            fs.open("missing")

    def test_append_grows_and_charges_device(self):
        env = Environment()
        fs, dev = make_fs(env)
        f = fs.create("data")
        run(env, fs.append(f, 10_000))
        assert f.size == 10_000
        assert dev.bytes_written == 10_000
        assert fs.used_bytes == 10_000

    def test_read_within_file(self):
        env = Environment()
        fs, dev = make_fs(env)
        f = fs.create("data")
        run(env, fs.append(f, 8192))
        run(env, fs.read(f, 4096, 4096))
        assert dev.bytes_read == 4096

    def test_read_beyond_eof_raises(self):
        env = Environment()
        fs, _ = make_fs(env)
        f = fs.create("data")
        run(env, fs.append(f, 100))

        with pytest.raises(FsError):
            run(env, fs.read(f, 50, 100))

    def test_read_spans_extents(self):
        env = Environment()
        fs, dev = make_fs(env)
        f = fs.create("multi")
        for _ in range(3):
            run(env, fs.append(f, 5000))
        run(env, fs.read(f, 2000, 10_000))
        assert dev.bytes_read == 10_000

    def test_delete_frees_and_reuses_space(self):
        env = Environment()
        fs, _ = make_fs(env)
        f = fs.create("victim")
        run(env, fs.append(f, 50_000))
        fs.delete("victim")
        assert not fs.exists("victim")
        with pytest.raises(FsError):
            run(env, fs.append(f, 10))  # closed file
        # freed extent is reused first-fit
        g = fs.create("reuser")
        run(env, fs.append(g, 40_000))
        assert g.extents[0][0] == 0

    def test_delete_missing_raises(self):
        env = Environment()
        fs, _ = make_fs(env)
        with pytest.raises(FsError):
            fs.delete("ghost")

    def test_device_full(self):
        env = Environment()
        fs, dev = make_fs(env)
        f = fs.create("big")
        with pytest.raises(FsError):
            run(env, fs.append(f, dev.capacity_bytes + 1))

    def test_list_files(self):
        env = Environment()
        fs, _ = make_fs(env)
        fs.create("b")
        fs.create("a")
        assert fs.list_files() == ["a", "b"]


class TestPageCache:
    def test_cached_read_skips_device(self):
        env = Environment()
        cache = PageCache(1 * MiB)
        fs, dev = make_fs(env, page_cache=cache)
        f = fs.create("hot")
        run(env, fs.append(f, 100_000))
        before = dev.bytes_read
        run(env, fs.read(f, 0, 100_000))
        assert dev.bytes_read == before  # served from cache
        assert cache.hits == 1

    def test_eviction_by_capacity(self):
        cache = PageCache(100)
        cache.grow("a", 60)
        cache.grow("b", 60)  # evicts a
        assert not cache.contains("a")
        assert cache.contains("b")
        assert cache.used_bytes == 60

    def test_lru_order_on_touch(self):
        cache = PageCache(100)
        cache.grow("a", 40)
        cache.grow("b", 40)
        assert cache.contains("a")   # touch a -> MRU
        cache.grow("c", 40)        # evicts b
        assert not cache.contains("b")
        assert cache.contains("a")

    def test_grow_accumulates(self):
        cache = PageCache(1000)
        cache.grow("f", 100)
        cache.grow("f", 100)
        assert cache.used_bytes == 200

    def test_evict_specific(self):
        cache = PageCache(1000)
        cache.grow("x", 100)
        cache.evict("x")
        assert cache.used_bytes == 0
        assert not cache.contains("x")

    def test_zero_capacity_disables(self):
        cache = PageCache(0)
        cache.grow("a", 10)
        assert not cache.contains("a")

    def test_delete_evicts_from_cache(self):
        env = Environment()
        cache = PageCache(1 * MiB)
        fs, _ = make_fs(env, page_cache=cache)
        f = fs.create("gone")
        run(env, fs.append(f, 1000))
        fs.delete("gone")
        assert cache.used_bytes == 0


class TestWal:
    def test_group_commit_batches_device_writes(self):
        env = Environment()
        fs, dev = make_fs(env)
        wal = Wal(fs, group_commit_bytes=10_000)
        wal.new_segment()

        def writer():
            for _ in range(25):
                yield from wal.append(1000)

        run(env, writer())
        # 25 KB appended in 10 KB groups: 2 flushes, 5 KB buffered.
        assert wal.flush_count == 2
        assert wal.durable_bytes == 20_000
        assert wal.buffered_bytes == 5_000
        assert dev.bytes_written == 20_000

    def test_sync_flushes_tail(self):
        env = Environment()
        fs, dev = make_fs(env)
        wal = Wal(fs, group_commit_bytes=10_000)

        def writer():
            yield from wal.append(123)
            yield from wal.sync()

        run(env, writer())
        assert wal.durable_bytes == 123
        assert wal.buffered_bytes == 0

    def test_segments_rotate_and_retire(self):
        env = Environment()
        fs, _ = make_fs(env)
        wal = Wal(fs, group_commit_bytes=100)
        s1 = wal.new_segment()

        def writer():
            yield from wal.append(100)

        run(env, writer())
        s2 = wal.new_segment()
        assert s1.name != s2.name
        wal.retire_segment(s1)
        assert not fs.exists(s1.name)
        wal.retire_segment(s1)  # idempotent

    def test_append_auto_opens_segment(self):
        env = Environment()
        fs, _ = make_fs(env)
        wal = Wal(fs, group_commit_bytes=50)

        def writer():
            yield from wal.append(60)

        run(env, writer())
        assert wal.current_segment is not None
        assert wal.flush_count == 1

    def test_validation(self):
        env = Environment()
        fs, _ = make_fs(env)
        with pytest.raises(ValueError):
            Wal(fs, group_commit_bytes=0)
        wal = Wal(fs, group_commit_bytes=10)
        with pytest.raises(ValueError):
            list(wal.append(-1))
