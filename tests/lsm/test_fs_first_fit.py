"""The resumed first-fit allocator picks exactly the extents of the
whole-list scan (``tests/fs_reference.py``): file offsets become FTL
pages, so wear, GC and every digest follow the choice."""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from fs_reference import ReferenceFileSystem  # noqa: E402

from repro.lsm import FileSystem, FsError  # noqa: E402


class _Device:
    """What the allocator reads of a block device: its capacity, and a
    trim that deletes call."""

    def __init__(self, capacity_bytes: int):
        self.capacity_bytes = capacity_bytes

    def trim(self, offset: int, nbytes: int) -> None:
        pass


def _append(fs, name: str, nbytes: int):
    """``FileSystem.append``'s allocation, without the device write."""
    f = fs.open(name)
    try:
        off, n = fs._allocate(nbytes)
    except FsError as exc:
        return str(exc)
    f.extents.append((off, n))
    f.size += n
    return off


@pytest.mark.parametrize("seed", range(6))
def test_resumed_first_fit_matches_the_full_scan(seed):
    rng = random.Random(seed)
    capacity = rng.choice([1 << 16, 1 << 20])
    # A few recurring request sizes (SST chunks, WAL groups) and some
    # one-off sizes, as the LSM issues them.
    common = [rng.randrange(64, 4096) for _ in range(4)]
    fast, ref = FileSystem(_Device(capacity)), ReferenceFileSystem(
        _Device(capacity))
    names: list = []
    for step in range(3000):
        op = rng.random()
        if op < 0.15 or not names:
            name = f"f{step}"
            names.append(name)
            fast.create(name)
            ref.create(name)
        elif op < 0.35:
            name = names.pop(rng.randrange(len(names)))
            fast.delete(name)
            ref.delete(name)
        else:
            name = rng.choice(names)
            size = (rng.choice(common) if rng.random() < 0.8
                    else rng.randrange(1, 8192))
            assert _append(fast, name, size) == _append(ref, name, size)
        assert fast._free == ref._free
        assert fast._cursor == ref._cursor
    for name in names:
        assert fast.open(name).extents == ref.open(name).extents


def test_resume_index_skips_only_smaller_extents():
    fs = FileSystem(_Device(1 << 20))
    for name, size in (("a", 100), ("b", 300), ("c", 100), ("d", 500)):
        fs.create(name)
        _append(fs, name, size)
    fs.delete("a")
    fs.delete("b")
    fs.delete("c")
    assert fs._free == [(0, 100), (100, 300), (400, 100)]
    fs.create("x")
    assert _append(fs, "x", 200) == 100          # first fit: b's extent
    assert fs._resume[200] == 1
    assert _append(fs, "x", 100) == 0            # a's extent, popped ...
    assert fs._resume[200] == 0                  # ... shifts the index
    assert _append(fs, "x", 100) == 300          # b's remainder
    assert fs._free == [(400, 100)]
