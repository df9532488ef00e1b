"""Tests for both memtable implementations (shared parametrized suite)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from memtable_reference import SkipListMemTable  # noqa: E402
from repro.lsm import DictMemTable  # noqa: E402
from repro.types import encode_key, entry_size, make_entry  # noqa: E402


@pytest.fixture(params=[DictMemTable, SkipListMemTable],
                ids=["dict", "skiplist"])
def memtable(request):
    return request.param()


def e(k, seq=1, v=b"v"):
    return make_entry(encode_key(k), seq, v)


def test_add_get(memtable):
    memtable.add(e(1, 1, b"one"))
    got = memtable.get(encode_key(1))
    assert got[3] == b"one"
    assert memtable.get(encode_key(2)) is None


def test_len_counts_unique_keys(memtable):
    for k in (1, 2, 3, 2, 1):
        memtable.add(e(k, k + 10))
    assert len(memtable) == 3


def test_newer_seq_wins(memtable):
    memtable.add(e(5, 1, b"old"))
    memtable.add(e(5, 9, b"new"))
    assert memtable.get(encode_key(5))[3] == b"new"


def test_stale_seq_ignored(memtable):
    memtable.add(e(5, 9, b"new"))
    memtable.add(e(5, 1, b"old"))
    assert memtable.get(encode_key(5))[3] == b"new"


def test_approximate_bytes_tracks_overwrites(memtable):
    memtable.add(e(1, 1, b"x" * 100))
    first = memtable.approximate_bytes
    memtable.add(e(1, 2, b"y" * 10))
    assert memtable.approximate_bytes == first - 90
    assert memtable.approximate_bytes == entry_size(e(1, 2, b"y" * 10))


def test_entries_sorted(memtable):
    import random
    keys = list(range(50))
    random.Random(3).shuffle(keys)
    for k in keys:
        memtable.add(e(k, k + 1))
    ents = memtable.entries()
    assert [x[0] for x in ents] == [encode_key(k) for k in range(50)]


def test_iter_from(memtable):
    for k in (2, 4, 6, 8):
        memtable.add(e(k, k))
    got = [x[0] for x in memtable.iter_from(encode_key(5))]
    assert got == [encode_key(6), encode_key(8)]
    got = [x[0] for x in memtable.iter_from(encode_key(4))]
    assert got == [encode_key(k) for k in (4, 6, 8)]
    assert list(memtable.iter_from(encode_key(9))) == []


def test_tombstones_stored(memtable):
    memtable.add(make_entry(encode_key(7), 3, None))
    got = memtable.get(encode_key(7))
    assert got[2] == 0  # KIND_DELETE
    assert got[3] is None


def test_implementations_agree_on_random_workload():
    import random
    rng = random.Random(42)
    d, s = DictMemTable(), SkipListMemTable()
    for i in range(500):
        k = rng.randrange(100)
        entry = e(k, i, bytes([k % 250]) * rng.randrange(1, 20))
        d.add(entry)
        s.add(entry)
    assert d.entries() == s.entries()
    assert len(d) == len(s)
    assert d.approximate_bytes == s.approximate_bytes
    for k in range(100):
        assert d.get(encode_key(k)) == s.get(encode_key(k))
