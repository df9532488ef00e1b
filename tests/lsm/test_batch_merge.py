"""The batch newest-wins merges equal the streaming merge.

The test reference ``newest_wins`` (``tests/sstable_reference.py``) is
one natural-order sort and a keep-the-last-of-each-key filter over entry
tuples; compaction merges columns (``merge_for_compaction``); scans keep
the lazy heap merge.  ``merging_iterator`` is the reference here, entry
for entry — the merged entries become SSTables whose sizes and keys
drive every simulated I/O.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import (
    CompactionJob,
    FileMetadata,
    SSTable,
    merge_for_compaction,
    merging_iterator,
)
from repro.lsm.sstable import iter_rows
from repro.types import KIND_DELETE, ValueRef, encode_key, make_entry

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from sstable_reference import newest_wins  # noqa: E402

values = st.one_of(
    st.binary(max_size=20),
    st.builds(ValueRef, seed=st.integers(0, 1 << 20),
              size=st.integers(0, 5000)),
    st.none(),                                   # tombstone
)
# Each source: key -> value, written at increasing sequence numbers, so a
# key repeated across sources is a newer or older version of it.
source_specs = st.lists(st.dictionaries(st.integers(0, 50), values,
                                        max_size=25), max_size=6)


def build_sources(specs):
    seq, sources = 0, []
    for spec in specs:
        src = []
        for k in sorted(spec):
            seq += 1
            v = spec[k]
            src.append(make_entry(encode_key(k), seq, v,
                                  kind=KIND_DELETE if v is None else None))
        sources.append(src)
    return sources


@settings(max_examples=150, deadline=None)
@given(source_specs, st.data())
def test_batch_merge_equals_the_streaming_merge(specs, data):
    sources = build_sources(specs)
    # The same tuple object in two sources: a copy of one write (what a
    # rollback re-writes under its original seq) sits beside the original.
    for src in sources:
        if src and data.draw(st.booleans()):
            dup = data.draw(st.sampled_from(src))
            target = data.draw(st.sampled_from(sources))
            if all(e[0] != dup[0] for e in target):
                target.append(dup)
                target.sort()
    # newest-first or oldest-first, the order of the inputs is irrelevant
    if data.draw(st.booleans()):
        sources.reverse()
    expect = list(merging_iterator(sources, include_tombstones=True))
    got = newest_wins(sources)
    assert got == expect
    assert all(a is b for a, b in zip(got, expect))


@settings(max_examples=100, deadline=None)
@given(source_specs, st.integers(1, 6))
def test_compaction_merge_equals_the_streaming_merge(specs, output_level):
    """Above the bottommost level tombstones stay; at it they go."""
    sources = [s for s in build_sources(specs) if s]
    job = CompactionJob(level=output_level - 1, output_level=output_level,
                        inputs_low=[FileMetadata(
                            number=n + 1, level=output_level - 1,
                            table=SSTable(n + 1, src, block_size=256))
                            for n, src in enumerate(sources)])
    merged = list(iter_rows(merge_for_compaction(job, num_levels=7)))
    bottommost = output_level == 6
    assert merged == list(merging_iterator(
        sources, include_tombstones=not bottommost))


def test_copies_of_one_write_merge_to_one_entry():
    k = encode_key(7)
    original = make_entry(k, 9, ValueRef(7, 100))
    copy = make_entry(k, 9, ValueRef(7, 100))        # equal, not the same
    assert copy == original and copy is not original
    older = make_entry(k, 3, ValueRef(3, 100))
    for sources in ([[original], [copy]], [[copy], [older], [original]]):
        assert newest_wins(sources) == [original]
        assert newest_wins(sources) == list(
            merging_iterator(sources, include_tombstones=True))


@pytest.mark.parametrize("a, b", [
    (ValueRef(1, 100), ValueRef(2, 100)),
    (ValueRef(1, 100), b"bytes"),
])
def test_two_distinct_writes_under_one_seq_are_an_error(a, b):
    """A sequence number names one write.  Two different values under one
    (key, seq) cannot be ordered, and the merge says so instead of
    picking one."""
    k = encode_key(1)
    with pytest.raises(TypeError):
        newest_wins([[make_entry(k, 5, a)], [make_entry(k, 5, b)]])


def test_unsorted_sources_and_repeated_keys():
    """Sources may be unsorted and repeat a key."""
    e = [make_entry(encode_key(k), s, b"%d" % s)
         for k, s in [(3, 1), (1, 2), (3, 4), (2, 3), (1, 5)]]
    assert newest_wins([e[:3], e[3:]]) == [e[4], e[3], e[2]]
    assert newest_wins([]) == [] and newest_wins([[], []]) == []
