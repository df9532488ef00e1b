"""Independent oracle for the state a Version carries from install to install.

``Version`` answers level bytes, L0 order, level targets, compaction scores
and pending compaction bytes from install-time state.  The recompute below is
the summing code ``Version`` used to run on every query; it reads only
``version.levels`` and the options, so it cannot agree with the carried
state by construction.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import (
    FileMetadata,
    LsmOptions,
    SSTable,
    Version,
    VersionEdit,
    VersionSet,
)
from repro.types import ValueRef, encode_key, make_entry

NUM_LEVELS = 5
KEY_SLOTS = 64          # L1+ files own disjoint [16*slot, 16*slot + 15] ranges


def options(**kw) -> LsmOptions:
    base = dict(num_levels=NUM_LEVELS, max_bytes_for_level_base=8 * 1024,
                max_bytes_for_level_multiplier=4,
                level0_file_num_compaction_trigger=2,
                level0_slowdown_writes_trigger=6,
                level0_stop_writes_trigger=10)
    base.update(kw)
    return LsmOptions(**base)


# -- the from-scratch recompute (the pre-carried-state implementation) --------
def level_bytes(version, level):
    return sum(f.table.file_bytes for f in version.levels[level])


def level_targets(version, opt):
    n = version.num_levels
    targets = [0.0] * n
    nonempty = [l for l in range(1, n) if version.levels[l]]
    bottom = max(nonempty) if nonempty else 1
    targets[bottom] = max(float(level_bytes(version, bottom)),
                          float(opt.max_bytes_for_level_base))
    floor = opt.max_bytes_for_level_base / opt.max_bytes_for_level_multiplier
    for level in range(bottom - 1, 0, -1):
        targets[level] = max(
            targets[level + 1] / opt.max_bytes_for_level_multiplier, floor)
    for level in range(bottom + 1, n):
        targets[level] = max(
            targets[level - 1] * opt.max_bytes_for_level_multiplier,
            float(opt.max_bytes_for_level_base))
    return targets


def compaction_score(version, opt, level):
    if level == 0:
        return (len(version.levels[0])
                / opt.level0_file_num_compaction_trigger)
    return level_bytes(version, level) / level_targets(version, opt)[level]


def best_compaction_level(version, opt):
    best_level, best_score = -1, 0.0
    for level in range(version.num_levels - 1):
        score = compaction_score(version, opt, level)
        if score > best_score:
            best_level, best_score = level, score
    return best_level, best_score


def pending_compaction_bytes(version, opt):
    debt = 0
    if len(version.levels[0]) >= opt.level0_file_num_compaction_trigger:
        debt += level_bytes(version, 0)
    targets = level_targets(version, opt)
    for level in range(1, version.num_levels - 1):
        excess = level_bytes(version, level) - targets[level]
        if excess > 0:
            debt += int(excess)
    return debt


def files_for_key(version, key):
    covering = [f for f in sorted(version.levels[0], key=lambda f: -f.number)
                if f.smallest <= key <= f.largest]
    for level in range(1, version.num_levels):
        covering += [f for f in version.levels[level]
                     if f.smallest <= key <= f.largest]
    return covering


def assert_matches_recompute(version, opt):
    n = version.num_levels
    assert ([version.level_bytes(l) for l in range(n)]
            == [level_bytes(version, l) for l in range(n)])
    assert version.total_bytes() == sum(level_bytes(version, l)
                                        for l in range(n))
    assert version.l0_count == len(version.levels[0])
    assert (version.l0_newest_first
            == sorted(version.levels[0], key=lambda f: -f.number))
    for key in (encode_key(8), encode_key(40), encode_key(KEY_SLOTS * 8)):
        assert list(version.files_for_key(key)) == files_for_key(version, key)
    assert version.level_targets(opt) == level_targets(version, opt)
    assert ([version.compaction_score(opt, l) for l in range(n)]
            == [compaction_score(version, opt, l) for l in range(n)])
    assert version.best_compaction_level(opt) == best_compaction_level(
        version, opt)
    assert version.pending_compaction_bytes(opt) == pending_compaction_bytes(
        version, opt)


# -- random edit sequences ---------------------------------------------------
def table(number, lo, count, value_size):
    entries = [make_entry(encode_key(lo + i), number * 100 + i,
                          ValueRef(lo + i, value_size))
               for i in range(count)]
    return SSTable(number, entries, block_size=1024)


# ("flush", keys, value size) adds one L0 file anywhere in the key space;
# ("compact", level, how many inputs, outputs' (slot, keys, value size))
# swaps files of ``level`` for files of ``level + 1`` (into free slots);
# ("drop", level) empties a level.
ops = st.one_of(
    st.tuples(st.just("flush"), st.integers(0, KEY_SLOTS * 16 - 16),
              st.integers(1, 16), st.integers(0, 900)),
    st.tuples(st.just("compact"), st.integers(0, NUM_LEVELS - 2),
              st.integers(1, 4),
              st.lists(st.tuples(st.integers(0, KEY_SLOTS - 1),
                                 st.integers(1, 16), st.integers(0, 3000)),
                       max_size=4)),
    st.tuples(st.just("drop"), st.integers(0, NUM_LEVELS - 1)),
)


def edit_for(op, version, vs):
    if op[0] == "flush":
        _, lo, count, vsize = op
        number = vs.new_file_number()
        return VersionEdit(added=[FileMetadata(
            number, 0, table(number, lo, count, vsize))], reason="flush")
    if op[0] == "drop":
        level = op[1]
        return VersionEdit(removed=[(level, f.number)
                                    for f in version.levels[level]])
    _, level, n_inputs, outputs = op
    out_level = level + 1
    removed = [(level, f.number) for f in version.levels[level][:n_inputs]]
    taken = {f.smallest for f in version.levels[out_level]}
    added = []
    for slot, count, vsize in outputs:
        lo = slot * 16
        if encode_key(lo) in taken:
            continue
        taken.add(encode_key(lo))
        number = vs.new_file_number()
        added.append(FileMetadata(number, out_level,
                                  table(number, lo, count, vsize)))
    return VersionEdit(added=added, removed=removed, reason="compact")


@settings(max_examples=60, deadline=None)
@given(st.lists(ops, min_size=1, max_size=25))
def test_carried_state_equals_recompute_after_every_install(op_list):
    opt = options()
    vs = VersionSet(opt)
    assert_matches_recompute(vs.current, opt)
    for op in op_list:
        before = vs.current
        vs.apply(edit_for(op, before, vs))
        assert_matches_recompute(vs.current, opt)
        # the parent version is immutable: its answers did not move
        assert_matches_recompute(before, opt)
    replayed = vs.rebuild_from_journal()
    assert_matches_recompute(replayed, opt)
    assert ([replayed.level_bytes(l) for l in range(NUM_LEVELS)]
            == [vs.current.level_bytes(l) for l in range(NUM_LEVELS)])


def test_deepest_level_growth_moves_every_target():
    opt = options()
    vs = VersionSet(opt)
    number = 0
    for slot in range(12):   # grow the bottommost level past base
        number += 1
        vs.apply(VersionEdit(added=[FileMetadata(
            number, NUM_LEVELS - 1, table(number, slot * 16, 16, 4000))]))
        assert_matches_recompute(vs.current, opt)
    assert vs.current.level_targets(opt)[NUM_LEVELS - 1] > (
        opt.max_bytes_for_level_base)


def test_memo_follows_the_option_fields_it_reads():
    opt = options()
    vs = VersionSet(opt)
    for number, (level, slot) in enumerate(
            [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 3)], 1):
        vs.apply(VersionEdit(added=[FileMetadata(
            number, level, table(number, slot * 16, 16, 3000))]))
    v = vs.current
    assert_matches_recompute(v, opt)
    first = (v.level_targets(opt), v.best_compaction_level(opt),
             v.pending_compaction_bytes(opt))

    opt.max_bytes_for_level_base = 1 << 20     # same version, new options
    assert_matches_recompute(v, opt)
    assert v.level_targets(opt) != first[0]

    opt.level0_file_num_compaction_trigger = 4
    assert_matches_recompute(v, opt)
    assert v.compaction_score(opt, 0) == 3 / 4
    assert v.pending_compaction_bytes(opt) != first[2]   # L0 below trigger

    opt.max_bytes_for_level_multiplier = 2
    assert_matches_recompute(v, opt)

    # fields the statistics do not read (the ADOC tuner's) leave them alone
    opt.write_buffer_size *= 2
    assert_matches_recompute(v, opt)


def test_versions_built_directly_summarize_from_scratch():
    """``Version(num_levels, levels)`` (no parent) sums its own totals."""
    opt = options()
    levels = [[] for _ in range(NUM_LEVELS)]
    for number in range(1, 9):
        level = 0 if number < 4 else 1 if number < 7 else 2
        levels[level].append(FileMetadata(
            number, level, table(number, number * 16, 8, 500 * number)))
    assert_matches_recompute(Version(NUM_LEVELS, levels), opt)
