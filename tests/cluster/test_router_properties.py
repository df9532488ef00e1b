"""Property tests for the cluster's hash router.

Invariants the serving layer is built on:

* totality/uniqueness — every key routes to exactly one shard, always in
  ``[0, shards)``, and re-routing the same key gives the same answer;
* seed stability — a hash router rebuilt with the same (shards, seed)
  routes identically (routing never consults interpreter state, unlike
  builtin ``hash``), and a different placement seed actually moves keys;
* batch splitting — ``split_batch`` is a permutation-free partition:
  ascending shard ids, intra-shard order preserved, nothing lost or
  duplicated.
"""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.cluster import HashRouter  # noqa: E402
from repro.types import encode_key  # noqa: E402

keys_strategy = st.lists(st.binary(min_size=1, max_size=12),
                         min_size=1, max_size=64)


@settings(max_examples=100, deadline=None)
@given(shards=st.integers(1, 32), seed=st.integers(0, 2**32),
       keys=keys_strategy)
def test_hash_router_total_and_deterministic(shards, seed, keys):
    r = HashRouter(shards, seed=seed)
    for key in keys:
        sid = r.route(key)
        assert 0 <= sid < shards
        assert r.route(key) == sid          # stable within an instance


@settings(max_examples=100, deadline=None)
@given(shards=st.integers(1, 32), seed=st.integers(0, 2**32),
       keys=keys_strategy)
def test_hash_router_seed_stable_across_instances(shards, seed, keys):
    a = HashRouter(shards, seed=seed)
    b = HashRouter(shards, seed=seed)
    assert [a.route(k) for k in keys] == [b.route(k) for k in keys]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_hash_router_seed_changes_placement(seed):
    # With 4+ shards and many keys, two different placement seeds must
    # disagree somewhere — otherwise the seed isn't versioning the layout.
    a = HashRouter(8, seed=seed)
    b = HashRouter(8, seed=seed + 1)
    keys = [encode_key(i, 4) for i in range(256)]
    assert any(a.route(k) != b.route(k) for k in keys)


@settings(max_examples=100, deadline=None)
@given(shards=st.integers(1, 16),
       pairs=st.lists(st.tuples(st.integers(0, 2**16 - 1),
                                st.integers(0, 255)),
                      min_size=0, max_size=80))
def test_split_batch_is_a_stable_partition(shards, pairs):
    r = HashRouter(shards, seed=7)
    batch = [(encode_key(k, 4), v) for k, v in pairs]
    parts = r.split_batch(batch)
    # ascending, unique shard ids; every sub-batch non-empty and owned
    sids = [sid for sid, _ in parts]
    assert sids == sorted(set(sids))
    rebuilt = []
    for sid, sub in parts:
        assert sub
        for pair in sub:
            assert r.route(pair[0]) == sid
        rebuilt.extend(sub)
    # partition: same multiset; intra-shard order preserved means each
    # sub-list is a subsequence of the original batch
    assert sorted(rebuilt) == sorted(batch)
    for sid, sub in parts:
        it = iter(batch)
        assert all(any(x == want for x in it) for want in sub), (
            f"shard {sid} sub-batch reordered")
