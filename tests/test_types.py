"""Tests for the shared KV primitives (repro.types)."""

import pytest

from repro.types import (
    KIND_DELETE,
    KIND_PUT,
    ValueRef,
    encode_key,
    entry_size,
    make_entry,
    materialize,
    value_size,
)


class TestValueRef:
    def test_size_preserved(self):
        assert value_size(ValueRef(seed=1, size=4096)) == 4096
        assert value_size(b"abc") == 3
        assert value_size(None) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ValueRef(seed=1, size=-1)

    def test_value_semantics(self):
        ref = ValueRef(seed=7, size=100)
        assert ref == ValueRef(7, 100)
        assert ref != ValueRef(7, 101) and ref != ValueRef(8, 100)
        assert ref != (7, 100)                  # same class only
        assert hash(ref) == hash((7, 100))
        assert len({ref, ValueRef(7, 100)}) == 1
        assert repr(ref) == "ValueRef(seed=7, size=100)"

    def test_materialize_deterministic(self):
        ref = ValueRef(seed=42, size=100)
        a, b = materialize(ref), materialize(ref)
        assert a == b
        assert len(a) == 100

    def test_materialize_distinct_seeds(self):
        assert materialize(ValueRef(1, 64)) != materialize(ValueRef(2, 64))

    def test_materialize_passthrough(self):
        assert materialize(b"xyz") == b"xyz"
        assert materialize(None) == b""

    def test_materialize_zero_size(self):
        assert materialize(ValueRef(9, 0)) == b""


class TestEncodeKey:
    def test_order_preserving(self):
        keys = [encode_key(i) for i in range(1000)]
        assert keys == sorted(keys)

    def test_width(self):
        assert len(encode_key(0)) == 4
        assert len(encode_key(5, width=8)) == 8

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_key(-1)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            encode_key(2**32, width=4)


class TestEntries:
    def test_make_entry_defaults(self):
        e = make_entry(b"k", 5, b"v")
        assert e == (b"k", 5, KIND_PUT, b"v")
        t = make_entry(b"k", 6, None)
        assert t[2] == KIND_DELETE

    def test_explicit_kind(self):
        e = make_entry(b"k", 5, None, kind=KIND_DELETE)
        assert e[2] == KIND_DELETE

    def test_entry_size_components(self):
        e = make_entry(b"abcd", 1, b"x" * 10)
        assert entry_size(e) == 4 + 10 + 8
        t = make_entry(b"abcd", 1, None)
        assert entry_size(t) == 4 + 8

    def test_entry_size_with_ref(self):
        e = make_entry(b"abcd", 1, ValueRef(0, 4096))
        assert entry_size(e) == 4 + 4096 + 8
