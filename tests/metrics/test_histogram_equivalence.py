"""``LatencyHistogram.record`` against its clamp-then-bucket reference
(``tests/histogram_reference.py``): the same values, each with a count,
give the same bucket counts and the same summary."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from histogram_reference import reference_record  # noqa: E402

from repro.metrics import LatencyHistogram  # noqa: E402
from repro.metrics.histogram import MAX_VALUE, MIN_VALUE  # noqa: E402

# Values on both sides of each end of the bucketed range, the ends
# themselves, zero and the range in between.
edges = st.sampled_from([0.0, MIN_VALUE / 2, MIN_VALUE, MIN_VALUE * 1.0001,
                         MAX_VALUE / 1.0001, MAX_VALUE, MAX_VALUE * 2,
                         MAX_VALUE * 1e6])
values = st.one_of(
    edges,
    st.floats(0.0, MIN_VALUE * 10),
    st.floats(0.0, MAX_VALUE * 100, allow_infinity=False),
)
samples = st.lists(st.tuples(values, st.integers(1, 1000)), max_size=60)


@settings(max_examples=200, deadline=None)
@given(samples)
def test_record_matches_the_reference(recorded):
    hist, ref = LatencyHistogram(), LatencyHistogram()
    for value, count in recorded:
        hist.record(value, count)
        reference_record(ref, value, count)
    assert hist._counts == ref._counts
    assert hist.total_count == ref.total_count
    assert hist.summary() == ref.summary()


@pytest.mark.parametrize("value, count", [(-1.0, 1), (1.0, 0), (-0.5, 0)])
def test_record_rejects_what_the_reference_rejects(value, count):
    with pytest.raises(ValueError) as got:
        LatencyHistogram().record(value, count)
    with pytest.raises(ValueError) as want:
        reference_record(LatencyHistogram(), value, count)
    assert str(got.value) == str(want.value)
