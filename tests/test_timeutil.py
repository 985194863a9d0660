from __future__ import annotations

import statistics
from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from phishlife.timeutil import fmean, median_low, parse_utc

UTC = timezone.utc


@pytest.mark.parametrize("text, expected", [
    ("2024-03-01", datetime(2024, 3, 1, tzinfo=UTC)),
    ("2024-03-01Z", datetime(2024, 3, 1, tzinfo=UTC)),
    ("2024-03-01+00:00", datetime(2024, 3, 1, tzinfo=UTC)),
    ("2024-03-01T12", datetime(2024, 3, 1, 12, tzinfo=UTC)),
    ("2024-03-01T12:30", datetime(2024, 3, 1, 12, 30, tzinfo=UTC)),
    ("2024-03-01T12:30:45", datetime(2024, 3, 1, 12, 30, 45, tzinfo=UTC)),
    ("2024-03-01 12:30:45", datetime(2024, 3, 1, 12, 30, 45, tzinfo=UTC)),
    ("2024-03-01T12:30:45Z", datetime(2024, 3, 1, 12, 30, 45, tzinfo=UTC)),
    ("2024-03-01T12:30:45z", datetime(2024, 3, 1, 12, 30, 45, tzinfo=UTC)),
    ("2024-03-01T12:30:45+00:00", datetime(2024, 3, 1, 12, 30, 45, tzinfo=UTC)),
    ("2024-03-01T12:30:45-00:00", datetime(2024, 3, 1, 12, 30, 45, tzinfo=UTC)),
    ("2024-03-01T12:30:45.123Z", datetime(2024, 3, 1, 12, 30, 45, 123000, tzinfo=UTC)),
    ("2024-03-01T12:30:45.123456Z", datetime(2024, 3, 1, 12, 30, 45, 123456, tzinfo=UTC)),
    ("2024-03-01T12:30:45.123+00:00", datetime(2024, 3, 1, 12, 30, 45, 123000, tzinfo=UTC)),
    (" 2024-03-01T12:30:45Z\n", datetime(2024, 3, 1, 12, 30, 45, tzinfo=UTC)),
    ("0001-01-01T00:00:00Z", datetime(1, 1, 1, tzinfo=UTC)),
    ("9999-12-31T23:59:59.999999Z", datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=UTC)),
])
def test_accepted_forms(text, expected):
    parsed = parse_utc(text)
    assert parsed == expected and parsed.tzinfo is UTC


@pytest.mark.parametrize("text", [
    "",
    "   ",
    # forms that some Python versions' datetime.fromisoformat accept
    "20240301",
    "20240301T123045Z",
    "2024-W09-5",
    "2024-061",
    "2024-03-01T1230",
    "2024-03-01T12:30:45.5Z",
    "2024-03-01T12:30:45.1234Z",
    "2024-03-01T12:30:45.1234567Z",
    "2024-03-01T12:30:45,123",
    "2024-03-01T12:30:45+0000",
    "2024-03-01T12:30:45+00",
    "2024-03-01T12:30:45+00:00:00",
    "2024-03-01X12:30:45",
    "2024-03-01t12:30:45Z",
    "2024-03-01T12:30:45.Z",
    "2024-03-01T12:30:45ZZ",
    # neither the grammar's shape nor its ranges
    "2024-3-1",
    "2024-03-01T12:3",
    "2024-03-01T",
    "2024-03-01T12:30:45UTC",
    "２０２４-03-01",
    "2024-03-01T12:30:4５Z",
    "0000-01-01",
    "2024-02-30",
    "2024-03-01T24:00:00",
    "2024-03-01T12:60:00",
    # a non-zero offset
    "2024-03-01T12:30:45+01:00",
    "2024-03-01T12:30:45-05:30",
    "2024-03-01+00:01",
])
def test_rejected_forms(text):
    with pytest.raises(ValueError):
        parse_utc(text)


# floats far below the overflow of a sum, where both sides would raise
NUMBERS = st.one_of(st.lists(st.integers(-10**12, 10**12), min_size=1),
                    st.lists(st.floats(-1e100, 1e100), min_size=1))


@given(NUMBERS)
def test_mean_and_median_equal_the_statistics_module(values):
    assert fmean(values) == statistics.fmean(values)
    assert median_low(values) == statistics.median_low(values)
