"""Duration display: the unit is chosen after rounding. Qubit counts:
millions until they would round to a million millions."""

import pytest

from qre.display import format_duration, format_qubit_count


@pytest.mark.parametrize(
    "nanoseconds, expected",
    [
        (0, "0 ns"),
        (0.46, "0.46 ns"),
        (999.96, "1 us"),
        (999_999_999, "1 s"),
        (59.999e9, "1 min"),
        (29.99999 * 24 * 3600e9, "1 mo"),
        (999.4, "999.4 ns"),
        (1_500_000, "1.5 ms"),
        (-999_999_999, "-1 s"),
    ],
)
def test_format_duration(nanoseconds, expected):
    assert format_duration(nanoseconds) == expected


@pytest.mark.parametrize(
    "count, expected",
    [
        (99_999, "99999"),
        (100_000, "0.1M"),
        (8_596_020, "8.6M"),
        (949_999_999_999, "950000M"),
        (999_999_999_999, "1.0e+12"),
        (2_176_606_250_000_199_549, "2.2e+18"),
    ],
)
def test_format_qubit_count(count, expected):
    assert format_qubit_count(count) == expected
