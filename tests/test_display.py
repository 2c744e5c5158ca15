"""Duration display: the unit is chosen after rounding."""

import pytest

from qre.display import format_duration


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
