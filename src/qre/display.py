"""Number and duration formatting for reports.

Everything here is presentation only. JSON reports carry durations as exact
integer nanoseconds next to these display strings, so nothing downstream
needs to parse them back.
"""

import math

# Largest first, as format_duration searches them.
_TIME_UNITS: tuple[tuple[str, int], ...] = (
    ("y", 365 * 24 * 3600 * 1_000_000_000),
    ("mo", 30 * 24 * 3600 * 1_000_000_000),
    ("d", 24 * 3600 * 1_000_000_000),
    ("h", 3600 * 1_000_000_000),
    ("min", 60 * 1_000_000_000),
    ("s", 1_000_000_000),
    ("ms", 1_000_000),
    ("us", 1_000),
    ("ns", 1),
)


def format_sig(value: float, digits: int = 2) -> str:
    """Format to a number of significant digits, without trailing zeros.

    Positional notation for moderate magnitudes, scientific outside them.
    """
    if value == 0:
        return "0"
    exponent = math.floor(math.log10(abs(value)))
    rounded = round(value, digits - 1 - exponent)
    if rounded != 0:
        exponent = math.floor(math.log10(abs(rounded)))
    if exponent < -4 or exponent >= 7:
        return f"{value:.{digits - 1}e}"
    decimals = max(0, digits - 1 - exponent)
    text = f"{rounded:.{decimals}f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


def format_duration(nanoseconds: float, digits: int = 4) -> str:
    """Render a duration in the largest unit where the value reaches 1, or in
    the next larger unit when rounding carries it there (1000 ms is 1 s)."""
    magnitude = abs(nanoseconds)
    index = next(
        (i for i, (_, scale) in enumerate(_TIME_UNITS) if magnitude >= scale),
        len(_TIME_UNITS) - 1,
    )
    label, scale = _TIME_UNITS[index]
    text = format_sig(nanoseconds / scale, digits)
    if index and abs(float(text)) * scale >= _TIME_UNITS[index - 1][1]:
        label, scale = _TIME_UNITS[index - 1]
        text = format_sig(nanoseconds / scale, digits)
    return f"{text} {label}"


def format_qubit_count(count: int) -> str:
    """Large qubit counts read best in millions; small ones stay exact, and
    those whose millions round to a million or more read in scientific notation."""
    if count < 100_000:
        return str(count)
    millions = format_sig(count / 1e6)
    return f"{millions}M" if float(millions) < 1e6 else format_sig(count)


def format_percent(fraction: float) -> str:
    return f"{format_sig(100 * fraction)}%"
