"""The numeric domain: an inclusive ``(minimum, maximum)`` range for each kind
of input number, read by the job schema and by each parameter type as it is built.
Inside it nothing the estimator derives overflows a float. README.md gives
each bound's physical reason; ``math.nextafter`` marks an open end.
:func:`checked` makes a parameter type run its checks on every instance built.
"""

from __future__ import annotations

import math
from functools import wraps

from .errors import ParameterError

_OVER_ZERO, _BELOW_ONE = math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)
_QUBITS, _FLOOR = 10**12, 1e-20

BOUNDS: dict[str, tuple[float, float]] = {
    "count": (0, 1e20),  # operations and T states
    "time_steps": (1, 1e20),
    "qubits": (1, _QUBITS),  # algorithm and logical qubits
    "sites": (4, _QUBITS),
    "trotter_steps": (1, _QUBITS),
    "duration": (0, 10**15),  # ns in the types; in the job's own unit in the schema
    "stretch": (1, 1e6),
    "probability": (_OVER_ZERO, _BELOW_ONE),
    "error_budget": (_FLOOR, _BELOW_ONE),
    "budget_share": (_FLOOR, _BELOW_ONE),
    "synthesis": (0, 1e3),
    "error_prefactor": (_OVER_ZERO, 1e6),
    "tile_coefficient": (-(10**6), 10**6),
    "step_factor": (0, 10**6),
    "code_distance": (3, 10**4),
    "max_rounds": (1, 4),  # the factory search space grows steeply in these three
    "factory_distance": (3, 35),
    "max_final_copies": (1, 4),
    # What in-bound counts yield, for LogicalRequirements: 2n +
    # ceil(sqrt(8n)) + 1 logical qubits, and up to 2e5 T states per rotation.
    "logical_qubits": (1, 3 * _QUBITS),
    "derived_count": (0, 1e30),
    "derived_time_steps": (1, 1e30),
    "budget_part": (_FLOOR * _FLOOR, _BELOW_ONE),
}


def check(name: str, value: float, what: str) -> None:
    """Raise :class:`ParameterError` unless ``value`` lies in ``BOUNDS[name]``."""
    lo, hi = BOUNDS[name]
    if not lo <= value:
        raise ParameterError(f"{what} must be at least {lo:.16g}, got {value!r}")
    if not value <= hi:
        raise ParameterError(f"{what} must be at most {hi:.16g}, got {value!r}")


def checked(cls):
    """Make the NamedTuple class ``cls`` call ``_check()`` on every instance it
    builds: through the constructor, through ``_make`` and so through ``_replace``.
    """
    new, make = cls.__new__, cls._make.__func__

    @wraps(new)
    def __new__(klass, *args, **kwargs):
        self = new(klass, *args, **kwargs)
        self._check()
        return self

    def _make(klass, iterable):
        self = make(klass, iterable)
        self._check()
        return self

    cls.__new__, cls._make = staticmethod(__new__), classmethod(_make)
    return cls
