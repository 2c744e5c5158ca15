"""The numeric domain: an inclusive ``(minimum, maximum)`` range for each kind
of input number, read by the job schema and by each parameter type as it is built.
Inside it nothing the estimator derives overflows a float. README.md gives
each bound's physical reason; ``math.nextafter`` marks an open end.
:func:`checked` makes a parameter type check every instance it builds.
"""

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
    "duration": (_OVER_ZERO, 10**15),  # ns in the types; in the job's own unit in the schema
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
    # A budget share times a budget: the synthesis budget of rotation_t_count.
    "budget_part": (_FLOOR * _FLOOR, _BELOW_ONE),
}

# The names a message gives a value below these kinds' minimum.
_BELOW = {"count": "negative count", "duration": "non-positive duration"}


def check(name: str, value: float, what: str) -> None:
    """Raise :class:`ParameterError` unless ``value`` lies in ``BOUNDS[name]``."""
    lo, hi = BOUNDS[name]
    if value < lo:
        below = _BELOW.get(name, f"{name} out of range")
        raise ParameterError(f"{what}: {below}, must be at least {lo:.16g}, got {value!r}")
    if not value <= hi:
        raise ParameterError(f"{what}: {name} out of range, capped at {hi:.16g}, got {value!r}")


def checked(cls):
    """Make the NamedTuple class ``cls`` check every instance it builds: through
    the constructor, through ``_make`` and so through ``_replace``.

    Each field named in ``cls.field_bounds``, a ``{field: kind}`` map where
    defined, is checked against ``BOUNDS[kind]`` unless it is None. Then
    ``cls._check()``, where defined, checks the rules that span fields. When
    every field has a default, the all-defaults instance is built and checked
    once, and a call with no arguments returns it.
    """
    new, make = cls.__new__, cls._make.__func__
    fields = [
        (cls._fields.index(field), kind, f"{cls.__name__}.{field}")
        for field, kind in getattr(cls, "field_bounds", {}).items()
    ]
    rules = getattr(cls, "_check", None)

    def validate(self):
        for index, kind, what in fields:
            if self[index] is not None:
                check(kind, self[index], what)
        if rules is not None:
            rules(self)
        return self

    @wraps(new)
    def __new__(klass, *args, **kwargs):
        if shared is not None and not (args or kwargs):
            return shared
        return validate(new(klass, *args, **kwargs))

    def _make(klass, iterable):
        return validate(make(klass, iterable))

    shared = validate(new(cls)) if len(cls._field_defaults) == len(cls._fields) else None
    cls.__new__, cls._make = staticmethod(__new__), classmethod(_make)
    return cls
