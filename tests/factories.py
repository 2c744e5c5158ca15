"""qre's factories of the configurations ``reference.candidates`` lists."""

from functools import lru_cache

from qre import DistillationUnitSpec, TFactoryRound, UnitKind, evaluate_factory, patch


def factories(qubit, code, rows):
    """qre's factory of each reference row's ``((kind, distance, copies), ...)``."""
    unit = lru_cache(lambda k, d: DistillationUnitSpec(UnitKind(k), d and patch(code, qubit, d)))
    for *_, rounds in rows:
        yield evaluate_factory([TFactoryRound(unit(k, d), c) for k, d, c in rounds], qubit)
