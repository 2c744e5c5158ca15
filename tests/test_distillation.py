"""Distillation units, factory evaluation, and the factory search."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from qre import (
    HASTINGS_HAAH,
    SURFACE_GATE,
    DistillationUnitSpec,
    FactoryOutputError,
    InstructionSet,
    NoFactoryError,
    ParameterError,
    PhysicalQubitParams,
    SearchBounds,
    TFactoryRound,
    UnitKind,
    UnitLevel,
    ValidityRangeError,
    evaluate_factory,
    patch,
    qubit_preset,
    search_factory,
    unit_output_error,
)
from qre import distillation
from qre.bounds import BOUNDS
from qre.distillation import _copy_floor, _sweep, provisioned_copies, reliable_outputs

SE = UnitKind.SPACE_EFFICIENT
RM = UnitKind.RM_PREP


def _logical(kind, code, qubit, distance):
    return DistillationUnitSpec(kind=kind, patch=patch(code, qubit, distance))


def _outputs_within_mean_ceiling(copies, acceptance):
    """The cost bound's premise: ``reliable_outputs(m, a) <= ceil(m * a)``, exactly."""
    return reliable_outputs(copies, acceptance) <= math.ceil(copies * Fraction(acceptance))


def _least_above_quotient(required, acceptance):
    """The least integer above ``(required - 1) / acceptance``, exactly."""
    return math.floor(Fraction(required - 1) / Fraction(acceptance)) + 1


class TestUnitOutputError:
    def test_perfect_inputs(self):
        assert unit_output_error(0.0, 0.0) == (0.0, 1.0)

    def test_documented_example(self):
        out, acc = unit_output_error(1e-4, 3e-6)
        assert out == pytest.approx(2.13e-5, rel=1e-3)
        assert acc == pytest.approx(0.997432)

    def test_rejects_errors_outside_unit_interval(self):
        with pytest.raises(ValidityRangeError, match="formula out of validity range"):
            unit_output_error(-0.1, 0.0)
        with pytest.raises(ValidityRangeError, match="formula out of validity range"):
            unit_output_error(0.0, 1.0)

    def test_rejects_vanishing_acceptance(self):
        # 15 * 0.07 already eats the whole acceptance probability
        with pytest.raises(ValidityRangeError, match="acceptance"):
            unit_output_error(0.07, 0.0)


class TestUnitCosts:
    def test_logical_space_efficient(self):
        q = qubit_preset("ns-e4")
        unit = _logical(SE, SURFACE_GATE, q, 9)
        assert unit.costs(q)[:2] == (20 * 162, 13 * 3600)

    def test_logical_rm_prep(self):
        q = qubit_preset("ns-e4")
        unit = _logical(RM, SURFACE_GATE, q, 13)
        assert unit.costs(q)[:2] == (31 * 338, 11 * 5200)

    def test_physical_units(self):
        q = qubit_preset("maj-ns-e6")
        se = DistillationUnitSpec(kind=SE)
        rm = DistillationUnitSpec(kind=RM)
        assert se.costs(q) == (12, 4600, 1e-6)
        assert rm.costs(q)[:2] == (31, 2300)

    def test_physical_unit_needs_majorana(self):
        q = qubit_preset("ns-e4")
        with pytest.raises(ParameterError, match="Majorana"):
            DistillationUnitSpec(kind=SE).costs(q)

    def test_patch_qubit_mismatch(self):
        unit = _logical(SE, SURFACE_GATE, qubit_preset("ns-e4"), 9)
        with pytest.raises(ParameterError, match="different qubit"):
            unit.costs(qubit_preset("ns-e3"))


class TestProvisioning:
    def test_all_success_shortcut(self):
        assert provisioned_copies(15, 0.9994) == 15

    def test_one_spare_copy(self):
        assert provisioned_copies(15, 0.999) == 16

    def test_low_acceptance_regression(self):
        # 300 successes at the acceptance probability of a physical unit fed
        # with p_t = 0.05 and p = 1e-4 (acceptance 0.2144)
        assert provisioned_copies(300, 1 - 15 * 0.05 - 356 * 1e-4) == 1572

    def test_zero_required(self):
        assert provisioned_copies(0, 0.5) == 0

    @pytest.mark.parametrize(
        "required, acceptance, copies",
        [
            # scipy's tail and 40-digit mpmath agree on this one. A tail off by
            # 1e-8, as log-space lgamma sums are here, gives 25 446 087.
            (15, 1e-6, 25_446_085),
            (450, 1e-3, 500_789),
            (15, 1.0, 15),
        ],
    )
    def test_pinned(self, required, acceptance, copies):
        assert provisioned_copies(required, acceptance) == copies

    def test_divergence_raises(self):
        with pytest.raises(ValidityRangeError, match="diverges"):
            provisioned_copies(15, 1e-9)

    @pytest.mark.parametrize(
        "copies, acceptance, error",
        [(0, 0.5, ParameterError), (1, 0.0, ValidityRangeError), (1, 1.5, ValidityRangeError)],
    )
    def test_reliable_outputs_rejects(self, copies, acceptance, error):
        with pytest.raises(error):
            reliable_outputs(copies, acceptance)

    def test_reliable_outputs_all_or_some(self):
        assert reliable_outputs(1, 0.999) == 1
        assert reliable_outputs(2, 0.999) == 2
        assert reliable_outputs(2, 0.8) == 0
        assert reliable_outputs(100, 0.5) in range(30, 50)


class TestEvaluateFactory:
    def test_single_round(self):
        q = qubit_preset("ns-e4")
        rounds = [TFactoryRound(unit=_logical(SE, SURFACE_GATE, q, 9), copies=1)]
        f = evaluate_factory(rounds, q)
        assert f.qubit_count == 3240
        assert f.duration == 46_800
        assert f.output_error == pytest.approx(5.63e-11, rel=1e-3)
        assert f.output_count == 1

    def test_two_round_mixed_kinds(self):
        q = qubit_preset("ns-e4")
        rounds = [
            TFactoryRound(unit=_logical(SE, SURFACE_GATE, q, 5), copies=16),
            TFactoryRound(unit=_logical(RM, SURFACE_GATE, q, 13), copies=1),
        ]
        f = evaluate_factory(rounds, q)
        assert f.qubit_count == 16_000
        assert f.duration == 83_200
        assert f.output_error == pytest.approx(2.1303e-15, rel=1e-3)
        assert f.output_count == 1
        assert len(f.acceptance_probabilities) == 2

    def test_under_provisioned_round_rejected(self):
        q = qubit_preset("ns-e4")
        rounds = [
            TFactoryRound(unit=_logical(SE, SURFACE_GATE, q, 5), copies=15),
            TFactoryRound(unit=_logical(RM, SURFACE_GATE, q, 13), copies=1),
        ]
        with pytest.raises(ParameterError, match="under-provisioned"):
            evaluate_factory(rounds, q)

    def test_decreasing_distances_rejected(self):
        q = qubit_preset("ns-e4")
        rounds = [
            TFactoryRound(unit=_logical(SE, SURFACE_GATE, q, 9), copies=16),
            TFactoryRound(unit=_logical(SE, SURFACE_GATE, q, 5), copies=1),
        ]
        with pytest.raises(ParameterError, match="non-decreasing"):
            evaluate_factory(rounds, q)

    def test_physical_round_must_come_first(self):
        q = qubit_preset("maj-ns-e6")
        rounds = [
            TFactoryRound(unit=_logical(SE, HASTINGS_HAAH, q, 3), copies=23),
            TFactoryRound(unit=DistillationUnitSpec(kind=RM), copies=1),
        ]
        with pytest.raises(ParameterError, match="first"):
            evaluate_factory(rounds, q)

    def test_mixed_code_models_rejected(self):
        q = qubit_preset("maj-ns-e6")
        from qre import SURFACE_MEAS

        rounds = [
            TFactoryRound(unit=_logical(SE, SURFACE_MEAS, q, 3), copies=31),
            TFactoryRound(unit=_logical(SE, HASTINGS_HAAH, q, 5), copies=1),
        ]
        with pytest.raises(ParameterError, match="one code model"):
            evaluate_factory(rounds, q)

    def test_no_reliable_output(self):
        q = PhysicalQubitParams(
            name="shaky",
            instruction_set=InstructionSet.MAJORANA,
            t_meas=100,
            p_clifford=2.5e-4,
            p_t=0.01,
        )
        rounds = [TFactoryRound(unit=_logical(SE, HASTINGS_HAAH, q, 3), copies=1)]
        with pytest.raises(FactoryOutputError, match="no reliable output"):
            evaluate_factory(rounds, q)

    def test_round_without_copies_rejected(self):
        q = qubit_preset("ns-e4")
        rounds = [TFactoryRound(unit=_logical(SE, SURFACE_GATE, q, 9), copies=0)]
        with pytest.raises(ParameterError, match="round 1: copies"):
            evaluate_factory(rounds, q)

    def test_empty_factory_rejected(self):
        with pytest.raises(ParameterError, match="at least one"):
            evaluate_factory([], qubit_preset("ns-e4"))


class TestSearch:
    def test_single_round_winner(self):
        q = qubit_preset("ns-e4")
        f = search_factory(q, SURFACE_GATE, 1.389e-10)
        assert [(r.unit.kind, r.unit.distance, r.copies) for r in f.rounds] == [
            (SE, 9, 1)
        ]
        assert (f.qubit_count, f.duration) == (3240, 46_800)

    def test_two_round_winner(self):
        q = qubit_preset("ns-e4")
        f = search_factory(q, SURFACE_GATE, 7.447e-12)
        assert [(r.unit.kind, r.unit.distance, r.copies) for r in f.rounds] == [
            (SE, 3, 16),
            (SE, 11, 1),
        ]
        assert (f.qubit_count, f.duration) == (5760, 72_800)

    def test_physical_first_round_on_majorana(self):
        q = qubit_preset("maj-ns-e6")
        f = search_factory(q, HASTINGS_HAAH, 6.114e-15)
        assert [(r.unit.kind, r.unit.level, r.copies) for r in f.rounds] == [
            (RM, UnitLevel.PHYSICAL, 282),
            (SE, UnitLevel.LOGICAL, 15),
            (RM, UnitLevel.LOGICAL, 1),
        ]
        assert (f.qubit_count, f.duration) == (15_600, 37_100)

    def test_search_result_reevaluates_identically(self):
        q = qubit_preset("maj-ns-e4")
        f = search_factory(q, HASTINGS_HAAH, 1.389e-10)
        assert evaluate_factory(f.rounds, q) == f

    def test_unreachable_target(self):
        q = qubit_preset("ns-e4")
        with pytest.raises(NoFactoryError, match="no factory reaches target") as info:
            search_factory(q, SURFACE_GATE, 1e-40)
        assert info.value.best_output_error is not None
        assert info.value.best_output_error > 1e-40

    def test_target_must_be_positive(self):
        with pytest.raises(ParameterError, match="positive"):
            search_factory(qubit_preset("ns-e4"), SURFACE_GATE, 0.0)

    def test_infinite_target_takes_the_cheapest_member(self):
        # A job with a tiny T-state count gives an infinite target; it may
        # be the fresh sweep's first query.
        _sweep.cache_clear()
        q = qubit_preset("ns-e4")
        assert search_factory(q, SURFACE_GATE, math.inf) == search_factory(q, SURFACE_GATE, 1.0)

    def test_sweep_premise_clifford_errors_never_rise_with_distance(self):
        """P1 of the sweep's exact pruning, on every preset sweep, at every
        factory distance the bounds allow: so at the default bounds and the caps."""
        lo, hi = BOUNDS["factory_distance"]
        distances = [d for d in range(lo, hi + 1) if d % 2]
        for q, code in reference.PRESET_PAIRS:
            errors = [patch(code, q, d).logical_error for d in distances]
            assert errors == sorted(errors, reverse=True), (q.name, code.name)

    @given(q=st.floats(1e-300, 0.066), c=st.floats(0.0, 1e-3))
    @example(q=1.7e-108, c=0.0)  # the cube underflows
    @settings(deadline=None, derandomize=True, max_examples=1000)
    def test_sweep_premise_unit_error_never_falls_as_an_input_rises(self, q, c):
        """P2 of the sweep's exact pruning, on this platform's libm ``pow``."""
        try:
            error = unit_output_error(q, c)[0]
            raised = (
                unit_output_error(math.nextafter(q, 1.0), c)[0],
                unit_output_error(q, math.nextafter(c, 1.0))[0],
            )
        except ValidityRangeError:
            assume(False)
        assert min(raised) >= error

    def test_sweep_premise_copy_floor_on_every_key_the_sweeps_meet(self, monkeypatch):
        """The cost bound's premises on every provisioning and output-count key
        of the preset sweeps run to their ends, at the default bounds and at
        the caps: 383 and 2 841 keys, with the floor tight on 108 of the 383."""
        seen = {provisioned_copies: set(), reliable_outputs: set()}

        def recording(real):
            def call(*key):
                seen[real].add(key)
                return real(*key)

            return call

        for real in seen:
            real.cache_clear()  # a cached provisioning key would hide its probes
            monkeypatch.setattr(distillation, real.__name__, recording(real))
        caps = SearchBounds(
            max_rounds=BOUNDS["max_rounds"][1],
            max_distance=BOUNDS["factory_distance"][1],
            max_final_copies=BOUNDS["max_final_copies"][1],
        )
        for (q, code), bounds in product(reference.PRESET_PAIRS, (SearchBounds(), caps)):
            distillation._Sweep(q, code, bounds).settle(0.0)
        monkeypatch.undo()
        assert [len(seen[real]) for real in (provisioned_copies, reliable_outputs)] == [383, 2841]
        assert all(_outputs_within_mean_ceiling(*key) for key in seen[reliable_outputs])
        floors = {key: _copy_floor(*key) for key in seen[provisioned_copies]}
        assert all(floors[key] <= _least_above_quotient(*key) for key in floors)
        assert all(floors[key] <= provisioned_copies(*key) for key in floors)

    @given(
        required=st.integers(1, 1500),
        acceptance=st.floats(0.01, 1.0),
        copies=st.integers(1, 10**5),
    )
    @example(required=15, acceptance=0.5, copies=28)  # an exact integer quotient
    @example(required=15, acceptance=1.0, copies=15)
    @settings(deadline=None, derandomize=True, max_examples=300)
    def test_sweep_premise_copy_floor_on_draws(self, required, acceptance, copies):
        assert _outputs_within_mean_ceiling(copies, acceptance)
        floor = _copy_floor(required, acceptance)
        assert floor <= _least_above_quotient(required, acceptance)
        assert floor <= provisioned_copies(required, acceptance)

    def test_bounds_validation(self):
        with pytest.raises(ParameterError):
            SearchBounds(max_rounds=0)
        with pytest.raises(ParameterError):
            SearchBounds(min_distance=9, max_distance=5)
        # Factory distances are odd, so a range of one even distance is empty.
        SearchBounds(min_distance=4, max_distance=5)
        with pytest.raises(ParameterError, match="empty factory distance range"):
            SearchBounds(min_distance=4, max_distance=4)

    @pytest.mark.parametrize(
        "field, cap", [("max_rounds", 4), ("max_distance", 35), ("max_final_copies", 4)]
    )
    def test_bounds_are_capped(self, field, cap):
        SearchBounds(**{field: cap})
        with pytest.raises(ParameterError, match="capped"):
            SearchBounds(**{field: cap + 1})

    def test_narrow_bounds_change_the_answer(self):
        q = qubit_preset("ns-e4")
        narrow = SearchBounds(max_rounds=1, min_distance=3, max_distance=9)
        f = search_factory(q, SURFACE_GATE, 1.389e-10, narrow)
        assert len(f.rounds) == 1
        assert f.rounds[0].unit.distance <= 9
