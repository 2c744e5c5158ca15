"""Operation-count reduction and workload presets."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qre import (
    AlgorithmCounts,
    BudgetSplit,
    LogicalRequirements,
    ParameterError,
    SynthesisModel,
    UnknownPresetError,
    application_preset,
    application_preset_names,
    ising_counts,
    logical_counts,
    parse_job,
    rotation_t_count,
)
from qre.bounds import BOUNDS


class TestRotationTCount:
    def test_documented_example(self):
        assert rotation_t_count(1 / 9, 12) == 9

    def test_chemistry_scale(self):
        assert rotation_t_count(0.01 / 3, 2.06e8) == 25

    def test_zero_rotations_cost_nothing(self):
        assert rotation_t_count(1e-3, 0) == 0

    def test_budget_must_be_positive(self):
        with pytest.raises(ParameterError, match="positive"):
            rotation_t_count(0.0, 10)

    def test_budget_part_bounds_the_synthesis_budget(self):
        lo, hi = BOUNDS["budget_part"]
        assert rotation_t_count(lo, 10) > rotation_t_count(hi, 10)
        for budget in (math.nextafter(lo, 0), math.nextafter(hi, 2)):
            with pytest.raises(ParameterError, match="budget_part"):
                rotation_t_count(budget, 10)

    def test_custom_model(self):
        flat = SynthesisModel(scale=0.0, offset=7.0)
        assert rotation_t_count(1e-9, 1e9, flat) == 7

    def test_a_loose_budget_costs_no_t_gate(self):
        # The formula alone gives ceil(0.53 * log2(1e-6 / 0.3) + 5.3) = -4.
        assert rotation_t_count(0.3, 1e-6) == 0


def _counts(**overrides):
    base = dict(
        algorithm_qubits=1,
        measurements=1,
        rotations=0,
        t_gates=0,
        toffoli_gates=0,
        rotation_layers=0,
        error_budget=0.5,
    )
    base.update(overrides)
    return AlgorithmCounts(**base)


class TestLogicalCounts:
    def test_minimal_algorithm(self):
        reqs = logical_counts(_counts())
        assert reqs.logical_qubits == 6
        assert reqs.min_time_steps == 1
        assert reqs.t_states == 0
        assert math.isinf(reqs.max_t_state_error)

    def test_qubit_overhead_is_exact_for_perfect_squares(self):
        # 8 * 2 = 16 is a perfect square: ceil(sqrt(16)) must stay 4
        reqs = logical_counts(_counts(algorithm_qubits=2))
        assert reqs.logical_qubits == 2 * 2 + 4 + 1

    def test_toffoli_and_t_gate_terms(self):
        reqs = logical_counts(_counts(measurements=10, t_gates=5, toffoli_gates=2))
        assert reqs.min_time_steps == 10 + 5 + 3 * 2
        assert reqs.t_states == 5 + 4 * 2

    def test_budget_thirds_by_default(self):
        reqs = logical_counts(_counts())
        assert reqs.logical_budget == pytest.approx(0.5 / 3)
        assert reqs.distillation_budget == pytest.approx(0.5 / 3)
        assert reqs.split == BudgetSplit()

    def test_custom_split(self):
        reqs = logical_counts(_counts(), BudgetSplit(0.5, 0.25, 0.25))
        assert reqs.logical_budget == pytest.approx(0.25)
        assert reqs.distillation_budget == pytest.approx(0.125)

    def test_split_must_fit_in_budget(self):
        with pytest.raises(ParameterError, match="sum"):
            BudgetSplit(0.5, 0.4, 0.2)

    def test_requirements_split_must_be_a_budget_split(self):
        with pytest.raises(ParameterError, match="split must be a BudgetSplit"):
            LogicalRequirements(10, 10, 10, 1e-3, split=(0.5, 0.5, 0.5))

    def test_negative_counts_rejected(self):
        with pytest.raises(ParameterError, match="negative count"):
            _counts(t_gates=-1)

    def test_rotations_need_layers(self):
        with pytest.raises(ParameterError, match="layers"):
            _counts(rotations=5)

    def test_a_cheap_rotation_lowers_no_total(self):
        """A rotation whose budget needs no T gate adds its step and nothing
        else; the bare formula gives -8 228 T gates per rotation here."""
        counts = AlgorithmCounts(10, 1e6, 0.001, 1000, 0, 1, 0.9)
        reqs = logical_counts(counts, synthesis=SynthesisModel(1000, 0))
        assert reqs.min_time_steps == 1e6 + 0.001 + 1000
        assert reqs.t_states == 1000


_COUNT_FIELDS = ("measurements", "rotations", "t_gates", "toffoli_gates", "rotation_layers")
_SYNTHESIS = st.floats(*BOUNDS["synthesis"])


@given(
    counts=st.builds(
        AlgorithmCounts,
        algorithm_qubits=st.integers(1, 10**6),
        measurements=st.floats(1, 1e12),
        rotations=st.one_of(st.floats(0, 1, exclude_max=True), st.floats(0, 1e12)),
        t_gates=st.floats(0, 1e12),
        toffoli_gates=st.floats(0, 1e12),
        rotation_layers=st.floats(1, 1e12),
        error_budget=st.floats(BOUNDS["error_budget"][0], 0.99),
    ),
    synthesis=st.builds(SynthesisModel, _SYNTHESIS, _SYNTHESIS),
    field=st.sampled_from(_COUNT_FIELDS),
    extra=st.one_of(st.floats(0, 1), st.floats(0, 1e12)),
)
@settings(deadline=None, derandomize=True, max_examples=300)
def test_more_operations_never_lower_steps_or_t_states(counts, synthesis, field, extra):
    raised = counts._replace(**{field: getattr(counts, field) + extra})
    before = logical_counts(counts, synthesis=synthesis)
    after = logical_counts(raised, synthesis=synthesis)
    assert after.min_time_steps >= before.min_time_steps
    assert after.t_states >= before.t_states


class TestIsingCounts:
    def test_small_lattice(self):
        c = ising_counts(4, 1, 0.5)
        assert c.algorithm_qubits == 4
        assert c.measurements == 4
        assert c.rotations == 64
        assert c.rotation_layers == 26
        assert c.t_gates == 0 and c.toffoli_gates == 0

    def test_published_lattice_with_measurement_override(self):
        c = ising_counts(100, 20, 1e-3, measurements=1.4e6)
        assert c.rotations == 30_100
        assert c.rotation_layers == 501
        reqs = logical_counts(c)
        assert reqs.logical_qubits == 230
        assert rotation_t_count(1e-3 / 3, 30_100) == 20
        assert reqs.min_time_steps == 1.4e6 + 30_100 + 20 * 501
        assert reqs.t_states == 20 * 30_100

    @pytest.mark.parametrize("sites", [3, 5, 12])
    def test_non_square_lattice_rejected(self, sites):
        with pytest.raises(ParameterError, match="perfect square"):
            ising_counts(sites, 1, 0.5)

    def test_steps_must_be_positive(self):
        with pytest.raises(ParameterError, match="Trotter"):
            ising_counts(4, 0, 0.5)


class TestPresets:
    def test_names(self):
        assert application_preset_names() == ("dynamics", "chemistry", "factoring")

    def test_unknown(self):
        with pytest.raises(UnknownPresetError, match="unknown preset"):
            application_preset("sorting")

    def test_chemistry(self):
        reqs = application_preset("chemistry").resolve()
        assert reqs.logical_qubits == 2740
        assert reqs.min_time_steps == 411_756_300_000.0
        assert reqs.t_states == 545_205_300_000.0
        assert reqs.max_t_state_error == pytest.approx(6.1139e-15, rel=1e-4)

    def test_factoring(self):
        reqs = application_preset("factoring").resolve()
        assert reqs.logical_qubits == 25_481
        assert reqs.min_time_steps == 12_270_000_132.0
        assert reqs.t_states == 14_920_000_120.0
        assert reqs.max_t_state_error == pytest.approx(7.447e-12, rel=1e-3)

    def test_dynamics_stores_published_totals(self):
        preset = application_preset("dynamics")
        reqs = preset.resolve()
        assert reqs.logical_qubits == 230
        assert reqs.min_time_steps == 1.5e5
        assert reqs.t_states == 2.4e6
        assert reqs.max_t_state_error == pytest.approx(1.38889e-10, rel=1e-4)
        assert reqs == preset.requirements
        assert preset.notes

    @pytest.mark.parametrize("name", ["chemistry", "factoring"])
    def test_counts_round_trip(self, name):
        preset = application_preset(name)
        job = parse_job({"qubit": "ns-e4", "application": {"counts": preset.counts.to_json()}})
        assert job.requirements == preset.resolve()

    def test_resplit_stored_requirements(self):
        reqs = application_preset("dynamics").resolve(BudgetSplit(0.8, 0.1, 0.1))
        assert reqs.logical_budget == pytest.approx(8e-4)
        assert reqs.max_t_state_error == pytest.approx(1e-4 / 2.4e6)
