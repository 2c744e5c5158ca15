"""End-to-end physical resource estimates."""

import math

import pytest

from qre import (
    EstimatorError,
    LogicalRequirements,
    ParameterError,
    SearchBounds,
    application_preset,
    estimate,
    frontier,
    perfect_qubit_estimate,
    qubit_preset,
)
from threaded import threaded_frontier


def _reqs(logical_qubits, min_time_steps, t_states, budget):
    third = budget / 3
    return LogicalRequirements(
        logical_qubits=logical_qubits,
        min_time_steps=min_time_steps,
        t_states=t_states,
        error_budget=budget,
        logical_budget=third,
        distillation_budget=third,
        synthesis_budget=third,
    )


@pytest.fixture(scope="module")
def dynamics():
    return application_preset("dynamics").resolve()


class TestSingleEstimate:
    def test_dynamics_superconducting_fast(self, dynamics):
        est = estimate(qubit_preset("ns-e4"), dynamics)
        assert est.code.name == "surface-gate"
        assert est.distance == 9
        assert est.time_steps == 150_000
        assert est.runtime == 540_000_000
        assert est.factory_count == 208
        assert est.physical_qubits == 711_180

    def test_stretch_trades_factories_for_time(self, dynamics):
        est = estimate(qubit_preset("ns-e4"), dynamics, c_factor=10)
        assert est.distance == 11
        assert est.time_steps == 1_500_000
        assert est.runtime == 6_600_000_000
        assert est.factory_count == 18
        assert est.physical_qubits == 113_980

    def test_qubit_accounting_is_conserved(self, dynamics):
        est = estimate(qubit_preset("ns-e4"), dynamics)
        assert est.algorithm_qubits + est.factory_qubits == est.physical_qubits
        assert est.algorithm_qubits == 230 * est.tile_qubits
        assert est.factory_qubits == est.factory_count * est.factory.qubit_count
        assert 0 < est.factory_fraction < 1

    def test_error_budget_is_respected(self, dynamics):
        est = estimate(qubit_preset("ns-e4"), dynamics)
        assert est.logical_error_used <= dynamics.logical_budget
        assert est.t_error_used <= dynamics.distillation_budget

    def test_runtime_is_steps_times_cadence(self, dynamics):
        est = estimate(qubit_preset("us-e3"), dynamics, c_factor=10)
        assert est.runtime == est.time_steps * est.step_time

    def test_stretch_below_one_rejected(self, dynamics):
        with pytest.raises(ParameterError, match="at least 1"):
            estimate(qubit_preset("ns-e4"), dynamics, c_factor=0.5)

    def test_no_t_states_no_factory(self):
        reqs = _reqs(10, 1000, 0, 1e-3)
        est = estimate(qubit_preset("ns-e4"), reqs)
        assert est.factory is None
        assert est.factory_count == 0
        assert est.factory_qubits == 0
        assert est.physical_qubits == est.algorithm_qubits

    def test_slow_factory_stretches_schedule(self):
        # One time step but 1e4 T states: the factory cadence dominates.
        reqs = _reqs(6, 1, 1e4, 1e-3)
        est = estimate(qubit_preset("ns-e4"), reqs)
        assert est.distance == 5
        assert est.time_steps == 31
        assert est.runtime >= est.factory.duration
        expected = math.ceil(
            1e4
            * est.factory.duration
            / (est.factory.output_count * est.runtime)
        )
        assert est.factory_count == expected


class TestInterlock:
    def test_short_schedule_is_padded_to_the_factory(self):
        # One step cannot host a factory run, so a second pass pads the schedule.
        est = estimate(qubit_preset("ns-e4"), _reqs(10, 1, 1000, 1e-2))
        assert est.time_steps > 1
        assert est.factory.duration <= est.runtime == est.time_steps * est.step_time

    def test_unsettled_interlock_raises(self, monkeypatch):
        from qre import estimator

        monkeypatch.setattr(estimator, "_MAX_PASSES", 1)
        with pytest.raises(EstimatorError, match="did not settle in 1 passes"):
            estimate(qubit_preset("ns-e4"), _reqs(10, 1, 1000, 1e-2))


class TestFrontier:
    def test_matches_single_estimates(self, dynamics):
        qubit = qubit_preset("maj-ns-e6")
        factors = (1.0, 2.0, 4.0)
        rows = frontier(qubit, dynamics, factors)
        assert rows == tuple(estimate(qubit, dynamics, f) for f in factors)

    def test_parallel_equals_sequential(self, dynamics):
        qubit = qubit_preset("us-e4")
        factors = (8.0, 1.0, 3.0)
        assert threaded_frontier(qubit, dynamics, factors) == frontier(qubit, dynamics, factors)

    def test_sorted_by_schedule_length(self, dynamics):
        rows = frontier(qubit_preset("ns-e3"), dynamics, (4.0, 1.0, 2.0))
        steps = [row.time_steps for row in rows]
        assert steps == sorted(steps)

    def test_empty(self, dynamics):
        assert frontier(qubit_preset("ns-e4"), dynamics, ()) == ()


class TestPerfectQubits:
    def test_factoring_floor(self):
        reqs = application_preset("factoring").resolve()
        est = perfect_qubit_estimate(reqs, 100)
        assert est.logical_qubits == 25_481
        assert est.runtime == 1_227_000_013_200

    def test_step_time_must_be_positive(self, dynamics):
        with pytest.raises(ParameterError, match="non-positive duration"):
            perfect_qubit_estimate(dynamics, 0)


class TestBoundsPlumbing:
    def test_distance_cap_propagates(self, dynamics):
        from qre import DistanceCapError

        with pytest.raises(DistanceCapError):
            estimate(qubit_preset("us-e3"), dynamics, distance_cap=5)

    def test_factory_bounds_propagate(self, dynamics):
        from qre import NoFactoryError

        tight = SearchBounds(max_rounds=1, max_distance=3)
        with pytest.raises(NoFactoryError):
            estimate(qubit_preset("ns-e4"), dynamics, factory_bounds=tight)
