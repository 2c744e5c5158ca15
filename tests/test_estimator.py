"""End-to-end physical resource estimates."""

import itertools
import math

import pytest

from qre import (
    BUILTIN_CODES,
    BudgetSplit,
    EstimatorError,
    LogicalRequirements,
    ParameterError,
    PhysicalEstimate,
    SURFACE_GATE,
    SearchBounds,
    application_preset,
    application_preset_names,
    estimate,
    frontier,
    parse_job,
    perfect_qubit_estimate,
    qubit_preset,
    qubit_preset_names,
    run,
    select_code,
)
from threaded import threaded_frontier


def _reqs(logical_qubits, min_time_steps, t_states, budget):
    return LogicalRequirements(
        logical_qubits=logical_qubits,
        min_time_steps=min_time_steps,
        t_states=t_states,
        error_budget=budget,
        split=BudgetSplit(),
    )


# Each of its three compatible codes is padded for once before c2 settles.
_TIGHT_JOB = {
    "qubit": {
        "name": "x",
        "instruction_set": "gate-based",
        "t_meas": {"value": 680, "unit": "ns"},
        "p_clifford": 7.7e-05,
        "p_t": 0.0074,
        "t_gate": {"value": 804, "unit": "ns"},
    },
    "application": {
        "requirements": {
            "logical_qubits": 3,
            "min_time_steps": 3,
            "t_states": 6.5e12,
            "error_budget": 0.00033,
        }
    },
    "budget_split": {"logical": 0.0065, "distillation": 0.013, "synthesis": 0.97},
    "codes": [
        {
            "name": "c2",
            "instruction_set": "gate-based",
            "error_prefactor": 1.7e-05,
            "threshold": 0.013,
            "qubits_per_tile": {"quadratic": 2, "linear": 15},
            "step_time": {"gate_factor": 10, "meas_factor": 5},
        },
        {
            "name": "c6",
            "instruction_set": "gate-based",
            "error_prefactor": 0.014,
            "threshold": 0.084,
            "qubits_per_tile": {"quadratic": 11, "linear": 17},
            "step_time": {"meas_factor": 7},
        },
    ],
}

# Five custom codes, each the cheapest while its distance is 3, so the
# interlock pads for each in turn; a sixth pass settles on k0 at d=5.
_CHAIN_JOB = {
    "qubit": {
        "name": "x",
        "instruction_set": "gate-based",
        "t_meas": {"value": 100, "unit": "ns"},
        "t_gate": {"value": 100, "unit": "ns"},
        "p_clifford": 0.001,
        "p_t": 0.01,
    },
    "application": {
        "requirements": {
            "logical_qubits": 1,
            "min_time_steps": 1,
            "t_states": 1e8,
            "error_budget": 0.001,
        }
    },
    "codes": [
        {
            "name": f"k{k}",
            "instruction_set": "gate-based",
            "error_prefactor": prefactor,
            "threshold": threshold,
            "qubits_per_tile": {"quadratic": 1, "constant": constant},
            "step_time": {"meas_factor": 1},
        }
        for k, (prefactor, threshold, constant) in enumerate(
            (
                (53.3, 0.4, 1),
                (0.0239, 0.0667, 3),
                (0.00389, 0.0286, 5),
                (0.0011, 0.016, 8),
                (0.000462, 0.0108, 11),
            )
        )
    ],
}


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

    def test_qubit_accounting_is_conserved(self):
        # The total is derived from its two shares, not stored beside them.
        assert "physical_qubits" not in PhysicalEstimate._fields
        for qubit in qubit_preset_names():
            for app in application_preset_names():
                est = estimate(qubit_preset(qubit), application_preset(app).resolve())
                assert est.algorithm_qubits == est.requirements.logical_qubits * est.tile_qubits
                assert est.factory_qubits == est.factory_count * est.factory.qubit_count
                assert est.physical_qubits == est.algorithm_qubits + est.factory_qubits
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

    def test_padded_step_count_is_an_int_for_fractional_durations(self):
        qubit = qubit_preset("ns-e4")._replace(name="fractional", t_gate=50.25, t_meas=100.5)
        est = estimate(qubit, _reqs(10, 1, 1000, 1e-2))
        assert est.time_steps == 22 and type(est.time_steps) is int
        assert est.factory.duration <= est.runtime == est.time_steps * est.step_time

    @pytest.mark.parametrize(
        "job, picks, settled",
        [
            (
                _TIGHT_JOB,
                [("surface-gate", 5), ("c6", 3), ("c2", 3), ("c2", 3)],
                ("c2", 3, 72, 2_471_040, 2_459_600, 6_469_907_407_408),
            ),
            (
                _CHAIN_JOB,
                [("k0", 3), ("k1", 3), ("k2", 3), ("k3", 3), ("k4", 3), ("k0", 5)],
                ("k0", 5, 92, 46_000, 18_600, 40_434_783),
            ),
        ],
        ids=["tight", "six-passes"],
    )
    def test_each_pad_is_for_a_new_code(self, monkeypatch, job, picks, settled):
        """Every pass but the last pads for a code no earlier pass padded for,
        and a code padded for settles when picked again."""
        from qre import estimator

        seen = []

        def recording(*args):
            code, distance = select_code(*args)
            seen.append((code.name, distance))
            return code, distance

        monkeypatch.setattr(estimator, "select_code", recording)
        est = run(parse_job(job)).estimates[0]
        assert seen == picks
        assert (
            est.code.name,
            est.distance,
            est.time_steps,
            est.runtime,
            est.factory.duration,
            est.factory_count,
        ) == settled

    def test_unsettled_interlock_raises(self, monkeypatch):
        # A distance that shrinks as steps grow breaks the bound's premise.
        # The guard allows one pass per code the qubit can run, plus one:
        # ns-e4 runs one of the three built-in codes, so two passes either way.
        from qre import estimator

        for codes in ((SURFACE_GATE,), BUILTIN_CODES):
            distances = itertools.cycle((5, 3))
            passes = []

            def shrinking(qubit, target, codes, cap):
                code, _ = select_code(qubit, target, codes, cap)
                passes.append(target)
                return code, next(distances)

            monkeypatch.setattr(estimator, "select_code", shrinking)
            with pytest.raises(EstimatorError, match="did not settle in 2 passes") as info:
                estimate(qubit_preset("ns-e4"), _reqs(10, 1, 1000, 1e-2), codes=codes)
            assert len(passes) == 2 and "\n" not in str(info.value)


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
