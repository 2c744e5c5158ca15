import pytest

from qre import (
    InstructionSet,
    ParameterError,
    PhysicalQubitParams,
    SchemaError,
    UnknownPresetError,
    parse_job,
    qubit_preset,
    qubit_preset_names,
)

EXPECTED_PRESETS = {
    "us-e3": (InstructionSet.GATE_BASED, 100_000, 100_000, 1e-3, 1e-6),
    "us-e4": (InstructionSet.GATE_BASED, 100_000, 100_000, 1e-4, 1e-6),
    "ns-e3": (InstructionSet.GATE_BASED, 50, 100, 1e-3, 1e-3),
    "ns-e4": (InstructionSet.GATE_BASED, 50, 100, 1e-4, 1e-4),
    "maj-ns-e4": (InstructionSet.MAJORANA, None, 100, 1e-4, 0.05),
    "maj-ns-e6": (InstructionSet.MAJORANA, None, 100, 1e-6, 0.01),
}


def test_preset_names_are_stable():
    assert qubit_preset_names() == tuple(EXPECTED_PRESETS)


@pytest.mark.parametrize("name", sorted(EXPECTED_PRESETS))
def test_preset_parameters(name):
    isa, t_gate, t_meas, p, p_t = EXPECTED_PRESETS[name]
    q = qubit_preset(name)
    assert q.instruction_set is isa
    assert q.t_gate == t_gate
    assert q.t_meas == t_meas
    assert q.p_clifford == p
    assert q.p_t == p_t


def test_unknown_preset_lists_choices():
    with pytest.raises(UnknownPresetError, match="unknown preset"):
        qubit_preset("nope")
    try:
        qubit_preset("nope")
    except UnknownPresetError as exc:
        assert "ns-e4" in str(exc)
        assert exc.known == qubit_preset_names()


def _gate_qubit(**overrides):
    base = dict(
        name="q",
        instruction_set=InstructionSet.GATE_BASED,
        t_meas=100,
        p_clifford=1e-4,
        p_t=1e-4,
        t_gate=50,
    )
    base.update(overrides)
    return PhysicalQubitParams(**base)


def test_validate_rejects_probability_out_of_range():
    with pytest.raises(ParameterError, match="probability out of range"):
        _gate_qubit(p_clifford=0.0)
    with pytest.raises(ParameterError, match="probability out of range"):
        _gate_qubit(p_t=1.0)


def test_validate_rejects_non_positive_durations():
    with pytest.raises(ParameterError, match="non-positive duration"):
        _gate_qubit(t_meas=0)
    with pytest.raises(ParameterError, match="non-positive duration"):
        _gate_qubit(t_gate=-5)


def test_gate_based_requires_gate_time():
    with pytest.raises(ParameterError, match="t_gate"):
        _gate_qubit(t_gate=None)


def test_majorana_rejects_gate_time():
    with pytest.raises(ParameterError, match="gate-based"):
        PhysicalQubitParams(
            name="m",
            instruction_set=InstructionSet.MAJORANA,
            t_meas=100,
            p_clifford=1e-4,
            p_t=0.05,
            t_gate=50,
        )


def _inline(qubit):
    return parse_job({"qubit": qubit, "application": "dynamics"}).qubit


_MAJORANA = {"instruction_set": "majorana", "p_clifford": 1e-4, "p_t": 0.05}


class TestJsonRoundTrip:
    """Inline job qubits, with durations in any unit, built through parse_job."""

    @pytest.mark.parametrize("name", qubit_preset_names())
    def test_round_trip(self, name):
        q = qubit_preset(name)
        assert _inline(q.to_json()) == q

    def test_microsecond_conversion(self):
        obj = {
            "name": "slow",
            "instruction_set": "gate-based",
            "t_gate": {"value": 100, "unit": "us"},
            "t_meas": {"value": 0.1, "unit": "ms"},
            "p_clifford": 1e-3,
            "p_t": 1e-6,
        }
        q = _inline(obj)
        assert q.t_gate == 100_000
        assert q.t_meas == 100_000

    def test_fractional_nanoseconds_rejected(self):
        for value, unit in ((0.5, "ns"), (0.0005, "us")):
            obj = {**_MAJORANA, "t_meas": {"value": value, "unit": unit}}
            with pytest.raises(SchemaError, match="whole number") as info:
                _inline(obj)
            assert info.value.pointer == "/qubit"

    def test_huge_duration_is_out_of_range_not_fractional(self):
        """Past 2**53 ns the unit conversion rounds, but the value is whole."""
        obj = {**_MAJORANA, "t_meas": {"value": 541417058668768.6, "unit": "ms"}}
        with pytest.raises(SchemaError, match="duration out of range") as info:
            _inline(obj)
        assert info.value.pointer == "/qubit"

    def test_unknown_unit_rejected(self):
        obj = {**_MAJORANA, "t_meas": {"value": 1, "unit": "s"}}
        with pytest.raises(SchemaError, match="is not one of") as info:
            _inline(obj)
        assert info.value.pointer == "/qubit/t_meas/unit"

    def test_bad_instruction_set_rejected(self):
        obj = {**_MAJORANA, "t_meas": {"value": 1, "unit": "us"}, "instruction_set": "trapped-ion"}
        with pytest.raises(SchemaError, match="instruction_set") as info:
            _inline(obj)
        assert info.value.pointer == "/qubit/instruction_set"


def test_every_three_decimal_microsecond_duration_is_whole_nanoseconds():
    """A whole number of ns written in a larger unit is accepted even where
    the float product is inexact: 1.001 * 1000 is not 1001."""
    assert 1.001 * 1000 != 1001
    assert _inline({**_MAJORANA, "t_meas": {"value": 1.001, "unit": "us"}}).t_meas == 1001
    from qre.jobs import _ns  # the conversion alone, for speed

    for ns in range(1, 100_000):
        assert _ns({"value": ns / 1000, "unit": "us"}, "t_meas") == ns
