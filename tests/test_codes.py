"""Code scaling models: tile sizes, step times, error suppression, selection."""

import pytest

from qre import (
    BUILTIN_CODES,
    HASTINGS_HAAH,
    SURFACE_GATE,
    SURFACE_MEAS,
    AboveThresholdError,
    BudgetSplit,
    DistanceCapError,
    InstructionSet,
    LogicalPatch,
    LogicalRequirements,
    ParameterError,
    PhysicalQubitParams,
    estimate,
    parse_job,
    patch,
    qubit_preset,
    required_distance,
    select_code,
)


def test_builtin_registry_order():
    assert [c.name for c in BUILTIN_CODES] == [
        "surface-gate",
        "surface-meas",
        "hastings-haah",
    ]


def test_surface_gate_patch():
    p = patch(SURFACE_GATE, qubit_preset("ns-e4"), 13)
    assert p.tile_qubits == 338
    assert p.step_time == 5200
    assert p.logical_error == pytest.approx(0.03 * 1e-2**7)


def test_hastings_haah_patch():
    p = patch(HASTINGS_HAAH, qubit_preset("maj-ns-e4"), 15)
    assert p.tile_qubits == 1012
    assert p.step_time == 4500


def test_surface_meas_scaling():
    q = qubit_preset("maj-ns-e4")
    assert SURFACE_MEAS.tile_qubits(5) == 50
    assert SURFACE_MEAS.step_time(q, 5) == 20 * 100 * 5


def test_logical_error_suppression():
    q = qubit_preset("ns-e4")
    # ratio 1e-2, exponent (9+1)/2 = 5
    assert SURFACE_GATE.logical_error(q, 9) == pytest.approx(3e-12)


def test_above_threshold_raises():
    q = PhysicalQubitParams(
        name="hot",
        instruction_set=InstructionSet.MAJORANA,
        t_meas=100,
        p_clifford=0.002,
        p_t=0.05,
    )
    with pytest.raises(AboveThresholdError, match="above threshold"):
        SURFACE_MEAS.logical_error(q, 9)
    with pytest.raises(AboveThresholdError, match="above threshold"):
        LogicalPatch(code=SURFACE_MEAS, qubit=q, distance=9)


def test_instruction_set_mismatch():
    with pytest.raises(ParameterError, match="instruction set mismatch"):
        HASTINGS_HAAH.step_time(qubit_preset("ns-e4"), 5)
    with pytest.raises(ParameterError, match="instruction set mismatch"):
        LogicalPatch(code=HASTINGS_HAAH, qubit=qubit_preset("ns-e4"), distance=9)


@pytest.mark.parametrize("bad", [1, 2, 8])
def test_patch_rejects_bad_distances(bad):
    q = qubit_preset("ns-e4")
    with pytest.raises(ParameterError, match="odd"):
        patch(SURFACE_GATE, q, bad)
    with pytest.raises(ParameterError, match="odd"):
        LogicalPatch(code=SURFACE_GATE, qubit=q, distance=bad)
    with pytest.raises(ParameterError, match="odd"):
        LogicalPatch(SURFACE_GATE, q, 9)._replace(distance=bad)


class TestRequiredDistance:
    def test_loose_target_gives_floor(self):
        assert required_distance(SURFACE_GATE, qubit_preset("ns-e4"), 0.5) == 3

    def test_known_inversions(self):
        q = qubit_preset("ns-e4")
        # P(11) = 3e-14, P(13) = 3e-16
        assert required_distance(SURFACE_GATE, q, 3.5e-16) == 13
        assert required_distance(SURFACE_GATE, q, 3.1e-16) == 13
        assert required_distance(SURFACE_GATE, q, 2.9e-16) == 15

    def test_cap(self):
        q = qubit_preset("ns-e3")
        with pytest.raises(DistanceCapError, match="distance cap exceeded"):
            required_distance(SURFACE_GATE, q, 1e-30)
        # same target passes with the cap raised
        assert required_distance(SURFACE_GATE, q, 1e-30, distance_cap=99) == 57
        # A loose target takes the floor, which a cap below 3 still forbids.
        loose = LogicalRequirements(1, 1, 0, 0.5, BudgetSplit())
        with pytest.raises(DistanceCapError, match="distance cap exceeded"):
            required_distance(SURFACE_GATE, qubit_preset("ns-e4"), 0.5, distance_cap=1)
        with pytest.raises(DistanceCapError, match="distance cap exceeded"):
            estimate(qubit_preset("ns-e4"), loose, distance_cap=1)

    def test_target_must_be_positive(self):
        with pytest.raises(ParameterError, match="positive"):
            required_distance(SURFACE_GATE, qubit_preset("ns-e4"), 0.0)


CRITERION_TARGET = 3.5e-16

SELECTION = {
    "us-e3": ("surface-gate", 27, 1458, 16_200_000),
    "us-e4": ("surface-gate", 13, 338, 7_800_000),
    "ns-e3": ("surface-gate", 27, 1458, 10_800),
    "ns-e4": ("surface-gate", 13, 338, 5_200),
    "maj-ns-e4": ("hastings-haah", 15, 1012, 4_500),
    "maj-ns-e6": ("hastings-haah", 7, 244, 2_100),
}


@pytest.mark.parametrize("preset", sorted(SELECTION))
def test_select_code_per_preset(preset):
    code_name, d, n, tau = SELECTION[preset]
    q = qubit_preset(preset)
    code, distance = select_code(q, CRITERION_TARGET)
    assert (code.name, distance) == (code_name, d)
    assert code.tile_qubits(distance) == n
    assert code.step_time(q, distance) == tau


def test_select_code_prefers_smaller_footprint():
    # At this target the compact-tile code needs a larger distance but still
    # wins on n*tau for measurement-only hardware.
    q = qubit_preset("maj-ns-e6")
    code, d = select_code(q, 3.5e-16)
    hh = HASTINGS_HAAH.tile_qubits(d) * HASTINGS_HAAH.step_time(q, d)
    sm_d = required_distance(SURFACE_MEAS, q, 3.5e-16)
    sm = SURFACE_MEAS.tile_qubits(sm_d) * SURFACE_MEAS.step_time(q, sm_d)
    assert code is HASTINGS_HAAH
    assert hh <= sm


def test_select_code_with_no_compatible_codes():
    q = qubit_preset("ns-e4")
    with pytest.raises(ParameterError, match="compatible"):
        select_code(q, 1e-6, codes=(HASTINGS_HAAH,))


def test_select_code_above_threshold_everywhere():
    q = PhysicalQubitParams(
        name="hot",
        instruction_set=InstructionSet.GATE_BASED,
        t_gate=50,
        t_meas=100,
        p_clifford=0.5,
        p_t=0.5,
    )
    with pytest.raises(AboveThresholdError):
        select_code(q, 1e-6)


def test_select_code_full_tie_goes_to_the_earlier_entry():
    q = qubit_preset("ns-e4")
    twin = SURFACE_GATE._replace(name="twin")
    assert select_code(q, CRITERION_TARGET, codes=(twin, SURFACE_GATE)) == (twin, 13)
    assert select_code(q, CRITERION_TARGET, codes=(SURFACE_GATE, twin)) == (SURFACE_GATE, 13)


def test_select_code_equal_cost_goes_to_the_smaller_tile():
    # Half the tile at twice the step time: the same n*tau at every distance.
    q = qubit_preset("ns-e4")
    narrow = SURFACE_GATE._replace(
        name="narrow", tile_quadratic=1, step_gate_factor=8, step_meas_factor=4
    )
    d = required_distance(SURFACE_GATE, q, CRITERION_TARGET)
    assert narrow.tile_qubits(d) * narrow.step_time(q, d) == (
        SURFACE_GATE.tile_qubits(d) * SURFACE_GATE.step_time(q, d)
    )
    assert select_code(q, CRITERION_TARGET, codes=(SURFACE_GATE, narrow)) == (narrow, d)


def test_select_code_names_the_capped_code_among_hot_ones():
    q = qubit_preset("ns-e4")
    hot = SURFACE_GATE._replace(name="hot", threshold=1e-5)
    with pytest.raises(DistanceCapError, match="code 'surface-gate' needs d=13") as info:
        select_code(q, CRITERION_TARGET, codes=(hot, SURFACE_GATE), distance_cap=7)
    assert "above threshold for code 'hot'" in str(info.value)
    assert str(info.value).startswith(f"no compatible code meets target {CRITERION_TARGET:.3g}: ")


class TestCustomCodeValidation:
    @pytest.mark.parametrize("code", BUILTIN_CODES, ids=lambda code: code.name)
    def test_round_trip(self, code):
        # A built-in's JSON parses back to that built-in, so the job lists it once.
        job = {"qubit": "ns-e4", "application": "dynamics", "codes": [code.to_json()]}
        assert parse_job(job).codes == BUILTIN_CODES

    def test_zero_step_time_rejected(self):
        with pytest.raises(ParameterError, match="step time"):
            SURFACE_GATE._replace(step_gate_factor=0, step_meas_factor=0)

    def test_shrinking_tile_rejected(self):
        with pytest.raises(ParameterError, match="grow"):
            SURFACE_GATE._replace(tile_quadratic=0, tile_linear=-1, tile_constant=100)

    def test_gate_factor_needs_gate_based_hardware(self):
        with pytest.raises(ParameterError, match="gate time factor"):
            HASTINGS_HAAH._replace(step_gate_factor=1)
