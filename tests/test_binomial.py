"""The 99%-confidence binomial rule against scipy's binomial tail.

``provisioned_copies`` and ``reliable_outputs`` sum binomial weights in
pure Python. ``reference.copies`` and ``reference.outputs`` bisect scipy's
``binom.sf`` over many keys at once and keep the model's all-success
shortcut, so the two must agree on every integer.
"""

import random

import pytest

import reference
from factories import factories
from qre import SearchBounds
from qre import distillation
from qre.distillation import provisioned_copies, reliable_outputs


@pytest.fixture(scope="module")
def reached():
    """Every key the rule meets while qre evaluates every candidate of the
    preset pairs' whole search spaces, including the output counts that
    provisioning probes, and the output count of every final copy count of
    every layout, delivering or not. The full sweeps run here too, so the
    search's own keys are among them."""
    copies_keys, output_keys = set(), set()

    def record_copies(required, acceptance):
        copies_keys.add((required, acceptance))
        return provisioned_copies(required, acceptance)

    def record_outputs(copies, acceptance):
        output_keys.add((copies, acceptance))
        return reliable_outputs(copies, acceptance)

    assert len(reference.PRESET_PAIRS) == 8
    bounds = SearchBounds()
    provisioned_copies.cache_clear()  # a cached key would hide its probes
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(distillation, "provisioned_copies", record_copies)
        monkeypatch.setattr(distillation, "reliable_outputs", record_outputs)
        for qubit, code in reference.PRESET_PAIRS:
            for *_, acceptances in reference.layouts(qubit, code, bounds):
                for final in range(1, bounds.max_final_copies + 1):
                    distillation.reliable_outputs(final, acceptances[-1])
            for _ in factories(qubit, code, reference.candidates(qubit, code, bounds)):
                pass
            distillation._Sweep(qubit, code, bounds).settle(0.0)
    assert (len(copies_keys), len(output_keys)) == (1261, 10711)
    return sorted(copies_keys), sorted(output_keys)


def test_preset_copies_match_oracle(reached):
    keys = reached[0]
    assert len(keys) > 1000
    assert [provisioned_copies(*key) for key in keys] == reference.copies(keys)


def test_preset_outputs_match_oracle(reached):
    keys = reached[1]
    assert len(keys) > 5000
    assert [reliable_outputs(*key) for key in keys] == reference.outputs(keys)


def test_wide_outputs_match_oracle():
    # Up to a million copies, so the weights window cuts both tails off.
    rng = random.Random(4)
    keys = [(int(10 ** rng.uniform(0, 6)), rng.uniform(0.001, 0.999)) for _ in range(300)]
    assert [reliable_outputs(*key) for key in keys] == reference.outputs(keys)


def test_wide_copies_match_oracle():
    rng = random.Random(5)
    keys = [(int(10 ** rng.uniform(0, 3)), 10 ** rng.uniform(-3, -0.001)) for _ in range(100)]
    assert [provisioned_copies(*key) for key in keys] == reference.copies(keys)
