"""The 99%-confidence binomial rule against scipy's binomial tail.

``provisioned_copies`` and ``reliable_outputs`` sum binomial weights in
pure Python. scipy is a test-only oracle here: the reference bisects
``binom.sf`` over many keys at once and keeps the model's all-success
shortcut, so the two must agree on every integer.
"""

import random

import pytest

import qre.distillation as distillation
from qre import BUILTIN_CODES, SearchBounds, qubit_preset
from qre.distillation import provisioned_copies, reliable_outputs
from qre.qubits import qubit_preset_names
from test_staircase import _candidates

binom = pytest.importorskip("scipy.stats").binom
np = pytest.importorskip("numpy")

_CONFIDENCE = 0.99


def _first_true(holds, lo, hi):
    """Elementwise smallest x in [lo, hi] where ``holds(x)``; ``holds`` is
    monotone in x and true at ``hi``."""
    while (lo < hi).any():
        mid = (lo + hi) // 2
        ok = holds(mid)
        lo, hi = np.where(ok, lo, mid + 1), np.where(ok, mid, hi)
    return lo


def _oracle_outputs(keys):
    n = np.array([c for c, _ in keys])
    a = np.array([p for _, p in keys])
    # The first m whose tail falls short, minus one, is the last that meets it.
    short = _first_true(lambda m: binom.sf(m - 1, n, a) < _CONFIDENCE, np.zeros_like(n), n + 1)
    return [c if p**c >= _CONFIDENCE else int(m) - 1 for (c, p), m in zip(keys, short)]


def _oracle_copies(keys):
    k = np.array([r for r, _ in keys])
    a = np.array([p for _, p in keys])

    def meets(n):
        return binom.sf(k - 1, n, a) >= _CONFIDENCE

    hi = k.copy()
    while not meets(hi).all():
        hi = np.where(meets(hi), hi, 2 * hi)
    n = _first_true(meets, k, hi)
    return [r if p**r >= _CONFIDENCE else int(c) for (r, p), c in zip(keys, n)]


@pytest.fixture(scope="module")
def reached():
    """Every key that enumerating the preset pairs' whole search spaces passes
    to the rule, including the output counts that provisioning probes. The
    search itself settles fewer configurations, so its keys are a subset."""
    copies_keys, output_keys = set(), set()

    def record_copies(required, acceptance):
        copies_keys.add((required, acceptance))
        return provisioned_copies.__wrapped__(required, acceptance)

    def record_outputs(copies, acceptance):
        output_keys.add((copies, acceptance))
        return reliable_outputs(copies, acceptance)

    pairs = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distillation, "provisioned_copies", record_copies)
        patch.setattr(distillation, "reliable_outputs", record_outputs)
        for name in qubit_preset_names():
            qubit = qubit_preset(name)
            for code in BUILTIN_CODES:
                if code.instruction_set is qubit.instruction_set:
                    for _ in _candidates(qubit, code, SearchBounds()):
                        pass
                    pairs += 1
    assert pairs == 8
    return sorted(copies_keys), sorted(output_keys)


def test_preset_copies_match_oracle(reached):
    keys = reached[0]
    assert len(keys) > 1000
    assert [provisioned_copies(*key) for key in keys] == _oracle_copies(keys)


def test_preset_outputs_match_oracle(reached):
    keys = reached[1]
    assert len(keys) > 5000
    assert [reliable_outputs(*key) for key in keys] == _oracle_outputs(keys)


def test_wide_outputs_match_oracle():
    # Up to a million copies, so the weights window cuts both tails off.
    rng = random.Random(4)
    keys = [(int(10 ** rng.uniform(0, 6)), rng.uniform(0.001, 0.999)) for _ in range(300)]
    assert [reliable_outputs(*key) for key in keys] == _oracle_outputs(keys)


def test_wide_copies_match_oracle():
    rng = random.Random(5)
    keys = [(int(10 ** rng.uniform(0, 3)), 10 ** rng.uniform(-3, -0.001)) for _ in range(100)]
    assert [provisioned_copies(*key) for key in keys] == _oracle_copies(keys)
