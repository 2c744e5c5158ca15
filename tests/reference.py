"""qre's model restated from its formulas for the test oracles: the 99% binomial rule,
the unit and code models, the code ranking, the factory scan with its pick and staircase,
and the interlock. It takes only presets and instruction sets from qre (a test checks).
"""

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import combinations_with_replacement, product
from operator import mul

import numpy as np
from scipy.stats import binom

from qre import BUILTIN_CODES, InstructionSet, qubit_preset, qubit_preset_names

CONFIDENCE = 0.99

PRESET_PAIRS = tuple(  # the compatible (qubit preset, built-in code) pairs
    (qubit, code)
    for qubit in map(qubit_preset, qubit_preset_names())
    for code in BUILTIN_CODES
    if code.instruction_set is qubit.instruction_set
)


def _first_true(holds, lo, hi):
    """Elementwise least x in [lo, hi] where ``holds(x)``, monotone in x and true at ``hi``."""
    while (lo < hi).any():
        ok = holds(mid := (lo + hi) // 2)
        lo, hi = np.where(ok, lo, mid + 1), np.where(ok, mid, hi)
    return lo


def outputs(keys):
    """Per ``(copies, acceptance)``: all copies if all succeed at 99%, else
    the largest m with P[Binomial(copies, acceptance) >= m] >= 99%."""
    n, a = (np.array(column) for column in zip(*keys))
    # The first m whose tail falls short, minus one, is the last that meets it.
    short = _first_true(lambda m: binom.sf(m - 1, n, a) < CONFIDENCE, np.zeros_like(n), n + 1)
    return [c if p**c >= CONFIDENCE else int(m) - 1 for (c, p), m in zip(keys, short)]


def copies(keys):
    """Per ``(required, acceptance)``: the fewest copies whose 99% output reaches
    ``required``, or None if doubling from ``required`` passes the limit first."""
    k, a = (np.array(column) for column in zip(*keys))

    def meets(n):
        return binom.sf(k - 1, n, a) >= CONFIDENCE

    hi, over = k.copy(), np.zeros(len(keys), bool)
    while not (done := over | meets(hi)).all():
        hi = np.where(done, hi, 2 * hi)
        over |= ~done & (hi > 10**9)  # qre's provisioning limit
    n = _first_true(meets, k, np.where(over, k, hi))
    found = [None if o else int(c) for o, c in zip(over, n)]
    return [r if p**r >= CONFIDENCE else c for (r, p), c in zip(keys, found)]


# The same rules for one key at a time, memoised for the scan.
reliable = lru_cache(1 << 16)(lambda n, a: n if a**n >= CONFIDENCE else outputs([(n, a)])[0])
provisioned = lru_cache(1 << 16)(lambda r, a: r if a**r >= CONFIDENCE else copies([(r, a)])[0])

# Per 15-to-1 unit kind, in search order: the (qubit, duration) factors of a
# physical unit, in qubits and t_meas, and of a logical one, in tiles and steps.
_UNITS = {"space-efficient": ((12, 46), (20, 13)), "rm-prep": ((31, 23), (31, 11))}


def chain(q, cliffords):
    """The output error of units in series, one per Clifford error, fed states of
    error ``q``, and each unit's acceptance; None outside the formulas' range."""
    acceptances = []
    for p in cliffords:
        acceptances.append(1 - 15 * q - 356 * p)
        if not (0 <= q < 1 and 0 <= p < 1 and acceptances[-1] > 0):
            return None
        q = 35 * q**3 + 7.1 * p
    return q, acceptances


def patch(code, qubit, d):
    """A patch's logical error per step P(d), tile qubits n(d) and step time tau(d)."""
    gate = code.step_gate_factor * qubit.t_gate if code.step_gate_factor else 0
    return (
        code.error_prefactor * (qubit.p_clifford / code.threshold) ** ((d + 1) / 2),
        code.tile_quadratic * d * d + code.tile_linear * d + code.tile_constant,
        (gate + code.step_meas_factor * qubit.t_meas) * d,
    )


def select(qubit, target, codes):
    """The compatible code and smallest odd distance meeting ``target`` with
    the least ``(n * tau, n, index)``, or the name of the error qre raises."""
    compatible = [c for c in codes if c.instruction_set is qubit.instruction_set]
    below = [(i, c) for i, c in enumerate(compatible) if qubit.p_clifford < c.threshold]
    ranked = []
    for index, code in below:
        for d in range(3, 52, 2):  # odd distances up to qre's default cap, 51
            if (costs := patch(code, qubit, d))[0] <= target:
                ranked.append((costs[1] * costs[2], costs[1], index, d))
                break
    if not ranked:
        return "DistanceCapError" if below else "AboveThresholdError"
    *_, index, d = min(ranked)
    return compatible[index], d


def layouts(qubit, code, bounds):
    """Each configuration without its copy counts, in generation order, where the
    formulas hold: ``(kinds, distances, unit qubits, duration, output error, acceptances)``."""
    distances = [d for d in range(bounds.min_distance, bounds.max_distance + 1) if d % 2]
    units = {}  # (kind, distance or None): (qubits, duration, Clifford error)
    for (kind, (_, (q, t))), d in product(_UNITS.items(), distances):
        p, n, tau = patch(code, qubit, d)
        units[kind, d] = q * n, t * tau, p
    prefixes = [((), ())]  # the kinds and distances of a physical first round, if any
    if qubit.instruction_set is InstructionSet.MAJORANA:
        for kind, ((q, t), _) in _UNITS.items():
            units[kind, None] = q, t * qubit.t_meas, qubit.p_clifford
            prefixes.append(((kind,), (None,)))
    configurations = (
        (prefix_kinds + kinds, prefix_distances + combo)
        for total in range(1, bounds.max_rounds + 1)
        for prefix_kinds, prefix_distances in prefixes
        if total > len(prefix_kinds)  # the final round hands over encoded states
        for kinds in product(_UNITS, repeat=total - len(prefix_kinds))
        for combo in combinations_with_replacement(distances, len(kinds))
    )
    for kinds, ds in configurations:
        widths, durations, cliffords = zip(*[units[u] for u in zip(kinds, ds)])
        if run := chain(qubit.p_t, cliffords):
            yield kinds, ds, widths, sum(durations), *run


def candidates(qubit, code, bounds):
    """Each configuration in generation order, once per final copy count that delivers:
    ``(output error, qubits, duration, output count, ((kind, distance, copies), ...))``."""
    for kinds, ds, widths, duration, error, acceptances in layouts(qubit, code, bounds):
        for final in range(1, bounds.max_final_copies + 1):
            if not (count := reliable(final, acceptances[-1])):
                continue
            counts = [final]
            for acceptance in acceptances[-2::-1]:
                if (n := provisioned(15 * counts[0], acceptance)) is None:
                    break  # the provisioning diverges
                counts.insert(0, n)
            else:
                rounds = tuple(zip(kinds, ds, counts))
                yield error, max(map(mul, counts, widths)), duration, count, rounds


@lru_cache(maxsize=2)
def search(qubit, code, bounds):
    """The candidates, and their full-scan pick: a target's row index with the least
    (qubit-seconds, qubits, duration, index) among the rows meeting it, or None."""
    rows = tuple(candidates(qubit, code, bounds))
    order = sorted(range(len(rows)), key=lambda i: (rows[i][1] * rows[i][2], *rows[i][1:3], i))
    errors = [rows[i][0] for i in order]
    return rows, lambda target: next((i for i, e in zip(order, errors) if e <= target), None)


def staircase(rows):
    """The rows in cost order with errors below every cheaper row's, as a streamed front."""
    keys, errors, members = [], [], []  # keys rising, errors strictly falling
    for index, row in enumerate(rows):
        key = (row[1] * row[2], row[1], row[2], index)
        at = bisect_left(keys, key)
        if at and errors[at - 1] <= row[0]:
            continue
        end = at
        while end < len(keys) and errors[end] >= row[0]:
            end += 1
        keys[at:end], errors[at:end], members[at:end] = [key], [row[0]], [row]
    return members


def estimate(qubit, reqs, c_factor, codes, bounds):
    """``(code, distance, steps, runtime, factory count, physical qubits, factory
    row or None)``, or the name of the error qre raises."""
    steps = max(1, math.ceil(float(c_factor) * reqs.min_time_steps))
    for _ in range(sum(c.instruction_set is qubit.instruction_set for c in codes) + 1):
        picked = select(qubit, reqs.logical_budget / (reqs.logical_qubits * steps), codes)
        if isinstance(picked, str):
            return picked
        code, d = picked
        _, n, tau = patch(code, qubit, d)
        runtime, factory, count, factory_qubits = tau * steps, None, 0, 0
        if reqs.t_states > 0:
            rows, pick = search(qubit, code, bounds)
            if (index := pick(reqs.distillation_budget / max(1, reqs.t_states))) is None:
                return "NoFactoryError"
            factory = rows[index]
            if factory[2] > runtime:  # pad the schedule to the factory
                steps = -(-factory[2] // tau)
                continue
            count = max(1, math.ceil(reqs.t_states * factory[2] / (factory[3] * runtime)))
            factory_qubits = count * factory[1]
        return code, d, steps, runtime, count, reqs.logical_qubits * n + factory_qubits, factory
    return "EstimatorError"
