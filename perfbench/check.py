"""Output checker, independent of qre's own code paths.

Every estimate in a rendered JSON report is rebuilt from the model formulas:
the code's error, footprint and step-time polynomials, the 15-to-1 unit
error and acceptance formulas, the unit cost table, and the factory-count
rule. Only constants are taken from qre's public presets; the arithmetic
here is written from the model, never by calling qre's estimator, code
selection, distillation or counting functions. Each ``check_*`` function
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import functools
import json
import math

# Logical qubits after compilation, as published for the three applications.
PUBLISHED_LOGICAL_QUBITS = {"dynamics": 230, "chemistry": 2740, "factoring": 25_481}

# (kind, level) -> (qubits, steps) of one 15-to-1 unit. Physical units cost
# absolute qubits and multiples of t_meas; logical units cost multiples of
# the patch tile and of the patch step time.
UNIT_COST = {
    ("space-efficient", "physical"): (12, 46),
    ("rm-prep", "physical"): (31, 23),
    ("space-efficient", "logical"): (20, 13),
    ("rm-prep", "logical"): (31, 11),
}

DISTANCE_CAP = 51
_REL = 1e-9


@functools.cache
def constants() -> dict:
    """Public preset constants: qubits, codes, applications and synthesis."""
    import qre

    qubits = {name: qre.qubit_preset(name).to_json() for name in qre.qubit_preset_names()}
    codes = {code.name: code.to_json() for code in qre.BUILTIN_CODES}
    synthesis = qre.SynthesisModel()
    apps = {}
    for name in qre.application_preset_names():
        preset = qre.application_preset(name)
        if preset.counts is not None:
            apps[name] = {"counts": preset.counts.to_json()}
        else:
            stored = preset.requirements
            apps[name] = {
                "requirements": {
                    "logical_qubits": stored.logical_qubits,
                    "min_time_steps": stored.min_time_steps,
                    "t_states": stored.t_states,
                    "error_budget": stored.error_budget,
                }
            }
    return {
        "qubits": qubits,
        "codes": codes,
        "apps": apps,
        "synthesis": {"scale": synthesis.scale, "offset": synthesis.offset},
    }


def requirements(app: str) -> dict:
    """Logical requirements of a preset application, from its counts."""
    entry = constants()["apps"][app]
    if "requirements" in entry:
        raw = dict(entry["requirements"])
    else:
        c = entry["counts"]
        eps = c["error_budget"]
        syn = constants()["synthesis"]
        rotations = c["rotations"]
        per_rotation = 0
        if rotations > 0:
            per_rotation = math.ceil(
                syn["scale"] * math.log2(rotations / (eps / 3)) + syn["offset"]
            )
        n = c["algorithm_qubits"]
        raw = {
            "logical_qubits": 2 * n + math.ceil(math.sqrt(8 * n)) + 1,
            "min_time_steps": c["measurements"]
            + rotations
            + c["t_gates"]
            + per_rotation * c["rotation_layers"]
            + 3 * c["toffoli_gates"],
            "t_states": per_rotation * rotations + 4 * c["toffoli_gates"] + c["t_gates"],
            "error_budget": eps,
        }
    eps = raw["error_budget"]
    raw["logical_budget"] = eps / 3
    raw["distillation_budget"] = eps / 3
    return raw


def check_published_counts() -> list[str]:
    problems = []
    for app, expected in PUBLISHED_LOGICAL_QUBITS.items():
        got = requirements(app)["logical_qubits"]
        if got != expected:
            problems.append(f"{app}: {got} logical qubits, published {expected}")
    return problems


def _qubit(spec) -> dict:
    """Qubit parameters in ns from a preset name or an inline job object."""
    raw = constants()["qubits"][spec] if isinstance(spec, str) else spec
    scale = {"ns": 1, "us": 1_000, "ms": 1_000_000}

    def ns(duration):
        return None if duration is None else duration["value"] * scale[duration["unit"]]

    return {
        "isa": raw["instruction_set"],
        "t_gate": ns(raw.get("t_gate")),
        "t_meas": ns(raw["t_meas"]),
        "p": raw["p_clifford"],
        "p_t": raw["p_t"],
    }


def _patch_error(code: dict, q: dict, d: int) -> float:
    return code["error_prefactor"] * (q["p"] / code["threshold"]) ** ((d + 1) / 2)


def _tile(code: dict, d: int) -> int:
    t = code["qubits_per_tile"]
    return t["quadratic"] * d * d + t["linear"] * d + t["constant"]


def _step_time(code: dict, q: dict, d: int) -> int:
    s = code["step_time"]
    gate = s["gate_factor"] * q["t_gate"] if s["gate_factor"] else 0
    return (gate + s["meas_factor"] * q["t_meas"]) * d


def _minimal_distance(code: dict, q: dict, target: float) -> int | None:
    for d in range(3, DISTANCE_CAP + 1, 2):
        if _patch_error(code, q, d) <= target:
            return d
    return None


def check_estimate(est: dict, q: dict, req: dict, c_factor: float) -> list[str]:
    """Problems with one rendered estimate against the model formulas."""
    codes = constants()["codes"]
    problems = []

    def fail(message):
        problems.append(message)

    code = codes.get(est["code"])
    if code is None or code["instruction_set"] != q["isa"]:
        return [f"code {est['code']!r} is not a builtin code for {q['isa']}"]
    nq = req["logical_qubits"]
    steps = est["time_steps"]
    d = est["distance"]
    budget = req["logical_budget"]
    if d < 3 or d % 2 == 0:
        fail(f"distance {d} is not an odd integer >= 3")
    if nq * steps * _patch_error(code, q, d) > budget * (1 + _REL):
        fail(f"distance {d} misses the logical budget over {steps} steps")
    if d > 3 and nq * steps * _patch_error(code, q, d - 2) <= budget * (1 - _REL):
        fail(f"distance {d} is not minimal: {d - 2} meets the logical budget")
    cost = _tile(code, d) * _step_time(code, q, d)
    target = budget / (nq * steps)
    for other in codes.values():
        if other["instruction_set"] != q["isa"] or q["p"] >= other["threshold"]:
            continue
        d_other = _minimal_distance(other, q, target)
        if d_other is None:
            continue
        other_cost = _tile(other, d_other) * _step_time(other, q, d_other)
        if other_cost < cost:
            fail(f"code {other['name']} at d={d_other} is cheaper than {est['code']} at d={d}")

    step_time = _step_time(code, q, d)
    runtime = steps * step_time
    if est["step_time"]["ns"] != step_time:
        fail(f"step time {est['step_time']['ns']} != {step_time}")
    if est["runtime"]["ns"] != runtime:
        fail(f"runtime {est['runtime']['ns']} != steps x step time {runtime}")
    if steps < math.ceil(c_factor * req["min_time_steps"]):
        fail(f"{steps} steps is below the stretched depth floor")

    factory = est["factory"]
    count = est["factory_count"]
    factory_qubits = 0
    if req["t_states"] <= 0:
        if factory is not None or count != 0:
            fail("a factory was built for a run without T states")
    elif factory is None:
        fail("no factory for a run with T states")
    else:
        problems += _check_factory(factory, code, q, req)
        if factory["duration"]["ns"] > runtime:
            fail("factory is slower than the run it feeds")
        expected = math.ceil(
            req["t_states"] * factory["duration"]["ns"] / (factory["output_count"] * runtime)
        )
        if count != expected:
            fail(f"factory count {count} != {expected}")
        factory_qubits = count * factory["qubit_count"]
    algorithm_qubits = nq * _tile(code, d)
    if est["physical_qubits"] != factory_qubits + algorithm_qubits:
        fail(f"physical qubits {est['physical_qubits']} != {factory_qubits} + {algorithm_qubits}")
    breakdown = est["breakdown"]
    if (breakdown["algorithm_qubits"], breakdown["factory_qubits"]) != (
        algorithm_qubits,
        factory_qubits,
    ):
        fail("qubit breakdown disagrees with the totals")
    return problems


def _check_factory(factory: dict, code: dict, q: dict, req: dict) -> list[str]:
    problems = []
    error = q["p_t"]
    acceptances = []
    widest = 0
    duration = 0
    last_distance = 0
    rounds = factory["rounds"]
    for index, rnd in enumerate(rounds):
        level = rnd["level"]
        qubits, unit_steps = UNIT_COST[(rnd["kind"], level)]
        if level == "physical":
            if index > 0 or q["isa"] != "majorana":
                problems.append(f"round {index + 1}: physical unit not allowed here")
            clifford = q["p"]
            unit_time = unit_steps * q["t_meas"]
        else:
            d = rnd["distance"]
            if d < last_distance:
                problems.append("factory distances decrease")
            last_distance = d
            clifford = _patch_error(code, q, d)
            qubits *= _tile(code, d)
            unit_time = unit_steps * _step_time(code, q, d)
        acceptances.append(1.0 - 15.0 * error - 356.0 * clifford)
        error = 35.0 * error**3 + 7.1 * clifford
        widest = max(widest, rnd["copies"] * qubits)
        duration += unit_time
        if index + 1 < len(rounds) and rnd["copies"] < 15 * rounds[index + 1]["copies"]:
            problems.append(f"round {index + 1} cannot feed round {index + 2}")
    target = req["distillation_budget"] / req["t_states"]
    if error > target * (1 + _REL):
        problems.append(f"factory output error {error:.3g} misses the target {target:.3g}")
    if not math.isclose(factory["output_error"], error, rel_tol=_REL):
        problems.append(f"factory output error {factory['output_error']!r} != {error!r}")
    reported = factory["acceptance_probabilities"]
    if len(reported) != len(acceptances) or not all(
        math.isclose(a, b, rel_tol=_REL) for a, b in zip(reported, acceptances)
    ):
        problems.append("acceptance probabilities disagree with 1 - 15q - 356p")
    if factory["qubit_count"] != widest:
        problems.append(f"factory qubits {factory['qubit_count']} != widest round {widest}")
    if factory["duration"]["ns"] != duration:
        problems.append(f"factory duration {factory['duration']['ns']} != {duration}")
    if factory["output_count"] < 1:
        problems.append("factory promises no output")
    return problems


def check_report(text: str) -> list[str]:
    """Problems with one canonical JSON report of a preset-application job."""
    try:
        report = json.loads(text)
        job = report["job"]
        q = _qubit(job["qubit"])
        req = requirements(job["application"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report does not parse: {exc!r}"]
    extra = set(job) - {"qubit", "application", "c_factor"}
    if extra:
        return [f"job keys {sorted(extra)} are outside what the checker models"]
    if len(report["estimates"]) != 1:
        return ["expected exactly one estimate"]
    est = report["estimates"][0]
    c_factor = float(job.get("c_factor", 1.0))
    if est["c_factor"] != c_factor:
        return [f"stretch factor {est['c_factor']} != job's {c_factor}"]
    return check_estimate(est, q, req, c_factor)


def check_same(text: str, reference: str) -> list[str]:
    """Problems when two renders that must be byte-identical differ."""
    if text == reference:
        return []
    at = next((i for i, (a, b) in enumerate(zip(text, reference)) if a != b), None)
    if at is None:
        at = min(len(text), len(reference))
    return [f"output differs from its reference at character {at}"]


def check_cli(returncode: int, stdout: str, reference: str) -> list[str]:
    """A ``qre estimate`` process: exit 0, parsable, equal to the library's render."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    return check_same(stdout.rstrip("\n"), reference) + check_report(stdout)


def check_stretch_monotone(renders) -> list[str]:
    """Steps must not fall as the stretch factor grows, per (qubit, app)."""
    by_cell: dict = {}
    for text in renders:
        report = json.loads(text)
        job = report["job"]
        key = (json.dumps(job["qubit"], sort_keys=True), job["application"])
        est = report["estimates"][0]
        by_cell.setdefault(key, []).append((est["c_factor"], est["time_steps"]))
    problems = []
    for key, rows in by_cell.items():
        rows.sort()
        if any(b[1] < a[1] for a, b in zip(rows, rows[1:])):
            problems.append(f"steps fall with the stretch factor for {key}")
    return problems
