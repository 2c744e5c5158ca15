"""Benchmark of qre's end-to-end cost on two closed-loop workloads.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 45 --trace 0

One client sends one op at a time. ``cli-cold`` runs each op as a fresh
``qre estimate`` process, one per preset cell whatever ``--seconds`` says;
``sweep-warm`` runs its ops for ``--seconds`` inside one worker process
(``worker.py``). Every op's output is checked by
``check.py``, which does not call qre's model code. The last line of stdout
is one JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A readable summary goes to stderr and
the full result, with traces, to ``.perfbench_out/`` in the repository.
See README.md in this directory for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_out")

WORKLOADS = ("cli-cold", "sweep-warm")

# Set-up is repeated this many times per run and its median reported. A
# cli-cold set-up is one short process, so it can afford more repeats; a
# sweep-warm set-up fills the caches and takes about 5 s.
SETUPS = {"cli-cold": 7, "sweep-warm": 3}

# The tail is taken in windows of 14 rounds of the 72 sweep-warm jobs, so
# every window holds the same mix of jobs.
TAIL_WINDOW = 14 * 72

# Every process the benchmark starts keeps to one thread: numerical
# libraries would otherwise start a pool per process at import.
_ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run to its end."""


def cli_cold(run_dir: Path, seed: int, trace: bool) -> dict:
    """One fresh ``qre estimate`` process per preset cell.

    The count of ops is fixed, so every run times the same mix of cells
    and a faster program does not run more of them.
    """
    cells = workloads.cli_cells(seed)
    jobs_dir = run_dir / "jobs"
    jobs_dir.mkdir()
    setups = []
    for _ in range(SETUPS["cli-cold"]):
        t0 = time.perf_counter()
        for qubit, app in cells:
            job = json.dumps({"qubit": qubit, "application": app})
            (jobs_dir / f"{qubit}.{app}.json").write_text(job, encoding="utf-8")
        # One untimed process warms the file cache and the bytecode cache.
        subprocess.run([sys.executable, "-m", "qre.cli", "presets"],
                       stdout=subprocess.DEVNULL, check=True)
        setups.append(time.perf_counter() - t0)

    ops = []  # (cell, seconds, returncode, stdout)
    imports = []
    traces = []
    start = time.perf_counter()
    for qubit, app in cells:
        job_args = ["estimate", "--job", str(jobs_dir / f"{qubit}.{app}.json")]
        if trace:
            traces.append(run_dir / f"op{len(ops)}.trace.json")
            cmd = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"),
                   str(traces[-1]), *job_args]
        else:
            cmd = [sys.executable, "-m", "qre.cli", *job_args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        ops.append(((qubit, app), time.perf_counter() - t0, proc.returncode, proc.stdout))
        if proc.returncode != 0:
            print(f"op {qubit} {app} failed: {proc.stderr[-500:]}", file=sys.stderr)
        if trace:
            imports.append(import_times(proc.stderr))
    window = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    # The library's own render of each job is the reference for the CLI's.
    import qre

    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    references = {}
    problems = check.check_published_counts()
    for cell, _, returncode, stdout in ops:
        if returncode != 0:
            continue
        if cell not in references:
            job = {"qubit": cell[0], "application": cell[1]}
            references[cell] = qre.render(qre.run(qre.parse_job(job)), "json")
            # A second, warm render of the same job must not differ.
            again = qre.render(qre.run(qre.parse_job(job)), "json")
            problems += check.check_same(again, references[cell])
        problems += check.check_cli(returncode, stdout, references[cell])
    if trace:
        traces.append(run_dir / "parent.trace.json")
        tracer.dump(str(traces[-1]))
    failed = sum(returncode != 0 for _, _, returncode, _ in ops)
    return {
        "setup_s": setups,
        "op_s": [took for _, took, returncode, _ in ops if returncode == 0],
        "window_s": window,
        "peak_rss_mb": peak,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "imports": imports,
        "traces": traces,
    }


def sweep_warm(run_dir: Path, seed: int, seconds: float, trace: bool) -> dict:
    """Set up fresh workers; the last one also runs the ops."""
    setups, imports = [], []
    trace_file = run_dir / "worker.trace.json"
    for index in range(SETUPS["sweep-warm"]):
        last = index == SETUPS["sweep-warm"] - 1
        cmd = [sys.executable, *(["-X", "importtime"] if trace else []),
               str(HERE / "worker.py"), str(seed), str(seconds),
               str(trace_file) if trace and last else "-"]
        if not last:
            cmd.append("setup-only")
        err_path = run_dir / f"worker{index}.stderr"
        with open(err_path, "w", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True)
            try:
                line = proc.stdout.readline()
                setups.append(time.perf_counter() - t0)
                rest = proc.stdout.read()
            finally:
                proc.stdout.close()
                proc.wait()
        stderr = err_path.read_text(encoding="utf-8")
        if line != "ready\n" or proc.returncode != 0:
            raise BenchError(f"sweep-warm worker failed (exit {proc.returncode}):\n{stderr[-2000:]}")
        if trace:
            imports.append(import_times(stderr))
    result = json.loads(rest.splitlines()[-1])
    result.update(setup_s=setups, imports=imports, traces=[trace_file] if trace else [])
    return result


def import_times(stderr: str) -> dict:
    """Cumulative seconds of qre, scipy and jsonschema from ``-X importtime``."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip().split(".")[0], int(cumulative)))
    totals = {"qre": 0, "scipy": 0, "jsonschema": 0}
    ancestors: list[str] = []
    # Reversed, every module comes before the modules it imported; count a
    # package only where no enclosing import already counts it.
    for depth, root, cumulative in reversed(rows):
        del ancestors[depth:]
        if root in totals and root not in ancestors:
            totals[root] += cumulative
        ancestors.append(root)
    return {key: value / 1e6 for key, value in totals.items()}


def tail(values: list[float]) -> tuple[float, str]:
    """p95 with a window of ops or more, else the median.

    p95 is taken over each window of ``TAIL_WINDOW`` ops in order and
    reported as the median over those windows: on a shared machine a few
    seconds of interference would otherwise set the tail of the whole run.
    """
    if len(values) >= TAIL_WINDOW:
        windows = [values[i : i + TAIL_WINDOW]
                   for i in range(0, len(values) - TAIL_WINDOW + 1, TAIL_WINDOW)]
        p95 = [statistics.quantiles(w, n=20, method="inclusive")[18] for w in windows]
        return statistics.median(p95), f"p95, median of {len(windows)} windows"
    return statistics.median(values), "p50"


def end_to_end(result: dict) -> dict:
    ops = result["op_s"]
    tail_value, _ = tail(ops)
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "op_p50_s": statistics.median(ops),
        "op_tail_s": tail_value,
        "ops_per_s": len(ops) / result["window_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict) -> dict:
    spans = []
    gc_collections, gc_pause, gc_ops = 0, 0.0, 0
    for path in result["traces"]:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        offset = len(spans)
        for name, parent, start, end, attrs in data["spans"]:
            spans.append((name, parent + offset if parent >= 0 else -1, end - start, attrs))
        gc_collections += data["gc_collections"]
        gc_pause += data["gc_pause_s"]
        gc_ops += data["gc_ops"]
    durations: dict[str, list[float]] = {}
    children = [0] * len(spans)
    for name, parent, ns, _ in spans:
        durations.setdefault(name, []).append(ns / 1e9)
        if parent >= 0:
            children[parent] += ns
    searches = [(ns / 1e9, attrs) for name, _, ns, attrs in spans
                if name == "distillation.search_factory"]
    cold = [attrs for _, attrs in searches if attrs]
    estimates = len(durations["estimator.estimate"])
    med = statistics.median
    imports = result["imports"]
    return {
        "import.total_s": med(i["qre"] for i in imports),
        "import.scipy_s": med(i["scipy"] for i in imports),
        "import.jsonschema_s": med(i["jsonschema"] for i in imports),
        "jobs.parse_job_s": med(durations["jobs.parse_job"]),
        "counting.resolve_s": med(durations["counting.resolve"]),
        "codes.select_code_s": med(durations["codes.select_code"]),
        "codes.select_code_calls": len(durations["codes.select_code"]) / estimates,
        "distillation.cold_search_s": med(s for s, attrs in searches if attrs),
        "distillation.evaluate_calls": med(a["evaluate_calls"] for a in cold),
        "distillation.retained_mb": med(a["retained_bytes"] / 2**20 for a in cold),
        "distillation.warm_search_s": med(s for s, attrs in searches if not attrs),
        "estimator.interlock_passes": len(searches) / estimates,
        "estimator.self_s": med(
            (ns - children[i]) / 1e9
            for i, (name, _, ns, _) in enumerate(spans)
            if name == "estimator.estimate"
        ),
        "report.render_s": med(durations["report.render"]),
        # Per op: sweep-warm and cli-cold run more ops as the program gets faster.
        "python.gc_pause_s": gc_pause / gc_ops,
        "python.gc_collections": gc_collections / gc_ops,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if workload == "cli-cold":
        result = cli_cold(run_dir, seed, trace)
    else:
        result = sweep_warm(run_dir, seed, seconds, trace)
    # With no op done there is nothing to time; the counts are still reported.
    done = bool(result["op_s"])
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "ops_timed": len(result["op_s"]),
        "tail": tail(result["op_s"])[1] if done else "none",
        "end_to_end": end_to_end(result) if done else {},
        "per_layer": per_layer(result) if trace and done else {},
    }
    (run_dir / "result.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return summary


def _prepare_environment(root: Path) -> None:
    src = root / "src"
    if not (src / "qre" / "__init__.py").is_file():
        raise BenchError(f"no qre package under {src}; run from the repository root")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    for name in _ONE_THREAD:
        os.environ[name] = "1"
    # The distance cap is an input of the benchmark, not of the caller's shell.
    os.environ.pop("QRE_DMAX", None)
    sys.path.insert(0, str(src))


def manifest_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics in one section of ``BENCHMARK.json``."""
    try:
        spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        _prepare_environment(Path.cwd())
        units = manifest_units("per_layer" if args.trace else "end_to_end")
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
        metrics = summary["per_layer"] if args.trace else summary["end_to_end"]
        if metrics and metrics.keys() != units.keys():
            raise BenchError(f"metrics {sorted(metrics)} are not those of BENCHMARK.json "
                             f"{sorted(units)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.workload} seed {args.seed}: {summary['attempted']} ops attempted, "
          f"{summary['failed']} failed, {len(summary['problems'])} check problems; "
          f"op_tail_s is {summary['tail']} of {summary['ops_timed']} ops", file=sys.stderr)
    for problem in summary["problems"][:20]:
        print(f"  problem: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if summary["ops_timed"] else 1


if __name__ == "__main__":
    sys.exit(main())
