"""sweep-warm in one process: set up, say ``ready``, then run timed ops.

Started by ``run.py`` as ``python3 perfbench/worker.py <seed> <seconds>
<trace file or -> [setup-only]`` with ``src`` on ``PYTHONPATH``.
The last line on stdout is a JSON object with the op times, the peak
resident memory and the checker's findings.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import check
import workloads
from tracer import Tracer, install


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sweep(qre, seed: int, seconds: float, tracer: Tracer | None, ready) -> dict:
    """Repeated preset jobs on filled caches, in whole rounds of 72."""
    jobs = workloads.sweep_jobs(seed)
    renders = [qre.render(qre.run(qre.parse_job(job)), "json") for job in jobs]
    ready()
    if tracer:
        tracer.start_gc()
    times, problems = [], []
    start = time.perf_counter()
    attempted = failed = 0
    while time.perf_counter() - start < seconds:
        for job, reference in zip(jobs, renders):
            attempted += 1
            t0 = time.perf_counter()
            try:
                text = qre.render(qre.run(qre.parse_job(job)), "json")
            except qre.EstimatorError as exc:
                failed += 1
                print(f"op {job} failed: {exc}", file=sys.stderr)
                continue
            times.append(time.perf_counter() - t0)
            if text != reference:
                problems += check.check_same(text, reference)
    window = time.perf_counter() - start
    peak = _peak_rss_mb()
    if tracer:
        tracer.stop_gc()
    for text in renders:
        problems += check.check_report(text)
    problems += check.check_stretch_monotone(renders)
    return {"op_s": times, "window_s": window, "peak_rss_mb": peak,
            "attempted": attempted, "failed": failed, "problems": problems}


def main(argv: list[str]) -> int:
    seed, seconds, trace_path = argv[:3]
    setup_only = argv[3:] == ["setup-only"]
    import qre

    src = Path.cwd() / "src"
    if not Path(qre.__file__).resolve().is_relative_to(src.resolve()):
        print(f"qre imported from {qre.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace_path != "-":
        tracer = Tracer()
        install(tracer)

    def ready():
        print("ready", flush=True)
        if setup_only:
            raise SystemExit(0)

    result = sweep(qre, int(seed), float(seconds), tracer, ready)
    result["problems"] += check.check_published_counts()
    if tracer:
        tracer.dump(trace_path, gc_ops=result["attempted"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
