"""``frontier`` rows computed on threads of their own, as a caller may."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from qre import estimate


def threaded_frontier(qubit, requirements, c_factors, timeout=120.0, **kwargs):
    """What ``frontier`` returns, with each ``estimate`` on its own thread.

    The threads start their estimates together and, with a short switch
    interval, interleave often. Every wait has a timeout, so a deadlock
    fails the test instead of hanging it.
    """
    start = threading.Barrier(len(c_factors), timeout=timeout)

    def run(c_factor):
        start.wait()
        return estimate(qubit, requirements, c_factor, **kwargs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    pool = ThreadPoolExecutor(max_workers=len(c_factors))
    try:
        futures = [pool.submit(run, f) for f in c_factors]
        rows = [future.result(timeout=timeout) for future in futures]
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        sys.setswitchinterval(interval)
    return tuple(sorted(rows, key=lambda e: (e.time_steps, e.c_factor)))
