"""Inputs of the two workloads, drawn from the run's seed.

Everything here is plain data (job objects as a user would write them), so
the program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import random

QUBITS = ("us-e3", "us-e4", "ns-e3", "ns-e4", "maj-ns-e4", "maj-ns-e6")
APPLICATIONS = ("dynamics", "chemistry", "factoring")
STRETCH_FACTORS = (1, 2, 4, 8)


def cli_cells(seed: int) -> list[tuple[str, str]]:
    """The 18 preset cells in a seed-dependent order.

    Each block of six holds every qubit preset once, and over the three
    blocks each qubit meets each application once.
    """
    rng = random.Random(seed)
    qubits = list(QUBITS)
    apps = list(APPLICATIONS)
    rng.shuffle(qubits)
    rng.shuffle(apps)
    return [
        (q, apps[(i + block) % 3])
        for block in range(3)
        for i, q in enumerate(qubits)
    ]


def sweep_jobs(seed: int) -> list[dict]:
    """The 72 preset jobs (qubit x application x stretch) in seed order."""
    jobs = [
        {"qubit": q, "application": a, "c_factor": c}
        for q in QUBITS
        for a in APPLICATIONS
        for c in STRETCH_FACTORS
    ]
    random.Random(seed).shuffle(jobs)
    return jobs
