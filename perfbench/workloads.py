"""The benchmark's workloads: one real ``orthomm`` command line each.

The benchmark seed selects the inputs; the program only sees the command
line built from it.  Every command runs single-threaded (``--workers 1``)
and writes its report to a file without a timestamp.
"""

from __future__ import annotations

import json

# Coefficient family of each workload, in the CLI's JSON form.
COEFFS = {
    "mc_pipeline": {"kind": "power", "exponent": 1.0, "count": 64},
    "exact_opt": {"kind": "power", "exponent": 1.0, "count": 2048},
    "tree_sweep": {"kind": "geometric", "ratio": 0.9, "count": 256},
}
TREE_MEASURES = 50
PIPELINE_PATHS = 100_000


def command(workload: str, seed: int, out: str) -> list[str]:
    """Arguments for ``orthomm.cli.main`` of one invocation."""
    coeffs = json.dumps(COEFFS[workload])
    common = ["--workers", "1", "--no-timestamp", "--out", out]
    if workload == "mc_pipeline":
        return ["pipeline", "--coeffs", coeffs, "--seed", str(seed),
                "--paths", str(PIPELINE_PATHS)] + common
    if workload == "exact_opt":
        # Deterministic: the seed is recorded by the benchmark, not used.
        return ["evaluate", "--coeffs", coeffs, "--measure", "optimize"] + common
    if workload == "tree_sweep":
        return ["verify", "--suite", "inequalities", "--coeffs", coeffs,
                "--random-measures", str(TREE_MEASURES),
                "--seed", str(seed)] + common
    raise KeyError(workload)
