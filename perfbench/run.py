"""Benchmark of the orthomm command line: three workloads, each a real command.

Usage:
  python3 perfbench/run.py --workload {mc_pipeline,exact_opt,tree_sweep,all}
                           [--seed N] [--seconds S] [--trace 0|1]

Every invocation runs in a fresh Python process (``child.py``) that calls
``orthomm.cli.main`` in-process, single-threaded.  A run repeats the
workload's command on the inputs made from ``--seed`` for about
``--seconds`` seconds (one invocation at least) and reports medians.

``--trace 0`` reports the end-to-end metrics wall_s, cpu_s, setup_s and
peak_rss_mb; after each invocation it starts a few processes that only set
up (import orthomm, build the inputs) and exit, so that setup_s is the
median of many set-ups spread over the run.  ``--trace 1`` alternates
untraced and traced invocations and reports the per-layer metrics of the
traced ones, plus the tracing overhead (median traced wall_s minus median untraced wall_s).  Every
invocation's outputs are checked; one that raises, exits nonzero or fails
a check counts as failed.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170.0  # a run ends within 180 s, warm-up and last invocation included
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 3  # set-up-only processes after each untraced-run invocation
# Single-threaded BLAS in every invocation; never more threads than cores.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))

sys.path.insert(0, str(HERE))
from spans import COUNTS  # noqa: E402
from workloads import COEFFS  # noqa: E402


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_child(workload: str, seed: int, index, mode: str,
              deadline: float) -> tuple[dict, float]:
    """One child process in ``mode`` 0, 1 or setup (see child.py); a crash
    or timeout returns a result with a failure."""
    path = WORK / f"{workload}-{seed}-{index}.json"
    path.unlink(missing_ok=True)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed), str(path),
             mode],
            env=CHILD_ENV, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return {"failures": ["timed out"]}, time.monotonic() - t0
    elapsed = time.monotonic() - t0
    if proc.returncode != 0 or not path.exists():
        return {"failures": [f"process exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}"]}, elapsed
    return json.loads(path.read_text()), elapsed


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """Invocations for about ``seconds`` s; medians, counts and failures."""
    start = time.monotonic()
    results: list[tuple[bool, dict]] = []
    durations: list[float] = []
    setups: list[float] = []
    setup_failed = 0
    while True:
        traced = trace and len(results) % 2 == 1
        index = len(results)
        res, took = run_child(workload, seed, index, "1" if traced else "0", deadline)
        results.append((traced, res))
        for k in range(0 if trace else SETUP_SAMPLES):
            extra, t = run_child(workload, seed, f"{index}-setup{k}", "setup", deadline)
            took += t
            if "setup_s" in extra.get("metrics", {}):
                setups.append(extra["metrics"]["setup_s"])
            for line in extra.get("failures", ()):
                print(f"  FAILED (set-up only): {line}")
                setup_failed += 1
        durations.append(took)
        now = time.monotonic()
        enough = len(results) >= (2 if trace else 1)
        if enough and now - start + statistics.median(durations) > seconds:
            break
        if now + max(durations) > deadline:
            break
    for i, (traced, res) in enumerate(results):
        m = res.get("metrics", {})
        print(f"  invocation {i}{' traced' if traced else ''}: "
              + " ".join(f"{k}={m[k]:.4g}" for k in E2E_UNITS if k in m))
        for line in res.get("failures", ()):
            print(f"  FAILED ({'traced' if traced else 'untraced'}): {line}")
    notes = sorted({n for _, res in results for n in res.get("notes", ())})
    for note in notes:
        print(f"  note: {note}")
    failed = sum(1 for _, res in results if res.get("failures"))
    plain = [res["metrics"] for traced, res in results if not traced and "metrics" in res]
    out = {"attempted": len(results), "failed": failed,
           "correct": failed == 0 and setup_failed == 0,
           "samples": len(plain),
           "versions": next((r["versions"] for _, r in results if "versions" in r), {})}
    if not trace:
        if not plain:
            out["metrics"] = {}
            return out
        samples = {name: [m[name] for m in plain] for name in E2E_UNITS}
        samples["setup_s"] += setups
        out["metrics"] = {name: (statistics.median(samples[name]), unit)
                          for name, unit in E2E_UNITS.items()}
        out["spread"] = {name: (min(v), max(v), len(v)) for name, v in samples.items()}
        return out
    layers = [res["layers"] for traced, res in results if traced and "layers" in res]
    if not layers or not plain:
        out["metrics"] = {}
        return out
    for count in COUNTS:
        if len({lay[count] for lay in layers}) != 1:
            print(f"  FAILED: count {count} differs across traced invocations")
            out["correct"] = False
    metrics = {name: (statistics.median(lay[name] for lay in layers), layer_unit(name))
               for name in layers[0]}
    traced_wall = [res["metrics"]["wall_s"] for traced, res in results
                   if traced and "metrics" in res]
    metrics["trace.overhead_s"] = (statistics.median(traced_wall)
                                   - statistics.median(m["wall_s"] for m in plain), "s")
    out["metrics"] = metrics
    out["samples"] = len(layers)
    return out


def report(workload: str, seed: int, out: dict) -> None:
    ratio = out["failed"] / out["attempted"]
    print(f"{workload} seed={seed} invocations={out['attempted']} "
          f"measured={out['samples']} "
          + " ".join(f"{k}={v}" for k, v in out["versions"].items()))
    for name, (value, unit) in out["metrics"].items():
        lo_hi = out.get("spread", {}).get(name)
        extra = (f"  (min {lo_hi[0]:.6g}, max {lo_hi[1]:.6g}, {lo_hi[2]} samples)"
                 if lo_hi else "")
        print(f"  {name} = {value:.6g} {unit}{extra}")
    print(f"  failed_ratio = {ratio:.6g} ({out['failed']} failed of "
          f"{out['attempted']} attempted)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*COEFFS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "orthomm" / "cli.py").is_file():
        print(f"error: no orthomm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    WORK.mkdir(parents=True, exist_ok=True)
    # Compile the sources once, so no invocation pays for writing bytecode.
    warm = subprocess.run([sys.executable, "-c", "import orthomm.cli"], env=CHILD_ENV,
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    if warm.returncode != 0:
        print(f"warning: importing orthomm failed: {warm.stderr.strip()[-2000:]}")
    print(f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"blas_threads={CHILD_ENV['OPENBLAS_NUM_THREADS']} trace={args.trace}")
    names = list(COEFFS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           started + RUN_LIMIT_S)
        started = time.monotonic()
        report(name, args.seed, out)
        if not out["metrics"]:
            print(f"error: no invocation of {name} produced metrics", file=sys.stderr)
            return 1
        prefix = f"{name}." if args.workload == "all" else ""
        total["correct"] &= out["correct"]
        total["attempted"] += out["attempted"]
        total["failed"] += out["failed"]
        total["metrics"].update({prefix + k: {"value": v, "unit": u}
                                 for k, (v, u) in out["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
