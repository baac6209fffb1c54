"""Show that the output checks can fail.

Usage: python3 perfbench/selftest.py

Runs each workload once on seed 7, checks that its genuine output passes,
also with no functional calls captured, then feeds the checker
deliberately corrupted copies and requires every one to be rejected.
Exits 1 on any wrong verdict.
"""

from __future__ import annotations

import copy
import sys

from checks import check_outputs, load_reference
from child import ROOT, invoke
from workloads import TREE_MEASURES

SEED = 7


def _scaled(captured, name, factor):
    out = list(captured)
    i = next(i for i, c in enumerate(out) if c[0] == name)
    out[i] = out[i][:3] + (out[i][3] * factor,)
    return out


def _set(path, value):
    """Corruption that sets report[path...] = value(old)."""
    def corrupt(rc, report, captured):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]])
        return rc, report, captured
    return corrupt


def _shift(section, sigmas):
    def corrupt(rc, report, captured):
        est = report[section]["estimate"]
        est["mean"] += sigmas * est["stderr"]
        return rc, report, captured
    return corrupt


def _no_calls(rc, report, captured):
    """A correct program that bypasses the public functional calls."""
    return rc, report, []


def _truncated_sweep(rc, report, captured):
    """Half the measures evaluated, and the report says so consistently."""
    for check in report["suites"][0]["checks"]:
        if "draws" in check:
            check["draws"] = TREE_MEASURES // 2
    weak = [c for c in captured if c[0].endswith("weak_functional")]
    return rc, report, weak[:TREE_MEASURES // 2]


# Variants that must pass: outputs a correct program could give.
VALID = {
    "mc_pipeline": {"no functional calls captured": _no_calls},
    "exact_opt": {"no functional calls captured": _no_calls},
    "tree_sweep": {"no functional calls captured": _no_calls},
}

# Variants that must be rejected.
CORRUPTIONS = {
    "mc_pipeline": {
        "strong off by 1e-6 relative": _set(["evaluate", "strong"], lambda v: v * (1 + 1e-6)),
        "weak off by 1e-6 relative": _set(["evaluate", "weak"], lambda v: v * (1 - 1e-6)),
        "chaining mean +10 stderr": _shift("chaining", 10.0),
        "lift sup^2 mean -10 stderr": _shift("lower_bound", -10.0),
        "chaining passed false": _set(["chaining", "passed"], lambda v: False),
        "pipeline passed false": _set(["passed"], lambda v: False),
        "nonzero exit code": lambda rc, rep, cap: (1, rep, cap),
        "uniform measure reported": _set(
            ["optimize", "weights"], lambda w: [1.0 / len(w)] * len(w)),
        "captured strong off by 1e-6": lambda rc, rep, cap: (
            rc, rep, _scaled(cap, "functionals.strong_functional", 1 + 1e-6)),
    },
    "exact_opt": {
        "strong off by 1e-6 relative": _set(["strong"], lambda v: v * (1 + 1e-6)),
        "strong off by 1e-5, no calls captured": lambda rc, rep, cap: _no_calls(
            *_set(["strong"], lambda v: v * (1 + 1e-5))(rc, rep, cap)),
        "weak off by 1e-2, no calls captured": lambda rc, rep, cap: _no_calls(
            *_set(["weak"], lambda v: v * (1 - 1e-2))(rc, rep, cap)),
        "weak above strong": _set(["weak"], lambda v: 1e3),
        "captured weak off by 1e-6": lambda rc, rep, cap: (
            rc, rep, _scaled(cap, "functionals.weak_functional", 1 - 1e-6)),
    },
    "tree_sweep": {
        "suite check ok false": _set(["suites", 0, "checks", 1, "ok"], lambda v: False),
        "violation count 1": _set(["suites", 0, "checks", 0, "violations"], lambda v: 1),
        "violation count 1, no calls captured": lambda rc, rep, cap: _no_calls(
            *_set(["suites", 0, "checks", 1, "violations"], lambda v: 1)(rc, rep, cap)),
        "captured weak off by 1e-6": lambda rc, rep, cap: (
            rc, rep, _scaled(cap, "functionals.weak_functional", 1 - 1e-6)),
        "half the measures evaluated": lambda rc, rep, cap: (
            rc, rep, [c for c in cap if c[0].endswith("weak_functional")][:25]),
        "half the measures evaluated and reported": _truncated_sweep,
    },
}


def main() -> int:
    work = ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    reference = load_reference()
    bad = 0
    for workload, corruptions in CORRUPTIONS.items():
        res = invoke(workload, SEED, str(work / f"selftest-{workload}.json"), False)
        rc, report = res["rc"], res["report"]
        captured = list(res["recorder"].captured)
        res["recorder"].captured.clear()
        variants = [(label, fn, False) for label, fn in VALID[workload].items()]
        variants += [(label, fn, True) for label, fn in corruptions.items()]
        fails, _ = check_outputs(workload, SEED, rc, report, captured, reference)
        print(f"{workload} genuine output: {'passes' if not fails else 'FAILS'}")
        for line in fails:
            print(f"  {line}")
        bad += bool(fails)
        for label, corrupt, must_fail in variants:
            c_rc, c_report, c_captured = corrupt(rc, copy.deepcopy(report), list(captured))
            fails, _ = check_outputs(workload, SEED, c_rc, c_report, c_captured, reference)
            verdict = "rejected" if fails else "passes"
            wrong = bool(fails) != must_fail
            print(f"  {label}: {verdict}{' (WRONG)' if wrong else ''}"
                  + (f" ({fails[0][:100]})" if fails else ""))
            bad += wrong
    print("selftest", "passed" if bad == 0 else f"FAILED ({bad} wrong verdicts)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
