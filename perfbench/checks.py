"""Output checks that do not trust the code under test.

The strong and weak functionals are recomputed here from direct ball-mass
sums, without orthomm's distance profile: on a line the closed ball
B(t, r) holds the points within r on each side of t, so its mass is a
sum of two runs of weights that start at t.  Monte Carlo means and the
deterministic optimum are compared with reference values recorded by
``make_reference.py``.  Values captured from the program's public
functional calls are checked too, where there are any; no check requires
them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import COEFFS, TREE_MEASURES

REL_TOL = 1e-9          # independent against reported strong and weak values
OPT_REL_TOL = 1e-6      # optimized strong value against the reference minimum
# Weak value at the optimum against the reference: a near-minimizer pins the
# strong value much more tightly than the weak value of its measure.
OPT_WEAK_REL_TOL = 1e-3
VIOLATION_GAP = 1e-12   # weak above a bound by more than this is a violation
MC_SIGMAS = 5.0         # MC mean against reference, in combined standard errors
POINT_ABS_TOL = 1e-12   # index-set points against their direct construction

REFERENCE = Path(__file__).resolve().with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def direct_points(coeffs: dict) -> np.ndarray:
    """Scaled partial sums {0} u {c sum_{n<=m} a_n^2} of a coefficient family."""
    n = np.arange(1, coeffs["count"] + 1, dtype=float)
    if coeffs["kind"] == "power":
        sq = n ** (-2.0 * coeffs["exponent"])
    else:
        sq = coeffs["ratio"] ** n
    total = sq.sum()
    scale = 1.0 if total < 1.0 else (1.0 - 2.0 ** -32) / total
    return np.concatenate([[0.0], np.cumsum(scale * sq)])


def ball_integrals(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """f(t) = int_0^sqrt(D) m(B(t, r^2))^(-1/2) dr for every point t."""
    root_d = math.sqrt(points[-1] - points[0])
    out = np.empty(points.size)
    for i, t in enumerate(points):
        left_d = t - points[i::-1]          # 0, then increasing leftwards
        right_d = points[i + 1:] - t        # increasing rightwards
        left_m = np.cumsum(weights[i::-1])
        right_m = np.concatenate([[0.0], np.cumsum(weights[i + 1:])])
        radii = np.unique(np.concatenate([left_d, right_d]))
        mass = (left_m[np.searchsorted(left_d, radii, side="right") - 1]
                + right_m[np.searchsorted(right_d, radii, side="right")])
        roots = np.sqrt(radii)
        seg = np.append(roots[1:], root_d) - roots
        out[i] = float(np.dot(seg, mass ** -0.5))
    return out


def dyadic_sum(points: np.ndarray, weights: np.ndarray) -> float:
    """sum_k 2^-k sum_cells sqrt(m(cell)) with its exact tail past separation."""
    total, k = 0.0, 0
    while True:
        k += 1
        keys = np.floor(np.ldexp(points, 2 * k))   # exact: scaling by 4^k
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        total += 2.0 ** -k * float(np.sqrt(np.add.reduceat(weights, starts)).sum())
        if starts.size == points.size:
            return total + 2.0 ** -k * float(np.sqrt(weights).sum())


class Functionals:
    """Independent strong, weak and dyadic values, cached per measure."""

    def __init__(self):
        self._cache: dict[bytes, tuple[float, float, float]] = {}

    def __call__(self, points, weights) -> tuple[float, float, float]:
        points = np.asarray(points, dtype=float)
        weights = np.asarray(weights, dtype=float)
        key = points.tobytes() + weights.tobytes()
        if key not in self._cache:
            f = ball_integrals(points, weights)
            live = weights > 0.0
            self._cache[key] = (float(f.max()), float(np.dot(weights[live], f[live])),
                                dyadic_sum(points, weights))
        return self._cache[key]


def _rel_close(claimed, exact: float, tol: float) -> bool:
    return claimed is not None and abs(claimed - exact) <= tol * abs(exact)


def _flags(node, path="report"):
    """Every (path, value) of a ``passed`` or ``ok`` key in the report."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("passed", "ok"):
                yield f"{path}.{key}", value
            yield from _flags(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _flags(value, f"{path}[{i}]")


def _mc(label, estimate, ref) -> list[str]:
    se = math.hypot(estimate["stderr"], ref["stderr"])
    z = (estimate["mean"] - ref["mean"]) / se
    if abs(z) > MC_SIGMAS:
        return [f"{label} mean {estimate['mean']!r} is {z:+.2f} combined "
                f"standard errors from the reference {ref['mean']!r}"]
    return []


def sweep_measures(seed: int, size: int) -> list[np.ndarray]:
    """The Dirichlet measures ``verify --suite inequalities --seed`` draws."""
    seeds = np.random.default_rng(seed).integers(0, 2 ** 31, size=TREE_MEASURES)
    out = []
    for s in seeds:
        w = np.random.default_rng(int(s)).dirichlet(np.ones(size))
        out.append(w / w.sum())
    return out


def check_outputs(workload: str, seed: int, rc, report, captured,
                  reference: dict) -> tuple[list[str], list[str]]:
    """(failures, notes) for one invocation; notes are not gated.

    ``captured`` holds the (name, points, weights, value) of every public
    strong_functional / weak_functional call seen; it may be empty, and
    every check it feeds is an addition to those made from the report.
    """
    fails: list[str] = []
    notes: list[str] = []
    if rc != 0:
        fails.append(f"exit code {rc!r}")
    if not isinstance(report, dict):
        return fails + ["no report"], notes
    if workload != "exact_opt" and "passed" not in report:
        fails.append("report carries no passed flag")
    fails += [f"{path} is {value!r}" for path, value in _flags(report)
              if value is not True]

    points = direct_points(COEFFS[workload])
    funcs = Functionals()
    measures = {}
    last_weak = None
    for name, c_points, weights, value in captured:
        if np.shape(c_points) != points.shape or \
                np.abs(np.asarray(c_points) - points).max() > POINT_ABS_TOL:
            fails.append(f"{name} saw points that differ from the direct partial sums")
            continue
        strong, weak, _ = funcs(points, weights)
        exact = strong if name.endswith("strong_functional") else weak
        if not _rel_close(value, exact, REL_TOL):
            fails.append(f"{name} returned {value!r}, direct sums give {exact!r}")
        if name.endswith("weak_functional"):
            measures[np.asarray(weights).tobytes()] = weights
            last_weak = weights

    if workload == "mc_pipeline":
        ev = report.get("evaluate", {})
        reported = report["build"]["index_set"]["points"]
        if len(reported) != points.size or \
                np.abs(np.asarray(reported) - points).max() > POINT_ABS_TOL:
            fails.append("index-set points differ from the direct partial sums")
        strong, weak, dyadic = funcs(points, report["optimize"]["weights"])
        for label, value in (("evaluate.strong", ev.get("strong")),
                             ("optimize.value", report["optimize"].get("value")),
                             ("chaining.strong", report["chaining"].get("strong"))):
            if not _rel_close(value, strong, REL_TOL):
                fails.append(f"{label} {value!r} but direct sums give {strong!r}")
        if not _rel_close(ev.get("weak"), weak, REL_TOL):
            fails.append(f"weak {ev.get('weak')!r} but direct sums give {weak!r}")
    elif workload == "exact_opt":
        # The report carries no weights: check it against the reference
        # optimum, and against the evaluated measure where it was captured.
        ev = report
        strong, weak, dyadic = ev.get("strong"), ev.get("weak"), ev.get("dyadic")
        if not _rel_close(weak, reference[workload]["weak"], OPT_WEAK_REL_TOL):
            fails.append(f"weak {weak!r} is not within {OPT_WEAK_REL_TOL} of the "
                         f"reference {reference[workload]['weak']!r}")
        if last_weak is not None:
            # The last weak_functional call is evaluate's, on the optimum.
            d_strong, d_weak, _ = funcs(points, last_weak)
            for label, value, exact in (("strong", strong, d_strong),
                                        ("weak", weak, d_weak)):
                if not _rel_close(value, exact, REL_TOL):
                    fails.append(f"{label} {value!r} but direct sums of the "
                                 f"evaluated measure give {exact!r}")
    if workload in ("mc_pipeline", "exact_opt"):
        ref = reference[workload]
        if not all(isinstance(v, float) for v in (strong, weak, dyadic)):
            return fails + ["strong, weak or dyadic value missing"], notes
        if not (ev.get("weak") is not None and ev.get("strong") is not None
                and ev["weak"] <= ev["strong"]):
            fails.append("reported weak exceeds reported strong")
        if not _rel_close(strong, ref["strong_min"], OPT_REL_TOL):
            fails.append(f"optimized strong {strong!r} is not within {OPT_REL_TOL} "
                         f"of the reference minimum {ref['strong_min']!r}")
        if workload == "mc_pipeline":
            fails += _mc("chaining estimate", report["chaining"]["estimate"],
                         ref["chaining"])
            fails += _mc("lift sup^2 estimate", report["lower_bound"]["estimate"],
                         ref["lift_sup2"])
        notes.append(f"criterion 05 (strong <= dyadic, not gated): "
                     f"{'holds' if strong <= dyadic else 'fails'}, strong {strong:.6g}, "
                     f"dyadic {dyadic:.6g}")
    elif workload == "tree_sweep":
        suite = report["suites"][0]
        drawn = sweep_measures(seed, points.size)
        values = [funcs(points, w) for w in drawn]
        independent = {
            "weak_le_strong": sum(wk - st > VIOLATION_GAP for st, wk, _ in values),
            "weak_le_dyadic": sum(wk - dy > VIOLATION_GAP for _, wk, dy in values),
            "weak_le_filtered": None}
        by_name = {check.get("name"): check for check in suite["checks"]}
        for name, count in independent.items():
            check = by_name.get(name, {})
            if check.get("draws") != TREE_MEASURES:
                fails.append(f"{name} reports {check.get('draws')!r} draws, "
                             f"{TREE_MEASURES} requested")
            if count is not None and check.get("violations") != count:
                fails.append(f"{name} reports {check.get('violations')!r} "
                             f"violations, direct sums give {count}")
        if measures and len(measures) != TREE_MEASURES:
            fails.append(f"weak_functional saw {len(measures)} distinct measures, "
                         f"{TREE_MEASURES} requested")
        above = sum(st > dy for st, _, dy in values)
        notes.append(f"criterion 05 (strong <= dyadic, not gated): fails on "
                     f"{above} of {len(values)} measures")
    return fails, notes
