"""Record the reference values that the output checks compare against.

Usage: python3 perfbench/make_reference.py [COMMIT]

Runs the mc_pipeline command on ten seeds that the benchmark does not
use by default and pools the Monte Carlo means (equal path counts, so the
pooled standard error is the root sum of squares over ten).  The optimized
strong values of mc_pipeline and exact_opt, and exact_opt's weak value at
its optimum, are recomputed by direct ball-mass sums.  Writes perfbench/reference.json.
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_SEEDS = tuple(range(90001, 90011))


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import orthomm
    import orthomm.cli as cli
    from checks import REFERENCE, Functionals
    from workloads import COEFFS, PIPELINE_PATHS, command

    funcs = Functionals()
    out_path = ROOT / ".bench_build" / "perfbench" / "reference-report.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    means = {"chaining": [], "lift_sup2": []}
    strong_min = None
    for seed in REF_SEEDS:
        if cli.main(command("mc_pipeline", seed, str(out_path))) != 0:
            raise SystemExit(f"mc_pipeline failed on seed {seed}")
        report = json.loads(out_path.read_text())["report"]
        means["chaining"].append(report["chaining"]["estimate"])
        means["lift_sup2"].append(report["lower_bound"]["estimate"])
        strong_min = funcs(report["build"]["index_set"]["points"],
                           report["optimize"]["weights"])[0]

    def pooled(estimates):
        n = len(estimates)
        return {"mean": sum(e["mean"] for e in estimates) / n,
                "stderr": math.sqrt(sum(e["stderr"] ** 2 for e in estimates)) / n}

    index_set = orthomm.build_index_set(
        orthomm.CoefficientSequence.from_json(COEFFS["exact_opt"]))
    opt = orthomm.minimize_strong(index_set)
    exact_strong, exact_weak, _ = funcs(index_set.points, opt.measure.weights)
    reference = {
        "recorded_at": argv[0] if argv else None,
        "mc_pipeline": {
            "seeds": list(REF_SEEDS),
            "paths_per_seed": PIPELINE_PATHS,
            "strong_min": strong_min,
            "chaining": pooled(means["chaining"]),
            "lift_sup2": pooled(means["lift_sup2"]),
        },
        "exact_opt": {"strong_min": exact_strong, "weak": exact_weak},
    }
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(json.dumps(reference, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
