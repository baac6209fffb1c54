"""Command-line front end.

Subcommands: build, evaluate, optimize, simulate, adversarial, verify,
pipeline.  JSON is the canonical output (schema version "v1", keys
sorted, optional timestamp suppressed by --no-timestamp so identical
configs and seeds give byte-identical reports); CSV is available only
for the per-level table of evaluate.  Exit codes: 0 success, 1 a
verification check failed, 2 usage or input error.  The suites of
verify live in ``orthomm.checks``.  Subcommands return their report;
``main`` alone captures warnings and writes output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import warnings
from datetime import datetime, timezone

from . import __version__, checks
from .functionals import evaluate_functionals
from .optimize import (
    OptimizerOptions,
    duality_gap_report,
    maximize_weak,
    minimize_strong,
)
from .processes import (
    OrthonormalGenerator,
    lower_bound_report,
    verify_chaining_bound,
)
from .series import (
    CoefficientSequence,
    DiscreteMeasure,
    build_index_set,
    make_measure,
)

SCHEMA = "v1"
DEFAULT_COEFFS = '{"kind": "power", "exponent": 1.0, "count": 64}'


class CLIError(Exception):
    """Configuration or input problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# input parsing


def _load_json_arg(text: str, what: str):
    """Inline JSON when the argument looks like it, else a file path."""
    s = text.strip()
    if s.startswith(("{", "[")):
        try:
            return json.loads(s)
        except json.JSONDecodeError as exc:
            raise CLIError(f"invalid inline JSON for {what}: {exc}")
    try:
        with open(text, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CLIError(f"{what} file not found: {text}")
    except json.JSONDecodeError as exc:
        raise CLIError(f"invalid JSON in {what} file {text}: {exc}")


def _parse_coeffs(arg: str) -> CoefficientSequence:
    obj = _load_json_arg(arg, "coefficients")
    if isinstance(obj, list):
        return CoefficientSequence.explicit(obj)
    return CoefficientSequence.from_json(obj)


def _optimizer_options(args, **extra) -> OptimizerOptions:
    return OptimizerOptions(max_iters=args.max_iters, tol=args.tol, **extra)


def _parse_measure(arg: str, index_set, args) -> DiscreteMeasure:
    if arg == "uniform":
        return DiscreteMeasure.uniform(index_set)
    if arg == "optimize":
        return minimize_strong(index_set, _optimizer_options(args)).measure
    return make_measure(index_set, _load_json_arg(arg, "measure"))


def _build_objects(seq: CoefficientSequence):
    """Index set of ``seq`` and its tail mass, None unless finite."""
    index_set = build_index_set(seq)
    tail = seq.tail_mass()
    if tail is not None and math.isinf(tail):
        warnings.warn("square sum of the full coefficient family diverges; "
                      "truncated tail mass is infinite")
        tail = None
    return index_set, tail


def _require_seed(args) -> int:
    if args.seed is None:
        raise CLIError("a seed is required for stochastic commands")
    return args.seed


# ---------------------------------------------------------------------------
# output


def _emit(args, config: dict, report: dict,
          csv_rows: list | None = None) -> None:
    if csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["k", "full_sum", "filtered_sum", "good_count"])
        for k, full, filt, count in csv_rows:
            writer.writerow([k, repr(float(full)), repr(float(filt)), count])
        text = buf.getvalue()
    else:
        payload = {"schema": SCHEMA, "command": args.command,
                   "config": config, "report": report}
        if not args.no_timestamp:
            payload["timestamp"] = datetime.now(timezone.utc).isoformat()
        text = json.dumps(payload, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, config, report)


def cmd_build(args):
    index_set, tail = _build_objects(_parse_coeffs(args.coeffs))
    tree = index_set.partition
    report = {
        "index_set": index_set.to_json(),
        "partition": {
            "separation_depth": tree.separation_depth,
            "cells_per_level": [len(starts) for starts in tree.levels],
        },
        "tail_mass": tail,
    }
    return 0, {"coeffs": index_set.coeffs.to_json()}, report


def cmd_evaluate(args):
    """Also returns the per-level rows when ``--format csv`` asks for them."""
    index_set, _ = _build_objects(_parse_coeffs(args.coeffs))
    rep = evaluate_functionals(_parse_measure(args.measure, index_set, args))
    config = {"coeffs": index_set.coeffs.to_json(), "measure": args.measure}
    rows = list(rep.per_level) if args.format == "csv" else None
    return 0, config, rep.to_json(), rows


def cmd_optimize(args):
    index_set, _ = _build_objects(_parse_coeffs(args.coeffs))
    opts = _optimizer_options(args, restarts=args.restarts, seed=args.seed)
    if args.objective == "strong":
        report = minimize_strong(index_set, opts).to_json()
    elif args.objective == "weak":
        report = maximize_weak(index_set, opts).to_json()
    else:
        report = duality_gap_report(index_set, opts).to_json()
    config = {"coeffs": index_set.coeffs.to_json(), "objective": args.objective,
              "max_iters": opts.max_iters, "tol": opts.tol,
              "restarts": opts.restarts, "seed": opts.seed}
    return 0, config, report


def cmd_simulate(args):
    seed = _require_seed(args)
    index_set, _ = _build_objects(_parse_coeffs(args.coeffs))
    measure = _parse_measure(args.measure, index_set, args)
    generator = OrthonormalGenerator(args.generator)
    chain = verify_chaining_bound(measure, generator, args.paths, seed)
    report = {
        "sup_square": chain.sup_square.to_json(),
        "chaining": chain.to_json(),
        "generator": generator.kind,
        "passed": chain.passed,
    }
    config = {"coeffs": index_set.coeffs.to_json(), "generator": generator.kind,
              "measure": args.measure, "paths": args.paths, "seed": seed}
    return (0 if chain.passed else 1), config, report


def cmd_adversarial(args):
    seed = _require_seed(args)
    index_set, _ = _build_objects(_parse_coeffs(args.coeffs))
    measure = _parse_measure(args.measure, index_set, args)
    rep = lower_bound_report(measure, args.base_depth, args.paths, seed)
    config = {"coeffs": index_set.coeffs.to_json(), "measure": args.measure,
              "depth": args.base_depth, "paths": args.paths, "seed": seed}
    return (0 if rep.passed else 1), config, rep.to_json()


def cmd_verify(args):
    if args.suite != "skeleton":
        _require_seed(args)
    # --coeffs is parsed first, so a bad value stops the run before any
    # suite; the index set and measure, which skeleton and lemma4 do not
    # read, are built on first use.
    seq = _parse_coeffs(args.coeffs)
    index_set = functools.cache(lambda: _build_objects(seq)[0])
    measure = functools.cache(
        lambda: _parse_measure(args.measure, index_set(), args))
    suites = {
        "skeleton": checks.suite_skeleton,
        "lemma4": lambda: checks.suite_lemma4(args.seed),
        "bridge": lambda: checks.suite_bridge(measure(), args.paths,
                                              args.seed),
        "chaining": lambda: checks.suite_chaining(
            measure(), OrthonormalGenerator(args.generator), args.paths,
            args.seed),
        "lowerbound": lambda: checks.suite_lowerbound(
            measure(), args.base_depth, args.paths, args.seed),
        "inequalities": lambda: checks.suite_inequalities(
            index_set(), args.random_measures, args.seed),
    }
    names = checks.SUITES if args.suite == "all" else (args.suite,)
    results = [suites[name]() for name in names]
    passed = all(r["passed"] for r in results)
    config = {"suite": args.suite, "coeffs": seq.to_json(),
              "measure": args.measure, "base_depth": args.base_depth,
              "generator": OrthonormalGenerator(args.generator).kind,
              "seed": args.seed, "paths": args.paths,
              "random_measures": args.random_measures}
    return (0 if passed else 1), config, {"suites": results, "passed": passed}


def cmd_pipeline(args):
    seed = _require_seed(args)
    stage = "build"
    try:
        index_set, tail = _build_objects(_parse_coeffs(args.coeffs))
        stage = "optimize"
        opt = minimize_strong(index_set, _optimizer_options(args))
        stage = "evaluate"
        fr = evaluate_functionals(opt.measure)
        stage = "chaining"
        generator = OrthonormalGenerator(args.generator)
        chain = verify_chaining_bound(opt.measure, generator, args.paths, seed)
        stage = "lowerbound"
        lower = lower_bound_report(opt.measure, args.adversarial_depth,
                                   args.paths, seed)
    except (CLIError, ValueError) as exc:
        raise CLIError(f"{stage}: {exc}")
    passed = chain.passed and lower.passed
    report = {
        "build": {
            "index_set": index_set.to_json(),
            "separation_depth": index_set.partition.separation_depth,
            "tail_mass": tail,
        },
        "optimize": opt.to_json(),
        "evaluate": fr.to_json(),
        "chaining": chain.to_json(),
        "lower_bound": lower.to_json(),
        "passed": passed,
    }
    config = {"coeffs": index_set.coeffs.to_json(),
              "generator": generator.kind, "paths": args.paths, "seed": seed,
              "adversarial_depth": args.adversarial_depth}
    return (0 if passed else 1), config, report


# ---------------------------------------------------------------------------
# parser


def _at_least(minimum: int, name: str):
    """Argparse type: an integer of at least ``minimum``, else a usage error."""
    def parse(text: str) -> int:
        n = int(text)
        if n < minimum:
            raise argparse.ArgumentTypeError(f"{name} must be at least {minimum}")
        return n
    parse.__name__ = "int"  # argparse reports a malformed value as "invalid int value"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthomm",
        description="Majorizing-measure functionals and chaining checks "
                    "on partial-sum index sets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--coeffs", default=DEFAULT_COEFFS,
                        help="coefficient spec: inline JSON or a file path")
    common.add_argument("--out", default=None, help="write the report here "
                        "instead of stdout")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp field for reproducible bytes")
    common.add_argument("--workers", type=_at_least(1, "workers"), default=1,
                        help="accepted for compatibility; results never "
                             "depend on it")

    measure_opt = argparse.ArgumentParser(add_help=False)
    measure_opt.add_argument("--measure", default="uniform",
                             help="'uniform', 'optimize', inline JSON, or a "
                                  "file path")

    mc_opt = argparse.ArgumentParser(add_help=False)
    mc_opt.add_argument("--paths", type=_at_least(2, "paths"), default=100000)
    mc_opt.add_argument("--seed", type=int, default=None)

    optim_opt = argparse.ArgumentParser(add_help=False)
    optim_opt.add_argument("--max-iters", type=int, default=2000)
    optim_opt.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("build", parents=[common],
                       help="index set and partition summary")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("evaluate",
                       parents=[common, measure_opt, optim_opt],
                       help="functional values and per-level tables")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("optimize", parents=[common, optim_opt],
                       help="optimize a functional over the simplex")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--restarts", type=int, default=8,
                   help="maximize_weak starts, the uniform one included")
    p.add_argument("--objective", choices=("strong", "weak", "gap"),
                   default="strong")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate",
                       parents=[common, measure_opt, mc_opt, optim_opt],
                       help="Monte Carlo supremum estimates and the "
                            "chaining bound")
    p.add_argument("--generator", choices=("gaussian", "rademacher", "trig"),
                   default="gaussian")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("adversarial",
                       parents=[common, measure_opt, mc_opt, optim_opt],
                       help="adversarial construction and the lower-bound "
                            "check")
    p.add_argument("--depth", dest="base_depth", type=_at_least(1, "base depth"), default=3,
                   help="construction base depth")
    p.set_defaults(func=cmd_adversarial)

    p = sub.add_parser("verify",
                       parents=[common, measure_opt, mc_opt, optim_opt],
                       help="named property suites")
    p.add_argument("--suite", choices=(*checks.SUITES, "all"), required=True)
    p.add_argument("--random-measures", type=_at_least(1, "random measures"),
                   default=100)
    p.add_argument("--generator", choices=("gaussian", "rademacher", "trig"),
                   default="gaussian")
    p.add_argument("--base-depth", type=_at_least(1, "base depth"), default=3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pipeline",
                       parents=[common, mc_opt, optim_opt],
                       help="build, optimize, evaluate, and verify in one run")
    p.add_argument("--generator", choices=("gaussian", "rademacher", "trig"),
                   default="gaussian")
    p.add_argument("--adversarial-depth", type=_at_least(1, "base depth"), default=3)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, config, report, *csv_rows = args.func(args)
        report["warnings"] = [str(w.message) for w in caught]
        _emit(args, config, report, *csv_rows)
    except (CLIError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
