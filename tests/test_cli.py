"""Command-line interface: subcommands, exit codes, schema, determinism."""
from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

import orthomm as om
from orthomm import checks, cli, processes


def run(*argv: str, capsys) -> tuple[int, str, str]:
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(*argv: str, capsys) -> dict:
    rc, out, err = run(*argv, capsys=capsys)
    assert rc == 0, err
    return json.loads(out)


SMALL = '{"kind": "power", "exponent": 1.0, "count": 16}'


# ---------------------------------------------------------------------------
# build


def test_build_default_document_shape(capsys):
    doc = run_json("build", "--no-timestamp", capsys=capsys)
    assert doc["schema"] == "v1"
    assert doc["command"] == "build"
    assert "timestamp" not in doc
    assert len(doc["report"]["index_set"]["points"]) == 65
    assert doc["report"]["partition"]["separation_depth"] >= 1
    assert doc["config"]["coeffs"]["kind"] == "power"


def test_build_emits_timestamp_by_default(capsys):
    doc = run_json("build", "--coeffs", "[0.5]", capsys=capsys)
    assert "timestamp" in doc


def test_build_divergent_tail_is_reported(capsys):
    doc = run_json("build", "--no-timestamp", "--coeffs",
                   '{"kind": "power", "exponent": 0.5, "count": 8}',
                   capsys=capsys)
    assert doc["report"]["tail_mass"] is None
    assert any("diverges" in w for w in doc["report"]["warnings"])


def test_build_geometric_merge_notes(capsys):
    doc = run_json("build", "--no-timestamp", "--coeffs",
                   '{"kind": "geometric", "ratio": 0.5, "count": 64}',
                   capsys=capsys)
    assert any("merged" in w for w in doc["report"]["warnings"])
    assert len(doc["report"]["index_set"]["points"]) == 54


def test_build_empty_coefficients_exit_two(capsys):
    rc, out, err = run("build", "--coeffs", "[]", capsys=capsys)
    assert rc == 2
    assert out == ""
    assert "error:" in err and "at least one coefficient required" in err


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run("build", "--coeffs", "[0.5]", "--no-timestamp",
                     "--out", str(target), capsys=capsys)
    assert rc == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "build"


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_two_point_values(capsys):
    doc = run_json("evaluate", "--no-timestamp", "--coeffs", "[0.5]",
                   capsys=capsys)
    rep = doc["report"]
    assert rep["strong"] == 0.7071067811865476
    assert rep["weak"] == 0.7071067811865476
    assert rep["dyadic"] == 1.4142135623730951
    assert rep["infinite"] is False


def test_evaluate_point_mass_reports_infinite(capsys):
    doc = run_json("evaluate", "--no-timestamp", "--coeffs", "[1.0]",
                   "--measure", '{"kind": "point_mass", "at": 0.0}',
                   capsys=capsys)
    rep = doc["report"]
    assert rep["infinite"] is True
    assert rep["strong"] is None
    assert rep["weak"] == pytest.approx(math.sqrt(1.0 - 2.0 ** -32), abs=1e-15)


def test_evaluate_csv_table(capsys):
    rc, out, _ = run("evaluate", "--format", "csv", "--coeffs",
                     "[0.5, 0.5, 0.5]", capsys=capsys)
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "full_sum", "filtered_sum", "good_count"]
    assert rows[1] == ["1", "2.0", "2.0", "4"]
    assert len(rows) >= 3


def test_evaluate_optimized_measure(capsys):
    doc = run_json("evaluate", "--no-timestamp", "--coeffs", "[0.5]",
                   "--measure", "optimize", capsys=capsys)
    assert doc["report"]["strong"] == pytest.approx(math.sqrt(0.5), abs=1e-6)


def test_evaluate_measure_from_file(tmp_path, capsys):
    spec = tmp_path / "measure.json"
    spec.write_text('{"kind": "explicit", "weights": [3, 1]}')
    doc = run_json("evaluate", "--no-timestamp", "--coeffs", "[0.5]",
                   "--measure", str(spec), capsys=capsys)
    assert doc["report"]["strong"] == pytest.approx(0.5 / math.sqrt(0.25), abs=1e-12)


def test_evaluate_unknown_measure_key_exit_two(capsys):
    rc, _, err = run("evaluate", "--coeffs", "[0.5]",
                     "--measure", '{"kind": "uniform", "oops": 1}',
                     capsys=capsys)
    assert rc == 2
    assert "unknown keys" in err


# ---------------------------------------------------------------------------
# optimize


def test_optimize_strong_two_points(capsys):
    doc = run_json("optimize", "--no-timestamp", "--coeffs", "[0.5]",
                   capsys=capsys)
    rep = doc["report"]
    assert rep["converged"] is True
    assert rep["value"] == pytest.approx(math.sqrt(0.5), abs=1e-8)
    assert rep["weights"] == pytest.approx([0.5, 0.5], abs=1e-6)


def test_optimize_weak_requires_seed(capsys):
    rc, _, err = run("optimize", "--objective", "weak", "--coeffs", "[0.5]",
                     capsys=capsys)
    assert rc == 2
    assert "seed" in err


def test_optimize_weak_with_seed(capsys):
    doc = run_json("optimize", "--no-timestamp", "--objective", "weak",
                   "--coeffs", "[0.5]", "--seed", "1", capsys=capsys)
    assert doc["report"]["value"] == pytest.approx(math.sqrt(0.5), abs=1e-8)


def test_optimize_gap_report(capsys):
    doc = run_json("optimize", "--no-timestamp", "--objective", "gap",
                   "--coeffs", "[0.5]", "--seed", "1", capsys=capsys)
    rep = doc["report"]
    assert set(rep) >= {"minimize_strong", "maximize_weak", "ratio"}
    assert rep["ratio"] == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# simulate and adversarial


def test_simulate_two_points_passes(capsys):
    doc = run_json("simulate", "--no-timestamp", "--coeffs", "[0.5]",
                   "--paths", "2000", "--seed", "7", capsys=capsys)
    rep = doc["report"]
    assert rep["sup_square"]["mean"] > 0
    assert rep["chaining"]["passed"] is True
    assert rep["chaining"]["skipped"] is False


def test_simulate_runs_on_few_paths(capsys):
    # the same two-path minimum as adversarial and pipeline
    doc = run_json("simulate", "--no-timestamp", "--coeffs", "[0.5]",
                   "--paths", "50", "--seed", "1", capsys=capsys)
    assert doc["report"]["sup_square"]["paths"] == 50


def test_simulate_requires_seed(capsys):
    rc, _, err = run("simulate", "--coeffs", "[0.5]", capsys=capsys)
    assert rc == 2
    assert "seed" in err


def test_simulate_draws_every_path_once(monkeypatch, capsys):
    calls = []
    extremes = processes._partial_sum_extremes

    def counting(*args):
        calls.append(args)
        return extremes(*args)

    monkeypatch.setattr(processes, "_partial_sum_extremes", counting)
    doc = run_json("simulate", "--no-timestamp", "--coeffs", SMALL,
                   "--paths", "500", "--seed", "7", capsys=capsys)
    assert len(calls) == 1
    assert doc["report"]["sup_square"]["paths"] == 500


def test_adversarial_lower_bound_passes(capsys):
    doc = run_json("adversarial", "--no-timestamp", "--coeffs",
                   "[0.5, 0.5, 0.5]", "--depth", "1", "--paths", "2000",
                   "--seed", "2", capsys=capsys)
    rep = doc["report"]
    assert rep["passed"] is True
    assert rep["filtered_sum"] == 1.0
    assert rep["threshold"] == pytest.approx(
        64.0 * math.sqrt(rep["estimate"]["mean"]) + 3.0 * rep["estimate"]["stderr"])


# ---------------------------------------------------------------------------
# verify


def test_verify_skeleton_no_seed_needed(capsys):
    doc = run_json("verify", "--suite", "skeleton", "--no-timestamp",
                   capsys=capsys)
    suites = doc["report"]["suites"]
    assert len(suites) == 1
    assert len(suites[0]["checks"]) == 25
    assert doc["report"]["passed"] is True


def test_verify_lemma4(capsys):
    doc = run_json("verify", "--suite", "lemma4", "--seed", "3",
                   "--no-timestamp", capsys=capsys)
    assert doc["report"]["passed"] is True


def test_verify_inequalities(capsys):
    doc = run_json("verify", "--suite", "inequalities", "--seed", "4",
                   "--random-measures", "20", "--coeffs", SMALL,
                   "--no-timestamp", capsys=capsys)
    assert doc["report"]["passed"] is True


def test_verify_all_runs_every_suite(capsys):
    doc = run_json("verify", "--suite", "all", "--seed", "5", "--paths",
                   "2000", "--random-measures", "10", "--coeffs", SMALL,
                   "--no-timestamp", capsys=capsys)
    names = [s["suite"] for s in doc["report"]["suites"]]
    assert names == list(checks.SUITES)
    assert doc["report"]["passed"] is True


def test_verify_reports_index_set_notes(capsys):
    doc = run_json("verify", "--suite", "inequalities", "--coeffs",
                   '{"kind":"geometric","ratio":0.5,"count":80}', "--seed", "1",
                   "--random-measures", "5", "--no-timestamp", capsys=capsys)
    assert any(w.startswith("merged 27 coefficient partial sums")
               for w in doc["report"]["warnings"])


def test_verify_reports_a_clipped_base_depth(capsys):
    doc = run_json("verify", "--suite", "lowerbound", "--coeffs", "[0.5]",
                   "--base-depth", "9", "--seed", "1", "--paths", "2000",
                   "--no-timestamp", capsys=capsys)
    assert doc["report"]["warnings"] == [
        "base depth 9 exceeds partition depth 1; clipping"]


def test_verify_config_identifies_the_run(capsys):
    # the base depth moves the filtered sum, so it must move the config too
    docs = [run_json("verify", "--suite", "lowerbound", "--seed", "1", "--paths",
                     "2000", "--base-depth", depth, "--no-timestamp", capsys=capsys)
            for depth in ("2", "3")]
    assert docs[0]["config"] != docs[1]["config"]
    assert [d["config"]["base_depth"] for d in docs] == [2, 3]
    assert docs[0]["config"]["coeffs"] == \
        om.CoefficientSequence.from_json(json.loads(cli.DEFAULT_COEFFS)).to_json()
    assert docs[0]["config"]["measure"] == "uniform"
    assert docs[0]["config"]["generator"] == "gaussian"
    doc = run_json("verify", "--suite", "chaining", "--seed", "1", "--paths", "500",
                   "--generator", "trig", "--coeffs", "[0.5, 0.5]",
                   "--no-timestamp", capsys=capsys)
    assert doc["config"]["generator"] == "trigonometric"
    assert doc["config"]["coeffs"] == om.CoefficientSequence.explicit([0.5, 0.5]).to_json()


def test_verify_skeleton_builds_nothing_and_notes_nothing(capsys):
    # skeleton reads no coefficients, so their notes do not apply to it
    doc = run_json("verify", "--suite", "skeleton", "--coeffs",
                   '{"kind":"geometric","ratio":0.5,"count":80}',
                   "--no-timestamp", capsys=capsys)
    assert doc["report"]["warnings"] == []


def test_verify_stochastic_suite_requires_seed(capsys):
    rc, _, err = run("verify", "--suite", "chaining", capsys=capsys)
    assert rc == 2
    assert "seed" in err


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("suite", ["skeleton", "lemma4", "all"])
def test_verify_rejects_bad_coeffs_before_any_suite(suite, capsys, monkeypatch):
    def ran(*args, **kwargs):
        pytest.fail("a suite ran")
    for name in checks.SUITES:
        monkeypatch.setattr(checks, f"suite_{name}", ran)
    rc, out, err = run("verify", "--suite", suite, "--seed", "1", "--coeffs",
                       '{"kind":"bogus"}', capsys=capsys)
    assert rc == 2 and out == ""
    assert "unknown coefficient kind: 'bogus'" in err


def test_vacuous_suites_pass_on_singleton_sets():
    index = om.IndexSet(points=np.array([0.0]), scale=1.0,
                        raw_total=0.0, merged_duplicates=0)
    measure = om.make_measure(index, "uniform")
    bridge = checks.suite_bridge(measure, paths=200, seed=1)
    assert bridge["passed"] is True and bridge["checks"] == []
    chain = checks.suite_chaining(measure, om.OrthonormalGenerator(),
                                  paths=200, seed=1)
    assert chain["passed"] is True and chain["checks"] == []


def test_chaining_suite_is_vacuous_on_a_set_given_by_points():
    index = om.IndexSet(points=np.array([0.0, 0.25, 0.5]), scale=1.0, raw_total=0.5)
    chain = checks.suite_chaining(om.make_measure(index, "uniform"),
                                  om.OrthonormalGenerator(), paths=200, seed=1)
    assert chain == {"suite": "chaining", "checks": [], "passed": True}


def test_inequalities_suite_counts_violations(monkeypatch):
    # a dyadic "bound" below every weak value fails on every draw
    monkeypatch.setattr(checks, "dyadic_bound", lambda measure: -1.0)
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 8))
    doc = checks.suite_inequalities(index, random_measures=4, seed=2)
    by_name = {c["name"]: c for c in doc["checks"]}
    dyadic = by_name.pop("weak_le_dyadic")
    assert dyadic["violations"] == dyadic["draws"] == 4
    assert dyadic["max_excess"] > 1.0 and dyadic["ok"] is False
    assert all(c["ok"] for c in by_name.values())
    assert doc["passed"] is False


# ---------------------------------------------------------------------------
# pipeline


PIPELINE_ARGS = ("pipeline", "--coeffs", SMALL, "--paths", "2000",
                 "--seed", "11", "--adversarial-depth", "2",
                 "--no-timestamp")


def test_pipeline_end_to_end(capsys):
    doc = run_json(*PIPELINE_ARGS, capsys=capsys)
    rep = doc["report"]
    assert rep["passed"] is True
    assert rep["chaining"]["passed"] is True
    assert rep["lower_bound"]["passed"] is True
    assert rep["optimize"]["converged"] is True
    assert rep["build"]["separation_depth"] >= 1
    assert doc["config"]["seed"] == 11


def test_pipeline_deterministic_reruns(capsys):
    rc1, out1, _ = run(*PIPELINE_ARGS, capsys=capsys)
    rc2, out2, _ = run(*PIPELINE_ARGS, capsys=capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_pipeline_worker_count_does_not_change_bytes(capsys):
    _, out1, _ = run(*PIPELINE_ARGS, "--workers", "1", capsys=capsys)
    _, out4, _ = run(*PIPELINE_ARGS, "--workers", "4", capsys=capsys)
    assert out1 == out4


def test_pipeline_stage_tagged_errors(capsys):
    rc, _, err = run("pipeline", "--coeffs", "[-1.0]", "--seed", "1",
                     capsys=capsys)
    assert rc == 2
    assert err.startswith("error: build:")


def test_pipeline_requires_seed(capsys):
    rc, _, err = run("pipeline", "--coeffs", "[0.5]", capsys=capsys)
    assert rc == 2
    assert "seed" in err


# ---------------------------------------------------------------------------
# failing checks


def test_simulate_fails_when_the_chaining_bound_is_tiny(monkeypatch, capsys):
    monkeypatch.setattr("orthomm.processes.CHAINING_CONSTANT", 1e-9)
    rc, out, _ = run("simulate", "--coeffs", SMALL, "--seed", "3", "--paths",
                     "2000", "--no-timestamp", capsys=capsys)
    assert rc == 1
    rep = json.loads(out)["report"]
    assert rep["passed"] is False and rep["chaining"]["passed"] is False


def test_adversarial_fails_when_the_lower_bound_factor_is_tiny(monkeypatch, capsys):
    monkeypatch.setattr("orthomm.processes.LOWER_BOUND_FACTOR", 1e-9)
    rc, out, _ = run("adversarial", "--coeffs", SMALL, "--seed", "3",
                     "--paths", "2000", "--no-timestamp", capsys=capsys)
    assert rc == 1
    assert json.loads(out)["report"]["passed"] is False


@pytest.mark.parametrize("constant, failed", [
    ("CHAINING_CONSTANT", "chaining"),
    ("LOWER_BOUND_FACTOR", "lower_bound"),
])
def test_pipeline_fails_with_a_tiny_constant(constant, failed, monkeypatch, capsys):
    monkeypatch.setattr(f"orthomm.processes.{constant}", 1e-9)
    rc, out, _ = run(*PIPELINE_ARGS, capsys=capsys)
    assert rc == 1
    rep = json.loads(out)["report"]
    assert rep["passed"] is False
    assert rep[failed]["passed"] is False
    other = "lower_bound" if failed == "chaining" else "chaining"
    assert rep[other]["passed"] is True


# ---------------------------------------------------------------------------
# top-level behavior


@pytest.mark.parametrize("command", ["build", "evaluate", "optimize", "simulate",
                                     "adversarial", "verify", "pipeline"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_usage_error(command, workers, capsys):
    argv = [command, "--workers", workers, "--seed", "1"]
    if command == "build":
        argv = [command, "--workers", workers]
    if command == "verify":
        argv += ["--suite", "skeleton"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "workers must be at least 1" in captured.err


@pytest.mark.parametrize("command", ["simulate", "adversarial", "verify",
                                     "pipeline"])
@pytest.mark.parametrize("paths", ["0", "1"])
def test_paths_below_two_is_usage_error(command, paths, capsys):
    # one path has no standard error, so no check may rest on it
    argv = [command, "--paths", paths, "--seed", "1"]
    if command == "verify":
        argv += ["--suite", "chaining"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "paths must be at least 2" in captured.err


@pytest.fixture
def no_stage_runs(monkeypatch):
    """Fail the test if any stage of a subcommand or any suite runs."""
    def ran(*args, **kwargs):
        pytest.fail("a stage ran")
    for name in ("build_index_set", "evaluate_functionals", "minimize_strong",
                 "maximize_weak", "duality_gap_report", "verify_chaining_bound",
                 "lower_bound_report"):
        monkeypatch.setattr(cli, name, ran)
    for name in checks.SUITES:
        monkeypatch.setattr(checks, f"suite_{name}", ran)


@pytest.mark.parametrize("argv", [
    ["adversarial", "--seed", "1", "--depth"],
    ["verify", "--suite", "bridge", "--seed", "1", "--base-depth"],
    ["pipeline", "--seed", "1", "--adversarial-depth"],
])
@pytest.mark.parametrize("depth", ["0", "-1"])
def test_base_depth_below_one_is_usage_error(argv, depth, capsys, no_stage_runs):
    # refused while parsing, before any stage or suite runs
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [depth])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "base depth must be at least 1" in captured.err


@pytest.mark.parametrize("argv", [
    ["evaluate", "--paths", "2000"],
    ["evaluate", "--seed", "1"],
    ["evaluate", "--restarts", "4"],
    ["optimize", "--paths", "2000"],
    ["simulate", "--seed", "1", "--depth", "2"],
    ["simulate", "--seed", "1", "--restarts", "4"],
    ["adversarial", "--seed", "1", "--restarts", "4"],
    ["verify", "--suite", "skeleton", "--restarts", "4"],
    ["pipeline", "--seed", "1", "--restarts", "4"],
    # the partition always reaches the separation depth, so no command
    # but adversarial (whose --depth is its base depth) takes --depth
    ["build", "--depth", "soon"],
    ["evaluate", "--depth", "2"],
    ["verify", "--suite", "inequalities", "--seed", "1", "--depth", "2"],
    ["pipeline", "--seed", "1", "--depth", "auto"],
    # only evaluate writes anything but JSON, so only it takes --format
    ["build", "--format", "csv"],
    ["pipeline", "--seed", "1", "--format", "json"],
])
def test_options_nothing_reads_are_rejected(argv, capsys, no_stage_runs):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


@pytest.mark.parametrize("argv, stage", [
    (("evaluate", "--coeffs", "[0.5]"), "evaluate_functionals"),
    (PIPELINE_ARGS, "evaluate_functionals"),
    (("simulate", "--coeffs", "[0.5]", "--paths", "500", "--seed", "1"),
     "verify_chaining_bound"),
    (("optimize", "--coeffs", "[0.5]"), "minimize_strong"),
], ids=["evaluate", "pipeline", "simulate", "optimize"])
def test_every_warning_lands_in_the_report(argv, stage, monkeypatch, capsys):
    original = getattr(cli, stage)

    def warning(*args, **kwargs):
        warnings.warn("probe", RuntimeWarning)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, stage, warning)
    rc, out, err = run(*argv, capsys=capsys)
    assert rc == 0 and err == ""
    assert "probe" in json.loads(out)["report"]["warnings"]


def test_adversarial_depth_is_the_base_depth():
    args = cli._build_parser().parse_args(["adversarial", "--depth", "1"])
    assert args.base_depth == 1


def test_benchmark_command_lines_parse(monkeypatch):
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    for name in workloads.COEFFS:
        cli._build_parser().parse_args(workloads.command(name, 1, "out.json"))


def _readme_cli_section() -> str:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    return text.split("## Command line", 1)[1].split("\n## ", 1)[0]


def _readme_commands() -> list[str]:
    block = re.search(r"```sh\n(.*?)```", _readme_cli_section(), re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("orthomm ")]


def test_readme_shows_every_subcommand():
    shown = {shlex.split(line)[1] for line in _readme_commands()}
    assert shown == {"build", "evaluate", "optimize", "simulate",
                     "adversarial", "verify", "pipeline"}


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_lines_parse(line):
    cli._build_parser().parse_args(shlex.split(line)[1:])


def test_readme_option_table_matches_the_parser():
    rows = re.findall(r"^\| `(\w+)` +\|(.*)\|$", _readme_cli_section(), re.M)
    listed = {name: set(re.findall(r"`(--[\w-]+)`", cell)) for name, cell in rows}
    common = {"--coeffs", "--out", "--no-timestamp", "--workers", "-h", "--help"}
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    accepted = {name: {o for a in p._actions for o in a.option_strings} - common
                for name, p in sub.choices.items()}
    assert listed == accepted


@pytest.mark.parametrize("count", ["0", "-2"])
def test_random_measures_below_one_is_usage_error(count, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "inequalities", "--seed", "1",
                  "--random-measures", count])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "random measures must be at least 1" in captured.err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_coeffs_file_input(tmp_path, capsys):
    spec = tmp_path / "coeffs.json"
    spec.write_text('{"kind": "geometric", "ratio": 0.25, "count": 6}')
    doc = run_json("build", "--no-timestamp", "--coeffs", str(spec),
                   capsys=capsys)
    assert doc["config"]["coeffs"]["ratio"] == 0.25


def test_unreadable_coeffs_input_exit_two(capsys):
    rc, _, err = run("build", "--coeffs", "not json at all", capsys=capsys)
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "file"])
def test_invalid_json_is_a_usage_error(inline, tmp_path, capsys):
    text = '{"kind": "power",'
    if not inline:
        path = tmp_path / "coeffs.json"
        path.write_text(text)
        text = str(path)
    message = ("invalid inline JSON for coefficients: " if inline else
               f"invalid JSON in coefficients file {text}: ")
    with pytest.raises(cli.CLIError, match=re.escape(message)):
        cli._load_json_arg(text, "coefficients")
    rc, out, err = run("build", "--coeffs", text, capsys=capsys)
    assert rc == 2 and out == ""
    assert err.startswith("error: " + message)
