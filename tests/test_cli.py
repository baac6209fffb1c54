"""Command-line interface: subcommands, exit codes, schema, determinism."""
from __future__ import annotations

import argparse
import csv
import importlib
import inspect
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
    # seg / sqrt(m) = 0.5 / sqrt(0.5), 1 ulp below the correctly rounded 1/sqrt(2)
    for key in ("strong", "weak"):
        assert rep[key] == 0.5 / math.sqrt(0.5)
        assert abs(rep[key] - math.sqrt(0.5)) <= math.ulp(math.sqrt(0.5))
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


def test_evaluate_optimize_makes_one_integral_pass_per_iteration(capsys, count_builds):
    # evaluate reuses the integrals the optimizer computed for its best iterate
    index = om.build_index_set(om.CoefficientSequence.from_json(json.loads(SMALL)))
    iterations = om.minimize_strong(index).iterations
    calls = count_builds(om.DiscreteMeasure, "integrals")
    run_json("evaluate", "--no-timestamp", "--coeffs", SMALL,
             "--measure", "optimize", capsys=capsys)
    assert len(calls) == iterations > 1


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


def test_optimize_strong_records_no_option_it_does_not_read(capsys):
    # minimize_strong reads neither --seed nor --restarts, so neither may move
    # the report; the weak side's restarts read both, so its config keeps them
    coeffs = '{"kind": "power", "exponent": 1.0, "count": 16}'
    outs = [run("optimize", "--no-timestamp", "--coeffs", coeffs, "--seed", seed,
                "--restarts", "3", capsys=capsys) for seed in ("1", "2")]
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert set(json.loads(outs[0][1])["config"]) == {"coeffs", "objective", "max_iters", "tol"}
    for objective in ("weak", "gap"):
        config = run_json("optimize", "--no-timestamp", "--objective", objective,
                          "--coeffs", "[0.5]", "--seed", "2", "--restarts", "3",
                          capsys=capsys)["config"]
        assert (config["seed"], config["restarts"]) == (2, 3)


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


@pytest.mark.parametrize("argv", [
    ("evaluate",),
    ("simulate", "--seed", "1", "--paths", "200"),
    ("adversarial", "--seed", "1", "--paths", "200"),
    ("verify", "--suite", "lowerbound", "--seed", "1", "--paths", "200"),
])
def test_config_records_the_options_of_an_optimized_measure(argv, capsys):
    # --max-iters and --tol move an optimized measure, so they must move the
    # config too; a measure that is not optimized reads neither
    docs = [run_json(*argv, "--measure", "optimize", "--max-iters", iters, "--tol", tol,
                     "--no-timestamp", capsys=capsys)
            for iters, tol in (("3", "1e-8"), ("2000", "1e-3"))]
    assert docs[0]["report"] != docs[1]["report"]
    assert [(d["config"]["max_iters"], d["config"]["tol"]) for d in docs] == \
        [(3, 1e-8), (2000, 1e-3)]
    config = run_json(*argv, "--max-iters", "3", "--no-timestamp", capsys=capsys)["config"]
    assert config["measure"] == "uniform"
    assert "max_iters" not in config and "tol" not in config


def test_pipeline_config_records_the_optimizer_options(capsys):
    docs = [run_json("pipeline", "--seed", "11", "--paths", "200", *extra,
                     "--no-timestamp", capsys=capsys)
            for extra in ((), ("--tol", "1e-3"))]
    assert docs[0]["report"]["optimize"] != docs[1]["report"]["optimize"]
    assert [(d["config"]["max_iters"], d["config"]["tol"]) for d in docs] == \
        [(2000, 1e-8), (2000, 1e-3)]


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


@pytest.mark.parametrize("argv, message", [
    (["--suite", "skeleton", "--measure", '{"kind":"bogus"}'],
     "unknown measure kind: 'bogus'"),
    (["--suite", "inequalities", "--seed", "1", "--random-measures", "2",
      "--measure", "nosuchfile.json"], "measure file not found: nosuchfile.json"),
], ids=["bad-kind", "missing-file"])
def test_verify_rejects_bad_measure_before_any_suite(argv, message, capsys,
                                                     no_stage_runs):
    # neither suite reads the measure, which is still loaded and checked
    rc, out, err = run("verify", *argv, capsys=capsys)
    assert rc == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("suite", [*checks.SUITES, "all"])
def test_verify_rejects_a_wrong_weight_count_in_every_suite(suite, capsys, monkeypatch):
    # skeleton and lemma4 never build the measure; the weights are checked
    # against the index set, which needs no profile, before any suite runs
    def ran(*args, **kwargs):
        pytest.fail("a suite ran")
    for name in checks.SUITES:
        monkeypatch.setattr(checks, f"suite_{name}", ran)
    rc, out, err = run("verify", "--suite", suite, "--seed", "1", "--measure",
                       '{"kind": "explicit", "weights": [1, 2, 3]}', capsys=capsys)
    assert rc == 2 and out == ""
    assert err == "error: weight count must match index set size\n"


def test_verify_accepts_a_right_weight_count_in_suites_that_build_no_measure(capsys):
    weights = json.dumps({"kind": "explicit", "weights": [1] * 17})
    for suite in ("skeleton", "lemma4"):
        doc = run_json("verify", "--suite", suite, "--seed", "1", "--coeffs", SMALL,
                       "--measure", weights, "--no-timestamp", capsys=capsys)
        assert doc["report"]["passed"] is True


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


def test_inequalities_suite_makes_one_integral_pass_per_measure(count_builds):
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 8))
    calls = count_builds(om.DiscreteMeasure, "integrals")
    checks.suite_inequalities(index, random_measures=4, seed=2)
    assert len(calls) == len({id(m) for m in calls}) == 4


def test_inequalities_suite_counts_violations(monkeypatch):
    # a dyadic "bound" below every weak value fails on every draw
    monkeypatch.setattr(checks, "_dyadic_value", lambda table: -1.0)
    index = om.build_index_set(om.CoefficientSequence.power(1.0, 8))
    doc = checks.suite_inequalities(index, random_measures=4, seed=2)
    by_name = {c["name"]: c for c in doc["checks"]}
    dyadic = by_name.pop("weak_le_dyadic")
    assert dyadic["violations"] == dyadic["draws"] == 4
    assert dyadic["max_excess"] > 1.0 and dyadic["ok"] is False
    assert all(c["ok"] for c in by_name.values())
    assert doc["passed"] is False


def test_bridge_suite_reports_a_perturbed_recursion(monkeypatch):
    # one leaf's step deviation off by 0.1% moves the implied covariance
    # far past the check's 1e-8
    build = processes._build_bridge
    perturbed = []

    def build_perturbed(*args):
        b = build(*args)
        if b.dim > 1 and not perturbed:
            sigma = b.sigma.copy()
            sigma[b.dim // 2] *= 1.001
            b = processes.BridgeLeaf(**{**vars(b), "sigma": sigma})
            perturbed.append(b)
        return b

    measure = om.make_measure(om.build_index_set(om.CoefficientSequence.power(1.0, 64)),
                              "uniform")
    fact = checks.suite_bridge(measure, paths=200, seed=1)["checks"][0]
    assert fact["name"] == "bridge_factorization" and fact["ok"] is True
    monkeypatch.setattr(processes, "_build_bridge", build_perturbed)
    doc = checks.suite_bridge(measure, paths=200, seed=1)
    fact = doc["checks"][0]
    assert len(perturbed) == 1
    assert fact["name"] == "bridge_factorization" and fact["ok"] is False
    assert fact["measured"] > 1e-6 and doc["passed"] is False


def test_bridge_suite_increments_are_those_of_the_sampled_paths(monkeypatch):
    # blocks of 97 paths: the streamed squared increments reach the same
    # mean and standard error as the paths x points matrix of ``sample``
    monkeypatch.setattr(processes, "_PATH_BLOCK", 97)
    measure = om.make_measure(om.build_index_set(om.CoefficientSequence.power(1.0, 64)),
                              "uniform")
    doc = checks.suite_bridge(measure, paths=600, seed=4)
    adv = om.AdversarialSampler(measure, 2)
    increments = doc["checks"][1:]
    assert len(increments) == 20
    for label, sampler in (("bridge", adv), ("lift", om.OrthogonalLift(adv))):
        vals = sampler.sample(600, 4)
        for check in increments:
            kind, _, i, j = check["name"].split("_")
            if kind == label:
                sq = (vals[:, int(i)] - vals[:, int(j)]) ** 2
                assert check["measured"] == float(sq.mean())
                assert check["stderr"] == float(sq.std(ddof=1) / math.sqrt(600))
                assert "skipped" not in check


def test_bridge_suite_runs_its_increment_checks_at_a_family_level():
    # one check alone at the family level is the two-sided 3-sigma test
    assert checks._sidak_threshold(1) == pytest.approx(3.0, abs=1e-12)
    assert checks._sidak_threshold(20) == pytest.approx(3.8169, abs=1e-4)
    measure = om.make_measure(om.build_index_set(om.CoefficientSequence.power(1.0, 16)),
                              "uniform")
    doc = checks.suite_bridge(measure, paths=2000, seed=5)
    assert doc["threshold"] == checks._sidak_threshold(20)
    increments = doc["checks"][1:]
    for c in increments:
        assert c["z"] == (c["measured"] - c["expected"]) / c["stderr"]
    # a correct sampler that one 3-sigma test of the twenty would fail
    assert max(abs(c["z"]) for c in increments) > 3.0
    assert doc["passed"] is True


@pytest.mark.parametrize("seed", range(5))
def test_bridge_suite_fails_a_bridge_with_a_tenth_more_variance(monkeypatch, seed):
    # the negative control of the family level: bridge values scaled by
    # sqrt(1.1), with the leaves' coefficients untouched, fail the
    # increment checks at the default path count
    values = processes.BridgeLeaf.values
    monkeypatch.setattr(processes.BridgeLeaf, "values",
                        lambda self, z, out=None: math.sqrt(1.1) * values(self, z, out))
    measure = om.make_measure(om.build_index_set(om.CoefficientSequence.power(1.0, 16)),
                              "uniform")
    paths = cli._build_parser().parse_args(["verify", "--suite", "bridge"]).paths
    assert paths == 100_000
    doc = checks.suite_bridge(measure, paths=paths, seed=seed)
    fact, *increments = doc["checks"]
    assert fact["ok"] is True and doc["passed"] is False
    failed = [c for c in increments if not c["ok"]]
    assert failed and all(c["z"] > doc["threshold"] for c in failed)


def test_bridge_suite_skips_increments_on_zero_mass_cells(capsys):
    # a point mass leaves every other cell without mass, and those cells keep
    # only their skeleton parts, so the d(1 - d) law does not hold there
    rc, out, err = run("verify", "--suite", "bridge", "--coeffs", SMALL, "--paths", "2000",
                       "--seed", "3", "--no-timestamp",
                       "--measure", '{"kind": "point_mass", "at": 0.0}', capsys=capsys)
    assert rc == 0, err
    fact, *increments = json.loads(out)["report"]["suites"][0]["checks"]
    assert fact["name"] == "bridge_factorization" and fact["ok"] is True
    assert "skipped" not in fact
    assert len(increments) == 20
    assert all(c["skipped"] is True and c["ok"] is True for c in increments)
    # the sampler still runs: its increments fall short of the law's
    assert all(c["measured"] < c["expected"] for c in increments)


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


def test_pipeline_monte_carlo_numbers_are_pinned(capsys):
    # the Gaussian pipeline's Monte Carlo estimates, pinned: a change to any
    # stream that its chaining check or its lower bound reads moves them
    rep = run_json("pipeline", "--seed", "11", "--paths", "2000", "--no-timestamp",
                   capsys=capsys)["report"]
    assert {k: (rep[k]["estimate"]["mean"], rep[k]["estimate"]["stderr"])
            for k in ("chaining", "lower_bound")} == {
        "chaining": (1.6237232820150294, 0.036385662701197766),
        "lower_bound": (1.5261532886824156, 0.037483172647720955)}


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


@pytest.mark.parametrize("objective", ["strong", "weak", "gap"])
@pytest.mark.parametrize("restarts", ["0", "-2"])
def test_restarts_below_one_is_usage_error(objective, restarts, capsys, no_stage_runs):
    # only maximize_weak reads --restarts, yet every objective refuses it while parsing
    with pytest.raises(SystemExit) as exc:
        cli.main(["optimize", "--objective", objective, "--seed", "1",
                  "--restarts", restarts])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "restarts must be at least 1" in captured.err


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


def test_out_in_missing_directory_is_usage_error(tmp_path, capsys, no_stage_runs):
    out = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["pipeline", "--seed", "1", "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "directory not found" in captured.err
    assert not out.parent.exists()


def test_adversarial_depth_is_the_base_depth():
    args = cli._build_parser().parse_args(["adversarial", "--depth", "1"])
    assert args.base_depth == 1


def test_benchmark_command_lines_parse(monkeypatch):
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    for name in workloads.COEFFS:
        cli._build_parser().parse_args(workloads.command(name, 1, "out.json"))


def test_benchmark_traced_names_resolve(monkeypatch):
    # where Recorder.install looks each one up: the module attribute, or the
    # class's own __dict__ for a method; a missing one fails every traced run
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spans = importlib.import_module("spans")
    for layer, attr in spans.TRACED:
        module = importlib.import_module(f"orthomm.{layer}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(getattr(module, cls_name).__dict__.get(meth)), attr
        else:
            assert callable(getattr(module, attr, None)), attr
    # the span counters bind these arguments of the traced methods by name
    for cls, meth, names in (
            (processes.OrthonormalGenerator, "sample_matrix", {"n_terms", "paths"}),
            (processes.ProcessSampler, "sample", {"paths"})):
        assert names <= set(inspect.signature(cls.__dict__[meth]).parameters), meth


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_section() -> str:
    text = README.read_text(encoding="utf-8")
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


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


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


@pytest.mark.parametrize("argv, message", [
    (["build", "--coeffs", '{"kind":"power","exponent":1}'], "power coefficients need 'count'"),
    (["build", "--coeffs", '{"kind":"power","exponent":1,"count":null}'],
     "invalid power coefficient input"),
    (["build", "--coeffs", '{"kind":"explicit","values":5}'],
     "invalid explicit coefficient input"),
    (["build", "--coeffs", "[1e200]"], "the coefficient squares must have a finite sum"),
    (["evaluate", "--coeffs", "[1e200, 1.0]"], "the coefficient squares must have a finite sum"),
    (["evaluate", "--measure", '{"kind":"explicit","weights":5}'],
     "invalid explicit measure input"),
    (["evaluate", "--measure", '{"kind":"dirichlet_random","seed":null}'],
     "invalid dirichlet_random measure input"),
], ids=["missing-count", "null-count", "number-values", "overflow-build",
        "overflow-evaluate", "number-weights", "null-seed"])
def test_malformed_input_exits_two_with_one_error_line(argv, message, capsys):
    rc, out, err = run(*argv, "--no-timestamp", capsys=capsys)
    assert rc == 2 and out == ""
    assert err.startswith("error: " + message) and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["build", "--coeffs", '{"kind":"explicit","values":"123"}'],
     "invalid explicit coefficient input: 'str' object given for 'values'"),
    (["build", "--coeffs", '{"kind":"explicit","values":[1,true]}'],
     "invalid explicit coefficient input: 'bool' object given in 'values'"),
    (["build", "--coeffs", '{"kind":"power","exponent":1,"count":2.9}'],
     "invalid power coefficient input: 'float' object given for 'count'"),
    (["build", "--coeffs", '{"kind":"power","exponent":1,"count":true}'],
     "invalid power coefficient input: 'bool' object given for 'count'"),
    (["build", "--coeffs", '{"kind":"geometric","ratio":"0.5","count":3}'],
     "invalid geometric coefficient input: 'str' object given for 'ratio'"),
    (["evaluate", "--measure", '{"kind":"explicit","weights":"11111"}'],
     "invalid explicit measure input: 'str' object given for 'weights'"),
    (["evaluate", "--measure", '{"kind":"dirichlet_random","seed":1.5}'],
     "invalid dirichlet_random measure input: 'float' object given for 'seed'"),
    (["evaluate", "--measure", '{"kind":"dirichlet_random","seed":true}'],
     "invalid dirichlet_random measure input: 'bool' object given for 'seed'"),
    (["evaluate", "--measure", '{"kind":"point_mass","at":"0"}'],
     "invalid point_mass measure input: 'str' object given for 'at'"),
    (["verify", "--suite", "skeleton", "--measure", '{"kind":"explicit","weights":5}'],
     "invalid explicit measure input: 'int' object given for 'weights'"),
], ids=["string-values", "bool-value", "float-count", "bool-count", "string-ratio",
        "string-weights", "float-seed", "bool-seed", "string-point", "unbuilt-weights"])
def test_wrong_json_types_exit_two_with_one_error_line(argv, message, capsys):
    rc, out, err = run(*argv, "--no-timestamp", capsys=capsys)
    assert rc == 2 and out == ""
    assert err.startswith("error: " + message) and err.count("\n") == 1


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
