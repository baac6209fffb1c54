"""One benchmark invocation, in a fresh process.

Usage: child.py WORKLOAD SEED RESULT_JSON {0|1|setup}

Imports orthomm from the checkout's ``src``, builds the workload's command
line, times one in-process ``orthomm.cli.main`` call (traced with 1), then
checks the outputs outside the timed region and writes everything, spans
included, to RESULT_JSON in one write.  With ``setup`` it stops before the
call and writes only its setup_s.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def invoke(workload: str, seed: int, report_path: str, trace: bool,
           setup_only: bool = False) -> dict:
    """Run one CLI call; returns its metrics, report and recorder."""
    sys.path.insert(0, str(ROOT / "src"))
    import orthomm.cli as cli
    from spans import Recorder
    from workloads import COEFFS, command

    argv = command(workload, seed, report_path)
    Path(report_path).unlink(missing_ok=True)
    rec = Recorder(trace)
    rec.install()
    setup_s = time.perf_counter() - START
    if setup_only:
        return {"metrics": {"setup_s": setup_s}}
    cold = rec.cold_strong(COEFFS[workload]) if trace else {}
    rc, error = None, None
    t0 = time.perf_counter()
    try:
        rc = rec.call("cli.main", cli.main, argv) if trace else cli.main(argv)
    except Exception:  # a crash is a failed invocation, not a benchmark error
        error = traceback.format_exc()
    wall_s = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "rc": rc,
        "error": error,
        "metrics": {
            "wall_s": wall_s,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "setup_s": setup_s,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        },
        "recorder": rec,
    }
    if trace:
        root = next(i for i, s in enumerate(rec.spans) if s[0] == "cli.main")
        out["layers"] = {**rec.layer_metrics(root), **cold}
    try:
        with open(report_path, encoding="utf-8") as fh:
            out["report"] = json.load(fh)["report"]
    except (OSError, json.JSONDecodeError, KeyError):
        out["report"] = None
    return out


def main(argv: list[str]) -> int:
    workload, seed, result_path, mode = argv[0], int(argv[1]), argv[2], argv[3]
    trace = mode == "1"
    res = invoke(workload, seed, result_path + ".report.json", trace,
                 setup_only=mode == "setup")
    if mode == "setup":
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(res, fh)
        return 0
    # Imported only now, so that setup_s covers orthomm and the inputs alone.
    from checks import check_outputs, load_reference

    rec = res.pop("recorder")
    fails, notes = check_outputs(workload, seed, res["rc"], res.pop("report"),
                                 rec.captured, load_reference())
    if res["error"]:
        fails.append(res["error"])
    versions = {m: sys.modules[m].__version__ for m in ("numpy", "scipy")
                if m in sys.modules}
    res.update(failures=fails, notes=notes, versions=versions)
    if trace:
        self_times = rec.self_times()
        res["spans"] = [{"name": n, "start": s, "end": e, "parent": p, "self": st}
                        for (n, s, e, p), st in zip(rec.spans, self_times)]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
