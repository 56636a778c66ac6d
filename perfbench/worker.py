"""One benchmark process.

    python3 perfbench/worker.py WORKLOAD SEED MODE WORKDIR

Every mode first times set-up in this fresh interpreter (import
blockforge, parse and build the workload's groups).  ``setup`` then
times the calibration work (calibrate.py) and stops; the other modes
empty every cache and check that each is empty (``caches.cold_start``)
right before the timed pass, and run:

    cold     one cold pass of the workload's CLI jobs, one job at a
             time, then each job again with the caches full (warm),
             timing the calibration after set-up and after every job
    plain    one cold pass, untraced: the reference for the trace overhead
    spans    one cold pass with the layer entry points wrapped in spans
    profile  one cold pass under cProfile

The last line of standard output is one JSON object with the timings,
the checked outcome of every job, and the sha256 of the outputs.  In
``setup`` and ``cold`` mode the times are at the reference speed, each
scaled by the calibrations around it, and the measured ones are under
``unscaled``.
"""

import sys
import time

# A warm job is repeated until its runs add up to WARM_JOB_MIN_S (at most
# WARM_MAX_RUNS runs), so that the short ones are timed over many runs.
WARM_JOB_MIN_S = 0.1
WARM_MAX_RUNS = 50


def run_pass(cli, jobs, workdir):
    """Run each job once through ``cli.main``, writing its output to a
    file.  Returns [(exit code or exception text, output bytes)]."""
    results = []
    for i, (argv, _) in enumerate(jobs):
        out = workdir / f"job{i}.json"
        if out.exists():
            out.unlink()
        try:
            rc = cli.main([*argv, "--out", str(out)])
        except Exception as exc:  # a crashing job is counted, not fatal
            rc = f"{type(exc).__name__}: {exc}"
        results.append((rc, out.read_bytes() if out.exists() else b""))
    return results


def calibrated_pass(cli, jobs, workdir, calibrations, min_s=0.0):
    """Run the pass one job at a time, each job repeated until its runs
    add up to ``min_s`` (at least once, at most WARM_MAX_RUNS times), and
    time the calibration after each job.  ``calibrations`` holds the one
    taken before the first job and receives the new ones.

    Returns every run's result, per job, and the pass's wall and CPU
    seconds, measured and at the reference speed: the sum over the jobs
    of each job's median run, scaled by the calibrations before and
    after it.
    """
    import statistics

    from calibrate import at_reference_speed, calibrate

    results = []
    measured = {"wall_s": 0.0, "cpu_s": 0.0}
    scaled = {"wall_s": 0.0, "cpu_s": 0.0}
    for job in jobs:
        runs, outputs = [], []
        while not runs or (sum(w for w, _ in runs) < min_s and len(runs) < WARM_MAX_RUNS):
            w0, c0 = time.perf_counter(), time.process_time()
            outputs += run_pass(cli, [job], workdir)
            runs.append((time.perf_counter() - w0, time.process_time() - c0))
        calibrations.append(calibrate())
        results.append(outputs)
        for k, name in enumerate(("wall_s", "cpu_s")):
            seconds = statistics.median(run[k] for run in runs)
            measured[name] += seconds
            scaled[name] += at_reference_speed(seconds, calibrations[-2:])
    return results, measured, scaled


def check_pass(workload, jobs, results):
    """Check every job's output.  Returns a summary dict."""
    import json

    from blockforge.report import collect_verdicts

    import checks
    from workloads import PUBLISHED_DEGREES, catalog_expectations

    expected = catalog_expectations() if workload == "catalog" else None
    attempted = failed = produced = 0
    uncertified = []
    problems = []
    for (argv, keys), (rc, data) in zip(jobs, results):
        attempted += len(keys)
        # verify exits 1 when a verdict is unexpected; the checks below
        # judge the verdicts themselves
        if rc not in ((0,) if argv[0] == "table" else (0, 1)):
            failed += len(keys)
            problems.append(f"{' '.join(argv)}: exit {rc}")
            continue
        try:
            payload = json.loads(data)
        except ValueError:
            failed += len(keys)
            problems.append(f"{' '.join(argv)}: output is not JSON")
            continue
        if argv[0] == "table":
            (label, _), = keys
            found = checks.table_problems(payload, PUBLISHED_DEGREES[label])
            failed += bool(found)
            problems += [f"{label}: {msg}" for msg in found]
            continue
        reports = payload.get("reports", [])
        if len(keys) == 1 and len(reports) == 1:
            by_key = {keys[0]: reports[0]}
        else:
            by_key = {(r["group"], r["prime"]): r for r in reports}
        if expected is not None and payload.get("unexpected"):
            problems.append(f"the CLI lists unexpected verdicts: {payload['unexpected']}")
        for key in keys:
            label, p = key
            report = by_key.get(key)
            if report is None:
                failed += 1
                problems.append(f"{label} p={p}: no report")
                continue
            found = checks.report_problems(report, PUBLISHED_DEGREES[label])
            verdicts = collect_verdicts(report)
            if expected is not None:
                found += checks.unexpected_verdicts(verdicts, expected[key])
            failed += bool(found)
            problems += [f"{label} p={p}: {msg}" for msg in found]
            produced += len(verdicts)
            uncertified += [
                f"{label} p={p} {kind}" for kind in checks.uncertified_fails(report, verdicts)
            ]
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "verdicts": produced,
        "uncertified": uncertified,
    }


def _digest(results):
    import hashlib

    h = hashlib.sha256()
    for _, data in results:
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def main(argv):
    t0 = time.perf_counter()
    workload, seed, mode, workdir = argv[1], int(argv[2]), argv[3], argv[4]
    from pathlib import Path

    bench_dir = Path(__file__).resolve().parent
    sys.path.insert(0, str(bench_dir.parent / "src"))
    import blockforge.cli as cli

    import workloads

    workloads.load_groups(workload)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if mode in ("setup", "cold"):
        from calibrate import at_reference_speed, calibrate

        calibrations = [calibrate()]
        result["calibration"] = calibrations
        result["unscaled"] = {"setup_s": setup_s}
        result["setup_s"] = at_reference_speed(setup_s, calibrations)
    if mode == "setup":
        return result

    import json
    import resource

    import caches

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = workloads.jobs(workload, seed)

    tracer = profiler = None
    if mode == "spans":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    elif mode == "profile":
        import cProfile

        profiler = cProfile.Profile()

    # The CLI rebuilds every group from its file, so empty caches make
    # the pass cold; set-up's groups are not reused.
    caches.cold_start()
    if mode == "cold":
        runs, measured, scaled = calibrated_pass(cli, jobs, workdir, calibrations)
        results = [outputs[0] for outputs in runs]
        result["unscaled"].update(measured)
        result.update(scaled)
    else:
        w0, c0 = time.perf_counter(), time.process_time()
        if tracer is not None:
            results = tracer.root(run_pass, cli, jobs, workdir)
        elif profiler is not None:
            results = profiler.runcall(run_pass, cli, jobs, workdir)
        else:
            results = run_pass(cli, jobs, workdir)
        result["wall_s"] = time.perf_counter() - w0
        result["cpu_s"] = time.process_time() - c0
    # the cold run's peak; warm runs would only add heap noise to it
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["cache"] = caches.cache_totals()
    result["sha256"] = [_digest(results)]
    if mode == "cold":
        runs, measured, scaled = calibrated_pass(
            cli, jobs, workdir, calibrations, WARM_JOB_MIN_S
        )
        result["unscaled"]["warm_s"] = measured["wall_s"]
        result["warm_s"] = scaled["wall_s"]
        # a warm run's output must equal the cold pass's for the same job
        for i, outputs in enumerate(runs):
            for out in outputs:
                digest = _digest([*results[:i], out, *results[i + 1:]])
                if digest not in result["sha256"]:
                    result["sha256"].append(digest)
    result.update(check_pass(workload, jobs, results))

    if tracer is not None:
        result["self_times"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
        result["raised"] = [[n, e, k] for (n, e), k in tracer.raised.items()]
        result["missing"] = tracer.missing
        tracer.write(workdir.parent / f"spans-{workload}.json")
    elif profiler is not None:
        import pstats

        import tracer as tracing

        stats = pstats.Stats(profiler).stats
        package_dir = Path(cli.__file__).parent
        by_module = tracing.profile_by_module(stats, package_dir)
        result["profile"] = by_module
        result["profile_calls"] = {
            "cyclotomic.values_built": tracing.profile_calls(
                stats, package_dir, "cyclotomic", "__init__"
            ),
            "finitefield.reduce_calls": tracing.profile_calls(
                stats, package_dir, "finitefield", "reduce"
            ),
        }
        (workdir.parent / f"profile-{workload}.json").write_text(
            json.dumps(by_module, indent=1, sort_keys=True), encoding="utf-8"
        )
    return result


if __name__ == "__main__":
    import json
    import shutil

    try:
        outcome = main(sys.argv)
    finally:
        if len(sys.argv) > 4:
            shutil.rmtree(sys.argv[4], ignore_errors=True)
    print(json.dumps(outcome))
