"""blockforge benchmark: cold time-to-verdict on three workloads.

    python3 perfbench/run.py --workload catalog|tables|stress|all
                             [--seed N] [--seconds S] [--trace 0|1]

Each measurement runs in its own fresh, single-threaded worker process
(perfbench/worker.py), one after another.  With ``--trace 0`` the
benchmark runs a fixed number of cold workers, set by ``--seconds``
alone (``cold_workers``), and reports the median of each metric over
them, with every time scaled to a reference machine speed
(perfbench/calibrate.py); with ``--trace 1`` it runs one untraced, one
span-traced and one profiled worker and reports the per-layer metrics.
Every output is checked (perfbench/checks.py); a failed check makes the
run exit with code 1.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REF_S
from tracer import ROOT as ROOT_SPAN

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("catalog", "tables", "stress")

MIN_WORKERS = 3
# Rough seconds per cold worker, with its set-up probe, on the commit that
# added the benchmark (between the machine's fast and slow spells).  The
# number of cold workers follows from --seconds and these alone, never
# from the speed of the code under test, so a parent and a change are
# compared on the same number of workers.
WORKER_COST_S = {"catalog": 7.5, "tables": 7.0, "stress": 14.0}
SETUP_PROBES = 1  # set-up-only workers before each cold worker
DEADLINE_S = 170

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "warm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span name in tracer.SPANS, what to report)
SPAN_METRICS = {
    "permgroup.build_s": ("permgroup.build", "self"),
    "permgroup.groups_built": ("permgroup.build", "count"),
    "permgroup.classes_s": ("permgroup.classes", "self"),
    "permgroup.subgroups_s": ("permgroup.subgroups", "self"),
    "chartab.structure_constants_s": ("chartab.structure_constants", "self"),
    "chartab.table_s": ("chartab.table", "self"),
    "chartab.class_function_s": ("chartab.class_function", "self"),
    "finitefield.reduction_s": ("finitefield.reduction", "self"),
    "finitefield.reductions_built": ("finitefield.reduction", "count"),
    "blocks.block_data_s": ("blocks.block_data", "self"),
    "blocks.correspondent_s": ("blocks.correspondent", "self"),
    "modular.modular_data_s": ("modular.modular_data", "self"),
    "matching.calls": ("matching", "count"),
    "matching.s": ("matching", "self"),
    "correspond.am_s": ("correspond.am", "self"),
    "correspond.glauberman_s": ("correspond.glauberman", "self"),
    "correspond.navarro_s": ("correspond.navarro", "self"),
    "correspond.regular_s": ("correspond.regular", "self"),
    "correspond.fong_s": ("correspond.fong", "self"),
    "correspond.q35_s": ("correspond.q35", "self"),
    "report.render_s": ("report.render", "self"),
}


RATIOS = ("trace.overhead", "uncertified_fail_share", "error_share")


def _layer_unit(name):
    if name in RATIOS:
        return "ratio"
    return "s" if name.endswith(("_s", ".s")) else "count"


class BenchError(Exception):
    """A worker crashed or ran out of time: there is no result to report."""


def run_worker(workload, seed, mode, deadline):
    workdir = OUT_DIR / f"work-{os.getpid()}-{mode}"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed), mode, str(workdir)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before a {mode} worker on {workload}")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker on {workload} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} worker on {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{mode} worker on {workload} printed no result")


def outcome(workers):
    """correct/attempted/failed and the problems, over checked workers."""
    digests = {d for w in workers for d in w["sha256"]}
    problems = list(dict.fromkeys(msg for w in workers for msg in w["problems"]))
    if len(digests) > 1:
        problems.append(f"outputs differ between passes: {len(digests)} distinct sha256")
    return {
        "correct": not problems,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "problems": problems,
    }


def verdict_shares(worker):
    verdicts = worker["verdicts"]
    return {
        "uncertified_fail_share": len(worker["uncertified"]) / verdicts if verdicts else 0.0,
        "error_share": worker["failed"] / worker["attempted"],
    }


def cold_workers(workload, seconds):
    """How many cold workers a run of ``seconds`` takes: about as many as
    fit on the baseline commit, at least MIN_WORKERS."""
    return max(MIN_WORKERS, round(seconds / WORKER_COST_S[workload]))


def measure(workload, seed, seconds, deadline):
    """End-to-end metrics over ``cold_workers(workload, seconds)`` cold
    workers, each after SETUP_PROBES set-up-only workers: the median of
    each metric's samples."""
    setups, workers = [], []
    for _ in range(cold_workers(workload, seconds)):
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(workload, seed, "setup", deadline))
        workers.append(run_worker(workload, seed, "cold", deadline))
    samples = {name: [w[name] for w in workers] for name in END_TO_END}
    samples["setup_s"] += [w["setup_s"] for w in setups]
    metrics = {name: statistics.median(samples[name]) for name in END_TO_END}
    raw = {name: [w["unscaled"][name] for w in workers] for name in ("wall_s", "cpu_s", "warm_s")}
    raw["setup_s"] = [w["unscaled"]["setup_s"] for w in workers + setups]
    calibrations = [c for w in setups + workers for c in w["calibration"]]

    result = outcome(workers)
    shares = verdict_shares(workers[0])
    share_errors = result["failed"] / result["attempted"]
    lines = [
        f"{workload}: {len(workers)} cold workers, {len(setups)} set-up workers, seed {seed};"
        f" calibration median {statistics.median(calibrations):.4f} s"
        f" (min {min(calibrations):.4f}, max {max(calibrations):.4f}, reference {REF_S} s)",
    ]
    for name, unit in END_TO_END.items():
        v = samples[name]
        line = (
            f"  {name:24s} {metrics[name]:10.4f} {unit:5s}"
            f" (min {min(v):.4f}, max {max(v):.4f}, n {len(v)}"
        )
        if name in raw:
            line += f"; unscaled median {statistics.median(raw[name]):.4f}"
        lines.append(line + ")")
    lines.append(f"  {'uncertified_fail_share':24s} {shares['uncertified_fail_share']:10.4f} ratio"
                 f" ({len(workers[0]['uncertified'])} of {workers[0]['verdicts']} verdicts:"
                 f" {', '.join(workers[0]['uncertified']) or 'none'})")
    lines.append(f"  {'error_share':24s} {share_errors:10.4f} ratio"
                 f" ({result['failed']} of {result['attempted']} jobs)")
    return result, metrics, dict(END_TO_END), lines


def measure_traced(workload, seed, deadline):
    """Per-layer metrics from one untraced, one span and one profile worker."""
    plain = run_worker(workload, seed, "plain", deadline)
    spans = run_worker(workload, seed, "spans", deadline)
    prof = run_worker(workload, seed, "profile", deadline)
    self_times = spans["self_times"]
    metrics = {}
    for name, (span, what) in SPAN_METRICS.items():
        total, count = self_times.get(span, (0.0, 0))
        metrics[name] = total if what == "self" else count
    metrics["chartab.tables_built"] = spans["counts"].get("chartab.tables_built", 0)
    metrics["blocks.blocksets_built"] = spans["counts"].get("blocks.blocksets_built", 0)
    metrics["modular.unavailable"] = sum(
        k for n, e, k in spans["raised"] if n == "modular.modular_data" and e == "DomainError"
    )
    metrics.update(prof["profile_calls"])
    metrics["cyclotomic.self_s"] = prof["profile"].get("cyclotomic", {}).get("self_s", 0.0)
    for key in ("hits", "misses", "entries"):
        metrics[f"cache.{key}"] = plain["cache"][key]
    traced_wall = spans["wall_s"]
    metrics["trace.overhead"] = traced_wall / plain["wall_s"]
    metrics["trace.unaccounted_s"] = self_times.get(ROOT_SPAN, (0.0, 0))[0]
    metrics.update(verdict_shares(plain))
    units = {name: _layer_unit(name) for name in metrics}

    reported = sum(metrics[m] for m, (_, what) in SPAN_METRICS.items() if what == "self")
    accounted = reported + metrics["trace.unaccounted_s"]
    result = outcome([plain, spans, prof])
    lines = [
        f"{workload} (traced): plain {plain['wall_s']:.3f} s, spans {traced_wall:.3f} s,"
        f" profile {prof['wall_s']:.3f} s; self times + unaccounted = {accounted:.4f} s",
    ]
    if spans["missing"]:
        lines.append(f"  entry points not found, reported as 0: {', '.join(spans['missing'])}")
    lines += [f"  {name:32s} {metrics[name]:14.4f} {units[name]}" for name in sorted(metrics)]
    return result, metrics, units, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "blockforge" / "__init__.py").is_file():
        print("error: blockforge sources not found under src/", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # Workers and their calibration children inherit this: all run on one
    # CPU, so a calibration sees the speed of the CPU the timed work saw.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, metrics = [], {}
    try:
        for workload in names:
            deadline = time.monotonic() + DEADLINE_S
            if args.trace:
                result, values, units, lines = measure_traced(workload, args.seed, deadline)
            else:
                result, values, units, lines = measure(workload, args.seed, args.seconds, deadline)
            print("\n".join(lines), flush=True)
            for msg in result["problems"]:
                print(f"  CHECK FAILED: {msg}", flush=True)
            prefix = f"{workload}." if len(names) > 1 else ""
            for name, value in values.items():
                metrics[prefix + name] = {"value": value, "unit": units[name]}
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
