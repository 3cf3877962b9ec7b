"""lce benchmark: produce a workload's report over and over, each in a fresh
process, for a fixed time; check every report; print the metrics.

Usage:
    python3 bench/run.py --workload sweep_default --seed 1 --seconds 36 --trace 0

Run from anywhere; the program under test is ``src/lce`` next to this
directory.  Reports run one at a time (closed loop, one client), with
BLAS/OpenMP threads capped at 1.  With ``--trace 0`` the last line of output
holds the end-to-end metrics; with ``--trace 1`` untraced and traced reports
alternate and it holds the per-layer metrics.  Everything else printed before
it is for people.  Exit code 0 means a result was printed; ``correct`` in it
says whether every report agreed with the reference rules of workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import layers
from workloads import CYCLE, DEFAULT_SEED, WORKLOADS, check_pattern, compare_rows, config_doc, config_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_BASE = ROOT / ".bench_out"
# A run ends within this many seconds of its start even if a report hangs.
RUN_LIMIT_S = 170
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name in THREAD_CAPS:
        env[name] = "1"
    return env


def run_report(config_path: Path, out_path: Path, trace: bool, env: dict, timeout: float) -> dict:
    """One report in a fresh process; returns its timings or an ``error``."""
    cmd = [sys.executable, str(BENCH_DIR / "report_proc.py"), str(config_path), str(out_path)]
    spawned = time.monotonic()
    cmd.append(repr(spawned))
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired:
        return {"error": f"report cut after {timeout:.0f} s to end the run within {RUN_LIMIT_S} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return {"error": f"report process exited {proc.returncode}: {tail[0]}"}
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"error": "report process printed no result"}
    result = json.loads(lines[-1])
    result["trace_on"] = trace
    return result


def check_report(result: dict, out_path: Path, seed: int, reference: dict) -> list[str]:
    """Problems with one written report (empty when it is correct)."""
    if "error" in result:
        return [result["error"]]
    with open(out_path, encoding="utf-8") as fh:
        rows = json.load(fh)["results"]
    if seed == DEFAULT_SEED:
        return compare_rows(rows, reference)
    return check_pattern(rows, reference)


def tail_percentile(values) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            return f" p{pct}={statistics.quantiles(values, n=100)[pct - 1]:.4f}"
    return ""


def machine_info() -> str:
    mem_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return (
        f"machine: nproc={os.cpu_count()} mem={mem_gb:.1f}GiB python={platform.python_version()} "
        f"numpy={metadata.version('numpy')} threads={','.join(f'{n}=1' for n in THREAD_CAPS)}"
    )


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lce" / "__init__.py").is_file():
        print(f"error: no lce package under {SRC}", file=sys.stderr)
        return 2
    with open(BENCH_DIR / "reference" / f"{args.workload}.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    env = child_env()
    # Compile the package's bytecode once, outside the timed reports.
    warm = subprocess.run([sys.executable, "-c", "import lce.harness"], env=env, cwd=ROOT, capture_output=True, text=True)
    if warm.returncode != 0:
        print(f"error: cannot import lce: {warm.stderr.strip()}", file=sys.stderr)
        return 2

    work = OUT_BASE / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, reference, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if OUT_BASE.is_dir() and not any(OUT_BASE.iterdir()):
            OUT_BASE.rmdir()


def measure(args, reference: dict, env: dict, work: Path) -> int:
    print(machine_info())
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    config_paths = {}
    results = []
    started = time.monotonic()
    deadline = started + args.seconds
    i = 0
    # At least one whole cycle.  An untraced run gives every report a config
    # of its own (every CYCLE-th one the default seed's); a traced run repeats
    # the first cycle's configs, each as an untraced and a traced report, and
    # swaps which of the two goes first from cycle to cycle.
    while i < CYCLE or time.monotonic() < deadline:
        if args.trace:
            seed = config_seed(args.seed, i % CYCLE)
            plan = [False, True] if (i // CYCLE) % 2 == 0 else [True, False]
        else:
            seed, plan = config_seed(args.seed, i), [False]
        if seed not in config_paths:
            config_paths[seed] = work / f"config-{seed}.json"
            config_paths[seed].write_text(json.dumps(config_doc(args.workload, seed), sort_keys=True, indent=1))
        for trace in plan:
            out_path = work / f"report{len(results)}.json"
            result = run_report(config_paths[seed], out_path, trace, env, started + RUN_LIMIT_S - time.monotonic())
            result["config_seed"] = seed
            result["problems"] = check_report(result, out_path, seed, reference)
            results.append(result)
            if "error" not in result:
                print(f"report {len(results) - 1}: config seed={seed} trace={int(trace)} "
                      f"report_s={result['report_s']:.4f} setup_s={result['setup_s']:.4f} "
                      f"peak_rss_mb={result['peak_rss_mb']:.1f}", flush=True)
        i += 1

    good = [r for r in results if not r["problems"]]
    failed = len(results) - len(good)
    problems = [f"report {n}: {p}" for n, r in enumerate(results) for p in r["problems"][:5]]
    for group in by_config(good):
        if len({r["canonical_sha256"] for r in group}) > 1:
            problems.append(f"repeated reports of config seed {group[0]['config_seed']} differ in canonical bytes")
    if not good:
        print("error: no report completed", file=sys.stderr)
        for p in problems:
            print(p, file=sys.stderr)
        return 1

    if args.trace:
        metrics, trace_problems = traced_metrics(good)
        problems += trace_problems
    else:
        metrics = end_to_end_metrics(good)
    print(f"failed_share={failed / len(results):.4f} (failed={failed} attempted={len(results)})")
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def by_config(reports: list) -> list[list]:
    seeds = sorted({r["config_seed"] for r in reports})
    return [[r for r in reports if r["config_seed"] == s] for s in seeds]


def cycle_mean(reports: list, value) -> float:
    """Mean over the configs of the median of ``value`` per config."""
    return statistics.fmean(statistics.median([value(r) for r in group]) for group in by_config(reports))


def end_to_end_metrics(good: list) -> dict:
    out = {}
    for name, unit in (("report_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
        values = [r[name] for r in good]
        out[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name}: median={statistics.median(values):.4f} {unit} n={len(values)}{tail_percentile(values)}")
    return out


def traced_metrics(good: list) -> tuple[dict, list]:
    traced = [r for r in good if r["trace_on"]]
    untraced = [r for r in good if not r["trace_on"]]
    if not traced or not untraced:
        return {}, ["a traced run needs traced and untraced reports"]
    problems = []
    if {r["config_seed"] for r in traced} != {r["config_seed"] for r in untraced}:
        problems.append("some config lacks a traced or an untraced report")
    per_config = []  # per config: metric name -> value
    for group in by_config(traced):
        reports = [layers.layer_metrics(r["trace"]) for r in group]
        values = {}
        for name, _unit, exact in layers.metric_specs():
            seen = [m[name] for m in reports]
            if exact and len(set(seen)) > 1:
                problems.append(f"{name} of config seed {group[0]['config_seed']} does not repeat: {sorted(set(seen))}")
            values[name] = statistics.median(seen)
        per_config.append(values)
    out = {
        name: {"value": statistics.fmean(v[name] for v in per_config), "unit": unit}
        for name, unit, _exact in layers.metric_specs()
    }
    traced_s = cycle_mean(traced, lambda r: r["report_s"])
    untraced_s = cycle_mean(untraced, lambda r: r["report_s"])
    out["trace.report_s"] = {"value": traced_s, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    print(f"report_s traced {traced_s:.4f} s n={len(traced)}; untraced {untraced_s:.4f} s n={len(untraced)}")
    for name, m in out.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    shares = sorted(((m["value"] / untraced_s, name) for name, m in out.items() if name.endswith("self_s")), reverse=True)
    print("self time as a share of untraced report_s: " + ", ".join(f"{n} {v:.1%}" for v, n in shares if v >= 0.01))
    return out, problems


if __name__ == "__main__":
    sys.exit(main())
