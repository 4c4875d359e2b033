"""phasegeo benchmark: one workload, end-to-end metrics or a traced per-layer breakdown.

Run from the root of a phasegeo checkout:

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` of the checkout.  With ``--trace 0``
the benchmark starts SETUP_PROBES fresh workers, one after another, that
each import ``phasegeo.cli`` and make one invocation (their median is
``setup_s``); one of them goes on to time invocations until their wall
times add up to ``--seconds``.  With ``--trace 1`` one worker reports per-layer
counts and self times instead.  Every output is checked; the last stdout
line is the JSON result, and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, make_analyze_inputs, write_analyze_files

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5
# Everything, workers included, must finish within this many seconds.
TIME_LIMIT_S = 170.0
# The worker pins BLAS and OpenMP pools to one thread unless the caller set
# them: matrices here are at most 32 x 32, where extra threads only add
# scheduling noise on a shared machine.
PINNED_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def run_worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    for var in PINNED_THREAD_VARS:
        env.setdefault(var, "1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, *args]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out: {cmd}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode} without a result: {cmd}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise WorkerError(f"worker printed no JSON result: {lines[-1][:200]!r}") from exc


def tail(walls: list[float]) -> tuple[float, float]:
    """The highest order statistic with ten invocations beyond it, and its percentile."""
    ordered = sorted(walls)
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def git_commit() -> str | None:
    """The commit of the checkout, read from ``.git`` when the checkout has one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def end_to_end(main: dict, setups: list[float]) -> tuple[dict, dict, dict]:
    """The gated metrics, the ungated statistics printed beside them, and run details.

    On a VM that shares its host, invocation times switch between a fast
    and a slow mode in phases of seconds to minutes, so a run's median and
    minimum depend on the phases it happened to see.  Throughput over the
    whole run and the tail, which sits in the slow mode that nearly every
    run visits, moved least from run to run; they are the gated metrics.
    """
    walls, cpus, items = main["walls"], main["cpus"], main["items"]
    wall_tail, tail_pct = tail(walls)
    metrics = {
        "items_per_s": (sum(items) / sum(walls), "1/s"),
        "wall_s_tail": (wall_tail, "s"),
        "cpu_s_tail": (tail(cpus)[0], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (main["peak_rss_kb"] / 1024.0, "MB"),
    }
    ungated = {
        "items_per_s_p50": (statistics.median(i / w for i, w in zip(items, walls)), "1/s"),
        "wall_s_p50": (statistics.median(walls), "s"),
        "wall_s_min": (min(walls), "s"),
        "cpu_s_p50": (statistics.median(cpus), "s"),
    }
    detail = {"timed_invocations": len(walls), "tail_percentile": tail_pct, "setup_s_samples": setups}
    return metrics, ungated, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="phasegeo benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "phasegeo", "cli.py")):
        print(f"error: no phasegeo sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload.name}-{args.seed}-{os.getpid()}")
    common = ["--workload", workload.name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        if workload.command == "analyze":
            files = write_analyze_files(make_analyze_inputs(args.seed), workdir)
            common += ["--state", files.state, "--observables", files.observables]
        if args.trace:
            probes = []
            main_result = run_worker(common + ["--mode", "trace"], deadline)
        else:
            # Half the probes run before the timed worker and half after, so
            # the set-up median spans the run rather than one moment of it.
            probe = ["--mode", "setup"]
            probes = [run_worker(common + probe, deadline) for _ in range(SETUP_PROBES // 2)]
            main_result = run_worker(common + ["--mode", "e2e"], deadline)
            probes += [run_worker(common + probe, deadline) for _ in range(SETUP_PROBES - 1 - len(probes))]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    attempted = main_result["attempted"] + sum(p["attempted"] for p in probes)
    failed = main_result["failed"] + sum(p["failed"] for p in probes)
    errors = list(main_result["errors"]) + [e for p in probes for e in p["errors"]]
    source = os.path.join(ROOT, "src", "phasegeo")
    if os.path.dirname(os.path.abspath(main_result["phasegeo_file"])) != source:
        errors.append(f"phasegeo was imported from {main_result['phasegeo_file']}, not {source}")
        failed += 1
    digests = {p["output_sha256"] for p in probes}
    if probes and digests != {main_result["output_sha256"]}:
        errors.append("the first invocation's output differs between worker processes")
        failed += 1

    if args.trace:
        metrics = {k: (v["value"], v["unit"]) for k, v in main_result["metrics"].items()}
        ungated = {}
        detail = {"traced_invocations": main_result["traced_invocations"]}
    else:
        metrics, ungated, detail = end_to_end(main_result, [p["setup_s"] for p in probes] + [main_result["setup_s"]])
    env = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "item": workload.item,
        "input_sizes": workload.input_sizes(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        **main_result.get("environment", {}),
    }
    print("environment: " + json.dumps(env, sort_keys=True))
    print("detail: " + json.dumps(detail))
    print(f"{workload.name} seed {args.seed}: {failed} failed of {attempted} attempted invocations"
          f" (fail_frac {failed / attempted:.4g})")
    for message in errors:
        print(f"FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    for name, (value, unit) in ungated.items():
        print(f"  {name:<44} {value:.6g} {unit} (not gated)")
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
