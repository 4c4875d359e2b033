"""One benchmark worker: a fresh process that imports phasegeo and drives its CLI.

Started by run.py, never by hand:

    python3 perfbench/worker.py --root DIR --workload NAME --seed N --seconds S \
        --mode {setup,e2e,trace} [--state FILE --observables FILE]

``setup`` imports ``phasegeo.cli`` and makes the first invocation; ``e2e``
continues with timed invocations; ``trace`` instead runs half its time
untraced and half with every listed function wrapped.  The worker prints
one JSON object on its last stdout line.  The checks and the tracer are
imported only after set-up, and nothing imported before it loads numpy, so
set-up time includes every import phasegeo makes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
import warnings

from workloads import WORKLOADS, AnalyzeFiles, cli_seed, make_analyze_inputs

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Minimum timed invocations, so the tail statistic has ten values beyond it.
MIN_TIMED = 11
MIN_TRACED = 3
MAX_ERRORS = 5


class Run:
    """Invocations of one workload in this process, with failure accounting."""

    def __init__(self, workload, seed: int, files: AnalyzeFiles | None):
        self.workload = workload
        self.seed = seed
        self.files = files
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: str | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def invoke(self, index: int) -> tuple[str | None, float, float]:
        """Run invocation ``index``; returns (stdout or None on failure, wall s, cpu s)."""
        import phasegeo.cli

        argv = self.workload.argv(self.seed, index, self.files)
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = phasegeo.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the benchmark keeps going and counts the failure
            code = traceback.format_exc()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if code != 0:
            self.fail(f"invocation {index} {argv}: exit {code!r}; stderr {err.getvalue()[-500:]!r}")
            return None, wall, cpu
        return out.getvalue(), wall, cpu

    def check(self, index: int, text: str) -> int:
        """Check one output (cheap checks only); returns its item count, 0 if it failed."""
        import checks

        wl = self.workload
        try:
            if wl.command == "sweep":
                flags = wl.flags
                check = checks.check_sweep_csv if flags["--format"] == "csv" else checks.check_sweep_json
                check(text, int(flags["--dim"]), int(flags["--rank"]), wl.samples, cli_seed(self.seed, index))
                return wl.samples
            if wl.command == "verify":
                return checks.check_verify(text) * wl.samples
            # analyze-wide repeats one input: every output must equal the
            # first, which check_deferred compares with the oracle.
            if text != self.reference:
                raise checks.OutputMismatch("analyze output differs from the first invocation")
            return wl.input_sizes()["pairs"]
        except checks.OutputMismatch as exc:
            self.fail(f"invocation {index}: {exc}")
            return 0

    def check_deferred(self) -> None:
        """The analyze oracle, run after memory and time are measured."""
        import checks

        if self.workload.command != "analyze" or self.reference is None:
            return
        try:
            checks.check_analyze_json(self.reference, make_analyze_inputs(self.seed))
        except checks.OutputMismatch as exc:
            self.fail(f"analyze oracle: {exc}")

    def repeat(self, index: int, previous: str | None) -> None:
        """Determinism: a repeated invocation must give byte-identical output."""
        text, _, _ = self.invoke(index)
        if text is not None and previous is not None and text != previous:
            self.fail(f"invocation {index} repeated with the same seed gave different output")


def set_up(run: Run) -> tuple[float, str | None]:
    """Import phasegeo.cli and make the first, untimed invocation."""
    start = time.perf_counter()
    import phasegeo.cli  # noqa: F401

    text, _, _ = run.invoke(0)
    setup_s = time.perf_counter() - start
    run.reference = text
    return setup_s, text


def timed(run: Run, seconds: float, minimum: int, outputs=None):
    """Timed invocations until their summed wall time reaches ``seconds``."""
    walls, cpus, items = [], [], []
    index = 0
    last = None
    while sum(walls) < seconds or len(walls) < minimum:
        gc.collect()
        text, wall, cpu = run.invoke(index)
        walls.append(wall)
        cpus.append(cpu)
        count = 0
        if text is not None:
            count = run.check(index, text)
            if outputs is not None:
                outputs[index] = hashlib.sha256(text.encode()).hexdigest()
        items.append(count)
        last = (index, text)
        index += 1
    return walls, cpus, items, last


def environment() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = {k: v for k, v in config["Build Dependencies"]["blas"].items() if "directory" not in k}
    except (TypeError, KeyError):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        blas = {"show_config": buf.getvalue()[:2000]}
    return {
        "numpy": np.__version__,
        "blas": blas,
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def mode_e2e(run: Run, seconds: float) -> dict:
    setup_s, first = set_up(run)
    walls, cpus, items, (last_index, last_text) = timed(run, seconds, MIN_TIMED)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run.repeat(0, first)
    run.repeat(last_index, last_text)
    run.check_deferred()
    return {
        "setup_s": setup_s,
        "walls": walls,
        "cpus": cpus,
        "items": items,
        "peak_rss_kb": rss_kb,
        "output_sha256": hashlib.sha256((first or "").encode()).hexdigest(),
        "environment": environment(),
    }


def mode_trace(run: Run, seconds: float) -> dict:
    from tracer import MODULES, TRACED, SPAN_NAMES, Tracer, callables_snapshot, changed_since, self_times

    set_up(run)
    untraced_hashes: dict[int, str] = {}
    base_walls, _, _, _ = timed(run, seconds / 2, MIN_TRACED, outputs=untraced_hashes)

    tracer = Tracer()
    before = callables_snapshot()
    totals = {name: [0, 0] for name in SPAN_NAMES}
    traced_walls, output_bytes, tangency = [], 0, 0
    index = 0
    with tracer.installed():
        while sum(traced_walls) < seconds / 2 or len(traced_walls) < MIN_TRACED:
            gc.collect()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                text, wall, _ = run.invoke(index)
            traced_walls.append(wall)
            tangency += sum("tangency residual" in str(w.message) for w in caught)
            for name, (calls, ns) in self_times(tracer.take_spans()).items():
                totals[name][0] += calls
                totals[name][1] += ns
            if text is not None:
                output_bytes += len(text.encode())
                run.check(index, text)
                digest = hashlib.sha256(text.encode()).hexdigest()
                if untraced_hashes.get(index, digest) != digest:
                    run.fail(f"traced invocation {index} output differs from the untraced one")
            index += 1
    leftovers = changed_since(before)
    if leftovers:
        run.fail(f"tracing left wrapped functions behind: {leftovers[:5]}")
    run.check_deferred()

    n = len(traced_walls)
    traced_ns = sum(traced_walls) * 1e9
    calls = {name: totals[name][0] for name in SPAN_NAMES}
    metrics = {}
    for name in SPAN_NAMES:
        c, ns = totals[name]
        metrics[f"{name}.calls"] = (c / n, "count")
        metrics[f"{name}.self_us"] = (ns / c / 1e3 if c else 0.0, "us")
    for mod in MODULES:
        ns = sum(totals[f"{mod}.{fn}"][1] for fn in TRACED[mod])
        metrics[f"{mod}.self_frac"] = (ns / traced_ns, "frac")
    states = calls["sampling.sample_density"] + calls["io.load_state"]
    draws = calls["sampling.sample_spectrum"] + tracer.spectrum_resampled
    pairs = calls["uncertainty.analyze_pair"]
    metrics["linalg.eig_per_state"] = (calls["linalg.hermitian_eig"] / states if states else 0.0, "ratio")
    metrics["bundle.splits_per_pair"] = (calls["bundle.split"] / pairs if pairs else 0.0, "ratio")
    metrics["sampling.spectrum_accept_ratio"] = (
        calls["sampling.sample_spectrum"] / draws if draws else 0.0,
        "ratio",
    )
    metrics["bundle.tangency_warnings"] = (tangency / n, "count")
    metrics["io.output_bytes"] = (output_bytes / n, "B")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(base_walls) - 1.0,
        "frac",
    )
    return {
        "traced_invocations": n,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "e2e", "trace"), required=True)
    parser.add_argument("--state")
    parser.add_argument("--observables")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    files = AnalyzeFiles(args.state, args.observables) if args.state else None
    run = Run(WORKLOADS[args.workload], args.seed, files)
    if args.mode == "setup":
        setup_s, text = set_up(run)
        result = {"setup_s": setup_s, "output_sha256": hashlib.sha256((text or "").encode()).hexdigest()}
    elif args.mode == "e2e":
        result = mode_e2e(run, args.seconds)
    else:
        result = mode_trace(run, args.seconds)

    import phasegeo

    result.update(
        attempted=run.attempted,
        failed=run.failed,
        errors=run.errors,
        phasegeo_file=phasegeo.__file__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
