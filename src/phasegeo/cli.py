"""Command line interface.

Subcommands:
  demo spin   reproduce the spin-1/2 ensemble walk-through
  analyze     uncertainty reports for every observable pair in a file
  sweep       randomized bound comparison over one isospectral orbit
  verify      run the invariant battery

Exit codes: 0 success, 2 usage or input error, 3 internal relation
violation (a failed identity or bound, which signals a bug, never
physics).
"""

from __future__ import annotations

import argparse
import sys
from io import StringIO

import numpy as np

from .bundle import DensityOperator, split, standard_lift
from .io import REPORT_FIELDS, SWEEP_FIELDS, StateFileError, _write_pair_columns, load_observables, load_state
from .linalg import EigenDecomposition
from .observables import _stack, expected_value, ham_field, spin_half
from .sampling import _orbit_draws, make_rng, sample_spectrum
from .uncertainty import RelationViolationError, _analyze_states, analyze_pair
from .verify import ToleranceScaleError, run_battery

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3

DEMO_TOL = 1e-10

# Matrix entries per stacked sweep chunk (of at least one sample): bounds the memory of a long sweep.
_CHUNK_ENTRIES = 1 << 14


def _fmt_matrix(m: np.ndarray) -> str:
    return np.array2string(np.asarray(m), precision=8, suppress_small=False)


def _classify(lift, x) -> str:
    vertical, horizontal = split(lift, x)
    norm = max(float(np.linalg.norm(x)), 1e-300)
    if np.linalg.norm(vertical) <= DEMO_TOL * norm:
        return "horizontal"
    if np.linalg.norm(horizontal) <= DEMO_TOL * norm:
        return "vertical"
    return "mixed"


def cmd_demo_spin(p1: float, hbar: float) -> int:
    p2 = 1.0 - p1
    rho = DensityOperator(np.diag([p1, p2]).astype(np.complex128))
    sx, sy, sz = spin_half(hbar)
    lift = standard_lift(rho, hbar)
    spectrum = lift.spectrum

    print(f"spin-1/2 ensemble: p1={p1!r}, p2={p2!r}, hbar={hbar!r}")
    print(f"spectrum: eigenvalues={spectrum.eigenvalues} multiplicities={spectrum.multiplicities}")
    print("standard lift psi:")
    print(_fmt_matrix(lift.psi))

    x_sx = ham_field(sx, lift)
    x_sy = ham_field(sy, lift)
    print("Hamiltonian field X_Sx(psi):")
    print(_fmt_matrix(x_sx))
    print("Hamiltonian field X_Sy(psi):")
    print(_fmt_matrix(x_sy))

    cls_x = _classify(lift, x_sx)
    cls_y = _classify(lift, x_sy)
    print(f"classification: X_Sx {cls_x}, X_Sy {cls_y}")

    print(f"expectations: <Sx> = {expected_value(sx, rho)!r}, "
          f"<Sy> = {expected_value(sy, rho)!r}, <Sz> = {expected_value(sz, rho)!r}")

    report = analyze_pair(sx, sy, rho, hbar, lift=lift)
    print(f"riemann bracket {{Sx,Sy}}_g     = {report.riemann!r}")
    print(f"poisson bracket {{Sx,Sy}}_omega = {report.poisson!r}")
    print(f"delta_Sx        = {report.delta_a!r}")
    print(f"delta_Sy        = {report.delta_b!r}")
    print(f"product         = {report.product!r}")
    print(f"geometric_bound = {report.geometric_bound!r}")
    print(f"rs_bound        = {report.rs_bound!r}")
    print(f"slack_geometric = {report.slack_geometric!r}")
    print(f"slack_rs        = {report.slack_rs!r}")
    print(f"bound_winner    = {report.bound_winner}")

    degenerate = spectrum.multiplicities == (2,)
    expected = {
        "riemann": 0.0,
        "poisson": 0.5 * hbar * (p1 - p2),
        "delta_a": 0.5 * hbar,
        "delta_b": 0.5 * hbar,
        "product": 0.25 * hbar * hbar,
        "geometric_bound": 0.25 * hbar * hbar * abs(p1 - p2),
        "rs_bound": 0.25 * hbar * hbar * abs(p1 - p2),
    }
    got = {key: getattr(report, key) for key in expected}
    failures = [
        f"{key}: got {got[key]!r}, expected {value!r}"
        for key, value in expected.items()
        if abs(got[key] - value) > DEMO_TOL * max(1.0, hbar * hbar)
    ]
    want_cls = "vertical" if degenerate else "horizontal"
    for label, cls in (("X_Sx", cls_x), ("X_Sy", cls_y)):
        if cls != want_cls:
            failures.append(f"{label} classified {cls}, expected {want_cls}")

    if failures:
        for line in failures:
            print(f"MISMATCH {line}", file=sys.stderr)
        print("reference values NOT reproduced", file=sys.stderr)
        return EXIT_VIOLATION
    print(f"reference values reproduced within {DEMO_TOL:g}")
    return EXIT_OK


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_analyze(state_path: str, observables_path: str, output: str | None, fmt: str) -> int:
    rho, hbar = load_state(state_path)
    named = load_observables(observables_path, rho.dim)
    if len(named) < 2:
        print("warning: fewer than two observables, no pairs to analyze", file=sys.stderr)
    mats = _stack([obs for _, obs in named], rho.dim)[None]
    frame = EigenDecomposition(rho.frame.values[None], rho.frame.vectors[None])
    try:
        spreads, (a, b), columns = _analyze_states(mats, rho.matrix[None], frame, hbar)
    except ValueError as exc:  # the rank cut can drop more mass than the sum rule of the spectrum allows
        raise StateFileError(f"matrix: {exc}") from exc
    names = [name for name, _ in named]
    per_pair = {"a": (names, a), "b": (names, b), "delta_a": (spreads, a), "delta_b": (spreads, b)}
    buf = StringIO()
    header = {"dimension": rho.dim, "hbar": hbar}
    _write_pair_columns(buf, fmt, {**per_pair, **dict(zip(REPORT_FIELDS[2:], columns))}, header, "reports")
    _emit(buf.getvalue(), output)
    return EXIT_OK


def cmd_sweep(dim: int, rank: int, samples: int, seed: int, output: str | None, fmt: str) -> int:
    spectrum, resampled = sample_spectrum(rank, make_rng(seed, 0))
    report = {field: [] for field in REPORT_FIELDS}
    chunk = max(1, _CHUNK_ENTRIES // (dim * dim))
    for start in range(0, samples, chunk):
        rngs = (make_rng(seed, 1, index) for index in range(start, min(start + chunk, samples)))
        states, frames, observables = _orbit_draws(spectrum, dim, rngs)
        spreads, _, columns = _analyze_states(observables, states, frames, 1.0)
        # One pair (A, B) per sample: its spreads alternate.
        for column, values in zip(report.values(), (spreads[::2], spreads[1::2], *columns)):
            column.extend(values)

    winners = report["bound_winner"]
    summary = {
        "min_slack_geometric": min(report["slack_geometric"]),
        "min_slack_rs": min(report["slack_rs"]),
        "fraction_geometric_wins": winners.count("geometric") / samples,
        "fraction_rs_wins": winners.count("robertson_schrodinger") / samples,
        "fraction_ties": winners.count("tie") / samples,
    }
    header = {
        "dim": dim,
        "rank": rank,
        "samples": samples,
        "seed": seed,
        "hbar": 1.0,
        "spectrum": list(spectrum.eigenvalues),
        "degenerate_resamples": resampled,
    }
    leading = dict(zip(SWEEP_FIELDS, (range(samples), [seed] * samples, [dim] * samples, [rank] * samples)))
    buf = StringIO()
    _write_pair_columns(buf, fmt, {**leading, **report}, header, "records", {"summary": summary})
    _emit(buf.getvalue(), output)

    summary_text = (
        f"summary: min_slack_geometric={summary['min_slack_geometric']!r} "
        f"min_slack_rs={summary['min_slack_rs']!r} "
        f"fraction_geometric_wins={summary['fraction_geometric_wins']!r}"
    )
    # Keep the record stream byte-reproducible: the summary goes to stdout
    # only when the records went to a file.
    print(summary_text, file=sys.stdout if output else sys.stderr)
    return EXIT_OK


def cmd_verify(dim: int, samples: int, seed: int) -> int:
    results = run_battery(dim, samples, seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  worst_residual={r.worst_residual:.3e}  tolerance={r.tolerance:.1e}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} invariants passed")
    return EXIT_OK if not failed else EXIT_VIOLATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasegeo",
        description="Geometric uncertainty bounds on orbits of isospectral density operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="built-in demonstrations")
    demo_sub = demo.add_subparsers(dest="demo_command", required=True)
    spin = demo_sub.add_parser("spin", help="spin-1/2 ensemble with diagonal state")
    spin.add_argument("--p1", type=float, required=True, help="spin-up proportion, in (0, 1)")
    spin.add_argument("--hbar", type=float, default=1.0, help="action scale (default 1)")

    analyze = sub.add_parser("analyze", help="uncertainty reports for observable pairs")
    analyze.add_argument("--state", required=True, help="state JSON file")
    analyze.add_argument("--observables", required=True, help="observables JSON file")
    analyze.add_argument("--output", default=None, help="output path (default stdout)")
    analyze.add_argument("--format", choices=("json", "csv"), default="json")

    sweep = sub.add_parser("sweep", help="randomized bound comparison on one orbit")
    sweep.add_argument("--dim", type=int, required=True)
    sweep.add_argument("--rank", type=int, required=True)
    sweep.add_argument("--samples", type=int, required=True)
    sweep.add_argument("--seed", type=int, required=True)
    sweep.add_argument("--output", default=None, help="output path (default stdout)")
    sweep.add_argument("--format", choices=("json", "csv"), default="json")

    verify = sub.add_parser("verify", help="run the invariant battery")
    verify.add_argument("--dim", type=int, required=True)
    verify.add_argument("--samples", type=int, required=True)
    verify.add_argument("--seed", type=int, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("sweep", "verify") and args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")

    try:
        if args.command == "demo":
            if not 0.0 < args.p1 < 1.0:
                parser.error(f"--p1 must lie strictly between 0 and 1, got {args.p1}")
            if not 0.0 < args.hbar < np.inf:
                parser.error(f"--hbar must be positive and finite, got {args.hbar}")
            return cmd_demo_spin(args.p1, args.hbar)
        if args.command == "analyze":
            return cmd_analyze(args.state, args.observables, args.output, args.format)
        if args.command == "sweep":
            if args.dim < 1 or not 1 <= args.rank <= args.dim:
                parser.error(f"need 1 <= rank <= dim, got rank={args.rank} dim={args.dim}")
            if args.samples < 1:
                parser.error(f"--samples must be positive, got {args.samples}")
            return cmd_sweep(args.dim, args.rank, args.samples, args.seed, args.output, args.format)
        if args.command == "verify":
            if args.dim < 2:
                parser.error(f"--dim must be at least 2, got {args.dim}")
            if args.samples < 1:
                parser.error(f"--samples must be positive, got {args.samples}")
            return cmd_verify(args.dim, args.samples, args.seed)
    except (StateFileError, FileNotFoundError, ToleranceScaleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RelationViolationError as exc:
        print(f"relation violation (internal fault): {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    raise AssertionError(f"unhandled command {args.command!r}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
