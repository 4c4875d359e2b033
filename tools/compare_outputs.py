"""Compare the CLI outputs of two phasegeo source trees, case by case.

Usage:  python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that holds the ``phasegeo`` package (the ``src``
directory of a checkout).  Every case runs ``python3 -m phasegeo.cli`` once
per tree, with that directory on PYTHONPATH and OpenBLAS pinned to one
thread:

- ``analyze`` (JSON and CSV) on the analyze-wide inputs of
  ``perfbench/workloads.py`` at seeds 1 and 2, and on a dim-3 state with
  observables whose names need JSON escaping and CSV quoting (non-ASCII,
  ``"``, ``\\``, a comma, a newline), generated here, and on the same kind
  of state with only the first one and the first two of those names: an
  empty report list and a single report;
- ``analyze`` in JSON on three block structures that those inputs miss:
  a dim-4 pure state; the dim-3 maximally mixed state against the eight
  Gell-Mann matrices, where every bracket is 0 and every pair ties; and a
  dim-5 state with blocks (2, 1) and two eigenvalues under the rank cut,
  at hbar 2.3;
- ``analyze`` on two faulty copies of the escaped-names observables: one
  with a non-Hermitian observable at index 5, one with a malformed entry
  in the observable at index 3.  Both trees must exit 2, and their stderr
  (the message naming the observable) must be the same;
- ``sweep`` at (dim, rank, samples) (4, 3, 200), (32, 16, 10) and
  (2, 1, 100) (pure states) in JSON, and (6, 6, 100) and (3, 2, 4000) in
  CSV, and a single sample at (4, 3) in both, each at seeds 3-5.  The 4000
  samples at dimension 3 fill more than two chunks of the batched sweep
  (``phasegeo.cli._CHUNK_ENTRIES``);
- ``verify`` at (dim, samples, seed) (2, 40, 7), (4, 8, 1), (6, 8, 3),
  (2, 1, 12), (4, 8, 1000000) (the first invocation of the verify
  benchmark), (3, 16, 5) and (5, 8, 11).  Values the package builds skip
  input rules they meet by construction, and a slip there would show in
  these residuals first;
- ``demo spin`` with ``--p1 0.75``, ``--p1 0.5 --hbar 2`` and
  ``--p1 0.999``.  Its text prints the standard lift, so these cases
  compare byte for byte;
- ``--output FILE``: ``sweep`` at (4, 3, 200), seed 3, in JSON, and
  ``analyze`` on the escaped-names inputs in CSV.  The written file and
  stdout (for ``sweep``, the summary line) compare byte for byte.

For each case it prints ``byte-identical``, or each drifting field's
largest drift relative to the largest float field of its record (verify:
each check whose residual changed).  It exits 1 when a drift exceeds
1e-15, when record counts, keys, non-float values (names, indices,
``bound_winner``) or verify PASS/FAIL lines differ, when a demo's text
or the stderr of any case (the sweep summary line, the analyze warning,
an input fault's message) differs at all, when an ``--output`` case's
file or stdout differs at all, or when either tree exits other than 0
(2 for a faulty input).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Largest float drift, relative to the record's largest float field, that
# still counts as agreement.
DRIFT_TOL = 1e-15

SWEEPS = (
    (4, 3, 200, "json"),
    (32, 16, 10, "json"),
    (2, 1, 100, "json"),
    (6, 6, 100, "csv"),
    (3, 2, 4000, "csv"),
    (4, 3, 1, "json"),
    (4, 3, 1, "csv"),
)
SWEEP_SEEDS = (3, 4, 5)
VERIFIES = ((2, 40, 7), (4, 8, 1), (6, 8, 3), (2, 1, 12), (4, 8, 1000000), (3, 16, 5), (5, 8, 11))
ANALYZE_SEEDS = (1, 2)
DEMOS = (("--p1", "0.75"), ("--p1", "0.5", "--hbar", "2"), ("--p1", "0.999"))
# Observable names that JSON must escape and CSV must quote.
ESCAPED_NAMES = ("Ŝ_x", 'say "hi"', "back\\slash", "a, b", "two\nlines", "日本")
# Faults planted in the escaped-names observables: (label, observable index, row, column, entry).  The first entry
# breaks Hermiticity; the second has one number where [re, im] needs two.
FAULTS = (("non-Hermitian observable 5", 5, 0, 2, [7.0, 0.5]), ("malformed entry 3", 3, 1, 2, [0.5]))


def _analyze_files(workdir: str) -> dict[int, object]:
    # Read-only use of the benchmark module: no bytecode is written next to it.
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(REPO, "perfbench"))
    from workloads import make_analyze_inputs, write_analyze_files

    return {
        seed: write_analyze_files(make_analyze_inputs(seed), os.path.join(workdir, f"seed{seed}"))
        for seed in ANALYZE_SEEDS
    }


def _write_inputs(workdir: str, stem: str, hbar: float, rho, mats, names) -> tuple[str, str]:
    """The state file and the observables file of a state, its hbar and named observables, with [re, im] entries."""
    import numpy as np

    pairs = [np.stack((m.real, m.imag), axis=-1).tolist() for m in [rho, *mats]]
    paths = tuple(os.path.join(workdir, f"{stem}_{kind}.json") for kind in ("state", "observables"))
    docs = (
        {"dimension": len(rho), "hbar": hbar, "matrix": pairs[0]},
        {"observables": [{"name": name, "matrix": m} for name, m in zip(names, pairs[1:])]},
    )
    for path, doc in zip(paths, docs):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, ensure_ascii=False)
    return paths


def escaped_names_files(workdir: str, names: tuple[str, ...] = ESCAPED_NAMES) -> tuple[str, str]:
    """A dim-3 state at hbar 0.75 and one observable per name, from numpy's own Generator."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(11))
    shape = (1 + len(names), 3, 3)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    u, _ = np.linalg.qr(g[0])
    rho = (u * [0.5, 0.3, 0.2]) @ u.conj().T
    mats = [0.5 * (a + a.conj().T) for a in g[1:]]
    return _write_inputs(workdir, f"escaped{len(names)}", 0.75, 0.5 * (rho + rho.conj().T), mats, names)


def strata_files(workdir: str) -> list[tuple[str, str, str]]:
    """(label, state, observables) of the maximally mixed, pure and (2, 1) rank-cut cases, from numpy's own
    Generator.  The rotated states take four Gaussian observables; the maximally mixed one, diagonal, takes the
    traceless and mutually orthogonal Gell-Mann matrices, so both bounds of every pair are 0."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(13))
    e = np.eye(3)
    gell_mann = [e[[j]].T @ e[[k]] for j, k in ((0, 1), (0, 2), (1, 2))]
    gell_mann = [m + m.T for m in gell_mann] + [1j * (m.T - m) for m in gell_mann]
    gell_mann += [np.diag([1.0, -1.0, 0.0]), np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)]
    names = [f"lambda{i}" for i in range(1, 9)]
    out = [("maximally mixed dim 3", *_write_inputs(workdir, "mixed3", 1.0, e / 3, gell_mann, names))]
    for label, stem, hbar, spectrum in (
        ("pure dim 4", "pure4", 1.0, [1.0, 0.0, 0.0, 0.0]),
        ("blocks (2, 1) rank cut dim 5 hbar 2.3", "blocks5", 2.3, [0.35, 0.35, 0.3, 0.0, 0.0]),
    ):
        n = len(spectrum)
        g = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
        u, _ = np.linalg.qr(g[0])
        rho = (u * spectrum) @ u.conj().T
        mats = [0.5 * (a + a.conj().T) for a in g[1:]]
        out.append((label, *_write_inputs(workdir, stem, hbar, 0.5 * (rho + rho.conj().T), mats, "ABCD")))
    return out


def faulty_observables_files(workdir: str, observables: str) -> list[tuple[str, str]]:
    """(label, path) of one copy of an observables document per entry of FAULTS, with that entry planted."""
    out = []
    for label, index, row, column, entry in FAULTS:
        with open(observables, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["observables"][index]["matrix"][row][column] = entry
        path = os.path.join(workdir, f"fault{index}_observables.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, ensure_ascii=False)
        out.append((label, path))
    return out


def _cases(workdir: str) -> list[tuple[str, list[str], str]]:
    """(label, CLI arguments, output kind) of every case, in print order."""
    cases = []
    inputs = [(f"seed {seed}", files.state, files.observables) for seed, files in _analyze_files(workdir).items()]
    escaped = escaped_names_files(workdir)
    inputs.append(("escaped names", *escaped))
    for count, label in ((1, "one observable"), (2, "two observables")):
        inputs.append((label, *escaped_names_files(workdir, ESCAPED_NAMES[:count])))
    for label, state, observables in inputs:
        for fmt in ("json", "csv"):
            argv = ["analyze", "--state", state, "--observables", observables]
            cases.append((f"analyze {label} {fmt}", argv + ["--format", fmt], fmt))
    for label, state, observables in strata_files(workdir):
        cases.append((f"analyze {label} json", ["analyze", "--state", state, "--observables", observables], "json"))
    for label, observables in faulty_observables_files(workdir, escaped[1]):
        cases.append((f"analyze {label}", ["analyze", "--state", escaped[0], "--observables", observables], "error"))
    for dim, rank, samples, fmt in SWEEPS:
        for seed in SWEEP_SEEDS:
            argv = ["sweep", "--dim", str(dim), "--rank", str(rank), "--samples", str(samples)]
            argv += ["--seed", str(seed), "--format", fmt]
            cases.append((f"sweep ({dim},{rank})x{samples} seed {seed} {fmt}", argv, fmt))
    for dim, samples, seed in VERIFIES:
        argv = ["verify", "--dim", str(dim), "--samples", str(samples), "--seed", str(seed)]
        cases.append((f"verify ({dim},{samples},{seed})", argv, "verify"))
    for args in DEMOS:
        cases.append((f"demo spin {' '.join(args)}", ["demo", "spin", *args], "demo"))
    sweep = ["sweep", "--dim", "4", "--rank", "3", "--samples", "200", "--seed", "3", "--format", "json"]
    cases.append(("sweep (4,3)x200 seed 3 json --output", sweep + ["--output", "sweep.json"], "file"))
    analyze = ["analyze", "--state", escaped[0], "--observables", escaped[1], "--format", "csv"]
    cases.append(("analyze escaped names csv --output", analyze + ["--output", "analyze.csv"], "file"))
    return cases


def _run(src: str, argv: list[str], workdir: str) -> subprocess.CompletedProcess:
    """One CLI run; with ``--output``, the text it wrote is kept as ``written`` and the file removed."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "phasegeo.cli", *argv],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    if "--output" in argv:  # a run that fails may write no file
        path = Path(workdir, argv[argv.index("--output") + 1])
        proc.written = path.read_text(encoding="utf-8") if path.exists() else None
        path.unlink(missing_ok=True)
    return proc


def _flatten(obj, prefix: str = "") -> dict:
    if isinstance(obj, dict):
        return {k: v for key, val in obj.items() for k, v in _flatten(val, f"{prefix}{key}.").items()}
    if isinstance(obj, list):
        return {k: v for i, val in enumerate(obj) for k, v in _flatten(val, f"{prefix}{i}.").items()}
    return {prefix[:-1]: obj}


def _csv_value(cell: str):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def _records(text: str, kind: str) -> list[dict]:
    """Flat records of one output: report rows, plus a JSON document's other fields as one more."""
    if kind == "csv":
        return [{k: _csv_value(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]
    doc = json.loads(text)
    rows = doc.pop("reports") if "reports" in doc else doc.pop("records")
    return [_flatten(row) for row in rows] + [_flatten(doc)]


def _compare_records(old: list[dict], new: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Largest relative drift per float field, and every structural difference."""
    if len(old) != len(new):
        return {}, [f"record count {len(old)} != {len(new)}"]
    drift: dict[str, float] = {}
    errors = []
    for index, (a, b) in enumerate(zip(old, new)):
        if a.keys() != b.keys():
            errors.append(f"record {index}: keys differ")
            continue
        scale = max((abs(v) for v in a.values() if isinstance(v, float)), default=0.0)
        for key, x in a.items():
            y = b[key]
            if isinstance(x, float) and isinstance(y, float):
                if repr(x) == repr(y):
                    continue
                d = abs(x - y) / scale if scale > 0 else math.inf
                # A NaN on one side only (or inf against inf) is no agreement.
                drift[key] = max(drift.get(key, 0.0), math.inf if math.isnan(d) else d)
            elif x != y:
                errors.append(f"record {index}: {key} {x!r} != {y!r}")
    return drift, errors


def _compare_verify(old: str, new: str) -> tuple[list[str], list[str]]:
    """Changed residuals as notes, and every PASS/FAIL or check-list difference."""
    a, b = ([line.split() for line in text.splitlines()] for text in (old, new))
    if len(a) != len(b):
        return [], [f"{len(a)} lines != {len(b)}"]
    notes, errors = [], []
    for x, y in zip(a, b):
        if x[:2] != y[:2] or len(x) != len(y) or x[-1:] != y[-1:]:
            errors.append(f"{' '.join(x)} != {' '.join(y)}")
        elif x != y:
            notes.append(f"{x[1]} {x[2].split('=')[1]} -> {y[2].split('=')[1]}")
    return notes, errors


def compare_case(old: subprocess.CompletedProcess, new: subprocess.CompletedProcess, kind: str) -> tuple[str, bool]:
    """One summary line for a case and whether the two trees agree; an "error" case must exit 2 in both."""
    if (old.returncode, new.returncode) != (2 if kind == "error" else 0,) * 2:
        return f"exit status {old.returncode} vs {new.returncode}", False
    if old.stderr != new.stderr:
        return "stderr differs", False
    if kind == "file" and old.written != new.written:
        return "written file differs", False
    if old.stdout == new.stdout:
        return "byte-identical", True
    if kind in ("demo", "file", "error"):
        return "text differs", False
    if kind == "verify":
        notes, errors = _compare_verify(old.stdout, new.stdout)
        return "; ".join(errors or ["residuals changed: " + ", ".join(notes)]), not errors
    drift, errors = _compare_records(_records(old.stdout, kind), _records(new.stdout, kind))
    too_far = [key for key, d in drift.items() if d > DRIFT_TOL]
    parts = errors[:5] + [f"{len(errors) - 5} more differences"] * (len(errors) > 5)
    parts += [f"{key} {d:.2e}" for key, d in sorted(drift.items())]
    if not parts:
        parts = ["same values, different bytes"]
    return "; ".join(parts), not errors and not too_far


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    srcs = [os.path.abspath(path) for path in argv]
    for src in srcs:
        if not os.path.isfile(os.path.join(src, "phasegeo", "__init__.py")):
            print(f"error: {src} does not hold the phasegeo package", file=sys.stderr)
            return 2
    ok = True
    with tempfile.TemporaryDirectory() as workdir:
        for label, cli_args, kind in _cases(workdir):
            old, new = (_run(src, cli_args, workdir) for src in srcs)
            line, agree = compare_case(old, new, kind)
            ok &= agree
            print(f"{'ok  ' if agree else 'DIFF'}  {label}: {line}")
    print("outputs agree" if ok else "outputs differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
