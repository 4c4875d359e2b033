"""Checks on the output of every timed CLI invocation.

Each check raises OutputMismatch on the first disagreement.  The sweep and
report checks are internal consistency checks that need only the standard
library; the analyze-wide check recomputes every pair from the generated
inputs with plain numpy, independently of phasegeo.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

REPORT_FIELDS = (
    "delta_a",
    "delta_b",
    "product",
    "riemann",
    "poisson",
    "geometric_bound",
    "rs_bound",
    "slack_geometric",
    "slack_rs",
    "bound_winner",
)
SWEEP_FIELDS = ("sample_index", "seed", "dimension", "rank")
WINNERS = ("geometric", "robertson_schrodinger", "tie")

# A slack more negative than this (relative to the larger of 1 and the
# compared values) means a violated bound; a tie must lie within it.
SLACK_TOL = 1e-9
# Relative agreement demanded between the analyze output and the oracle.
ORACLE_TOL = 1e-9
# Arithmetic restatements (product, slacks, geometric bound) are checked
# to rounding level.
ARITH_TOL = 1e-12


class OutputMismatch(Exception):
    """An invocation's output disagrees with what the inputs imply."""


def _close(got: float, want: float, scale: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(abs(want), scale)


def check_report(rec: dict, hbar: float, where: str) -> None:
    """Internal consistency of one uncertainty report record."""
    for key in REPORT_FIELDS:
        if key not in rec:
            raise OutputMismatch(f"{where}: missing field {key!r}")
    da, db = rec["delta_a"], rec["delta_b"]
    geo, rs, product = rec["geometric_bound"], rec["rs_bound"], rec["product"]
    values = [rec[k] for k in REPORT_FIELDS[:-1]]
    if not all(isinstance(v, float) and math.isfinite(v) for v in values):
        raise OutputMismatch(f"{where}: non-finite or non-float report value")
    if da < 0 or db < 0 or geo < 0 or rs < 0:
        raise OutputMismatch(f"{where}: negative spread or bound")
    scale = max(1.0, product, geo, rs)
    checks = (
        ("product", product, da * db),
        ("geometric_bound", geo, 0.5 * hbar * math.hypot(rec["riemann"], rec["poisson"])),
        ("slack_geometric", rec["slack_geometric"], product - geo),
        ("slack_rs", rec["slack_rs"], product - rs),
    )
    for key, got, want in checks:
        if not _close(got, want, scale, ARITH_TOL):
            raise OutputMismatch(f"{where}: {key}={got!r} but the other fields give {want!r}")
    for key in ("slack_geometric", "slack_rs"):
        if rec[key] < -SLACK_TOL * scale:
            raise OutputMismatch(f"{where}: {key}={rec[key]!r} is below -{SLACK_TOL:g} x {scale!r}")
    winner = rec["bound_winner"]
    if winner not in WINNERS:
        raise OutputMismatch(f"{where}: unknown bound_winner {winner!r}")
    consistent = {
        "geometric": geo >= rs,
        "robertson_schrodinger": rs >= geo,
        "tie": abs(geo - rs) <= SLACK_TOL * scale,
    }[winner]
    if not consistent:
        raise OutputMismatch(f"{where}: bound_winner={winner!r} with geometric {geo!r}, rs {rs!r}")


def _check_sweep_records(records: list[dict], dim: int, rank: int, samples: int, seed: int) -> None:
    if len(records) != samples:
        raise OutputMismatch(f"expected {samples} records, got {len(records)}")
    for index, rec in enumerate(records):
        where = f"record {index}"
        want = {"sample_index": index, "seed": seed, "dimension": dim, "rank": rank}
        for key, value in want.items():
            if rec.get(key) != value:
                raise OutputMismatch(f"{where}: {key}={rec.get(key)!r}, expected {value!r}")
        check_report(rec, 1.0, where)


def check_sweep_csv(text: str, dim: int, rank: int, samples: int, seed: int) -> None:
    """Sweep CSV: header, record count, index order and every report."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise OutputMismatch("empty sweep output")
    header = rows[0]
    missing = [f for f in SWEEP_FIELDS + REPORT_FIELDS if f not in header]
    if missing:
        raise OutputMismatch(f"sweep CSV header lacks {missing}")
    records = []
    for row in rows[1:]:
        rec = dict(zip(header, row))
        try:
            for key in SWEEP_FIELDS:
                rec[key] = int(rec[key])
            for key in REPORT_FIELDS[:-1]:
                rec[key] = float(rec[key])
        except (KeyError, ValueError) as exc:
            raise OutputMismatch(f"unparsable sweep CSV row {row!r}: {exc}") from exc
        records.append(rec)
    _check_sweep_records(records, dim, rank, samples, seed)


def check_sweep_json(text: str, dim: int, rank: int, samples: int, seed: int) -> None:
    """Sweep JSON: header, spectrum, records and a summary matching them."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OutputMismatch(f"sweep output is not JSON: {exc}") from exc
    for key, value in {"dim": dim, "rank": rank, "samples": samples, "seed": seed, "hbar": 1.0}.items():
        if doc.get(key) != value:
            raise OutputMismatch(f"sweep {key}={doc.get(key)!r}, expected {value!r}")
    spectrum = doc.get("spectrum")
    if (
        not isinstance(spectrum, list)
        or len(spectrum) != rank
        or any(v <= 0 for v in spectrum)
        or any(a < b for a, b in zip(spectrum, spectrum[1:]))
        or abs(sum(spectrum) - 1.0) > 1e-10
    ):
        raise OutputMismatch(f"sweep spectrum is not a descending rank-{rank} probability vector")
    records = doc.get("records")
    if not isinstance(records, list):
        raise OutputMismatch("sweep JSON lacks a records list")
    _check_sweep_records(records, dim, rank, samples, seed)
    summary = doc.get("summary", {})
    wins = {w: sum(r["bound_winner"] == w for r in records) / samples for w in WINNERS}
    want = {
        "min_slack_geometric": min(r["slack_geometric"] for r in records),
        "min_slack_rs": min(r["slack_rs"] for r in records),
        "fraction_geometric_wins": wins["geometric"],
        "fraction_rs_wins": wins["robertson_schrodinger"],
        "fraction_ties": wins["tie"],
    }
    for key, value in want.items():
        got = summary.get(key)
        if not isinstance(got, float) or not _close(got, value, 1.0, ARITH_TOL):
            raise OutputMismatch(f"summary {key}={got!r}, records give {value!r}")


_VERIFY_LINE = re.compile(r"^(PASS|FAIL)\s+(\S+)\s+worst_residual=(\S+)\s+tolerance=(\S+)$")
_VERIFY_TOTAL = re.compile(r"^(\d+)/(\d+) invariants passed$")


def check_verify(text: str) -> int:
    """Every battery check passed; returns the number of checks."""
    lines = text.splitlines()
    if not lines:
        raise OutputMismatch("empty verify output")
    total = _VERIFY_TOTAL.match(lines[-1])
    results = [_VERIFY_LINE.match(line) for line in lines[:-1]]
    if total is None or any(m is None for m in results):
        raise OutputMismatch("unrecognised verify output")
    failed = [m.group(2) for m in results if m.group(1) != "PASS"]
    if failed:
        raise OutputMismatch(f"verify checks failed: {failed}")
    passed, count = int(total.group(1)), int(total.group(2))
    if not passed == count == len(results) or count < 25:
        raise OutputMismatch(f"verify reported {passed}/{count} over {len(results)} check lines")
    return count


def analyze_oracle(rho, observables, multiplicities, hbar):
    """Per-pair reference values from plain numpy trace formulas.

    Brackets use the closed form
    {A,B}_g + i {A,B}_omega = (2/hbar)[Tr(Psi† A B Psi) - sum_blk Tr(a_A a_B)/p_blk]
    with Psi = V sqrt(P) from np.linalg.eigh and a_A = Psi_blk† A Psi_blk;
    spreads and the Robertson-Schrodinger bound use the trace formulas.
    Returns a dict of N-by-N arrays plus the per-pair scales.
    """
    import numpy as np

    a = np.asarray(observables)
    values, vectors = np.linalg.eigh(rho)
    values, vectors = values[::-1], vectors[:, ::-1]
    rank = sum(multiplicities)
    psi = vectors[:, :rank] * np.sqrt(values[:rank])
    w = a @ psi
    gram = np.einsum("iab,jab->ij", w.conj(), w)
    start = 0
    for m in multiplicities:
        blk = slice(start, start + m)
        ab = psi[:, blk].conj().T @ a @ psi[:, blk]
        p_blk = values[blk].mean()
        gram = gram - np.einsum("iab,jba->ij", ab, ab) / p_blk
        start += m
    bracket = (2.0 / hbar) * gram

    second = np.einsum("iab,jbc,ca->ij", a, a, rho)
    mean = np.einsum("iab,ba->i", a, rho).real
    var = np.diagonal(second).real - mean**2
    half_comm = 0.5 * np.abs((second - second.T).imag)
    cov = 0.5 * (second + second.T).real - np.outer(mean, mean)
    root = np.sqrt(np.diagonal(second).real)
    return {
        "riemann": bracket.real,
        "poisson": bracket.imag,
        "delta": np.sqrt(np.clip(var, 0.0, None)),
        "rs_bound": np.hypot(half_comm, cov),
        "delta_scale": root,
        "pair_scale": np.outer(root, root),
    }


def check_analyze_json(text: str, inputs) -> None:
    """Every pair of an analyze JSON document against the numpy oracle."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OutputMismatch(f"analyze output is not JSON: {exc}") from exc
    n = len(inputs.names)
    dim = inputs.rho.shape[0]
    if doc.get("dimension") != dim or doc.get("hbar") != inputs.hbar:
        raise OutputMismatch(f"analyze header {doc.get('dimension')!r}/{doc.get('hbar')!r}")
    reports = doc.get("reports")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not isinstance(reports, list) or len(reports) != len(pairs):
        raise OutputMismatch(f"expected {len(pairs)} reports")
    ref = analyze_oracle(inputs.rho, inputs.observables, inputs.multiplicities, inputs.hbar)
    for rec, (i, j) in zip(reports, pairs):
        where = f"pair ({inputs.names[i]}, {inputs.names[j]})"
        if (rec.get("a"), rec.get("b")) != (inputs.names[i], inputs.names[j]):
            raise OutputMismatch(f"{where}: report names {rec.get('a')!r}, {rec.get('b')!r}")
        check_report(rec, inputs.hbar, where)
        scale = float(ref["pair_scale"][i, j])
        want = (
            ("delta_a", float(ref["delta"][i]), float(ref["delta_scale"][i])),
            ("delta_b", float(ref["delta"][j]), float(ref["delta_scale"][j])),
            ("riemann", float(ref["riemann"][i, j]), scale / inputs.hbar),
            ("poisson", float(ref["poisson"][i, j]), scale / inputs.hbar),
            ("rs_bound", float(ref["rs_bound"][i, j]), scale),
        )
        for key, value, key_scale in want:
            if not _close(rec[key], value, key_scale, ORACLE_TOL):
                raise OutputMismatch(f"{where}: {key}={rec[key]!r}, oracle gives {value!r}")
