"""Tests for the verdicts of tools/compare_outputs.py on synthetic CLI outputs."""

import copy
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

REPORT = {
    "a": "A",
    "b": "B",
    "delta_a": 0.63205133253771,
    "delta_b": 0.739349428547593,
    "product": 0.46730679152450055,
    "geometric_bound": 0.46511157452375224,
    "rs_bound": 0.464217057461701,
    "slack_rs": 0.003089734062799554,
    "bound_winner": "geometric",
}

VERIFY = (
    "PASS  polar_identity             worst_residual=0.000e+00  tolerance=1.0e-12\n"
    "PASS  covariance_identity        worst_residual=3.331e-16  tolerance=1.0e-09\n"
)


def _proc(stdout, returncode=0):
    return subprocess.CompletedProcess([], returncode, stdout=stdout, stderr="")


def _analyze(*reports):
    return _proc(json.dumps({"hbar": 1.0, "reports": list(reports)}, indent=2))


def _with(**changes):
    return {**copy.deepcopy(REPORT), **changes}


def test_identical_outputs_are_byte_identical():
    assert compare_outputs.compare_case(_analyze(REPORT), _analyze(REPORT), "json") == (
        "byte-identical",
        True,
    )


@pytest.mark.parametrize(("factor", "agree"), [(1 + 2e-16, True), (1 + 1e-13, False)])
def test_float_drift_is_judged_against_record_scale(factor, agree):
    new = _with(rs_bound=REPORT["rs_bound"] * factor)
    line, ok = compare_outputs.compare_case(_analyze(REPORT), _analyze(new), "json")
    assert ok is agree
    assert line.startswith("rs_bound ")


@pytest.mark.parametrize(
    "new",
    [
        _analyze(_with(bound_winner="rs")),
        _analyze(REPORT, REPORT),
        _analyze(_with(b="C")),
        _proc(_analyze(REPORT).stdout, returncode=3),
    ],
    ids=["winner_flip", "record_count", "name", "exit_status"],
)
def test_structural_differences_disagree(new):
    _, ok = compare_outputs.compare_case(_analyze(REPORT), new, "json")
    assert not ok


def test_stderr_must_match_byte_for_byte():
    old = _analyze(REPORT)
    old.stderr = "summary: min_slack_geometric=0.5\n"
    new = copy.copy(old)
    new.stderr = "summary: min_slack_geometric=0.5000000000000001\n"
    assert compare_outputs.compare_case(old, copy.copy(old), "json") == ("byte-identical", True)
    assert compare_outputs.compare_case(old, new, "json") == ("stderr differs", False)


def test_output_file_and_stdout_must_match_byte_for_byte():
    old = _proc("summary: min_slack_geometric=0.5\n")
    old.written = _analyze(REPORT).stdout
    assert compare_outputs.compare_case(old, copy.copy(old), "file") == ("byte-identical", True)
    new = copy.copy(old)
    new.written = old.written.replace("0.464217057461701", "0.4642170574617011")
    assert compare_outputs.compare_case(old, new, "file") == ("written file differs", False)
    new = copy.copy(old)
    new.stdout = "summary: min_slack_geometric=0.5000000000000001\n"
    assert compare_outputs.compare_case(old, new, "file") == ("text differs", False)


def test_one_sided_nan_disagrees():
    _, ok = compare_outputs.compare_case(
        _analyze(REPORT), _analyze(_with(slack_rs=float("nan"))), "json"
    )
    assert not ok


def test_csv_records_compare_by_value():
    header = ",".join(REPORT)
    old = _proc(header + "\n" + ",".join(map(str, REPORT.values())) + "\n")
    new = _proc(old.stdout.replace("0.464217057461701", "0.4642170574617011"))
    line, ok = compare_outputs.compare_case(old, new, "csv")
    assert ok
    assert line.startswith("rs_bound ")


def test_verify_residual_change_agrees_and_verdict_change_does_not():
    changed = _proc(VERIFY.replace("3.331e-16", "2.220e-16"))
    line, ok = compare_outputs.compare_case(_proc(VERIFY), changed, "verify")
    assert ok
    assert line == "residuals changed: covariance_identity 3.331e-16 -> 2.220e-16"
    failed = _proc(VERIFY.replace("PASS  covariance", "FAIL  covariance"))
    _, ok = compare_outputs.compare_case(_proc(VERIFY), failed, "verify")
    assert not ok


def test_demo_text_must_match_byte_for_byte():
    text = "standard lift psi:\n[[0.8660254+0.j 0.       +0.j]\n [0.       +0.j 0.5      +0.j]]\n"
    assert compare_outputs.compare_case(_proc(text), _proc(text), "demo") == ("byte-identical", True)
    flipped = _proc(text.replace("0.5      +0.j", "0.5      -0.j"))
    assert compare_outputs.compare_case(_proc(text), flipped, "demo") == ("text differs", False)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_escaped_names_case_keeps_every_name(fmt, tmp_path, capsys):
    from phasegeo.cli import main

    state, observables = compare_outputs.escaped_names_files(str(tmp_path))
    assert main(["analyze", "--state", state, "--observables", observables, "--format", fmt]) == 0
    records = compare_outputs._records(capsys.readouterr().out, fmt)
    names = compare_outputs.ESCAPED_NAMES
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    assert [(rec["a"], rec["b"]) for rec in records[: len(pairs)]] == pairs
    assert len(records) == len(pairs) + (fmt == "json")
