"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import phasegeo.cli  # noqa: E402
import phasegeo.uncertainty  # noqa: E402
from checks import (  # noqa: E402
    OutputMismatch,
    check_analyze_json,
    check_sweep_csv,
    check_verify,
)
from tracer import Tracer, callables_snapshot, changed_since, self_times  # noqa: E402
from workloads import make_analyze_inputs, write_analyze_files  # noqa: E402


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert phasegeo.cli.main(argv) == 0
    return out.getvalue()


def test_self_times_on_nested_call_tree():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("leaf", 15, 25, 1),
        ("b", 50, 90, 0),
        ("a", 60, 70, 3),
    ]
    assert self_times(spans) == {
        "root": (1, 100 - 30 - 40),
        "a": (2, (30 - 10) + 10),
        "leaf": (1, 10),
        "b": (1, 40 - 10),
    }


@pytest.fixture(params=[(4, (1, 2), 5, 0.7), (8, (1, 2, 3), 6, 0.5), (3, (3,), 4, 1.0)])
def analyzed(request, tmp_path):
    dim, mults, count, hbar = request.param
    inputs = make_analyze_inputs(11, dim, mults, count, hbar)
    files = write_analyze_files(inputs, str(tmp_path))
    text = _cli(["analyze", "--state", files.state, "--observables", files.observables])
    return inputs, text


def test_oracle_agrees_with_phasegeo_analyze(analyzed):
    inputs, text = analyzed
    check_analyze_json(text, inputs)


def test_checker_rejects_perturbed_riemann(analyzed):
    inputs, text = analyzed
    doc = json.loads(text)
    rec = doc["reports"][1]
    rec["riemann"] += 1e-6 * max(1.0, abs(rec["riemann"]))
    with pytest.raises(OutputMismatch, match="riemann|geometric_bound"):
        check_analyze_json(json.dumps(doc), inputs)


def test_checker_rejects_wrong_bound_winner():
    text = _cli(["sweep", "--dim", "3", "--rank", "2", "--samples", "6", "--seed", "5", "--format", "csv"])
    check_sweep_csv(text, 3, 2, 6, 5)
    lines = text.splitlines()
    header = lines[0].split(",")
    col = header.index("bound_winner")
    row = lines[1].split(",")
    geo, rs = float(row[header.index("geometric_bound")]), float(row[header.index("rs_bound")])
    assert abs(geo - rs) > 1e-6
    for wrong in ("tie", "robertson_schrodinger" if geo > rs else "geometric"):
        row[col] = wrong
        bad = "\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n"
        with pytest.raises(OutputMismatch, match="bound_winner"):
            check_sweep_csv(bad, 3, 2, 6, 5)


def test_verify_checker_counts_checks_and_rejects_a_failure():
    text = _cli(["verify", "--dim", "2", "--samples", "1", "--seed", "0"])
    assert check_verify(text) == 25
    with pytest.raises(OutputMismatch, match="failed"):
        check_verify(text.replace("PASS", "FAIL", 1))


def test_traced_run_counts_calls_and_restores_originals():
    original = phasegeo.uncertainty.analyze_pair
    before = callables_snapshot()
    tracer = Tracer()
    with tracer.installed():
        assert phasegeo.cli.analyze_pair is not original
        _cli(["sweep", "--dim", "3", "--rank", "2", "--samples", "4", "--seed", "1", "--format", "csv"])
    stats = self_times(tracer.take_spans())
    assert stats["cli.main"][0] == 1
    assert stats["linalg.hermitian_eig"][0] == 4
    assert stats["bundle.split"][0] == 2 * stats["uncertainty.analyze_pair"][0] == 8
    assert changed_since(before) == []
    assert phasegeo.cli.analyze_pair is original is phasegeo.uncertainty.analyze_pair


def test_run_fails_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), bench / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
