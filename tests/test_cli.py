"""Tests for the command line surface: exit codes, formats, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phasegeo.cli
import phasegeo.io
import phasegeo.linalg
import phasegeo.observables
import phasegeo.uncertainty
from phasegeo.bundle import DensityOperator
from phasegeo.cli import main
from phasegeo.io import REPORT_FIELDS, load_state, parse_observables, parse_state, read_reports_csv, report_to_dict
from phasegeo.observables import Observable
from phasegeo.uncertainty import UncertaintyReport, analyze_pair, analyze_pairs

from test_sweep_batching import _mixed_stack

STATE_JSON = json.dumps(
    {
        "dimension": 2,
        "hbar": 1.0,
        "matrix": [[[0.75, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]],
    }
)

SPIN_OBSERVABLES_JSON = json.dumps(
    {
        "observables": [
            {"name": "Sx", "matrix": [[[0, 0], [0.5, 0]], [[0.5, 0], [0, 0]]]},
            {"name": "Sy", "matrix": [[[0, 0], [0, -0.5]], [[0, 0.5], [0, 0]]]},
            {"name": "Sz", "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]},
        ]
    }
)


def _entries(m):
    """A matrix as the [re, im] entries of a state or observables file."""
    return np.stack((m.real, m.imag), axis=-1).tolist()


def _observables_json(names, mats):
    return json.dumps({"observables": [{"name": name, "matrix": _entries(m)} for name, m in zip(names, mats)]})


def _route_calls(monkeypatch):
    """The observable stack shape of each call the CLI makes of uncertainty._analyze_states."""
    real, shapes = phasegeo.cli._analyze_states, []

    def recorded(mats, *args):
        shapes.append(mats.shape)
        return real(mats, *args)

    monkeypatch.setattr(phasegeo.cli, "_analyze_states", recorded)
    return shapes


def _nan_kernel(mats, psi, eigenvalues, multiplicities, hbar):
    """uncertainty._bracket_kernel with every bracket NaN."""
    return np.full(mats.shape[:-2] + mats.shape[-3:-2], np.nan, dtype=complex)


def _count_calls(monkeypatch, module, name):
    """The argument tuples of each call of ``module.name``, through every phasegeo namespace that holds it."""
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "phasegeo" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def _value(stdout, label):
    for line in stdout.splitlines():
        if line.startswith(label):
            return float(line.split("=")[-1])
    raise AssertionError(f"label {label!r} not found in output")


class TestDemoSpin:
    def test_reference_point(self, capsys):
        assert main(["demo", "spin", "--p1", "0.75", "--hbar", "1"]) == 0
        out = capsys.readouterr().out
        assert _value(out, "poisson bracket") == pytest.approx(0.25, abs=1e-10)
        assert _value(out, "riemann bracket") == pytest.approx(0.0, abs=1e-10)
        assert _value(out, "geometric_bound") == pytest.approx(0.125, abs=1e-10)
        assert _value(out, "rs_bound") == pytest.approx(0.125, abs=1e-10)
        assert _value(out, "product") == pytest.approx(0.25, abs=1e-10)
        assert "X_Sx horizontal" in out

    def test_degenerate_point_is_vertical(self, capsys):
        assert main(["demo", "spin", "--p1", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "X_Sx vertical, X_Sy vertical" in out
        assert _value(out, "poisson bracket") == pytest.approx(0.0, abs=1e-10)
        assert _value(out, "geometric_bound") == pytest.approx(0.0, abs=1e-10)

    def test_near_pure_point(self, capsys):
        assert main(["demo", "spin", "--p1", "0.999"]) == 0
        out = capsys.readouterr().out
        assert _value(out, "geometric_bound") == pytest.approx(
            0.25 * (0.999 - 0.001), abs=1e-10
        )

    def test_out_of_range_p1_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["demo", "spin", "--p1", "1.5"])
        assert err.value.code == 2

    def test_nonpositive_hbar_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["demo", "spin", "--p1", "0.5", "--hbar", "0"])
        assert err.value.code == 2

    @pytest.mark.parametrize("p1", [0.500000001, 0.499999999, 0.50000000011, 0.5000000024])
    def test_merged_levels_read_no_gap(self, p1, capsys):
        """Within deg_tol of 1/2 the spectrum groups both levels: the brackets and geo follow it, RS the matrix."""
        assert main(["demo", "spin", "--p1", repr(p1)]) == 0
        out = capsys.readouterr().out
        assert "multiplicities=(2,)" in out
        assert "X_Sx vertical, X_Sy vertical" in out
        assert _value(out, "poisson bracket") == pytest.approx(0.0, abs=1e-10)
        assert _value(out, "geometric_bound") == pytest.approx(0.0, abs=1e-10)
        assert _value(out, "rs_bound") == pytest.approx(0.25 * abs(p1 - (1.0 - p1)), abs=1e-10)

    def test_hbar_with_an_overflowing_square_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["demo", "spin", "--p1", "0.75", "--hbar", "3e154"])
        assert err.value.code == 2
        out, err_text = capsys.readouterr()
        assert out == ""
        assert [line for line in err_text.splitlines() if "--hbar" in line] == [
            "phasegeo: error: --hbar must be positive with a finite square, got 3e+154"
        ]

    def test_large_hbar_with_a_finite_square_is_checked(self, capsys):
        assert main(["demo", "spin", "--p1", "0.75", "--hbar", "1e154"]) == 0
        assert capsys.readouterr().out.endswith("reference values reproduced within 1e-10\n")


class TestAnalyze:
    @pytest.fixture()
    def files(self, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(STATE_JSON)
        obs = tmp_path / "obs.json"
        obs.write_text(SPIN_OBSERVABLES_JSON)
        return str(state), str(obs)

    def test_spin_triple_produces_three_reports(self, files, capsys):
        state, obs = files
        assert main(["analyze", "--state", state, "--observables", obs]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["reports"]) == 3
        first = doc["reports"][0]
        assert (first["a"], first["b"]) == ("Sx", "Sy")
        assert first["geometric_bound"] == pytest.approx(0.125, abs=1e-10)
        assert first["rs_bound"] == pytest.approx(0.125, abs=1e-10)

    def test_csv_format(self, files, tmp_path, capsys):
        state, obs = files
        out_path = tmp_path / "reports.csv"
        code = main(
            ["analyze", "--state", state, "--observables", obs,
             "--output", str(out_path), "--format", "csv"]
        )
        assert code == 0
        with open(out_path) as fh:
            records = read_reports_csv(fh, ("a", "b"))
        assert len(records) == 3
        assert records[0]["a"] == "Sx"

    @staticmethod
    def _first(tmp_path, count):
        """The state file and a file of the first ``count`` spin observables."""
        state = tmp_path / "state.json"
        state.write_text(STATE_JSON)
        obs = tmp_path / f"first{count}.json"
        obs.write_text(json.dumps({"observables": json.loads(SPIN_OBSERVABLES_JSON)["observables"][:count]}))
        return ["analyze", "--state", str(state), "--observables", str(obs)]

    def test_single_observable_warns_but_succeeds(self, tmp_path, capsys):
        assert main(self._first(tmp_path, 1)) == 0
        captured = capsys.readouterr()
        assert "fewer than two observables" in captured.err
        assert captured.out == json.dumps({"dimension": 2, "hbar": 1.0, "reports": []}, indent=2) + "\n"

    def test_single_observable_csv_is_the_header_alone(self, tmp_path, capsys):
        assert main(self._first(tmp_path, 1) + ["--format", "csv"]) == 0
        assert capsys.readouterr().out == ",".join(("a", "b") + REPORT_FIELDS) + "\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_two_observables_give_the_one_pair_report(self, tmp_path, capsys, fmt):
        rho, hbar = parse_state(json.loads(STATE_JSON))
        (_, sx), (_, sy) = parse_observables(json.loads(SPIN_OBSERVABLES_JSON), 2)[:2]
        report = report_to_dict(analyze_pair(sx, sy, rho, hbar), "Sx", "Sy")
        buf = io.StringIO()
        if fmt == "json":
            buf.write(json.dumps({"dimension": 2, "hbar": 1.0, "reports": [report]}, indent=2) + "\n")
        else:
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerows([list(report), list(report.values())])
        assert main(self._first(tmp_path, 2) + ["--format", fmt]) == 0
        assert capsys.readouterr().out == buf.getvalue()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_reports_go_from_the_columns_to_text(self, files, monkeypatch, capsys, fmt):
        """analyze and sweep build no UncertaintyReport and call no report_to_dict."""
        calls = []
        real_init = UncertaintyReport.__init__
        monkeypatch.setattr(UncertaintyReport, "__init__", lambda *args: calls.append("report") or real_init(*args))
        real = phasegeo.io.report_to_dict
        for name, module in list(sys.modules.items()):
            if name.startswith("phasegeo") and getattr(module, "report_to_dict", None) is real:
                monkeypatch.setattr(module, "report_to_dict", lambda *args: calls.append("dict") or real(*args))
        state, obs = files
        assert main(["analyze", "--state", state, "--observables", obs, "--format", fmt]) == 0
        assert capsys.readouterr().out.count("Sx") == 2
        assert main(["sweep", "--dim", "3", "--rank", "2", "--samples", "5", "--seed", "1", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert len(json.loads(out)["records"] if fmt == "json" else out.splitlines()[1:]) == 5
        assert calls == []

    def test_nan_brackets_exit_3(self, files, monkeypatch, capsys):
        monkeypatch.setattr(phasegeo.uncertainty, "_bracket_kernel", _nan_kernel)
        state, obs = files
        assert main(["analyze", "--state", state, "--observables", obs]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("relation violation (internal fault): geometric bound nan exceeds")

    def test_rank_cut_past_the_sum_rule_exits_2(self, tmp_path, capsys):
        """Each of the 199 eigenvalues the rank cut drops is under 1e-12, but together they hold 1.8e-10 of the
        trace, more than the spectrum's sum rule allows: an input error, where the Python API raises ValueError."""
        dim = 200
        p = np.full(dim, 9e-13)
        p[0] = 1 - 199 * 9e-13
        state, obs = tmp_path / "state.json", tmp_path / "obs.json"
        state.write_text(json.dumps({"dimension": dim, "matrix": _entries(np.diag(p))}))
        mats = [np.diag(np.arange(dim) % k) for k in (2, 3)]
        obs.write_text(_observables_json(["A", "B"], mats))
        assert main(["analyze", "--state", str(state), "--observables", str(obs)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matrix: spectrum eigenvalues must sum to 1, got 0.9999999998209\n"
        rho, hbar = load_state(str(state))
        with pytest.raises(ValueError, match="spectrum eigenvalues must sum to 1"):
            analyze_pairs([Observable(m) for m in mats], rho, hbar)

    def test_malformed_entry_exits_2_naming_index(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(
            json.dumps(
                {
                    "dimension": 2,
                    "matrix": [[[0.75, 0.0], [1]], [[0.0, 0.0], [0.25, 0.0]]],
                }
            )
        )
        obs = tmp_path / "obs.json"
        obs.write_text(SPIN_OBSERVABLES_JSON)
        assert main(["analyze", "--state", str(state), "--observables", str(obs)]) == 2
        assert "matrix[0][1]" in capsys.readouterr().err

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(
            json.dumps({"dimension": 3, "matrix": [[[1 / 3, 0]] * 3] * 3})
        )
        obs = tmp_path / "obs.json"
        obs.write_text(SPIN_OBSERVABLES_JSON)
        assert main(["analyze", "--state", str(state), "--observables", str(obs)]) == 2

    def test_overflowing_observable_exits_2(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(STATE_JSON)
        big = 0.5e160
        obs = tmp_path / "big.json"
        obs.write_text(
            json.dumps(
                {
                    "observables": [
                        {"name": "Sx", "matrix": [[[0, 0], [big, 0]], [[big, 0], [0, 0]]]},
                        {"name": "Sy", "matrix": [[[0, 0], [0, -big]], [[0, big], [0, 0]]]},
                    ]
                }
            )
        )
        assert main(["analyze", "--state", str(state), "--observables", str(obs)]) == 2
        assert "observables[0].matrix" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        obs = tmp_path / "obs.json"
        obs.write_text(SPIN_OBSERVABLES_JSON)
        assert main(["analyze", "--state", str(tmp_path / "nope.json"), "--observables", str(obs)]) == 2


class TestOneRoute:
    """analyze and sweep reach their report columns through uncertainty._analyze_states, each value validated once."""

    def test_analyze_is_one_state_of_the_stacked_route(self, tmp_path, monkeypatch, capsys):
        shapes = _route_calls(monkeypatch)
        eigs = _count_calls(monkeypatch, phasegeo.linalg, "_eig")
        stacks = _count_calls(monkeypatch, phasegeo.observables, "_stack")
        state, obs = tmp_path / "state.json", tmp_path / "obs.json"
        state.write_text(STATE_JSON)
        obs.write_text(SPIN_OBSERVABLES_JSON)
        assert main(["analyze", "--state", str(state), "--observables", str(obs)]) == 0
        assert len(json.loads(capsys.readouterr().out)["reports"]) == 3
        assert shapes == [(1, 3, 2, 2)]
        assert (len(eigs), len(stacks)) == (1, 1)

    def test_sweep_calls_the_route_once_per_chunk_and_skips_the_hermiticity_rule(self, monkeypatch, capsys):
        shapes = _route_calls(monkeypatch)
        monkeypatch.setattr(phasegeo.cli, "_CHUNK_ENTRIES", 4 * 3 * 3)
        hermitian = _count_calls(monkeypatch, phasegeo.linalg, "_hermitian_matrix")
        assert main(["sweep", "--dim", "3", "--rank", "2", "--samples", "10", "--seed", "4"]) == 0
        assert len(json.loads(capsys.readouterr().out)["records"]) == 10
        assert [shape[0] for shape in shapes] == [4, 4, 2]
        assert hermitian == []

    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    def test_analyze_equals_analyze_pairs_bit_for_bit(self, tmp_path, capsys, hbar):
        """At every state of four block structures, rank cuts and a pure state among them."""
        states, observables = _mixed_stack()
        names = ["A", "B", "C"]
        state, obs = tmp_path / "state.json", tmp_path / "obs.json"
        for rho, mats in zip(states, observables):
            state.write_text(json.dumps({"dimension": 3, "hbar": hbar, "matrix": _entries(rho)}))
            obs.write_text(_observables_json(names, mats))
            assert main(["analyze", "--state", str(state), "--observables", str(obs)]) == 0
            got = json.loads(capsys.readouterr().out)["reports"]
            reports = analyze_pairs([Observable(m) for m in mats], DensityOperator(rho), hbar)
            pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
            assert repr(got) == repr([report_to_dict(r, a, b) for r, (a, b) in zip(reports, pairs)])

    def test_analyze_then_sweep_both_print_to_stdout(self, tmp_path, capsys):
        """The commands write to the process's stdout and leave it open for the next invocation."""
        state, obs = tmp_path / "state.json", tmp_path / "obs.json"
        state.write_text(STATE_JSON)
        obs.write_text(SPIN_OBSERVABLES_JSON)
        assert main(["analyze", "--state", str(state), "--observables", str(obs)]) == 0
        assert len(json.loads(capsys.readouterr().out)["reports"]) == 3
        assert main(["sweep", "--dim", "3", "--rank", "2", "--samples", "5", "--seed", "1"]) == 0
        assert len(json.loads(capsys.readouterr().out)["records"]) == 5

    def test_a_fault_leaves_no_output_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(phasegeo.uncertainty, "_bracket_kernel", _nan_kernel)
        state, obs, out = tmp_path / "state.json", tmp_path / "obs.json", tmp_path / "out.json"
        state.write_text(STATE_JSON)
        obs.write_text(SPIN_OBSERVABLES_JSON)
        assert main(["analyze", "--state", str(state), "--observables", str(obs), "--output", str(out)]) == 3
        assert main(["sweep", "--dim", "3", "--rank", "2", "--samples", "5", "--seed", "1", "--output", str(out)]) == 3
        assert not out.exists()

    def test_nan_brackets_in_a_sweep_exit_3(self, monkeypatch, capsys):
        monkeypatch.setattr(phasegeo.uncertainty, "_bracket_kernel", _nan_kernel)
        assert main(["sweep", "--dim", "3", "--rank", "2", "--samples", "5", "--seed", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("relation violation (internal fault): geometric bound nan")


class TestSweep:
    def test_deterministic_output(self, capsys):
        args = ["sweep", "--dim", "3", "--rank", "2", "--samples", "10", "--seed", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_fresh_processes_on_one_blas_thread_write_equal_bytes(self):
        """The README's promise: one numpy/LAPACK build and one BLAS thread count give byte-identical output."""
        env = dict(os.environ, PYTHONPATH=str(Path(phasegeo.cli.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
        argv = ["sweep", "--dim", "128", "--rank", "64", "--samples", "2", "--seed", "3", "--format", "json"]
        runs = [
            subprocess.run([sys.executable, "-m", "phasegeo.cli", *argv], env=env, capture_output=True, check=True)
            for _ in range(2)
        ]
        assert runs[0].stdout and runs[0].stdout == runs[1].stdout

    def test_json_document_shape(self, capsys):
        assert main(["sweep", "--dim", "3", "--rank", "2", "--samples", "4", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 3 and doc["rank"] == 2 and doc["samples"] == 4
        assert len(doc["records"]) == 4
        assert len(doc["spectrum"]) == 2
        assert doc["records"][0]["sample_index"] == 0
        assert "min_slack_geometric" in doc["summary"]
        assert doc["summary"]["min_slack_geometric"] >= -1e-9

    def test_pure_rank_sweep_matches_bounds(self, capsys):
        """Rank-1 orbits make the two bounds coincide on every record."""
        assert main(["sweep", "--dim", "2", "--rank", "1", "--samples", "25", "--seed", "9"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for rec in doc["records"]:
            assert abs(rec["geometric_bound"] - rec["rs_bound"]) < 1e-9

    def test_csv_format_round_trips(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--dim", "3", "--rank", "3", "--samples", "5", "--seed", "3",
             "--output", str(out_path), "--format", "csv"]
        )
        assert code == 0
        with open(out_path) as fh:
            records = read_reports_csv(fh, ("sample_index", "seed", "dimension", "rank"))
        assert [r["sample_index"] for r in records] == list(range(5))
        assert all(r["seed"] == 3 for r in records)

    def test_dimension_one_ties_every_sample(self, capsys):
        """At dimension 1 both bounds are analytically 0, so every sample is a tie."""
        assert main(["sweep", "--dim", "1", "--rank", "1", "--samples", "50", "--seed", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["fraction_ties"] == 1.0

    def test_bad_rank_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--dim", "2", "--rank", "3", "--samples", "1", "--seed", "0"])
        assert err.value.code == 2


class TestVerify:
    def test_battery_passes_at_dim_2(self, capsys):
        assert main(["verify", "--dim", "2", "--samples", "40", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "invariants passed" in out

    def test_tolerance_scale_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PHASEGEO_TOLERANCE_SCALE", "10")
        assert main(["verify", "--dim", "2", "--samples", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "tolerance=1.0e-08" in out  # 1e-9 checks scaled up tenfold

    @pytest.mark.parametrize("scale", ["abc", "0", "-1", "nan", "inf"])
    def test_bad_tolerance_scale_is_input_error(self, scale, capsys, monkeypatch):
        monkeypatch.setenv("PHASEGEO_TOLERANCE_SCALE", scale)
        assert main(["verify", "--dim", "2", "--samples", "1", "--seed", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: PHASEGEO_TOLERANCE_SCALE must be ")
        assert err.count("\n") == 1

    def test_battery_covers_higher_dimensions(self, capsys):
        """Rank mixtures and multiplicity blocks at dim 6 all verify."""
        assert main(["verify", "--dim", "6", "--samples", "8", "--seed", "3"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_dim_one_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--dim", "1", "--samples", "5", "--seed", "1"])
        assert err.value.code == 2
