"""Tests for file formats: parsing diagnostics and lossless round trips."""

import io
import json
from dataclasses import asdict

import numpy as np
import pytest

from phasegeo.bundle import DensityOperator
from phasegeo.io import (
    REPORT_FIELDS,
    StateFileError,
    load_state,
    parse_observables,
    parse_state,
    read_reports_csv,
    report_from_dict,
    report_to_dict,
    state_to_dict,
    write_reports_csv,
    write_reports_json,
)
from phasegeo.observables import spin_half
from phasegeo.sampling import make_rng, sample_density, sample_hermitian, sample_spectrum
from phasegeo.uncertainty import analyze_pair

STATE_DOC = {
    "dimension": 2,
    "hbar": 1.0,
    "matrix": [[[0.75, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]],
}


def _random_report(seed):
    rng = make_rng(seed)
    spectrum, _ = sample_spectrum(2, rng)
    rho = sample_density(spectrum, 3, rng)
    return analyze_pair(sample_hermitian(3, rng), sample_hermitian(3, rng), rho)


class TestParseState:
    def test_valid_document(self):
        rho, hbar = parse_state(STATE_DOC)
        assert hbar == 1.0
        np.testing.assert_allclose(rho.matrix, np.diag([0.75, 0.25]))

    def test_default_hbar(self):
        doc = {k: v for k, v in STATE_DOC.items() if k != "hbar"}
        _, hbar = parse_state(doc)
        assert hbar == 1.0

    def test_malformed_complex_entry_names_index(self):
        doc = json.loads(json.dumps(STATE_DOC))
        doc["matrix"][0][1] = [1]
        with pytest.raises(StateFileError, match=r"matrix\[0\]\[1\]"):
            parse_state(doc)

    def test_wrong_row_count(self):
        doc = json.loads(json.dumps(STATE_DOC))
        doc["matrix"] = doc["matrix"][:1]
        with pytest.raises(StateFileError, match="rows"):
            parse_state(doc)

    def test_bad_dimension(self):
        doc = dict(STATE_DOC, dimension=0)
        with pytest.raises(StateFileError, match="dimension"):
            parse_state(doc)

    def test_bad_hbar(self):
        doc = dict(STATE_DOC, hbar=-1.0)
        with pytest.raises(StateFileError, match="hbar"):
            parse_state(doc)

    def test_invalid_density_matrix(self):
        doc = json.loads(json.dumps(STATE_DOC))
        doc["matrix"][0][0] = [0.9, 0.0]
        with pytest.raises(StateFileError, match="trace"):
            parse_state(doc)

    def test_file_round_trip(self, tmp_path):
        rng = make_rng(60)
        spectrum, _ = sample_spectrum(3, rng)
        rho = sample_density(spectrum, 3, rng)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_dict(rho, hbar=0.5)))
        loaded, hbar = load_state(str(path))
        assert hbar == 0.5
        assert (loaded.matrix == rho.matrix).all()

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(StateFileError, match="invalid JSON"):
            load_state(str(path))


class TestParseObservables:
    def test_named_observables(self):
        sx, sy, _ = spin_half(1.0)
        doc = {
            "observables": [
                {"name": "Sx", "matrix": [[[0, 0], [0.5, 0]], [[0.5, 0], [0, 0]]]},
                {"matrix": [[[0, 0], [0, -0.5]], [[0, 0.5], [0, 0]]]},
            ]
        }
        named = parse_observables(doc, 2)
        assert named[0][0] == "Sx"
        assert named[1][0] == "obs1"
        np.testing.assert_allclose(named[0][1].matrix, sx.matrix)
        np.testing.assert_allclose(named[1][1].matrix, sy.matrix)

    def test_dimension_mismatch_names_location(self):
        doc = {"observables": [{"name": "A", "matrix": [[[1, 0]]]}]}
        with pytest.raises(StateFileError, match=r"observables\[0\]\.matrix"):
            parse_observables(doc, 2)

    def test_non_hermitian_rejected(self):
        doc = {
            "observables": [
                {"name": "A", "matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}
            ]
        }
        with pytest.raises(StateFileError, match="Hermitian"):
            parse_observables(doc, 2)


class TestReportSerialization:
    def test_json_round_trip_is_lossless(self):
        rep = _random_report(61)
        buf = io.StringIO()
        write_reports_json(buf, [report_to_dict(rep, "A", "B")], {"hbar": 1.0})
        doc = json.loads(buf.getvalue())
        back = report_from_dict(doc["reports"][0])
        assert back == rep

    def test_csv_round_trip_is_lossless(self):
        reps = [_random_report(s) for s in (62, 63, 64)]
        buf = io.StringIO()
        write_reports_csv(buf, [report_to_dict(r, "A", "B") for r in reps], ("a", "b"))
        back = read_reports_csv(io.StringIO(buf.getvalue()), ("a", "b"))
        for rec, rep in zip(back, reps):
            assert report_from_dict(rec) == rep

    def test_report_to_dict_matches_dataclass_fields(self):
        rep = _random_report(67)
        data = asdict(rep)
        expected = {"a": "A", "b": "B", **{key: data[key] for key in REPORT_FIELDS}}
        assert repr(report_to_dict(rep, "A", "B")) == repr(expected)
        assert list(report_to_dict(rep)) == list(REPORT_FIELDS)

    def test_csv_header_order_is_documented(self):
        buf = io.StringIO()
        write_reports_csv(buf, [report_to_dict(_random_report(65))])
        header = buf.getvalue().splitlines()[0]
        assert header == ",".join(REPORT_FIELDS)

    def test_awkward_floats_survive(self):
        """Shortest-repr decimals round trip at full double precision."""
        rep = _random_report(66)
        from dataclasses import replace

        awkward = replace(
            rep,
            delta_a=np.nextafter(0.1, 1.0),
            delta_b=1.0 / 3.0,
            product=np.nextafter(0.1, 1.0) * (1.0 / 3.0),
            slack_geometric=2.2250738585072014e-308,
        )
        buf = io.StringIO()
        write_reports_csv(buf, [report_to_dict(awkward)])
        back = report_from_dict(read_reports_csv(io.StringIO(buf.getvalue()))[0])
        assert back == awkward

    def test_state_dict_uses_pair_encoding(self):
        rho = DensityOperator(np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
        doc = state_to_dict(rho)
        assert doc["matrix"][0][1] == [0.0, 0.5]
        assert doc["matrix"][1][0] == [0.0, -0.5]
