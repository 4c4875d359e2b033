"""The column formatter equals json.dumps(obj, indent=2) and csv record by record, write_reports_json is json.dumps
alone, and the one-pass matrix parser keeps every rule and message."""

import csv
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasegeo import io as pio
from phasegeo.io import (
    REPORT_FIELDS,
    SWEEP_FIELDS,
    StateFileError,
    _write_pair_columns,
    parse_observables,
    parse_state,
    write_reports_csv,
    write_reports_json,
)

# Text that needs escaping, or that looks like the writer's own separators.
_AWKWARD = st.sampled_from(["é", "Ŝ", "日本", "\U0001f600", '"', "\\", "\n", "\t", ", ", '"},\n', " ", ""])
_TEXTS = st.lists(st.one_of(_AWKWARD, st.text(max_size=3)), max_size=4).map("".join)
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e16]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_INTS = st.one_of(st.integers(), st.sampled_from([2**53 + 1, -(2**63) - 1, 2**64, 10**400]))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXTS)
_KEYS = st.one_of(_TEXTS, st.integers(), st.booleans(), st.none(), _FLOATS)


def _containers(children, min_size=0):
    return st.one_of(
        st.lists(children, min_size=min_size, max_size=4),
        st.lists(children, min_size=min_size, max_size=3).map(tuple),
        st.dictionaries(_KEYS, children, min_size=min_size, max_size=4),
    )


_TREES = st.recursive(_SCALARS, _containers, max_leaves=30)


# Record keys and names that need escaping, or that look like the formatter's own template.
_TEMPLATE_LIKE = st.sampled_from(["%s", "%", "\x00", "\x1f", "\x7f", "\u2028"])
_NAMES = st.lists(st.one_of(_AWKWARD, _TEMPLATE_LIKE, st.text(max_size=3)), max_size=3).map("".join)
_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
# One kind of scalar per column, as real records hold; the last strategy mixes kinds within a column.
_COLUMN_KINDS = [
    st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats().map(np.float64),
    _INTS,
    st.booleans(),
    _NAMES,
    _SCALARS,
]


@st.composite
def _columns(draw):
    keys = draw(st.lists(_NAMES, min_size=1, max_size=5, unique=True))
    size = draw(st.integers(0, 6))
    return {key: draw(st.lists(draw(st.sampled_from(_COLUMN_KINDS)), min_size=size, max_size=size)) for key in keys}


def _records_calls(monkeypatch):
    calls = []
    real = pio._records_json

    def spy(keys, columns, level):
        calls.append(level)
        return real(keys, columns, level)

    monkeypatch.setattr(pio, "_records_json", spy)
    return calls


class TestRecordFormatter:
    """Records written from their columns equal json.dumps; write_reports_json never takes the record template."""

    @settings(max_examples=200, deadline=None)
    @given(_columns(), st.integers(0, 3))
    def test_equals_json_dumps_at_every_depth(self, columns, depth):
        records = [dict(zip(columns, row)) for row in zip(*columns.values())]
        want = json.dumps(records, indent=2).replace("\n", "\n" + "  " * depth)
        assert pio._records_json(tuple(columns), [*map(pio._json_column, columns.values())], depth) == want

    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_edge_values_take_the_column_formatter(self, monkeypatch, count):
        calls = _records_calls(monkeypatch)
        columns = {
            'na"me\\\n\x01é日%s': ["A", 'say "hi"', "\x00\u2028", "日本"],
            "float": _EDGE_FLOATS + [0.1, 1e16],
            "finite": [0.0, -0.0, 5e-324, 1.7976931348623157e308, 2.5e-320],
            "np.float64": [np.float64(v) for v in _EDGE_FLOATS],
            "mixed floats": [np.float64(0.5), 0.25, 1.0],
            "int": [0, -1, 2**53 + 1, 10**30],
            "bool": [True, False],
            "none": [None],
        }
        columns = {key: [values[k % len(values)] for k in range(count)] for key, values in columns.items()}
        buf = io.StringIO()
        _write_pair_columns(buf, "json", columns, {"hbar": 0.5}, "reports")
        records = [dict(zip(columns, row)) for row in zip(*columns.values())]
        assert buf.getvalue() == json.dumps({"hbar": 0.5, "reports": records}, indent=2) + "\n"
        assert calls == [1]

    def test_zero_records_and_unshared_keys_take_json_dumps(self, monkeypatch):
        """write_reports_json is json.dumps of its document, records that share one key tuple included."""
        calls = _records_calls(monkeypatch)
        shared = [{"a": 0.5, "b": "x", "c": 1}] * 3
        objects = ([], {"reports": []}, [{"a": 1}, {"b": 1}], [{"a": 1}, {"a": [1]}], [{1: 0.5}, {1: 0.5}], [{}, {}])
        for obj in objects + (shared, {"hbar": 1.0, "reports": shared, "summary": {"x": [0.25]}}):
            buf = io.StringIO()
            write_reports_json(buf, obj)
            assert buf.getvalue() == json.dumps({"reports": obj}, indent=2) + "\n"
        buf = io.StringIO()
        write_reports_json(buf, shared, {"hbar": 1.0})
        assert buf.getvalue() == json.dumps({"hbar": 1.0, "reports": shared}, indent=2) + "\n"
        assert calls == []


def _pair_columns(n):
    """Hand-made pair indices and columns in the layout of uncertainty._report_columns: pairs i < j, row-major."""
    a = [i for i in range(n) for _ in range(i + 1, n)]
    b = [j for i in range(n) for j in range(i + 1, n)]
    rng = np.random.default_rng(len(a))
    floats = [rng.standard_normal(len(a)).tolist() for _ in range(7)]
    for column, value in zip(floats, _EDGE_FLOATS):
        column[: len(a) // 2] = [value] * (len(a) // 2)
    winners = [("geometric", "tie", "robertson_schrodinger")[k % 3] for k in range(len(a))]
    return (a, b), (*floats, winners)


def _csv_text(fields, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


class TestPairColumns:
    """The writer of analyze and sweep equals json.dumps and csv.writer on the records its columns stand for."""

    NAMES = ["Ŝ_x", 'say "hi"', "back\\slash", "a, b", "two\nlines", "%s%%"]
    SPREADS = [0.5, -0.0, 5e-324, 1e300, 0.1, math.inf]
    KEYS = ("a", "b") + REPORT_FIELDS

    def _analyze(self, count):
        """analyze's columns (names and spreads indexed by the pairs) and the rows they stand for."""
        names, spreads = self.NAMES[:count], self.SPREADS[:count]
        (a, b), columns = _pair_columns(count)
        indexed = {"a": (names, a), "b": (names, b), "delta_a": (spreads, a), "delta_b": (spreads, b)}
        rows = [[names[i], names[j], spreads[i], spreads[j], *cells] for i, j, *cells in zip(a, b, *columns)]
        return {**indexed, **dict(zip(REPORT_FIELDS[2:], columns))}, rows

    @staticmethod
    def _sweep(samples):
        """sweep's columns (int leading columns, then one plain list per report field) and the rows they stand for."""
        _, columns = _pair_columns(samples + 1)
        spreads = TestPairColumns.SPREADS * samples
        columns = [spreads[:samples], spreads[1 : samples + 1], *(column[:samples] for column in columns)]
        leading = (range(samples), [7] * samples, [4] * samples, [3] * samples)
        return dict(zip(SWEEP_FIELDS + REPORT_FIELDS, (*leading, *columns))), [*zip(*leading, *columns)]

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 6])
    def test_json(self, count):
        columns, rows = self._analyze(count)
        header = {"dimension": 3, "hbar": 0.75}
        buf = io.StringIO()
        _write_pair_columns(buf, "json", columns, header, "reports")
        reports = [dict(zip(self.KEYS, row)) for row in rows]
        assert buf.getvalue() == json.dumps({**header, "reports": reports}, indent=2) + "\n"

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 6])
    def test_csv(self, count):
        columns, rows = self._analyze(count)
        buf = io.StringIO()
        _write_pair_columns(buf, "csv", columns, {"hbar": 1.0}, "reports")
        want = _csv_text(self.KEYS, rows)
        assert buf.getvalue() == want
        from_dicts = io.StringIO()
        write_reports_csv(from_dicts, [dict(zip(self.KEYS, row)) for row in rows], ("a", "b"))
        assert from_dicts.getvalue() == want

    @pytest.mark.parametrize("samples", [1, 2, 5])
    def test_sweep_json(self, samples):
        columns, rows = self._sweep(samples)
        header = {"dim": 4, "rank": 3, "samples": samples, "spectrum": [0.5, 0.3, 0.2], "degenerate_resamples": 0}
        summary = {"min_slack_geometric": -0.0, "fraction_ties": 0.25}
        buf = io.StringIO()
        _write_pair_columns(buf, "json", columns, header, "records", {"summary": summary})
        records = [dict(zip(SWEEP_FIELDS + REPORT_FIELDS, row)) for row in rows]
        assert buf.getvalue() == json.dumps({**header, "records": records, "summary": summary}, indent=2) + "\n"

    @pytest.mark.parametrize("samples", [1, 2, 5])
    def test_sweep_csv(self, samples):
        columns, rows = self._sweep(samples)
        buf = io.StringIO()
        _write_pair_columns(buf, "csv", columns, {"dim": 4}, "records", {"summary": {}})
        want = _csv_text(SWEEP_FIELDS + REPORT_FIELDS, rows)
        assert buf.getvalue() == want
        from_dicts = io.StringIO()
        write_reports_csv(from_dicts, [dict(zip(SWEEP_FIELDS + REPORT_FIELDS, row)) for row in rows], SWEEP_FIELDS)
        assert from_dicts.getvalue() == want


class TestFraming:
    """The text around the records is json.dumps's, whatever header and trailer frame them."""

    @staticmethod
    def _framed(header, trailer, count):
        values = [0.5, -1.0, 3][:count]
        buf = io.StringIO()
        _write_pair_columns(buf, "json", {"a": values}, header, "reports", trailer)
        want = json.dumps({**header, "reports": [{"a": v} for v in values], **(trailer or {})}, indent=2) + "\n"
        return buf.getvalue(), want

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(_KEYS, _TREES, max_size=6).filter(lambda d: "reports" not in d), st.data())
    def test_equals_json_dumps_byte_for_byte(self, fields, data):
        """One dict split in two, so that header and trailer never share a key (True == 1 == 1.0 included)."""
        split = data.draw(st.integers(0, len(fields)))
        header, trailer = dict([*fields.items()][:split]), dict([*fields.items()][split:])
        got, want = self._framed(header, trailer or data.draw(st.sampled_from([None, {}])), data.draw(st.integers(0, 3)))
        assert got == want

    @pytest.mark.parametrize(
        "header, trailer",
        [
            ({}, None),
            ({"x": None}, None),
            ({"n": "null"}, {"s": "null", "t": None}),
            ({"a": []}, {"b": {}, "c": ()}),
            ({"}": {"\n": [", "]}}, {"]": [[None]]}),
            ({1: 1.5, None: "x", math.inf: -0.0}, {False: [{}], "nan": math.nan}),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("count", [0, 2])
    def test_empty_and_null_edges(self, header, trailer, count):
        got, want = self._framed(header, trailer, count)
        assert got == want


STATE = {"dimension": 2, "hbar": 1.0, "matrix": [[[0.75, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]]}
SX = [[[0, 0], [0.5, 0]], [[0.5, 0], [0, 0]]]


def _with_entry(matrix, entry, i=0, j=1):
    out = [list(row) for row in matrix]
    out[i][j] = entry
    return out


# (entry at [0][1] or a replacement row 1, the message the per-entry rules give for it)
BAD_ENTRIES = [
    (True, "[0][1]: complex entry must be [re, im], got True"),
    ([True, 0.0], "[0][1]: complex entry must be [re, im], got [True, 0.0]"),
    ("0.5", "[0][1]: complex entry must be [re, im], got '0.5'"),
    ([0.0, "1"], "[0][1]: complex entry must be [re, im], got [0.0, '1']"),
    ([0.0, 0.0, 0.0], "[0][1]: complex entry must be [re, im], got [0.0, 0.0, 0.0]"),
    (None, "[0][1]: complex entry must be [re, im], got None"),
    ([None, 0.0], "[0][1]: complex entry must be [re, im], got [None, 0.0]"),
    ("short row", "[1]: expected 2 entries"),
]


def _bad(matrix, entry):
    if entry == "short row":
        return [matrix[0], matrix[1][:1]]
    return _with_entry(matrix, entry)


class TestParseMessagesArePinned:
    @pytest.mark.parametrize("entry, message", BAD_ENTRIES, ids=[m for _, m in BAD_ENTRIES])
    def test_state_entry(self, entry, message):
        doc = dict(STATE, matrix=_bad(STATE["matrix"], entry))
        with pytest.raises(StateFileError, match="^" + re.escape("matrix" + message) + "$"):
            parse_state(doc)

    @pytest.mark.parametrize("entry, message", BAD_ENTRIES, ids=[m for _, m in BAD_ENTRIES])
    def test_observable_entry(self, entry, message):
        doc = {"observables": [{"name": "Sx", "matrix": SX}, {"name": "B", "matrix": _bad(SX, entry)}]}
        with pytest.raises(StateFileError, match="^" + re.escape("observables[1].matrix" + message) + "$"):
            parse_observables(doc, 2)

    def test_first_bad_entry_is_named(self):
        matrix = _with_entry(_with_entry(STATE["matrix"], [1], 1, 0), "x", 0, 1)
        with pytest.raises(StateFileError, match=r"^matrix\[0\]\[1\]: "):
            parse_state(dict(STATE, matrix=matrix))

    @pytest.mark.parametrize(
        "convert",
        [tuple, lambda entry: [np.float64(v) for v in entry], lambda entry: (np.float64(entry[0]), int(entry[1]))],
        ids=["tuples", "np.float64", "mixed"],
    )
    def test_library_entries_are_accepted(self, convert):
        rho, _ = parse_state(STATE)
        doc = dict(STATE, matrix=[[convert(entry) for entry in row] for row in STATE["matrix"]])
        other, _ = parse_state(doc)
        assert other.matrix.tobytes() == rho.matrix.tobytes()
        (_, obs), = parse_observables({"observables": [{"matrix": [[convert(e) for e in row] for row in SX]}]}, 2)
        np.testing.assert_array_equal(obs.matrix, [[0, 0.5], [0.5, 0]])

    def test_fast_and_per_entry_paths_give_the_same_bytes(self):
        """Exact ints and floats take the one-pass conversion; np.float64 values take the loop."""
        rng = np.random.default_rng(4)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = g + g.conj().T
        pairs = [[[float(v.real), float(v.imag)] for v in row] for row in a]
        pairs[0][0][1] = 0
        pairs[1][1] = [2**53 + 1, 0]
        (_, fast), = parse_observables({"observables": [{"matrix": pairs}]}, 3)
        slow_pairs = [[[np.float64(v) for v in entry] for entry in row] for row in pairs]
        (_, slow), = parse_observables({"observables": [{"matrix": slow_pairs}]}, 3)
        assert fast.matrix.tobytes() == slow.matrix.tobytes()
