"""The indented-JSON writer equals json.dumps(obj, indent=2), and the one-pass matrix parser keeps every rule and message."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasegeo.io import StateFileError, _indented_json, parse_observables, parse_state

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
# Three non-empty levels on top of a random tree, which holds empty containers of its own.
_DEEP_TREES = _containers(_containers(_containers(_TREES, 1), 1), 1)


class TestIndentedJson:
    @settings(max_examples=100, deadline=None)
    @given(_DEEP_TREES)
    def test_equals_json_dumps_byte_for_byte(self, tree):
        assert _indented_json(tree) == json.dumps(tree, indent=2)

    @pytest.mark.parametrize(
        "obj",
        [{}, [], (), 1.5, "x", None, [{}], {"a": []}, {"a": (1, {"b": ()})}, {"}": {"\n": [", "]}}],
        ids=repr,
    )
    def test_empty_and_scalar_edges(self, obj):
        assert _indented_json(obj) == json.dumps(obj, indent=2)

    def test_container_subclasses_are_walked(self):
        from collections import OrderedDict, namedtuple

        pair = namedtuple("pair", "x y")
        obj = {"a": OrderedDict(b=[1, pair(2.5, [3])])}
        assert _indented_json(obj) == json.dumps(obj, indent=2)


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
