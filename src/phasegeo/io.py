"""File formats for states, observables, and uncertainty reports.

Complex numbers are serialized as two-element [re, im] sequences, which is
unambiguous and language-neutral.  The observables of a document are
validated as one stack, types then Hermiticity; only a fault runs the
per-observable loop, which names it.  JSON is the canonical format; floats
pass through Python's shortest round-trip repr, so serialize-then-parse is
lossless at full double precision.  Every JSON document is json.dumps(obj,
indent=2) byte for byte.  analyze and sweep write their reports and
records straight from columns: in JSON each key is encoded once into a
%-template that each record fills, a value shared by many records (a name
or spread of analyze) is formatted once, and json.dumps writes the rest;
in CSV one writerows call takes the rows, in the order of REPORT_FIELDS.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from contextlib import suppress
from itertools import chain
from typing import Any

import numpy as np

from .bundle import DensityOperator
from .linalg import _hermitian_matrix, _readonly, _unchecked
from .observables import Observable
from .uncertainty import UncertaintyReport

__all__ = [
    "REPORT_FIELDS",
    "SWEEP_FIELDS",
    "StateFileError",
    "load_observables",
    "load_state",
    "parse_observables",
    "parse_state",
    "read_reports_csv",
    "report_from_dict",
    "report_to_dict",
    "state_to_dict",
    "write_reports_csv",
    "write_reports_json",
]

# Flattened report column order used by CSV output and sweep records: the report's own field order.
REPORT_FIELDS = tuple(field.name for field in dataclasses.fields(UncertaintyReport))

# Integer columns that prefix each sweep record, before REPORT_FIELDS.
SWEEP_FIELDS = ("sample_index", "seed", "dimension", "rank")


class StateFileError(ValueError):
    """A state or observables file failed to parse or validate."""


def _parse_complex(entry: Any, where: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
    ):
        raise StateFileError(f"{where}: complex entry must be [re, im], got {entry!r}")
    try:
        return complex(float(entry[0]), float(entry[1]))
    except OverflowError:
        raise StateFileError(f"{where}: complex entry is out of the float range") from None


def _stacked_matrices(cells: list, dim: int) -> np.ndarray:
    """Matrices of dim rows of dim [re, im] entries as one (len(cells), dim, dim) complex128 array, from one check of
    the exact types at each level.  A miss raises ValueError and an overflow OverflowError: the loop names the entry."""
    for types, n in (({list}, dim), ({list}, dim), ({list, tuple}, 2)):
        cells = [*chain.from_iterable(cells)] if {*map(type, cells)} <= types and {*map(len, cells)} <= {n} else [None]
    if {*map(type, cells)} <= {int, float}:
        return np.array(cells, dtype=np.float64).view(np.complex128).reshape(-1, dim, dim)
    raise ValueError("a matrix, row, entry or value of another type or length")


def _parse_matrix(obj: Any, dim: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise StateFileError(f"{where}: expected {dim} rows, got {obj!r}")
    with suppress(ValueError, OverflowError):
        return _stacked_matrices([obj], dim)[0]
    out = np.zeros((dim, dim), dtype=np.complex128)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise StateFileError(f"{where}[{i}]: expected {dim} entries")
        for j, entry in enumerate(row):
            out[i, j] = _parse_complex(entry, f"{where}[{i}][{j}]")
    return out


def parse_state(obj: Any) -> tuple[DensityOperator, float]:
    """Build a density operator and hbar from a decoded state document."""
    if not isinstance(obj, dict):
        raise StateFileError(f"state document must be an object, got {type(obj).__name__}")
    dim = obj.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise StateFileError(f"dimension: must be a positive integer, got {dim!r}")
    hbar = obj.get("hbar", 1.0)
    if not isinstance(hbar, (int, float)) or isinstance(hbar, bool) or not 0 < hbar <= float(np.finfo(float).max):
        raise StateFileError(f"hbar: must be a positive finite number, got {hbar!r}")
    matrix = _parse_matrix(obj.get("matrix"), dim, "matrix")
    try:
        rho = DensityOperator(matrix)
    except ValueError as exc:
        raise StateFileError(f"matrix: {exc}") from exc
    return rho, float(hbar)


def _load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, and an integer literal past int's digit limit
            raise StateFileError(f"{path}: invalid JSON ({exc})") from exc


def load_state(path: str) -> tuple[DensityOperator, float]:
    return parse_state(_load_json(path))


def parse_observables(obj: Any, dim: int) -> list[tuple[str, Observable]]:
    """Build named observables from a decoded document in one stacked check; on any fault the loop below names it."""
    if not isinstance(obj, dict) or not isinstance(obj.get("observables"), list):
        raise StateFileError("observables document must contain an 'observables' list")
    items = obj["observables"]
    if {*map(type, items)} <= {dict}:
        names = [item.get("name", f"obs{idx}") for idx, item in enumerate(items)]
        with suppress(ValueError, OverflowError):
            matrices = [item.get("matrix") for item in items] if {*map(type, names)} <= {str} else [None]
            stack = _readonly(_hermitian_matrix(_stacked_matrices(matrices, dim), "observable", stacked=True))
            return [(name, _unchecked(Observable, matrix)) for name, matrix in zip(names, stack)]  # rules passed
    out: list[tuple[str, Observable]] = []
    for idx, item in enumerate(items):
        where = f"observables[{idx}]"
        if not isinstance(item, dict):
            raise StateFileError(f"{where}: must be an object")
        name = item.get("name", f"obs{idx}")
        if not isinstance(name, str):
            raise StateFileError(f"{where}.name: must be a string, got {name!r}")
        matrix = _parse_matrix(item.get("matrix"), dim, f"{where}.matrix")
        try:
            obs = Observable(matrix)
        except ValueError as exc:
            raise StateFileError(f"{where}.matrix: {exc}") from exc
        out.append((name, obs))
    return out


def load_observables(path: str, dim: int) -> list[tuple[str, Observable]]:
    return parse_observables(_load_json(path), dim)


def _matrix_to_pairs(matrix: np.ndarray) -> list[list[list[float]]]:
    return [[[float(v.real), float(v.imag)] for v in row] for row in matrix]


def state_to_dict(rho: DensityOperator, hbar: float = 1.0) -> dict:
    return {
        "dimension": rho.dim,
        "hbar": float(hbar),
        "matrix": _matrix_to_pairs(rho.matrix),
    }


def report_to_dict(report: UncertaintyReport, a: str | None = None, b: str | None = None) -> dict:
    out: dict[str, Any] = {}
    if a is not None:
        out["a"] = a
    if b is not None:
        out["b"] = b
    for key in REPORT_FIELDS:
        out[key] = getattr(report, key)
    return out


def report_from_dict(obj: dict) -> UncertaintyReport:
    return UncertaintyReport(**{key: obj[key] for key in REPORT_FIELDS})


def _json_column(values) -> tuple[str, list]:
    """A column of scalars as a %-conversion and its cells: exact ints, and exact floats that are all finite, as
    themselves under %r (repr is float.__repr__ on an exact float); a str column as json escapes it, any other (a NaN
    or an infinity, numpy floats, bools, mixed kinds) as json.dumps of each value, under %s."""
    kinds = {*map(type, values)}
    if kinds <= {int} or kinds == {float} and abs(sum(values)) < np.inf:  # a NaN or an infinity makes the sum one
        return "%r", values
    return "%s", [*map(json.encoder.encode_basestring_ascii if kinds == {str} else json.dumps, values)]


def _records_json(keys: tuple[str, ...], columns: list[tuple[str, list]], level: int) -> str:
    """json.dumps(records, indent=2) at a nesting depth, from one _json_column per str key: one fill of one
    %-template per record, which holds each key encoded as json does, then its column's conversion."""
    pad = "\n" + "  " * (level + 1)
    conversions, cells = zip(*columns)
    encoded = map(json.encoder.encode_basestring_ascii, keys)
    fields = [key.replace("%", "%%") + ": " + conversion for key, conversion in zip(encoded, conversions)]
    template = "{" + pad + "  " + ("," + pad + "  ").join(fields) + pad + "}"
    records = [*map(template.__mod__, zip(*cells))]
    return "[" + pad + ("," + pad).join(records) + pad[:-2] + "]" if records else "[]"


def write_reports_json(fh, reports: list[dict], header: dict | None = None) -> None:
    fh.write(json.dumps({**(header or {}), "reports": reports}, indent=2) + "\n")


def write_reports_csv(fh, reports: list[dict], extra_fields: tuple[str, ...] = ()) -> None:
    fields = tuple(extra_fields) + REPORT_FIELDS
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([rep[f] for f in fields] for rep in reports)


def _write_pair_columns(fh, fmt: str, columns: dict, header: dict, key: str, trailer: dict | None = None) -> None:
    """Records in "csv", or in "json" as the list under ``key`` between ``header`` and ``trailer``, straight from
    one column per record key, as analyze and sweep read them from uncertainty._report_columns; no record is built.
    A column is its cells, or (values, index) for the cells values[i], i in index: each value is formatted once."""
    encode = _json_column if fmt == "json" else lambda values: ("", values)
    cells = []
    for column in columns.values():
        values, index = column if isinstance(column, tuple) else (column, None)
        kind, values = encode(values)
        if kind == "%r" and index is not None:  # a shared column's text is formatted once, not once per record
            kind, values = "%s", [*map(repr, values)]
        cells.append((kind, values if index is None else [*map(values.__getitem__, index)]))
    if fmt == "json":  # the records go in place of a null placeholder; the text before it does not depend on the rest
        before = json.dumps({**header, key: None}, indent=2).rpartition("null")[0]
        after = json.dumps({**header, key: None, **(trailer or {})}, indent=2)[len(before) + 4 :]
        fh.write(before + _records_json(tuple(columns), cells, 1) + after + "\n")
    else:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(zip(*(values for _, values in cells)))


def read_reports_csv(fh, extra_fields: tuple[str, ...] = ()) -> list[dict]:
    fields = tuple(extra_fields) + REPORT_FIELDS
    reader = csv.reader(fh)
    header = next(reader)
    if tuple(header) != fields:
        raise StateFileError(f"unexpected CSV header {header!r}")
    out = []
    for row in reader:
        rec: dict[str, Any] = {}
        for key, cell in zip(fields, row):
            if key in ("bound_winner", "a", "b"):
                rec[key] = cell
            elif key in SWEEP_FIELDS:
                rec[key] = int(cell)
            else:
                rec[key] = float(cell)
        out.append(rec)
    return out
