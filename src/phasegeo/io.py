"""File formats for states, observables, and uncertainty reports.

Complex numbers are serialized as two-element [re, im] sequences, which is
unambiguous and language-neutral.  JSON is the canonical format; floats
pass through Python's shortest round-trip repr, so serialize-then-parse is
lossless at full double precision.  The JSON writer is json.dumps(obj,
indent=2) byte for byte.  The reports of analyze and the records of sweep
are written straight from their columns: in JSON each key is encoded once
into a %-template that each record fills, in CSV one writerows call takes
the rows.  CSV rows flatten the report fields in the fixed order of
REPORT_FIELDS.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
from contextlib import suppress
from itertools import chain
from typing import Any

import numpy as np

from .bundle import DensityOperator
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


def _parse_matrix(obj: Any, dim: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise StateFileError(f"{where}: expected {dim} rows, got {obj!r}")
    # One check of the exact row, entry and value types; a miss or an overflow takes the loop, which names the entry.
    entries = [*chain.from_iterable(obj)] if {*map(type, obj)} == {list} and {*map(len, obj)} == {dim} else [None]
    values = [*chain.from_iterable(entries)] if {*map(type, entries)} <= {list, tuple} else [None]
    if {*map(type, values)} <= {int, float} and {*map(len, entries)} == {2}:
        with suppress(OverflowError):
            return np.array(obj, dtype=np.float64).view(np.complex128).reshape(dim, dim)
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
    """Build named observables from a decoded observables document."""
    if not isinstance(obj, dict) or not isinstance(obj.get("observables"), list):
        raise StateFileError("observables document must contain an 'observables' list")
    out: list[tuple[str, Observable]] = []
    for idx, item in enumerate(obj["observables"]):
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


# The C encoder, with the indented layout's item separator at one nesting depth.
_flat_encoder = functools.lru_cache(lambda pad: json.JSONEncoder(separators=("," + pad, ": ")))


def _json_column(values) -> tuple[str, list]:
    """A column of scalars as a %-conversion and its cells: exact ints, and exact floats that are all finite, as
    themselves under %r (repr is float.__repr__ on an exact float), any other column as its JSON text under %s."""
    kinds = {*map(type, values)}
    if kinds <= {int} or kinds == {float} and abs(sum(values)) < np.inf:  # a NaN or an infinity makes the sum one
        return "%r", values
    return "%s", [*map(json.encoder.encode_basestring_ascii if kinds == {str} else _flat_encoder("").encode, values)]


@functools.lru_cache
def _record_template(keys: tuple[str, ...], conversions: tuple[str, ...], pad: str) -> str:
    """The %-template of one record: each str key encoded as json does, then its column's conversion."""
    encoded = map(json.encoder.encode_basestring_ascii, keys)
    fields = [key.replace("%", "%%") + ": " + conversion for key, conversion in zip(encoded, conversions)]
    return "{" + pad + "  " + ("," + pad + "  ").join(fields) + pad + "}"


def _records_json(keys: tuple[str, ...], columns: list[tuple[str, list]], level: int) -> str:
    """json.dumps(records, indent=2) at a nesting depth, from one _json_column per str key: one fill of one
    %-template per record."""
    pad = "\n" + "  " * (level + 1)
    conversions, cells = zip(*columns)
    records = [*map(_record_template(keys, conversions, pad).__mod__, zip(*cells))]
    return "[" + pad + ("," + pad).join(records) + pad[:-2] + "]" if records else "[]"


def _indented_json(obj: Any, level: int = 0) -> str:
    """json.dumps(obj, indent=2): Python walks the nested containers, one C-encoder call writes each flat one."""
    pad = "\n" + "  " * (level + 1)
    items = (obj.values() if isinstance(obj, dict) else obj) if isinstance(obj, (dict, list, tuple)) else ()
    if not any(issubclass(kind, (dict, list, tuple)) for kind in {*map(type, items)}):
        text = _flat_encoder(pad).encode(obj)
        return text[0] + pad + text[1:-1] + pad[:-2] + text[-1] if items else text
    if isinstance(obj, dict):  # encoding {key: None} converts and escapes the key exactly as json does
        items = [_flat_encoder(pad).encode({key: None})[1:-5] + _indented_json(v, level + 1) for key, v in obj.items()]
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    return "[" + pad + ("," + pad).join([_indented_json(v, level + 1) for v in obj]) + pad[:-2] + "]"


def write_reports_json(fh, reports: list[dict], header: dict | None = None) -> None:
    fh.write(_indented_json({**(header or {}), "reports": reports}) + "\n")


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
        cells.append((kind, values if index is None else [*map(values.__getitem__, index)]))
    if fmt == "json":  # the records go in place of a null placeholder; the text before it does not depend on the rest
        before = _indented_json({**header, key: None}).rpartition("null")[0]
        after = _indented_json({**header, key: None, **(trailer or {})})[len(before) + 4 :]
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
