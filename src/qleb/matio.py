"""JSON and CSV serialization for matrices, decompositions, and reports.

Matrices travel as {"dim": d, "entries": [[re, im], ...]} with entries
row-major, length d^2. Floats are written with 17 significant digits so a
load/dump round trip is lossless and identical configs produce
byte-identical files.

The writer prints a table, a list or tuple of equal-length exact lists and
tuples of finite exact ``float``s such as a matrix's entries, in one
%-format call. It checks the exact types ``float``, ``list`` and ``tuple``
before anything else; numpy scalars, ``int``, ``bool``, ``None``, strings,
dicts and subclasses take the general ``isinstance`` chain and print as the
same bytes, and a non-finite float there raises ``ValueError``.

The reader checks the entries' types in C-level passes and converts them in
one ``np.array`` call; a per-entry loop runs only to name the first entry
that is not an [re, im] pair of JSON numbers. The (re, im) columns are
viewed as complex, never summed as ``re + 1j * im``, which would turn an
imaginary -0.0 into +0.0 and so change the bytes of a re-dump.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from itertools import chain

import numpy as np

from . import __version__
from .errors import InvalidMatrixError


def matrix_to_json_dict(matrix) -> dict:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidMatrixError(f"expected a square matrix, got shape {m.shape}")
    entries = np.stack((m.real, m.imag), axis=-1).reshape(-1, 2).tolist()
    return {"dim": int(m.shape[0]), "entries": entries}


_SEQUENCES = {list, tuple}
_JSON_NUMBERS = {float, int}


def _dimension(obj, key: str, kind: str) -> int:
    """``obj[key]`` as a positive integer; anything else, a fraction too, is InvalidMatrixError.

    The one reader of the dimensions in a matrix object and in a table model.
    """
    try:
        value = obj[key]
        dim = int(value)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        dim, reason = None, str(exc)
    # raised outside the handler, so Python's error is not chained to it
    if dim is None:
        raise InvalidMatrixError(f"malformed {kind} object: {reason}")
    if isinstance(value, bool) or dim != value:
        raise InvalidMatrixError(f"{key} must be an integer, got {value!r}")
    if dim <= 0:
        raise InvalidMatrixError(f"{key} must be positive, got {dim}")
    return dim


def _is_real(x) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def matrix_from_json_dict(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise InvalidMatrixError(f"expected a matrix object, got {type(obj).__name__}")
    dim = _dimension(obj, "dim", "matrix")
    entries = obj.get("entries")
    if not isinstance(entries, (list, tuple)):
        raise InvalidMatrixError(f"entries must be a list, got {type(entries).__name__}")
    if len(entries) != dim * dim:
        raise InvalidMatrixError(
            f"expected {dim * dim} entries for dim {dim}, got {len(entries)}"
        )
    # C-level passes over the types; the loop runs only to name the first bad entry
    if not (set(map(type, entries)) <= _SEQUENCES and set(map(len, entries)) == {2}
            and set(map(type, chain.from_iterable(entries))) <= _JSON_NUMBERS):
        for k, pair in enumerate(entries):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(map(_is_real, pair)):
                raise InvalidMatrixError(f"entry {k} is not an [re, im] pair: {pair!r}")
    try:
        pairs = np.array(entries, dtype=float)
    except OverflowError:
        # an int past the float range, which load_matrix would have read as inf
        pairs = None
    if pairs is None or not np.isfinite(pairs).all():
        raise InvalidMatrixError("matrix entries must be finite")
    # a view, not re + 1j * im: the sum would turn an imaginary -0.0 into +0.0
    return pairs.view(complex).reshape(dim, dim)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        # integers parse as floats, so a "-0" entry keeps its sign
        return matrix_from_json_dict(json.load(fh, parse_int=float))


def dump_matrix(matrix, path) -> None:
    write_text_atomic(path, dumps_json(matrix_to_json_dict(matrix)) + "\n")


def decomposition_to_json_dict(dec) -> dict:
    return {
        "sigma_ac": matrix_to_json_dict(dec.sigma_ac.matrix),
        "sigma_sing": matrix_to_json_dict(dec.sigma_sing.matrix),
        "witness_r": matrix_to_json_dict(dec.witness_r.matrix),
        "route": dec.route,
    }


def _float_rows(rows) -> str | None:
    """``rows`` in one %-format call if it is a table of finite floats, else None.

    A table is a non-empty list or tuple of exact lists and tuples of one
    non-zero length, holding only exact, finite ``float``s. ``"%.17g" % x``
    prints the bytes of ``format(x, ".17g")``.
    """
    if not rows or not set(map(type, rows)) <= _SEQUENCES:
        return None
    width = len(rows[0])
    if set(map(len, rows)) != {width}:
        return None
    flat = tuple(chain.from_iterable(rows))
    if set(map(type, flat)) != {float} or not all(map(math.isfinite, flat)):
        return None
    row = "[" + ", ".join(("%.17g",) * width) + "]"
    return ("[" + ", ".join((row,) * len(rows)) + "]") % flat


def _fmt_json(obj, parts: list) -> None:
    # hand-rolled so floats always print with %.17g, independent of json's repr
    kind = type(obj)
    if kind is float:
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {obj!r}")
        parts.append(format(obj, ".17g"))
    elif kind is list or kind is tuple:
        table = _float_rows(obj)
        if table is not None:
            parts.append(table)
            return
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(", ")
            _fmt_json(item, parts)
        parts.append("]")
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        _fmt_json(float(obj), parts)
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        _fmt_json(list(obj), parts)
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            _fmt_json(value, parts)
        parts.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    parts: list = []
    _fmt_json(obj, parts)
    return "".join(parts)


def write_text_atomic(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qleb-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def report_to_csv(report) -> str:
    """Tabulate a study report: the per-point columns, one row per point."""
    data = report.to_json_dict()
    if "radii" in data:
        columns = [("radius", data["radii"]), ("g", data["g_values"])]
    elif "deviation" in data:
        columns = [("n", data["n"]), ("deviation", data["deviation"]),
                   ("excess", data["excess"])]
    else:
        columns = [("n", data["n"]), ("error", data["errors"])]
    header = ",".join(name for name, _ in columns)
    rows = [header]
    for row in zip(*(values for _, values in columns)):
        rows.append(",".join(_csv_cell(cell) for cell in row))
    return "\n".join(rows) + "\n"


def report_envelope(config: dict, payload: dict) -> dict:
    """Wrap a report payload with the resolved config and library version."""
    return {"version": __version__, "config": config, "payload": payload}
