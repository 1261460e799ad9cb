"""JSON and CSV serialization for matrices, decompositions, and reports.

Matrices travel as {"dim": d, "entries": [[re, im], ...]} with entries
row-major, length d^2. Floats are written with 17 significant digits so a
load/dump round trip is lossless and identical configs produce
byte-identical files. The writer checks the exact types ``float`` and
``list`` (and ``tuple``) before anything else, since reports are mostly lists
of floats; numpy scalars, ``bool``, ``None``, strings, dicts and subclasses
take the general ``isinstance`` chain and print as the same bytes.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from . import __version__
from .errors import InvalidMatrixError


def matrix_to_json_dict(matrix) -> dict:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidMatrixError(f"expected a square matrix, got shape {m.shape}")
    entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"dim": int(m.shape[0]), "entries": entries}


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
    flat = np.empty(dim * dim, dtype=complex)
    for k, pair in enumerate(entries):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(map(_is_real, pair)):
            raise InvalidMatrixError(f"entry {k} is not an [re, im] pair: {pair!r}")
        flat[k] = complex(float(pair[0]), float(pair[1]))
    if not np.all(np.isfinite(flat.real)) or not np.all(np.isfinite(flat.imag)):
        raise InvalidMatrixError("matrix entries must be finite")
    return flat.reshape(dim, dim)


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


def _fmt_json(obj, parts: list) -> None:
    # hand-rolled so floats always print with %.17g, independent of json's repr
    kind = type(obj)
    if kind is float:
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {obj!r}")
        parts.append(format(obj, ".17g"))
    elif kind is list or kind is tuple:
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
