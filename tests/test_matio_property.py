"""``matio.dumps_json`` against the serializer it replaced, on generated values.

The writer formats a table of finite floats in one %-format call, and checks
exact ``float``, ``list`` and ``tuple`` before its ``isinstance`` chain.
``reference_dumps`` below is the earlier chain-only serializer, kept verbatim
as the oracle: every value it formats must come out as the same bytes, and
every value it rejects must raise the same error.
"""

import json

import numpy as np
import pytest

from qleb import decomp, matio

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _reference_fmt_json(obj, parts: list) -> None:
    # hand-rolled so floats always print with %.17g, independent of json's repr
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise ValueError(f"cannot serialize non-finite float {x!r}")
        parts.append(format(x, ".17g"))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(", ")
            _reference_fmt_json(item, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            _reference_fmt_json(value, parts)
        parts.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dumps(obj) -> str:
    parts: list = []
    _reference_fmt_json(obj, parts)
    return "".join(parts)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                         -1.7976931348623157e308, 2.2250738585072014e-308])
INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
# quotes, escapes, control and non-ASCII characters, without hypothesis's full Unicode tables
TEXT = st.text(st.sampled_from('az "\\/\n\t\x00\x1fé€\u2028😀'), max_size=8)
LEAVES = st.one_of(
    FINITE,
    EDGES,
    FINITE.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    INT64.map(np.int64),
    st.integers(),
    st.booleans(),
    st.none(),
    TEXT,
)
VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.one_of(TEXT, st.integers()), children, max_size=6),
    ),
    max_leaves=20,
)


@hypothesis.settings(derandomize=True, database=None, deadline=None)
@hypothesis.given(VALUES)
def test_dumps_json_matches_the_reference_serializer(obj):
    assert matio.dumps_json(obj) == reference_dumps(obj)



def _outcome(dumps, obj):
    try:
        return dumps(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


ROW_FLOATS = st.one_of(FINITE, EDGES)


@st.composite
def float_tables(draw):
    """A list or tuple of 1 to 70 equal-length lists and tuples of floats."""
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.tuples(st.lists(ROW_FLOATS, min_size=width, max_size=width), st.booleans()),
        min_size=1, max_size=70))
    table = [tuple(row) if as_tuple else row for row, as_tuple in rows]
    return tuple(table) if draw(st.booleans()) else table


#: what may stand in one cell of a table so that the row path must not take it
NEAR_MISS_CELLS = st.one_of(
    FINITE.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(),
    st.booleans(),
    st.none(),
    st.sampled_from([float("inf"), -float("inf"), float("nan")]),
)


@st.composite
def near_miss_tables(draw):
    """A table with one ragged or empty row, or one cell that is not a finite float."""
    table = list(draw(float_tables()))
    kind = draw(st.sampled_from(["ragged", "empty", "cell"]))
    if kind == "ragged" and len(table) == 1:
        table.append(table[0])
    i = draw(st.integers(0, len(table) - 1))
    row = list(table[i])
    if kind == "ragged":
        row = row[:-1] if len(row) > 1 and draw(st.booleans()) else row + [draw(ROW_FLOATS)]
    elif kind == "empty":
        row = []
    else:
        row[draw(st.integers(0, len(row) - 1))] = draw(NEAR_MISS_CELLS)
    table[i] = row
    return table


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=50)
@hypothesis.given(float_tables())
def test_a_float_table_takes_the_row_path_with_the_same_bytes(table):
    assert matio._float_rows(table) is not None
    assert matio.dumps_json(table) == reference_dumps(table)
    assert matio.dumps_json({"entries": table}) == reference_dumps({"entries": table})


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=50)
@hypothesis.given(near_miss_tables())
def test_a_near_miss_table_gives_the_same_bytes_or_error(table):
    assert matio._float_rows(table) is None
    assert _outcome(matio.dumps_json, table) == _outcome(reference_dumps, table)


def test_a_d64_decomposition_report_has_the_reference_bytes():
    rng = np.random.default_rng(64)
    a = rng.standard_normal((64, 32)) + 1j * rng.standard_normal((64, 32))
    b = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    dec = decomp.lebesgue_decompose(b @ b.conj().T / 64, a @ a.conj().T / 64)
    doc = matio.decomposition_to_json_dict(dec)
    assert doc["sigma_ac"]["dim"] == 64
    assert matio.dumps_json(doc) == reference_dumps(doc)
