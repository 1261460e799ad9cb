"""``matio.dumps_json`` against the serializer it replaced, on generated values.

The writer checks exact ``float``, ``list`` and ``tuple`` before its
``isinstance`` chain. ``reference_dumps`` below is the earlier chain-only
serializer, kept verbatim as the oracle: every value it formats must come
out as the same bytes.
"""

import json

import numpy as np
import pytest

from qleb import matio

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

