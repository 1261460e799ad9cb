import json
import os

import numpy as np
import pytest

import qleb
from qleb import decomp, matio, models, qlan
from qleb.errors import InvalidMatrixError


class TestMatrixJson:
    def test_roundtrip_complex(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        doc = matio.matrix_to_json_dict(m)
        assert doc["dim"] == 3 and len(doc["entries"]) == 9
        np.testing.assert_array_equal(matio.matrix_from_json_dict(doc), m)

    def test_roundtrip_through_text_is_lossless(self):
        m = np.array([[1 / 3, 0.1 + 0.2j], [0.1 - 0.2j, np.pi]])
        text = matio.dumps_json(matio.matrix_to_json_dict(m))
        np.testing.assert_array_equal(
            matio.matrix_from_json_dict(json.loads(text)), m)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidMatrixError):
            matio.matrix_to_json_dict(np.zeros((2, 3)))

    @pytest.mark.parametrize("doc", [
        42,
        {"entries": [[0.0, 0.0]]},
        {"dim": 0, "entries": []},
        {"dim": 2, "entries": [[0.0, 0.0]] * 3},
        {"dim": 1, "entries": [[0.0]]},
        {"dim": 1, "entries": [0.0]},
    ])
    def test_rejects_malformed_objects(self, doc):
        with pytest.raises(InvalidMatrixError):
            matio.matrix_from_json_dict(doc)

    @pytest.mark.parametrize("doc,message", [
        ({"dim": 1, "entries": 5}, "entries must be a list, got int"),
        ({"dim": 1, "entries": None}, "entries must be a list, got NoneType"),
        ({"dim": 1, "entries": [["a", 0.0]]}, "entry 0 is not an [re, im] pair: ['a', 0.0]"),
        ({"dim": 1, "entries": [[None, 0.0]]}, "entry 0 is not an [re, im] pair: [None, 0.0]"),
        ({"dim": 1, "entries": [[0.5, True]]}, "entry 0 is not an [re, im] pair: [0.5, True]"),
        ({"dim": True, "entries": [[1.0, 0.0]]}, "dim must be an integer, got True"),
        ({"dim": 1}, "entries must be a list, got NoneType"),
        ({"entries": [[1.0, 0.0]]}, "malformed matrix object: 'dim'"),
        ({"dim": "two", "entries": []},
         "malformed matrix object: invalid literal for int() with base 10: 'two'"),
        ({"dim": float("inf"), "entries": []},
         "malformed matrix object: cannot convert float infinity to integer"),
    ])
    def test_malformed_objects_raise_the_typed_error(self, doc, message):
        with pytest.raises(InvalidMatrixError) as exc:
            matio.matrix_from_json_dict(doc)
        assert str(exc.value) == message
        assert exc.value.__context__ is None

    def test_boolean_dim_in_a_file_is_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"dim": true, "entries": [[1, 0]]}')
        with pytest.raises(InvalidMatrixError, match=r"^dim must be an integer, got True$"):
            matio.load_matrix(path)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(InvalidMatrixError):
            matio.matrix_from_json_dict({"dim": 1, "entries": [[1e999, 0.0]]})

    def test_file_roundtrip(self, tmp_path):
        m = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
        path = tmp_path / "m.json"
        matio.dump_matrix(m, path)
        np.testing.assert_array_equal(matio.load_matrix(path), m)
        # dumped text ends with a newline and parses as stock JSON
        text = path.read_text()
        assert text.endswith("\n")
        json.loads(text)

    def test_negative_zeros_survive_both_readers(self, tmp_path):
        m = np.array([[1.0, -0.0], [complex(-0.0, -0.0), 2.0]])
        path = tmp_path / "m.json"
        matio.dump_matrix(m, path)
        table = tmp_path / "table.json"
        table.write_text(matio.dumps_json({
            "dim": 2, "theta_dim": 1, "theta0": [0.0],
            "states": [{"theta": [0.0], "matrix": matio.matrix_to_json_dict(m)}]}))
        for loaded in (matio.load_matrix(path), models.table_model(table).state_at([0.0])):
            np.testing.assert_array_equal(np.signbit(loaded.real), np.signbit(m.real))
            np.testing.assert_array_equal(np.signbit(loaded.imag), np.signbit(m.imag))
            again = tmp_path / "again.json"
            matio.dump_matrix(loaded, again)
            assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("dim", [2.5, "2"])
    def test_dim_that_is_not_an_integer_is_rejected(self, dim):
        # truncated to 2, a dim of 2.5 would fit the 4 entries
        with pytest.raises(InvalidMatrixError, match="dim must be an integer"):
            matio.matrix_from_json_dict({"dim": dim, "entries": [[1.0, 0.0]] * 4})

    def test_huge_integer_dim_is_a_malformed_object(self, tmp_path):
        # integers load as floats, and one past the float range as inf
        path = tmp_path / "m.json"
        path.write_text('{"dim": 1' + "0" * 400 + ', "entries": []}')
        with pytest.raises(InvalidMatrixError, match="malformed matrix object"):
            matio.load_matrix(path)

    def test_an_integer_past_the_float_range_is_not_finite_on_both_paths(self, tmp_path):
        # a file's reader parses ints as floats, so the same digits read as inf
        path = tmp_path / "m.json"
        path.write_text('{"dim": 1, "entries": [[1' + "0" * 400 + ', 0]]}')
        for read in (lambda: matio.matrix_from_json_dict({"dim": 1, "entries": [[10 ** 400, 0.0]]}),
                     lambda: matio.load_matrix(path)):
            with pytest.raises(InvalidMatrixError, match=r"^matrix entries must be finite$") as exc:
                read()
            assert exc.value.__context__ is None

    def test_d64_file_roundtrip_keeps_every_bit(self, tmp_path):
        rng = np.random.default_rng(64)
        m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        extremes = [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                    1.7976931348623157e308, -1.7976931348623157e308]
        m.real[0, :6] = extremes
        m.imag[1, :6] = extremes
        m[2, :6] = complex(-0.0, -0.0)
        path = tmp_path / "m.json"
        matio.dump_matrix(m, path)
        loaded = matio.load_matrix(path)
        assert np.array_equal(loaded.view(np.uint64), m.view(np.uint64))
        again = tmp_path / "again.json"
        matio.dump_matrix(loaded, again)
        assert again.read_bytes() == path.read_bytes()


def reference_matrix_from_json_dict(obj) -> np.ndarray:
    """The earlier per-entry reader, kept as the oracle for ``matrix_from_json_dict``."""
    if not isinstance(obj, dict):
        raise InvalidMatrixError(f"expected a matrix object, got {type(obj).__name__}")
    dim = matio._dimension(obj, "dim", "matrix")
    entries = obj.get("entries")
    if not isinstance(entries, (list, tuple)):
        raise InvalidMatrixError(f"entries must be a list, got {type(entries).__name__}")
    if len(entries) != dim * dim:
        raise InvalidMatrixError(
            f"expected {dim * dim} entries for dim {dim}, got {len(entries)}"
        )
    flat = np.empty(dim * dim, dtype=complex)
    for k, pair in enumerate(entries):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(map(matio._is_real, pair)):
            raise InvalidMatrixError(f"entry {k} is not an [re, im] pair: {pair!r}")
        flat[k] = complex(float(pair[0]), float(pair[1]))
    if not np.all(np.isfinite(flat.real)) or not np.all(np.isfinite(flat.imag)):
        raise InvalidMatrixError("matrix entries must be finite")
    return flat.reshape(dim, dim)


#: valid [re, im] pairs whose conversion the array reader must get bit for bit
VALID_PAIRS = [[2 ** 53 + 1, -0.0], [-0.0, 2 ** 63 + 1], [2 ** 70, -(2 ** 53 + 1)],
               [-0.0, -0.0], [5e-324, -5e-324], [0, -0.0], [0.1, 1 / 3],
               [-1.7976931348623157e308, 2.2250738585072009e-308], [1, -1]]
#: an entry that is not an [re, im] pair of JSON numbers
BAD_ENTRIES = [[True, 0.0], [0.0, False], ["1", 0.0], [None, 0.0], [0.0, 1.0, 2.0],
               [0.0], {"re": 0.0, "im": 0.0}, 1.0, None, "ab", [np.int64(1), 0.0]]


class TestMatrixReaderParity:
    @pytest.mark.parametrize("outer", [list, tuple])
    @pytest.mark.parametrize("inner", [list, tuple])
    def test_valid_entries_keep_every_bit(self, outer, inner):
        doc = {"dim": 3, "entries": outer(inner(pair) for pair in VALID_PAIRS)}
        got = matio.matrix_from_json_dict(doc)
        want = reference_matrix_from_json_dict(doc)
        assert got.dtype == want.dtype and got.shape == want.shape == (3, 3)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))

    def test_entries_of_other_number_types_match_the_oracle(self):
        # numpy floats and a float subclass are JSON numbers to the per-entry check
        class Real(float):
            pass
        doc = {"dim": 2, "entries": [[np.float64(-0.0), 1.0], [Real(0.25), -0.0],
                                     (np.float64(5e-324), 2 ** 70), [0.5, Real(-0.0)]]}
        got = matio.matrix_from_json_dict(doc)
        want = reference_matrix_from_json_dict(doc)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("position", [0, 4, 8])
    @pytest.mark.parametrize("bad", BAD_ENTRIES, ids=repr)
    def test_the_first_bad_entry_is_named(self, bad, position):
        entries = [[float(k), -0.0] for k in range(9)]
        entries[position] = bad
        # a later bad entry and an earlier non-finite one change nothing
        if position < 8:
            entries[8] = None
        if position > 0:
            entries[0] = [float("inf"), 0.0]
        doc = {"dim": 3, "entries": entries}
        with pytest.raises(InvalidMatrixError) as want:
            reference_matrix_from_json_dict(doc)
        with pytest.raises(InvalidMatrixError) as got:
            matio.matrix_from_json_dict(doc)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"entry {position} is not an [re, im] pair: ")
        assert got.value.__context__ is None

    @pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan")])
    def test_a_non_finite_entry_matches_the_oracle(self, value):
        doc = {"dim": 2, "entries": [[0.0, 0.0], [1, 2], [3.0, value], [0.5, -0.0]]}
        for read in (reference_matrix_from_json_dict, matio.matrix_from_json_dict):
            with pytest.raises(InvalidMatrixError, match=r"^matrix entries must be finite$"):
                read(doc)


class TestDecompositionJson:
    def test_roundtrip(self):
        dec = decomp.lebesgue_decompose(np.diag([0.25, 0.75]), np.eye(2) / 2)
        doc = matio.decomposition_to_json_dict(dec)
        assert set(doc) == {"sigma_ac", "sigma_sing", "witness_r", "route"}
        for key in ("sigma_ac", "sigma_sing", "witness_r"):
            np.testing.assert_array_equal(matio.matrix_from_json_dict(doc[key]),
                                          getattr(dec, key).matrix)
        assert doc["route"] == "block"


class TestDumpsJson:
    def test_scalars(self):
        assert matio.dumps_json(None) == "null"
        assert matio.dumps_json(True) == "true"
        assert matio.dumps_json(False) == "false"
        assert matio.dumps_json(3) == "3"
        assert matio.dumps_json("a \"b\"") == '"a \\"b\\""'

    def test_float_has_17_significant_digits(self):
        text = matio.dumps_json(1.0 / 3.0)
        assert text == "0.33333333333333331"
        assert float(text) == 1.0 / 3.0

    def test_numpy_scalars_accepted(self):
        assert matio.dumps_json(np.float64(0.5)) == "0.5"
        assert matio.dumps_json(np.int64(4)) == "4"

    def test_deterministic_nested_output(self):
        obj = {"a": [1.0, 2, None], "b": {"c": True}}
        assert matio.dumps_json(obj) == matio.dumps_json(obj)
        assert json.loads(matio.dumps_json(obj)) == obj

    def test_rejects_non_finite(self):
        cases = [(float("nan"), "nan"), ([float("inf")], "inf"),
                 ({"x": (1.0, -float("inf"))}, "-inf"), (np.float64("nan"), "nan"),
                 ([np.float32("inf")], "inf")]
        for value, text in cases:
            with pytest.raises(ValueError, match=f"^cannot serialize non-finite float {text}$"):
                matio.dumps_json(value)

    def test_rejects_unknown_types(self):
        cases = [(object(), "object"), ([1.0, {1, 2}], "set"), (np.bool_(True), "bool"),
                 (np.zeros(2), "ndarray"), (1j, "complex")]
        for value, name in cases:
            with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
                matio.dumps_json(value)


class TestWriteTextAtomic:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        matio.write_text_atomic(path, "first\n")
        assert path.read_text() == "first\n"
        matio.write_text_atomic(path, "second\n")
        assert path.read_text() == "second\n"

    def test_leaves_no_temp_files(self, tmp_path):
        matio.write_text_atomic(tmp_path / "a.txt", "x")
        assert os.listdir(tmp_path) == ["a.txt"]


class TestReportCsv:
    def test_convergence_report_columns(self):
        rep = qlan.ConvergenceReport("qclt", (100, 1000), (1e-3, 1e-4),
                                     -1.0, "pass", -0.45, True)
        lines = matio.report_to_csv(rep).splitlines()
        assert lines[0] == "n,error"
        assert lines[1] == "100,0.001"
        assert len(lines) == 3

    def test_oh2_report_columns(self):
        rep = qlan.Oh2Report((0.25, 0.125), (0.5, 0.25), 2.0, 0.25, 0.5, "pass")
        lines = matio.report_to_csv(rep).splitlines()
        assert lines[0] == "radius,g"
        assert lines[1] == "0.25,0.5"
        # inexact floats carry all 17 significant digits
        noisy = qlan.Oh2Report((0.2, 0.1), (0.04, 0.01), 2.0, 0.01, 0.5, "pass")
        assert matio.report_to_csv(noisy).splitlines()[1] == (
            "0.20000000000000001,0.040000000000000001")

    def test_probe_report_columns(self):
        rep = qlan.ProbeReport((100, 1000), (1e-3, 1e-4), (0.0, 0.0),
                               0.05, "pass")
        lines = matio.report_to_csv(rep).splitlines()
        assert lines[0] == "n,deviation,excess"
        assert lines[1] == "100,0.001,0"


def test_report_envelope_carries_version():
    doc = matio.report_envelope({"model": "spin-pure"}, {"verdict": "pass"})
    assert doc["version"] == qleb.__version__
    assert doc["config"] == {"model": "spin-pure"}
    assert doc["payload"] == {"verdict": "pass"}


def test_public_names_resolve():
    assert all(hasattr(qleb, name) for name in qleb.__all__)
    # removed API stays removed
    removed = {"default_cutoff", "set_default_cutoff", "sqrt_psd", "pinv_psd", "char_fn"}
    assert not removed & set(qleb.__all__)
    assert not removed & set(vars(qleb))
