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

    def test_huge_integer_dim_is_a_malformed_object(self, tmp_path):
        # integers load as floats, and one past the float range as inf
        path = tmp_path / "m.json"
        path.write_text('{"dim": 1' + "0" * 400 + ', "entries": []}')
        with pytest.raises(InvalidMatrixError, match="malformed matrix object"):
            matio.load_matrix(path)


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
