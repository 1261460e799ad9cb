"""End-to-end tests of the command-line interface (exit codes and files)."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qleb
from qleb import cli, matio, models, qlan

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
GOLDEN = Path(__file__).resolve().parent / "golden"
#: the ``src`` directory holding the ``qleb`` package this suite imported
SRC_DIR = str(Path(qleb.__file__).resolve().parent.parent)
#: seconds a child interpreter may take before the test fails instead of hanging
SUBPROCESS_TIMEOUT = 60


def run_cli(*argv):
    return cli.main(list(argv))


def witness_residual(out: str) -> float:
    """The witness residual that ``qleb check ac`` printed."""
    line, = (ln for ln in out.splitlines() if "witness residual" in ln)
    return float(line.split()[-1])


@pytest.fixture
def pair_files(tmp_path):
    rng = np.random.default_rng(31)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = z @ z.conj().T
    rho /= np.trace(rho).real
    w = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    sigma = w @ w.conj().T
    sigma /= np.trace(sigma).real
    rho_path = tmp_path / "rho.json"
    sigma_path = tmp_path / "sigma.json"
    matio.dump_matrix(rho, rho_path)
    matio.dump_matrix(sigma, sigma_path)
    return str(rho_path), str(sigma_path)


def write_matrix(tmp_path, name, m):
    path = tmp_path / name
    matio.dump_matrix(np.asarray(m, dtype=complex), path)
    return str(path)


class TestDecompose:
    def test_report_file(self, pair_files, tmp_path, capsys):
        rho, sigma = pair_files
        out = tmp_path / "dec.json"
        assert run_cli("decompose", "--rho", rho, "--sigma", sigma,
                       "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["command"] == "decompose"
        assert set(doc["payload"]) == {"block", "direct", "route_gap"}
        assert doc["payload"]["block"]["route"] == "block"
        assert doc["payload"]["route_gap"] <= 1e-8
        printed = capsys.readouterr().out
        assert f"wrote {out}" in printed
        assert "route gap" in printed

    def test_reruns_are_byte_identical(self, pair_files, tmp_path):
        rho, sigma = pair_files
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("decompose", "--rho", rho, "--sigma", sigma, "--out", str(a))
        run_cli("decompose", "--rho", rho, "--sigma", sigma, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_mode(self, pair_files, capsys):
        rho, sigma = pair_files
        assert run_cli("decompose", "--rho", rho, "--sigma", sigma) == 0
        lines = capsys.readouterr().out.splitlines()
        json.loads(lines[0])

    def test_route_disagreement_exit_code(self, pair_files, capsys):
        rho, sigma = pair_files
        # generic pair: the two routes agree to rounding but not exactly
        assert run_cli("decompose", "--rho", rho, "--sigma", sigma,
                       "--route-tol", "0.0") == 3
        assert "routes disagree" in capsys.readouterr().err

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        ok = write_matrix(tmp_path, "ok.json", np.eye(2))
        assert run_cli("decompose", "--rho", str(bad), "--sigma", ok) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        ok = write_matrix(tmp_path, "ok.json", np.eye(2))
        assert run_cli("decompose", "--rho", str(tmp_path / "nope.json"),
                       "--sigma", ok) == 2

    def test_non_hermitian_input(self, tmp_path, capsys):
        ok = write_matrix(tmp_path, "ok.json", np.eye(2))
        lopsided = write_matrix(tmp_path, "lopsided.json",
                                [[1.0, 0.1], [0.1001, 1.0]])
        assert run_cli("decompose", "--rho", ok, "--sigma", lopsided) == 2
        # widening the tolerance admits (and symmetrizes) it
        assert run_cli("decompose", "--rho", ok, "--sigma", lopsided,
                       "--hermitian-tol", "1e-3") == 0

    def test_csv_rejected(self, pair_files, capsys):
        rho, sigma = pair_files
        assert run_cli("decompose", "--rho", rho, "--sigma", sigma,
                       "--format", "csv") == 2

    def test_csv_rejected_before_loading(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert run_cli("decompose", "--rho", missing, "--sigma", missing,
                       "--format", "csv") == 2
        assert "decompose reports are JSON only" in capsys.readouterr().err


class TestCheck:
    def test_singular_true(self, tmp_path, capsys):
        rho = write_matrix(tmp_path, "r.json", np.diag([1.0, 0.0]))
        sigma = write_matrix(tmp_path, "s.json", np.diag([0.0, 1.0]))
        assert run_cli("check", "singular", "--rho", rho, "--sigma", sigma) == 0
        out = capsys.readouterr().out
        assert "singular: True" in out and "criteria consistent: True" in out

    def test_singular_false(self, tmp_path):
        rho = write_matrix(tmp_path, "r.json", np.diag([1.0, 0.0]))
        sigma = write_matrix(tmp_path, "s.json", np.full((2, 2), 0.5))
        assert run_cli("check", "singular", "--rho", rho, "--sigma", sigma) == 1

    def test_ac_true(self, tmp_path, capsys):
        rho = write_matrix(tmp_path, "r.json", np.diag([1.0, 0.0]))
        sigma = write_matrix(tmp_path, "s.json", np.full((2, 2), 0.5))
        assert run_cli("check", "ac", "--rho", rho, "--sigma", sigma) == 0
        assert "witness residual" in capsys.readouterr().out

    def test_ac_cutoff_reaches_the_witness(self, tmp_path, capsys):
        # rho has rank 2 only at cutoff 1e-15; the witness must be built there
        rho = write_matrix(tmp_path, "r.json", np.diag([1.0, 1e-13]))
        sigma = write_matrix(tmp_path, "s.json", np.eye(2))
        assert run_cli("check", "ac", "--cutoff", "1e-15", "--rho", rho, "--sigma", sigma) == 0
        # a witness built at the default cutoff drops the 1e-13 eigenvalue
        assert witness_residual(capsys.readouterr().out) < 1e-20

    def test_env_cutoff_reaches_the_witness(self, tmp_path, capsys, monkeypatch):
        rho = write_matrix(tmp_path, "r.json", np.diag([1.0, 1e-13]))
        sigma = write_matrix(tmp_path, "s.json", np.eye(2))
        monkeypatch.setenv("QLEB_CUTOFF", "1e-15")
        assert run_cli("check", "ac", "--rho", rho, "--sigma", sigma) == 0
        assert witness_residual(capsys.readouterr().out) < 1e-20

    def test_ac_false(self, tmp_path):
        rho = write_matrix(tmp_path, "r.json", np.eye(2) / 2)
        sigma = write_matrix(tmp_path, "s.json", np.diag([1.0, 0.0]))
        assert run_cli("check", "ac", "--rho", rho, "--sigma", sigma) == 1

    def test_mutual(self, tmp_path):
        rho = write_matrix(tmp_path, "r.json", np.diag([0.6, 0.4]))
        sigma = write_matrix(tmp_path, "s.json", np.diag([0.3, 0.7]))
        assert run_cli("check", "mutual", "--rho", rho, "--sigma", sigma) == 0

    def test_unknown_predicate(self, tmp_path):
        rho = write_matrix(tmp_path, "r.json", np.eye(2))
        with pytest.raises(SystemExit) as exc:
            run_cli("check", "bogus", "--rho", rho, "--sigma", rho)
        assert exc.value.code == 2


class TestQlan:
    def test_qclt_pass(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        rc = run_cli("qlan", "--model", "spin-pure", "--n", "100,1000",
                     "--xi", "1,0", "--out", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["payload"]["verdict"] == "pass"
        assert doc["config"]["model"] == "spin-pure"
        assert doc["config"]["study"] == "qclt"
        assert "study qclt: pass" in capsys.readouterr().out

    def test_oh2_control_fails(self, capsys):
        rc = run_cli("qlan", "--model", "spin-perturbed:squared", "--study", "oh2")
        assert rc == 1
        assert "study oh2: fail" in capsys.readouterr().out

    def test_multi_study_file_naming(self, tmp_path):
        out = tmp_path / "multi.json"
        rc = run_cli("qlan", "--model", "spin-perturbed:quartic",
                     "--study", "qclt", "--study", "oh2",
                     "--n", "100,1000", "--xi", "1,0", "--out", str(out))
        assert rc == 0
        qclt = json.loads((tmp_path / "multi.qclt.json").read_text())
        oh2 = json.loads((tmp_path / "multi.oh2.json").read_text())
        assert qclt["payload"]["verdict"] == "pass"
        assert oh2["payload"]["verdict"] == "pass"
        assert not out.exists()

    def test_csv_output(self, tmp_path):
        out = tmp_path / "rep.csv"
        rc = run_cli("qlan", "--model", "spin-pure", "--n", "100,1000",
                     "--xi", "1,0", "--format", "csv", "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,error" and lines[1].startswith("100,")

    def test_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            run_cli("qlan", "--model", "spin-pure", "--n", "100,1000",
                    "--xi", "1,0", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n_arg", ["100", "0,10", "2.5,10", ""])
    def test_n_grid_validation(self, n_arg, capsys):
        assert run_cli("qlan", "--model", "spin-pure", "--n", n_arg,
                       "--xi", "1,0") == 2

    def test_unknown_model(self, capsys):
        assert run_cli("qlan", "--model", "xyz", "--xi", "1,0") == 2
        assert "unknown model" in capsys.readouterr().err

    def test_non_finite_h(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli("qlan", "--model", "spin-perturbed:quartic", "--study", "sandwich",
                       "--h", "nan,0", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: h has non-finite entries: [nan, 0.0]\n"
        assert not out.exists()

    def test_env_cutoff_is_recorded(self, tmp_path, monkeypatch):
        out = tmp_path / "rep.json"
        monkeypatch.setenv("QLEB_CUTOFF", "1e-09")
        run_cli("qlan", "--model", "spin-pure", "--n", "100,1000",
                "--xi", "1,0", "--out", str(out))
        assert json.loads(out.read_text())["config"]["cutoff"] == 1e-9

    def test_flag_overrides_env_cutoff(self, tmp_path, monkeypatch):
        out = tmp_path / "rep.json"
        monkeypatch.setenv("QLEB_CUTOFF", "1e-09")
        run_cli("qlan", "--model", "spin-pure", "--n", "100,1000",
                "--xi", "1,0", "--cutoff", "1e-10", "--out", str(out))
        assert json.loads(out.read_text())["config"]["cutoff"] == 1e-10

    def test_bad_env_cutoff(self, monkeypatch, capsys):
        monkeypatch.setenv("QLEB_CUTOFF", "lots")
        assert run_cli("qlan", "--model", "spin-pure", "--n", "100,1000",
                       "--xi", "1,0") == 2

    def test_support_violation_exit_code(self, tmp_path, capsys):
        # table model: differentiable at theta0 (the finite-difference probe
        # points are tabulated as pure states) but the tabulated states at the
        # local shifts h / sqrt(n) are orthogonal to the base state
        t0 = np.zeros(2)
        h = np.asarray([0.3, 0.1])
        grid = [t0]
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            for s in (1e-5, 5e-6):
                grid.append(t0 + s * e)
                grid.append(t0 - s * e)
        states = [models.spin_pure_state(t) for t in grid]
        for n in (100, 1000):
            grid.append(t0 + h / np.sqrt(n))
            states.append(np.diag([0.0, 1.0]))
        doc = {
            "name": "broken-shift",
            "dim": 2,
            "theta_dim": 2,
            "theta0": [0.0, 0.0],
            "states": [
                {"theta": [float(x) for x in t],
                 "matrix": matio.matrix_to_json_dict(s)}
                for t, s in zip(grid, states)
            ],
        }
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        rc = run_cli("qlan", "--model", f"table:{path}", "--study", "lecam",
                     "--h", "0.3,0.1", "--n", "100,1000", "--xi", "1,0")
        assert rc == 4
        err = capsys.readouterr().err
        assert "support violation" in err and "n = 100" in err


def test_lecam_study_computes_the_slds_once(monkeypatch, tmp_path):
    calls = []
    real = qlan._sld_set

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(qlan, "_sld_set", counting)
    rc = run_cli("qlan", "--model", "spin-perturbed:quartic", "--study", "lecam",
                 "--out", str(tmp_path / "lecam.json"))
    assert rc == 0
    assert len(calls) == 1


class TestParseXi:
    def test_real_vector(self):
        vec = cli._parse_xi("1,0.5")
        assert vec.dtype == np.float64
        np.testing.assert_array_equal(vec, [1.0, 0.5])

    def test_complex_components(self):
        vec = cli._parse_xi("1:0.5,-2")
        assert vec.dtype == np.complex128
        np.testing.assert_array_equal(vec, [1.0 + 0.5j, -2.0 + 0.0j])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cli._parse_xi(" , ")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("qleb ")


def test_console_script_is_wired():
    """The declared ``qleb`` script target runs and reports the packaged version.

    Runs the wrapper pip writes for a console script, so no installed copy
    is needed; the child imports the same tree this suite imports.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    module, attr = project["scripts"]["qleb"].split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", wrapper, "--version"],
                          capture_output=True, text=True, env=env,
                          timeout=SUBPROCESS_TIMEOUT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"qleb {project['version']}\n"


@pytest.mark.skipif(shutil.which("qleb") is None,
                    reason="qleb console script not installed")
def test_installed_console_script():
    proc = subprocess.run(["qleb", "--version"], capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"qleb {qleb.__version__}\n"


#: a fresh interpreter runs the golden CLI calls, then one general-matrix
#: expm; it prints their outputs and which scipy modules each stage loaded
IMPORT_GUARD = """
import contextlib, io, json, sys
import numpy as np
import qleb, qleb.cli
from qleb import cli, linalg

def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return f"exit {code}\\n{buf.getvalue()}"

def scipy_modules():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")

operands = ("--rho", "rho.json", "--sigma", "sigma.json")
qlan = ["qlan", "--model", "spin-perturbed:quartic"]
for study in ("qclt", "lecam", "sandwich", "oh2"):
    qlan += ["--study", study]
outputs = {
    "cli.decompose.out": run("decompose", *operands, "--out", "dec.json"),
    "cli.check.mutual.out": run("check", "mutual", *operands),
    "cli.qlan.out": run(*qlan, "--out", "qlan.json"),
}
after_cli = scipy_modules()
general = np.array([[0.3, 1.0 + 0.5j, 0.0], [-0.2j, -0.7, 0.4], [0.1, 0.0, 0.2 - 0.3j]])
value = linalg.expm(general)
after_expm = scipy_modules()
import scipy.linalg
reference = scipy.linalg.expm(general)
gap = float(np.abs(value - reference).max() / np.abs(reference).max())
print(json.dumps({"outputs": outputs, "after_cli": after_cli, "after_expm": after_expm,
                  "gap": gap}))
"""


def test_cli_runs_without_importing_scipy(tmp_path):
    """``import qleb`` and the golden CLI calls load no scipy module.

    scipy is imported only by ``expm`` of a matrix that is neither Hermitian
    nor anti-Hermitian, which still matches ``scipy.linalg.expm``. A child
    interpreter runs this, because this suite imports scipy itself.
    """
    shutil.copy(GOLDEN / "cli.rho.json", tmp_path / "rho.json")
    shutil.copy(GOLDEN / "cli.sigma.json", tmp_path / "sigma.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=SUBPROCESS_TIMEOUT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["after_cli"] == []
    for name, text in result["outputs"].items():
        assert text.encode() == (GOLDEN / name).read_bytes(), name
    written = {"dec.json": "cli.decompose.json"}
    written.update({f"qlan.{s}.json": f"cli.qlan.{s}.json"
                    for s in ("qclt", "lecam", "sandwich", "oh2")})
    for name, fixture in written.items():
        assert (tmp_path / name).read_bytes() == (GOLDEN / fixture).read_bytes(), name
    assert "scipy.linalg" in result["after_expm"]
    assert result["gap"] <= 1e-12


def test_module_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "qleb.cli", "--version"],
                          capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    assert proc.returncode == 0
    assert proc.stdout.startswith("qleb ")
