"""End-to-end tests of the command-line interface (exit codes and files)."""

import argparse
import json
import os
import re
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
#: the model of the golden ``qleb qlan`` reports
CLI_MODEL = "spin-perturbed:quartic"
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

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_hermitian_tol(self, tmp_path, capsys, tol):
        rho = write_matrix(tmp_path, "r.json", np.diag([1.0, 0.0]))
        sigma = write_matrix(tmp_path, "s.json", [[0.0, 1.0], [0.0, 0.0]])
        assert run_cli("check", "ac", "--rho", rho, "--sigma", sigma,
                       "--hermitian-tol", tol) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: Hermitian tolerance must be finite and nonnegative, "
                                f"got {float(tol)}\n")

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

    def test_fractional_dim_is_invalid_input(self, tmp_path, capsys):
        ok = write_matrix(tmp_path, "ok.json", np.eye(2))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2.5, "entries": [[0.5, 0.0]] * 4}))
        assert run_cli("check", "ac", "--rho", ok, "--sigma", str(bad)) == 2
        assert capsys.readouterr().err == "error: dim must be an integer, got 2.5\n"

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

    @pytest.mark.parametrize("n_arg,shown", [("0,10", "0.0"), ("2.5,10", "2.5")])
    def test_n_grid_error_is_the_library_one(self, n_arg, shown, capsys):
        assert run_cli("qlan", "--model", "spin-pure", "--n", n_arg, "--xi", "1,0") == 2
        assert capsys.readouterr().err == f"error: n must be a positive integer, got {shown}\n"

    def test_unknown_model(self, capsys):
        assert run_cli("qlan", "--model", "xyz", "--xi", "1,0") == 2
        assert "unknown model" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["dim", "theta_dim"])
    def test_table_header_out_of_range(self, tmp_path, capsys, field):
        doc = {"dim": 2, "theta_dim": 1, "theta0": [0.0], "states": []}
        text = json.dumps(doc).replace(f'"{field}": {doc[field]}', f'"{field}": 1e400')
        path = tmp_path / "table.json"
        path.write_text(text)
        assert run_cli("qlan", "--model", f"table:{path}", "--xi", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed table object: ") and "infinity" in err

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
        states = list(models.spin_pure_states(grid))
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
        # every study of the shifted states checks domination the same way
        for study in ("lecam", "sandwich"):
            rc = run_cli("qlan", "--model", f"table:{path}", "--study", study,
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
    """``--xi`` takes one real query vector, its components comma-separated."""

    def test_real_vector(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run_cli("qlan", "--model", "spin-pure", "--n", "100,1000",
                       "--xi", "1, -0.5", "--out", str(out)) == 0
        assert json.loads(out.read_text())["config"]["xi"] == [[[1.0, 0.0], [-0.5, 0.0]]]

    def test_complex_components(self, capsys):
        # queries are real: the re:im form of a complex component is gone
        assert run_cli("qlan", "--model", "spin-pure", "--xi", "1:0.5") == 2
        assert capsys.readouterr().err == (
            "error: --xi expects a comma-separated number list, got '1:0.5'\n")

    def test_empty_rejected(self, capsys):
        assert run_cli("qlan", "--model", "spin-pure", "--xi", " , ") == 2
        assert capsys.readouterr().err == "error: --xi list is empty\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("qleb ")


class TestOneParserPerProcess:
    """In-process ``main`` calls share one parser, and no call leaves state in it."""

    def test_two_calls_build_one_parser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._build_parser.cache_clear()
        for _ in range(2):
            assert run_cli("qlan", "--model", "spin-pure", "--xi", " , ") == 2
        # the top-level parser and one per subcommand, all from the first call
        assert built == ["qleb", "qleb decompose", "qleb check", "qleb qlan"]

    def test_qlan_options_do_not_carry_over(self, tmp_path, capsys):
        first = tmp_path / "first.json"
        assert run_cli("qlan", "--model", CLI_MODEL, "--study", "lecam", "--study", "qclt",
                       "--xi", "1,0", "--n", "100,1000", "--out", str(first)) == 0
        assert {p.name for p in tmp_path.iterdir()} == {"first.lecam.json", "first.qclt.json"}
        plain = tmp_path / "plain.json"
        capsys.readouterr()
        assert run_cli("qlan", "--model", CLI_MODEL, "--out", str(plain)) == 0
        # the default queries and the single default study, qclt, as in the
        # golden run of all four studies (whose qclt config is the same)
        assert capsys.readouterr().out.splitlines()[-1].startswith("study qclt: pass")
        assert plain.read_bytes() == (GOLDEN / "cli.qlan.qclt.json").read_bytes()

    def test_check_options_do_not_carry_over(self, tmp_path, monkeypatch, capsys):
        ok = write_matrix(tmp_path, "ok.json", np.eye(2))
        lopsided = write_matrix(tmp_path, "lopsided.json", [[1.0, 0.1], [0.1001, 1.0]])
        seen = []
        real = cli.cmd_check

        def recording(args):
            seen.append((args.hermitian_tol, cli._resolve_cutoff(args)))
            return real(args)

        monkeypatch.setattr(cli, "cmd_check", recording)
        monkeypatch.delenv("QLEB_CUTOFF", raising=False)
        operands = ("--rho", ok, "--sigma", lopsided)
        assert run_cli("check", "ac", *operands, "--hermitian-tol", "1e-3",
                       "--cutoff", "1e-9") == 0
        assert run_cli("check", "ac", *operands) == 2
        assert "Hermiticity violation" in capsys.readouterr().err
        monkeypatch.setenv("QLEB_CUTOFF", "1e-7")
        assert run_cli("check", "ac", *operands) == 2
        assert seen == [(1e-3, 1e-9), (cli.HERMITIAN_TOL, None), (cli.HERMITIAN_TOL, 1e-7)]

    @pytest.mark.parametrize("argv", [("--version",), ("check", "nonsense")],
                             ids=["version", "usage-error"])
    def test_exits_repeat_byte_for_byte(self, argv, capsys):
        runs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            runs.append((exc.value.code, capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == (0 if argv == ("--version",) else 2)

    def test_a_rebound_command_is_the_one_that_runs(self, monkeypatch, capsys):
        with pytest.raises(SystemExit):
            run_cli("--version")
        # the parser now exists; the command is looked up when main runs
        monkeypatch.setattr(cli, "cmd_check", lambda args: 7)
        assert run_cli("check", "singular", "--rho", "r.json", "--sigma", "s.json") == 7


class TestOneModelPerProcess:
    """In-process ``qlan`` calls share each built-in model; a table is read on every call."""

    @pytest.fixture
    def resolved(self, monkeypatch):
        """The names ``models.get_model`` resolves, with no built-in model kept yet."""
        names = []
        real = models.get_model

        def counting(name):
            names.append(name)
            return real(name)

        monkeypatch.setattr(models, "get_model", counting)
        cli._builtin_model.cache_clear()
        yield names
        cli._builtin_model.cache_clear()

    def test_two_calls_resolve_a_builtin_model_once(self, resolved, tmp_path):
        for study in ("qclt", "lecam"):
            out = tmp_path / f"{study}.json"
            assert run_cli("qlan", "--model", CLI_MODEL, "--study", study, "--out", str(out)) == 0
            # the report of a fresh process, whose config is the golden run's
            assert out.read_bytes() == (GOLDEN / f"cli.qlan.{study}.json").read_bytes()
        assert resolved == [CLI_MODEL]
        # the library's resolver still builds a new model, with a cold q-LAN base
        assert models.get_model(CLI_MODEL) is not models.get_model(CLI_MODEL)

    def test_a_rewritten_table_gives_the_new_report(self, resolved, tmp_path):
        path = tmp_path / "table.json"

        def table(slope):
            """The states (I + slope theta sigma_z) / 2 at theta0 = 0 and its SLD stencil."""
            thetas = [0.0] + [t for s in (qlan.FD_STEP, qlan.FD_STEP / 2) for t in (s, -s)]
            path.write_text(json.dumps({"dim": 2, "theta_dim": 1, "theta0": [0.0], "states": [
                {"theta": [t], "matrix": matio.matrix_to_json_dict(
                    np.diag([1.0 + slope * t, 1.0 - slope * t]) / 2.0)} for t in thetas]}))

        reports = []
        for slope in (1.0, 0.5, 1.0):
            table(slope)
            out = tmp_path / "qclt.json"
            assert run_cli("qlan", "--model", f"table:{path}", "--xi", "1", "--n", "100,1000",
                           "--out", str(out)) in (0, 1)
            reports.append(out.read_bytes())
        assert reports[0] != reports[1] and reports[2] == reports[0]
        assert resolved == [f"table:{path}"] * 3


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


#: the library calls that must run where scipy cannot be imported, as
#: source shared by this suite and a child interpreter; each result is text
SCIPY_FREE_CALLS = """
import contextlib, io
import numpy as np
from qleb import cli, linalg, matio, models, qlan

def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return f"exit {code}\\n{buf.getvalue()}"

def report(value):
    return matio.dumps_json(value.to_json_dict())

def scipy_free_calls():
    operands = ("--rho", "rho.json", "--sigma", "sigma.json")
    qlan_argv = ["qlan", "--model", "spin-perturbed:quartic"]
    for study in ("qclt", "lecam", "sandwich", "oh2"):
        qlan_argv += ["--study", study]
    model = models.get_model("spin-perturbed:quartic")
    queries = [[q] for q in cli._default_queries(2)]
    h, ns = cli._default_h(2), (100, 1000, 10000)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    herm = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.7]])
    return {
        "cli.decompose.out": run("decompose", *operands, "--out", "dec.json"),
        "cli.check.mutual.out": run("check", "mutual", *operands),
        "cli.qlan.out": run(*qlan_argv, "--out", "qlan.json"),
        "qclt": report(qlan.qclt_report(model, queries, ns)),
        "lecam": report(qlan.lecam_report(model, None, h, queries, ns)),
        "sandwich": report(qlan.sandwich_report(model, h, queries, ns)),
        "oh2": report(qlan.oh2_report(model)),
        "probe": report(qlan.infinitesimal_probe(qlan.iid_remainder_rule(model, h), model,
                                                 queries, (0.5, 1.0), ns)),
        "brute": repr(qlan.collective_qcf_brute(np.diag([0.7, 0.3]), [sx], [[0.3], [-0.2]], 3)),
        "expm_hermitian": linalg.expm(herm).tobytes().hex(),
        "expm_anti_hermitian": linalg.expm(1j * herm).tobytes().hex(),
    }
"""

#: a fresh interpreter in which ``import scipy`` fails runs the calls above
SCIPY_BLOCKED = """
import importlib.abc, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("scipy was imported")
import qleb
""" + SCIPY_FREE_CALLS + """
print(json.dumps(scipy_free_calls()))
"""


def test_cli_runs_without_importing_scipy(tmp_path, monkeypatch):
    """The library runs where scipy cannot be imported, the golden CLI calls included.

    A child interpreter, whose import system refuses scipy, makes the golden
    CLI calls, runs the five q-LAN reports, the dense QCF oracle and
    ``expm`` of a Hermitian and an anti-Hermitian matrix. The CLI output and
    files are the golden bytes, and every other result is the one this
    process computes.
    """
    shutil.copy(GOLDEN / "cli.rho.json", tmp_path / "rho.json")
    shutil.copy(GOLDEN / "cli.sigma.json", tmp_path / "sigma.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=SUBPROCESS_TIMEOUT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    for name in ("cli.decompose.out", "cli.check.mutual.out", "cli.qlan.out"):
        assert result.pop(name).encode() == (GOLDEN / name).read_bytes(), name
    written = {"dec.json": "cli.decompose.json"}
    written.update({f"qlan.{s}.json": f"cli.qlan.{s}.json"
                    for s in ("qclt", "lecam", "sandwich", "oh2")})
    for name, fixture in written.items():
        assert (tmp_path / name).read_bytes() == (GOLDEN / fixture).read_bytes(), name
    here = {}
    exec(SCIPY_FREE_CALLS, here)
    monkeypatch.chdir(tmp_path)
    expected = here["scipy_free_calls"]()
    assert result == {name: expected[name] for name in result}


def test_library_depends_on_numpy_only():
    """The library imports numpy alone; scipy is only in the ``test`` extra."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]


def test_module_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "qleb.cli", "--version"],
                          capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    assert proc.returncode == 0
    assert proc.stdout.startswith("qleb ")
