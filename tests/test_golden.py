"""Byte-for-byte guard on the reports the library and the CLI produce.

The fixtures in ``tests/golden/`` hold the exact bytes of

* ``matio.dumps_json(report.to_json_dict())`` for the five q-LAN reports on
  the five built-in families, with the CLI's defaults (``_default_h``,
  ``_default_queries``, its n grid), eta in {0.5, 1} for the probe and oh2
  seed 0;
* the ``qleb qlan`` reports of all four studies on spin-perturbed:quartic,
  with the run's stdout and exit code;
* ``qleb decompose`` and ``qleb check {singular,ac,mutual}`` on a seeded
  d = 4 pair, run with relative paths from a fresh working directory so the
  bytes do not depend on where the run happens;
* the seeded input matrices themselves (one generic pair and one
  near_singular pair), which pins ``random_psd_pair``;
* ``qllr`` on seeded generic pairs, d = 2..6.

A change that alters any of these bytes is a change of results, not a
refactor; the fixtures are never rewritten to make this suite pass.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from qleb import cli, decomp, matio, models, qlan

GOLDEN = Path(__file__).resolve().parent / "golden"

FAMILIES = ("spin-pure", "spin-perturbed:quartic", "spin-perturbed:cubic",
            "spin-perturbed:squared", "qubit-fullrank")
REPORTS = ("qclt", "lecam", "sandwich", "oh2", "probe")
ETA_GRID = (0.5, 1.0)
CLI_MODEL = "spin-perturbed:quartic"
CLI_STUDIES = ("qclt", "lecam", "sandwich", "oh2")
CHECKS = ("singular", "ac", "mutual")

#: (dim, rank_rho, rank_sigma, seed, mode) of the CLI input pair and the
#: pinned near_singular pair
CLI_PAIR = (4, 2, 3, 11, "generic")
NEAR_SINGULAR_PAIR = (4, 2, 2, 5, "near_singular")

#: (dim, rank_rho, seed) of the qllr fixtures; sigma is full rank
QLLR_PAIRS = tuple((d, kr, 100 + d) for d in range(2, 7) for kr in sorted({1, d - 1, d}))


def _fixture_name(family: str, report: str) -> str:
    return f"study.{family.replace(':', '-')}.{report}.json"


def study_report_bytes(family: str, report: str) -> bytes:
    model = models.get_model(family)
    n_grid = cli._parse_n_list(cli._build_parser().parse_args(["qlan", "--model", family]).n)
    h = cli._default_h(model.theta_dim)
    queries = [q[None, :] for q in cli._default_queries(model.theta_dim)]
    if report == "qclt":
        rep = qlan.qclt_report(model, queries, n_grid)
    elif report == "lecam":
        rep = qlan.lecam_report(model, qlan.sld_set(model).l_ops, h, queries, n_grid)
    elif report == "sandwich":
        rep = qlan.sandwich_report(model, h, queries, n_grid)
    elif report == "oh2":
        rep = qlan.oh2_report(model, seed=0)
    else:
        rule = qlan.iid_remainder_rule(model, h)
        rep = qlan.infinitesimal_probe(rule, model, queries, ETA_GRID, n_grid)
    return matio.dumps_json(rep.to_json_dict()).encode()


def _run_cli(argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return f"exit {code}\n{buf.getvalue()}".encode()


def _pair(spec):
    d, kr, ks, seed, mode = spec
    return models.random_psd_pair(models.RandomPsdPairSpec(d, kr, ks, seed=seed, mode=mode))


def cli_outputs(workdir: Path) -> dict[str, bytes]:
    """Every CLI fixture, produced by runs inside ``workdir`` (the cwd)."""
    out: dict[str, bytes] = {}
    rho, sigma = _pair(CLI_PAIR)
    matio.dump_matrix(rho.matrix, "rho.json")
    matio.dump_matrix(sigma.matrix, "sigma.json")
    out["cli.rho.json"] = (workdir / "rho.json").read_bytes()
    out["cli.sigma.json"] = (workdir / "sigma.json").read_bytes()
    operands = ("--rho", "rho.json", "--sigma", "sigma.json")
    out["cli.decompose.out"] = _run_cli(("decompose", *operands, "--out", "dec.json"))
    out["cli.decompose.json"] = (workdir / "dec.json").read_bytes()
    for predicate in CHECKS:
        out[f"cli.check.{predicate}.out"] = _run_cli(("check", predicate, *operands))
    argv = ["qlan", "--model", CLI_MODEL]
    for study in CLI_STUDIES:
        argv += ["--study", study]
    out["cli.qlan.out"] = _run_cli((*argv, "--out", "qlan.json"))
    for study in CLI_STUDIES:
        out[f"cli.qlan.{study}.json"] = (workdir / f"qlan.{study}.json").read_bytes()
    return out


def pair_bytes() -> dict[str, bytes]:
    rho, sigma = _pair(NEAR_SINGULAR_PAIR)
    return {
        "pair.near_singular.json": matio.dumps_json({
            "rho": matio.matrix_to_json_dict(rho.matrix),
            "sigma": matio.matrix_to_json_dict(sigma.matrix),
        }).encode(),
    }


def qllr_bytes() -> dict[str, bytes]:
    rows = []
    for d, kr, seed in QLLR_PAIRS:
        rho, sigma = _pair((d, kr, d, seed, "generic"))
        l_matrix = decomp.qllr(sigma, rho).l_matrix
        rows.append({"dim": d, "rank_rho": kr, "seed": seed,
                     "l_matrix": matio.matrix_to_json_dict(l_matrix)})
    return {"qllr.json": matio.dumps_json(rows).encode()}


def _golden(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("report", REPORTS)
@pytest.mark.parametrize("family", FAMILIES)
def test_study_report_bytes(family, report):
    assert study_report_bytes(family, report) == _golden(_fixture_name(family, report))


def test_cli_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    produced = cli_outputs(tmp_path)
    assert set(produced) == {p.name for p in GOLDEN.glob("cli.*")}
    for name, data in produced.items():
        assert data == _golden(name), name


def test_generated_pair_bytes():
    for name, data in pair_bytes().items():
        assert data == _golden(name), name


def test_qllr_bytes():
    for name, data in qllr_bytes().items():
        assert data == _golden(name), name


def test_every_fixture_is_checked():
    checked = {_fixture_name(f, r) for f in FAMILIES for r in REPORTS}
    checked |= {p.name for p in GOLDEN.glob("cli.*")} | {"pair.near_singular.json", "qllr.json"}
    assert {p.name for p in GOLDEN.iterdir()} == checked
