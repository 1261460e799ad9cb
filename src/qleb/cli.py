"""Command-line front end.

    qleb decompose --rho rho.json --sigma sigma.json --out dec.json
    qleb check singular --rho rho.json --sigma sigma.json
    qleb qlan --model spin-pure --study qclt --n 100,1000,10000 --xi 1,0

Exit codes: 0 pass / verdict true, 1 fail / verdict false, 2 invalid input,
3 route disagreement beyond tolerance, 4 support violation. Reports embed
the resolved configuration and library version; identical configurations
produce byte-identical JSON. The parser is built once per process, on the
first ``main`` call, and later in-process calls reuse it; a one-shot
``qleb`` process builds it once, as before. So is each built-in model, whose
q-LAN base later ``qlan`` calls then share; a ``table:<path>`` model is read
afresh on every call, as its file may change.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__, decomp, linalg, matio, models, qlan
from .errors import QlebError, SupportViolationError
from .linalg import DEFAULT_CUTOFF, HERMITIAN_TOL, hermitize

#: routes must agree on sigma_ac to this max-entry norm unless overridden
ROUTE_TOL = 1e-8

_INPUT_ERRORS = (OSError, json.JSONDecodeError, QlebError, ValueError, KeyError, TypeError)


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        items = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated number list, got {text!r}")
    if not items:
        raise ValueError(f"{flag} list is empty")
    return items


def _parse_n_list(text: str) -> list[int]:
    return [qlan._positive_n(x) for x in _parse_float_list(text, "--n")]


def _resolve_cutoff(args) -> float | None:
    if args.cutoff is not None:
        return args.cutoff
    env = os.environ.get("QLEB_CUTOFF")
    if env:
        try:
            return float(env)
        except ValueError:
            raise ValueError(f"QLEB_CUTOFF must be a float, got {env!r}")
    return None


def _load_operator(path: str, hermitian_tol: float, cutoff: float | None):
    m = hermitize(matio.load_matrix(path), tol=hermitian_tol)
    return linalg._positive(m[None], linalg._resolve_cutoff(cutoff))


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        matio.write_text_atomic(out, text)
        print(f"wrote {out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _fmt(value: float) -> str:
    return format(float(value), ".6e")


def cmd_decompose(args) -> int:
    if args.format != "json":
        raise ValueError("decompose reports are JSON only")
    cutoff = _resolve_cutoff(args)
    rho = _load_operator(args.rho, args.hermitian_tol, cutoff)
    sigma = _load_operator(args.sigma, args.hermitian_tol, cutoff)
    block = decomp.lebesgue_decompose(sigma, rho, cutoff)
    direct = decomp.lebesgue_decompose_direct(sigma, rho, cutoff)
    gap = float(np.max(np.abs(block.sigma_ac.matrix - direct.sigma_ac.matrix)))
    config = {
        "command": "decompose",
        "rho": args.rho,
        "sigma": args.sigma,
        "cutoff": cutoff,
        "hermitian_tol": args.hermitian_tol,
        "route_tol": args.route_tol,
        "format": args.format,
    }
    payload = {
        "block": matio.decomposition_to_json_dict(block),
        "direct": matio.decomposition_to_json_dict(direct),
        "route_gap": gap,
    }
    _write_or_print(matio.dumps_json(matio.report_envelope(config, payload)) + "\n",
                    args.out)
    print(f"route gap {_fmt(gap)} (tolerance {_fmt(args.route_tol)})")
    if gap > args.route_tol:
        print("routes disagree beyond tolerance", file=sys.stderr)
        return 3
    return 0


def cmd_check(args) -> int:
    cutoff = _resolve_cutoff(args)
    rho = _load_operator(args.rho, args.hermitian_tol, cutoff)
    sigma = _load_operator(args.sigma, args.hermitian_tol, cutoff)
    if args.predicate == "singular":
        chk = decomp.is_singular(rho, sigma, cutoff)
        print(f"singular: {bool(chk)}")
        print(f"  trace overlap      {_fmt(chk.trace_overlap)} (bound {_fmt(chk.trace_bound)})")
        print(f"  excision norm      {_fmt(chk.excision_norm)} (bound {_fmt(chk.excision_bound)})")
        print(f"  projector overlap  {_fmt(chk.projector_overlap)} (bound {_fmt(chk.projector_bound)})")
        print(f"  criteria consistent: {chk.consistent}")
        return 0 if chk else 1
    if args.predicate == "ac":
        chk = decomp.is_absolutely_continuous(rho, sigma, cutoff)
        print(f"absolutely continuous (rho << sigma): {bool(chk)}")
        print(f"  min excision eigenvalue {_fmt(chk.excision_min_eigenvalue)} "
              f"(floor {_fmt(chk.positivity_floor)})")
        if chk.witness_residual is not None:
            print(f"  witness residual        {_fmt(chk.witness_residual)}")
        return 0 if chk else 1
    chk = decomp.is_mutually_ac(rho, sigma, cutoff)
    print(f"mutually absolutely continuous: {bool(chk)}")
    print(f"  rho << sigma: {bool(chk.forward)}")
    print(f"  sigma << rho: {bool(chk.backward)}")
    print(f"  rank criterion: {chk.rank_criterion} (consistent: {chk.consistent})")
    return 0 if chk else 1


def _default_h(theta_dim: int) -> np.ndarray:
    base = np.zeros(theta_dim)
    base[0] = 0.3
    if theta_dim > 1:
        base[1] = 0.1
    return base


def _default_queries(theta_dim: int) -> list[np.ndarray]:
    grid = [np.eye(theta_dim)[i] for i in range(theta_dim)]
    grid += [-np.eye(theta_dim)[i] for i in range(theta_dim)]
    grid.append(np.full(theta_dim, 0.5))
    return grid


def _study_out(out: str | None, study: str, many: bool) -> str | None:
    if out is None or not many:
        return out
    stem, ext = os.path.splitext(out)
    return f"{stem}.{study}{ext or '.json'}"


@functools.cache
def _builtin_model(name: str) -> qlan.ParametricModel:
    """``models.get_model(name)`` for a built-in name, kept for the process.

    Only the few built-in names resolve; any other raises, which is not kept.
    """
    return models.get_model(name)


def cmd_qlan(args) -> int:
    cutoff = _resolve_cutoff(args)
    # a table's file may change between calls, so it is read on each
    model = (models.get_model if args.model.startswith("table:") else _builtin_model)(args.model)
    n_grid = _parse_n_list(args.n)
    if args.xi:
        queries = [_parse_float_list(tok, "--xi") for tok in args.xi]
    else:
        queries = _default_queries(model.theta_dim)
    query_grid = [[q] for q in queries]
    h = (np.asarray(_parse_float_list(args.h, "--h"), dtype=float)
         if args.h else _default_h(model.theta_dim))
    studies = args.study or ["qclt"]
    config_common = {
        "command": "qlan",
        "model": args.model,
        "n": n_grid,
        "h": [float(x) for x in h],
        "xi": [[[float(c), 0.0] for c in q] for q in queries],
        "cutoff": cutoff,
        "seed": args.seed,
        "format": args.format,
    }
    all_pass = True
    for study in studies:
        if study == "qclt":
            report = qlan.qclt_report(model, query_grid, n_grid, cutoff=cutoff)
        elif study == "lecam":
            report = qlan.lecam_report(model, None, h, query_grid, n_grid,
                                       cutoff=cutoff)
        elif study == "sandwich":
            report = qlan.sandwich_report(model, h, query_grid, n_grid,
                                          cutoff=cutoff)
        else:
            report = qlan.oh2_report(model, seed=args.seed, cutoff=cutoff)
        config = dict(config_common, study=study)
        out = _study_out(args.out, study, len(studies) > 1)
        if args.format == "csv":
            _write_or_print(matio.report_to_csv(report), out)
        else:
            envelope = matio.report_envelope(config, report.to_json_dict())
            _write_or_print(matio.dumps_json(envelope) + "\n", out)
        verdict = report.verdict
        all_pass = all_pass and verdict == "pass"
        if isinstance(report, qlan.ConvergenceReport):
            rate = "n/a" if report.fitted_rate is None else f"{report.fitted_rate:.3f}"
            print(f"study {study}: {verdict} (fitted rate {rate})")
        else:
            slope = "n/a" if report.slope is None else f"{report.slope:.3f}"
            print(f"study {study}: {verdict} (slope {slope})")
    return 0 if all_pass else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qleb",
        description="Lebesgue decomposition of positive operators and "
                    "convergence studies for local asymptotic normality.",
    )
    parser.add_argument("--version", action="version", version=f"qleb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="split sigma along rho by both routes")
    dec.add_argument("--rho", required=True, help="reference operator (matrix JSON)")
    dec.add_argument("--sigma", required=True, help="operator to split (matrix JSON)")
    dec.add_argument("--out", default=None, help="report path (default: stdout)")
    dec.add_argument("--format", choices=("json", "csv"), default="json")
    dec.add_argument("--hermitian-tol", type=float, default=HERMITIAN_TOL,
                     help="max allowed non-Hermitian part in inputs")
    dec.add_argument("--route-tol", type=float, default=ROUTE_TOL,
                     help="max allowed disagreement between the two routes")

    chk = sub.add_parser("check", help="evaluate a relation between two operators")
    chk.add_argument("predicate", choices=("singular", "ac", "mutual"))
    chk.add_argument("--rho", required=True)
    chk.add_argument("--sigma", required=True)
    chk.add_argument("--hermitian-tol", type=float, default=HERMITIAN_TOL)

    ql = sub.add_parser("qlan", help="run convergence studies on a model")
    ql.add_argument("--model", required=True,
                    help="spin-pure, spin-perturbed:quartic, spin-perturbed:cubic, "
                         "spin-perturbed:squared, qubit-fullrank, table:<path>")
    ql.add_argument("--study", action="append",
                    choices=("qclt", "lecam", "oh2", "sandwich"),
                    help="repeatable; default qclt")
    ql.add_argument("--n", default="100,1000,10000",
                    help="comma-separated n grid")
    ql.add_argument("--h", default=None, help="local shift, comma-separated")
    ql.add_argument("--xi", action="append",
                    help="real query vector, comma-separated; repeatable")
    ql.add_argument("--out", default=None,
                    help="report path; multiple studies write <stem>.<study><ext>")
    ql.add_argument("--format", choices=("json", "csv"), default="json")
    ql.add_argument("--seed", type=int, default=0)
    for p in (dec, chk, ql):
        p.add_argument("--cutoff", type=float, default=None,
                       help=f"rank cutoff (default: QLEB_CUTOFF or {DEFAULT_CUTOFF})")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # looked up per call: the cached parser binds no cmd_* function
        command = {"decompose": cmd_decompose, "check": cmd_check, "qlan": cmd_qlan}
        return command[args.command](args)
    except SupportViolationError as exc:
        detail = ""
        if exc.n is not None:
            detail = f" (n = {exc.n}"
            if exc.theta is not None:
                detail += f", theta = {np.asarray(exc.theta).tolist()}"
            detail += ")"
        print(f"support violation: {exc}{detail}", file=sys.stderr)
        return 4
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
