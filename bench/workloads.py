"""The benchmark's workloads: inputs, timed calls and output checks.

Every workload builds its inputs from the library's seeded generators during
set-up. The timed call of an item gets plain complex ndarrays, so each call
pays its own validation at the public boundary, as a library user's call
does. Library functions are always looked up on their module at call time
(``decomp.qllr``, not a name bound at import), so the tracer's wrappers see
every call.

Each check turns one item's result into operations, each passed or failed
with a reason, and a record: the item's verdicts, route gaps and output
bytes, compared across rounds and between traced and untraced phases.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from qleb import cli, decomp, matio, models, qlan
from qleb.errors import QlebError

WORKLOADS = ("pairs-small", "pairs-large", "qlan-studies", "cli")

MODES = ("generic", "orthogonal", "near_singular", "near_deficient")

DECOMP_FNS = ("is_singular", "is_absolutely_continuous", "is_mutually_ac",
              "lebesgue_decompose", "lebesgue_decompose_direct", "qllr")

#: operation name of the check that both decomposition routes agree
ROUTE_CHECK = "route_agreement"

# Tolerances of the tier-1 decomposition invariants (tests/test_acceptance.py,
# criteria 5 and 6); the route tolerance is the CLI's own.
RECONSTRUCTION_TOL = 1e-10  # times max(1, ||sigma||_2), max entry
CROSS_TOL = 1e-10  # |Tr rho sigma_sing|
WITNESS_TOL = 1e-9  # max entry of R rho R - sigma_ac, and of R sigma R - rho
ROUTE_TOL = cli.ROUTE_TOL  # max entry of any two computations of sigma_ac

STUDY_MODELS = ("spin-pure", "spin-perturbed:quartic", "spin-perturbed:cubic",
                "spin-perturbed:squared", "qubit-fullrank")
STUDY_REPORTS = ("qclt_report", "lecam_report", "sandwich_report", "oh2_report",
                 "infinitesimal_probe")

#: studies expected to fail: f = ||theta||^2 is not o(||theta||^2), so the
#: squared family is not second-order normalized (the negative control)
EXPECTED_FAIL = {("spin-perturbed:squared", r)
                 for r in ("sandwich_report", "oh2_report", "infinitesimal_probe")}

#: eta values of the infinitesimality probe
ETA_GRID = (0.5, 1.0)

CLI_MODEL = "spin-perturbed:quartic"


def _max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _digest(a) -> str:
    return hashlib.blake2b(np.ascontiguousarray(a).tobytes(), digest_size=8).hexdigest()


def _sandwich_gap(r, rho_root, target) -> float:
    """max |R rho R - target|, with R rho R formed as (R rho^1/2)(R rho^1/2)*.

    This is how the library evaluates its own witness residual: R can be
    large (~ 1/sqrt of a small eigenvalue) while R rho^1/2 stays O(1), so
    the identity is checked without rounding amplified by ||R||^2.
    """
    m = r @ rho_root
    return _max_abs(m @ m.conj().T - target)


def _failure(exc: BaseException) -> str:
    kind = "typed" if isinstance(exc, QlebError) else "untyped"
    return f"{kind}:{type(exc).__name__}"


class Census:
    """The failures of the seed commit: a run may repeat them, never add one.

    Census failures count against ``ok_frac`` and the per-mode failure
    shares; only one outside the census counts in the result line's
    ``failed`` and makes a run incorrect. ``classes`` holds each (operation,
    mode, reason) that failed on a sweep of seeds; at the seed commit all of
    them are on ``near_singular`` and ``near_deficient`` pairs, which sit at
    the library's tolerances. ``items`` holds, for the default and held-out
    seeds, each (item index, operation, reason) that failed. At those seeds
    a failure is known only if that item failed that way; at any other seed,
    if its class is known. ``bench/census.py`` writes the census.
    """

    PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "known_failures.json")

    def __init__(self, classes, items):
        self.classes = {tuple(c) for c in classes}
        self.items = {workload: {int(seed): {tuple(f) for f in failures}
                                 for seed, failures in by_seed.items()}
                      for workload, by_seed in items.items()}

    @classmethod
    def load(cls) -> Census:
        with open(cls.PATH, encoding="utf-8") as fh:
            data = json.load(fh)
        return cls(data["classes"], data["items"])

    def scope(self, workload: str, seed: int) -> str:
        if seed in self.items.get(workload, {}):
            return f"per item at seed {seed}"
        return "per operation, mode and reason"

    def unexpected(self, workload: str, seed: int, failures) -> list[tuple]:
        """The (index, operation, mode, reason) failures the census lacks."""
        by_item = self.items.get(workload, {}).get(seed)
        return sorted(f for f in failures
                      if f[1:] not in self.classes
                      or (by_item is not None and (f[0], f[1], f[3]) not in by_item))


@dataclass
class Outcome:
    """One item's checked result."""

    #: (operation, mode, passed, reason); reason is "" when passed
    ops: list[tuple[str, str, bool, str]] = field(default_factory=list)
    #: comparable summary of every output the item produced
    record: tuple = ()
    #: bytes the item wrote to report files
    bytes_written: int = 0

    def add(self, op: str, mode: str, failures: list[str]) -> None:
        self.ops.append((op, mode, not failures, ";".join(failures)))


# -- pairs ---------------------------------------------------------------------


@dataclass(frozen=True)
class Pair:
    dim: int
    rank_rho: int
    rank_sigma: int
    mode: str
    rho: np.ndarray
    sigma: np.ndarray

    @property
    def group(self) -> tuple:
        return (self.dim, self.mode)

    @property
    def label(self) -> str:
        return f"d={self.dim} ranks {self.rank_rho}/{self.rank_sigma} {self.mode}"


def _small_mixes():
    for d in range(2, 7):
        for kr in range(1, d + 1):
            for ks in range(1, d + 1):
                yield d, kr, ks


def _large_mixes():
    # rank levels from deep kernels (rank << d) to full rank. d = 64 takes
    # the deep (8) and full (64) levels plus the half-rank pair (32, 32):
    # its pairs take 50-150 ms each, and these few keep a round near 2 s, so
    # that each pair is timed in a dozen rounds or more in a run. d = 16 has
    # more pairs than d = 64 so the median pair is a d = 16 one and the 90th
    # percentile a d = 64 one, each well inside its cluster.
    for kr in (1, 4, 8, 16):
        for ks in (1, 4, 8, 16):
            yield 16, kr, ks
    for kr, ks in ((8, 8), (8, 64), (64, 8), (64, 64), (32, 32)):
        yield 64, kr, ks


class PairsWorkload:
    """The decomposition pipeline on seeded random pairs, all four modes."""

    def __init__(self, name: str, seed: int):
        self.name = name
        mixes = list(_small_mixes() if name == "pairs-small" else _large_mixes())
        specs = [(d, kr, ks, mode) for mode in MODES for d, kr, ks in mixes
                 if mode in ("generic", "near_deficient") or kr + ks <= d]
        seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=len(specs))
        self.items = []
        self.generator_ms = []
        for (d, kr, ks, mode), s in zip(specs, seeds):
            t0 = time.perf_counter()
            rho, sigma = models.random_psd_pair(
                models.RandomPsdPairSpec(d, kr, ks, seed=int(s), mode=mode))
            self.generator_ms.append((time.perf_counter() - t0) * 1e3)
            self.items.append(Pair(d, kr, ks, mode, np.array(rho.matrix),
                                   np.array(sigma.matrix)))

    def caller(self, tracer):
        return self.call

    @staticmethod
    def call(pair: Pair) -> dict:
        """Run the pipeline; each function's result (or exception) and ms."""
        rho, sigma = pair.rho, pair.sigma
        out = {}
        clock = time.perf_counter

        def run(name, *args):
            t0 = clock()
            try:
                result = getattr(decomp, name)(*args)
            except Exception as exc:  # counted as a failed operation
                result = exc
            out[name] = (result, (clock() - t0) * 1e3)
            return result

        run("is_singular", rho, sigma)
        ac = run("is_absolutely_continuous", rho, sigma)
        run("is_mutually_ac", rho, sigma)
        run("lebesgue_decompose", sigma, rho)
        run("lebesgue_decompose_direct", sigma, rho)
        if not isinstance(ac, Exception) and ac.absolutely_continuous:
            run("qllr", sigma, rho)
        return out

    @staticmethod
    def timings(raw: dict) -> dict[str, float]:
        return {name: ms for name, (_, ms) in raw.items()}

    def check(self, pair: Pair, raw: dict) -> Outcome:
        rho, sigma, mode = pair.rho, pair.sigma, pair.mode
        sigma_norm = float(np.linalg.norm(sigma, 2))
        w, v = np.linalg.eigh(rho)
        rho_root = v * np.sqrt(np.clip(w, 0.0, None))
        out = Outcome()
        record = []
        for name in DECOMP_FNS:
            if name not in raw:
                continue
            result = raw[name][0]
            if isinstance(result, Exception):
                out.add(name, mode, [_failure(result)])
                record.append((name, type(result).__name__))
                continue
            failures = []
            if name == "is_singular":
                record.append((name, result.singular, result.trace_overlap))
            elif name == "is_absolutely_continuous":
                record.append((name, result.absolutely_continuous,
                               result.excision_min_eigenvalue))
                if result.absolutely_continuous and not result.witness_residual <= WITNESS_TOL:
                    failures.append("witness")
            elif name == "is_mutually_ac":
                record.append((name, result.mutually_ac, result.rank_criterion))
            elif name == "qllr":
                record.append((name, _digest(result.l_matrix)))
                failures += self._check_qllr(rho_root, raw, result)
            else:
                record.append((name, _digest(result.sigma_ac.matrix)))
                failures += self._check_decomposition(pair, sigma_norm, rho_root, result)
            out.add(name, mode, failures)
        block = raw["lebesgue_decompose"][0]
        direct = raw["lebesgue_decompose_direct"][0]
        if not isinstance(block, Exception) and not isinstance(direct, Exception):
            gap = _max_abs(block.sigma_ac.matrix - direct.sigma_ac.matrix)
            out.add(ROUTE_CHECK, mode, [] if gap <= ROUTE_TOL else ["route_gap"])
            record.append((ROUTE_CHECK, gap))
        out.record = tuple(record)
        return out

    @staticmethod
    def _check_decomposition(pair: Pair, sigma_norm: float, rho_root, dec) -> list[str]:
        rho, sigma = pair.rho, pair.sigma
        failures = []
        ac, sing, r = dec.sigma_ac.matrix, dec.sigma_sing.matrix, dec.witness_r.matrix
        if not _max_abs(ac + sing - sigma) <= RECONSTRUCTION_TOL * max(1.0, sigma_norm):
            failures.append("reconstruction")
        if not abs(float(np.trace(rho @ sing).real)) <= CROSS_TOL:
            failures.append("cross_trace")
        if not _sandwich_gap(r, rho_root, ac) <= WITNESS_TOL:
            failures.append("witness")
        if pair.rank_rho == 1:
            # rho = lambda |psi><psi|: sigma_ac = sigma|psi><psi|sigma / <psi|sigma|psi>,
            # or 0 when the pair is mutually singular
            psi = rho_root[:, -1] / np.linalg.norm(rho_root[:, -1])
            s_psi = sigma @ psi
            overlap = float(np.real(psi.conj() @ s_psi))
            lam = float(np.linalg.norm(rho_root[:, -1])) ** 2
            if overlap <= decomp.SINGULARITY_TOL * lam * sigma_norm:
                closed = np.zeros_like(sigma)
            else:
                closed = np.outer(s_psi, s_psi.conj()) / overlap
            if not _max_abs(ac - closed) <= ROUTE_TOL:
                failures.append("rank_one_closed_form")
        return failures

    @staticmethod
    def _check_qllr(rho_root, raw: dict, version) -> list[str]:
        # exp(L/2) rho exp(L/2) is sigma_ac; compare with a route that returned
        for route in ("lebesgue_decompose", "lebesgue_decompose_direct"):
            dec = raw[route][0]
            if not isinstance(dec, Exception):
                w, v = np.linalg.eigh(version.l_matrix)
                half = (v * np.exp(w / 2.0)) @ v.conj().T
                gap = _sandwich_gap(half, rho_root, dec.sigma_ac.matrix)
                return [] if gap <= WITNESS_TOL else ["sandwich_identity"]
        return []


# -- q-LAN studies ---------------------------------------------------------------


@dataclass(frozen=True)
class Study:
    model: str
    report: str

    @property
    def group(self) -> tuple:
        return (self.report,)

    @property
    def label(self) -> str:
        return f"{self.report} on {self.model}"


class StudiesWorkload:
    """The five q-LAN reports on the built-in families; rho0 is shared."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.models = {m: models.get_model(m) for m in STUDY_MODELS}
        self.items = [Study(m, r) for m in STUDY_MODELS for r in STUDY_REPORTS]
        self.generator_ms = []
        # the CLI's own defaults: its parser's n grid, its h and its queries
        parsed = cli._build_parser().parse_args(["qlan", "--model", STUDY_MODELS[0]])
        self.n_grid = cli._parse_n_list(parsed.n)

    def caller(self, tracer):
        family = self.models
        if tracer is not None:
            family = {name: tracer.wrap_model(m) for name, m in family.items()}
        n_grid = self.n_grid

        def call(study: Study):
            model = family[study.model]
            h = cli._default_h(model.theta_dim)
            queries = [q[None, :] for q in cli._default_queries(model.theta_dim)]
            try:
                if study.report == "qclt_report":
                    return qlan.qclt_report(model, queries, n_grid)
                if study.report == "lecam_report":
                    b_ops = qlan.sld_set(model).l_ops
                    return qlan.lecam_report(model, b_ops, h, queries, n_grid)
                if study.report == "sandwich_report":
                    return qlan.sandwich_report(model, h, queries, n_grid)
                if study.report == "oh2_report":
                    return qlan.oh2_report(model, seed=self.seed)
                rule = qlan.iid_remainder_rule(model, h)
                return qlan.infinitesimal_probe(rule, model, queries, ETA_GRID, n_grid)
            except Exception as exc:  # counted as a failed operation
                return exc

        return call

    @staticmethod
    def timings(raw) -> dict[str, float]:
        return {}

    def check(self, study: Study, raw) -> Outcome:
        out = Outcome()
        if isinstance(raw, Exception):
            out.add(study.report, study.model, [_failure(raw)])
            out.record = (type(raw).__name__,)
            return out
        expected = "fail" if (study.model, study.report) in EXPECTED_FAIL else "pass"
        out.add(study.report, study.model,
                [] if raw.verdict == expected else [f"verdict_{raw.verdict}"])
        out.record = (matio.dumps_json(raw.to_json_dict()),)
        return out


# -- CLI ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    outputs: tuple[str, ...]

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def group(self) -> tuple:
        return (self.subcommand,)

    @property
    def label(self) -> str:
        return " ".join(self.argv[:2])


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    files: tuple[bytes, ...]


class CliWorkload:
    """``qleb.cli.main`` on JSON inputs written at set-up, timed in-process.

    Before timing, each invocation runs once as ``python -m qleb.cli`` in a
    subprocess; every timed call must reproduce that run's exit code, stdout
    and report bytes. The subprocess runs are not timed as items: their wall
    time is mostly interpreter start-up and imports, which drift with the
    host by more than any bound could absorb (quartile spreads of 0.12 to
    0.26 over ten runs on a shared 2-vCPU host), so they are reported as the
    per-layer ``cli.process_ms``, next to ``cli.import_ms`` and
    ``cli.interp_ms``, and the import also shows in ``setup_s``.
    """

    def __init__(self, name: str, seed: int, workdir: str, env: dict[str, str]):
        self.name = name
        self.workdir = workdir
        self.env = env
        self.generator_ms = []
        seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=2)
        paths = {}
        for (d, kr, ks), s in zip(((4, 2, 3), (16, 8, 12)), seeds):
            t0 = time.perf_counter()
            rho, sigma = models.random_psd_pair(
                models.RandomPsdPairSpec(d, kr, ks, seed=int(s)))
            self.generator_ms.append((time.perf_counter() - t0) * 1e3)
            for label, op in (("rho", rho), ("sigma", sigma)):
                path = os.path.join(workdir, f"d{d}_{label}.json")
                matio.dump_matrix(op.matrix, path)
                paths[d, label] = path
        out = lambda stem: os.path.join(workdir, "out", stem)
        os.makedirs(out(""), exist_ok=True)
        items = []
        for d in (4, 16):
            dest = out(f"decompose_d{d}.json")
            items.append(Invocation(
                ("decompose", "--rho", paths[d, "rho"], "--sigma", paths[d, "sigma"],
                 "--out", dest), (dest,)))
        for predicate in ("singular", "ac", "mutual"):
            items.append(Invocation(
                ("check", predicate, "--rho", paths[4, "rho"],
                 "--sigma", paths[4, "sigma"]), ()))
        studies = ("qclt", "lecam", "sandwich", "oh2")
        argv = ["qlan", "--model", CLI_MODEL]
        for study in studies:
            argv += ["--study", study]
        argv += ["--out", out("qlan.json")]
        items.append(Invocation(tuple(argv),
                                tuple(out(f"qlan.{s}.json") for s in studies)))
        self.items = items
        self.reference: dict[Invocation, CliResult] = {}
        #: wall time of each invocation's subprocess run, in ms
        self.process_ms: list[float] = []

    def caller(self, tracer):
        return self.call

    def _clear(self, inv: Invocation) -> None:
        for path in inv.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)

    def _collect(self, inv: Invocation, code: int, stdout: str) -> CliResult:
        files = []
        for path in inv.outputs:
            with contextlib.suppress(FileNotFoundError), open(path, "rb") as fh:
                files.append(fh.read())
        return CliResult(code, stdout, tuple(files))

    def call(self, inv: Invocation) -> CliResult:
        self._clear(inv)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(inv.argv))
        return self._collect(inv, code, buf.getvalue())

    def make_reference(self) -> None:
        """``python -m qleb.cli`` results every timed call must reproduce."""
        for inv in self.items:
            self._clear(inv)
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "qleb.cli", *inv.argv],
                                  capture_output=True, text=True, env=self.env,
                                  cwd=self.workdir, timeout=120)
            self.process_ms.append((time.perf_counter() - t0) * 1e3)
            self.reference[inv] = self._collect(inv, proc.returncode, proc.stdout)

    @staticmethod
    def timings(raw) -> dict[str, float]:
        return {}

    def check(self, inv: Invocation, raw: CliResult) -> Outcome:
        ref = self.reference[inv]
        failures = []
        if raw.code != ref.code:
            failures.append(f"exit_{raw.code}")
        if raw.stdout != ref.stdout:
            failures.append("stdout")
        if raw.files != ref.files or len(raw.files) != len(inv.outputs):
            failures.append("report_bytes")
        if inv.subcommand == "decompose" and raw.code != 0:
            failures.append("route_gap")
        out = Outcome(bytes_written=sum(len(f) for f in raw.files))
        out.add(inv.subcommand, inv.argv[1] if inv.subcommand == "check" else "",
                failures)
        out.record = (raw.code, raw.stdout, raw.files)
        return out


def make(name: str, seed: int, workdir: str, env: dict[str, str]):
    if name in ("pairs-small", "pairs-large"):
        return PairsWorkload(name, seed)
    if name == "qlan-studies":
        return StudiesWorkload(name, seed)
    if name == "cli":
        return CliWorkload(name, seed, workdir, env)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
