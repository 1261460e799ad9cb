#!/usr/bin/env python3
"""qleb benchmark: end-to-end and per-layer metrics for each workload.

One run of one workload:

    python3 bench/run.py --workload pairs-small --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured with
nothing wrapped. ``--trace 1`` prints the per-layer metrics: the run first
measures half its time untraced, then installs the span tracer and measures
the other half, so tracing overhead is traced minus untraced; every span of
the traced half is written to ``.bench_out/<workload>.spans.jsonl``, which the
workload's next traced run replaces.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

With no ``--workload``, every workload runs untraced and then traced, and
every metric is printed by name with its unit.

The program under test is imported from ``src/`` next to this directory and
nowhere else; without it the benchmark exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

#: BLAS threads, fixed in this process's environment before numpy loads (and
#: inherited by every child); one thread is no slower than two at d = 64 on
#: the 2-core machine the baseline was taken on
BLAS_THREADS = 1

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 1
HELD_OUT_SEED = 7

#: set-ups per run: the run's own plus this many in child processes, spread
#: over the measured time so that one slow spell of the host does not hold
#: them all
SETUP_CHILDREN = 4

#: subprocess samples for cli.import_ms and cli.interp_ms
PROBE_SAMPLES = 5


class SetupError(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


def load_spec() -> dict:
    try:
        with open(SPEC_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SetupError(f"cannot read {SPEC_PATH}: {exc}") from exc


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_program():
    """Import qleb from this checkout's src/ and the workloads built on it."""
    if not os.path.isfile(os.path.join(SRC, "qleb", "__init__.py")):
        raise SetupError(f"no qleb package under {SRC}")
    sys.path.insert(0, SRC)
    import qleb
    if not os.path.abspath(qleb.__file__).startswith(SRC + os.sep):
        raise SetupError(f"qleb was imported from {qleb.__file__}, not from {SRC}")
    import workloads
    return workloads


def set_up(name: str, seed: int, workdir: str):
    """Import plus input generation: the span that setup_s measures."""
    t0 = time.perf_counter()
    workloads = import_program()
    workload = workloads.make(name, seed, workdir, child_env())
    return workload, time.perf_counter() - t0


# -- measuring -------------------------------------------------------------------


@dataclass
class Phase:
    """Timings and checked outcomes of one measured phase."""

    #: item latencies, one list per round, in item order
    rounds_ms: list[list[float]] = field(default_factory=list)
    fn_ms: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    group_ms: dict[tuple, list[float]] = field(default_factory=lambda: defaultdict(list))
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    reasons: Counter = field(default_factory=Counter)
    bytes_written: int = 0
    #: peak RSS once the first round is done: a fixed amount of work, since
    #: the heap creeps by fragmentation over further rounds
    rss_mb: float = 0.0
    records: list[str] | None = None
    deterministic: bool = True
    #: every (item index, operation, mode, reason) that failed, over all rounds
    failures: set[tuple[int, str, str, str]] = field(default_factory=set)
    #: failed executions per (item index, operation, mode), over all rounds
    failed_at: Counter = field(default_factory=Counter)

    @property
    def items(self) -> int:
        return sum(map(len, self.rounds_ms))

    @property
    def best_ms(self) -> list[float]:
        """Each item's best latency over the rounds.

        Rounds repeat identical inputs, so an item's spread across rounds is
        the machine's, not the library's: on a shared host the same round
        can take twice as long from one second to the next. The best of the
        rounds filters that contention out; percentiles over items keep the
        spread that the inputs cause.
        """
        return [min(times) for times in zip(*self.rounds_ms)]


def measure(workload, seconds: float, tracer=None, between_rounds=None) -> Phase:
    """Closed loop, one client: whole rounds over the items, ending at the
    round boundary nearest to ``seconds`` of measured time (at least one).

    Only the library call is timed (and traced); each result is checked
    after the clock stops. Every round repeats the same inputs, so per-item
    counts over whole rounds repeat exactly for a given seed. After each
    round but the last, ``between_rounds`` gets the share of ``seconds``
    measured so far; the time it takes is not measured time.
    """
    call = workload.caller(tracer)
    warmed = set()
    for item in workload.items:
        if item.group not in warmed:
            warmed.add(item.group)
            call(item)
    phase = Phase()
    clock = time.perf_counter
    measured = 0.0
    while True:
        started = clock()
        records = []
        latencies = []
        for index, item in enumerate(workload.items):
            if tracer is not None:
                tracer.active = True
            t0 = clock()
            raw = call(item)
            ms = (clock() - t0) * 1e3
            if tracer is not None:
                tracer.active = False
            outcome = workload.check(item, raw)
            latencies.append(ms)
            phase.group_ms[item.group].append(ms)
            for fn, fn_ms in workload.timings(raw).items():
                phase.fn_ms[fn].append(fn_ms)
            for op, mode, ok, reason in outcome.ops:
                phase.attempted[op, mode] += 1
                if not ok:
                    phase.failed[op, mode] += 1
                    phase.failed_at[index, op, mode] += 1
                    for r in reason.split(";"):
                        phase.reasons[op, mode, r] += 1
                        phase.failures.add((index, op, mode, r))
            phase.bytes_written += outcome.bytes_written
            records.append(repr(outcome.record))
        phase.rounds_ms.append(latencies)
        if phase.records is None:
            phase.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            phase.records = records
        elif records != phase.records:
            phase.deterministic = False
        round_s = clock() - started
        measured += round_s
        if measured + round_s / 2 >= seconds:
            return phase
        if between_rounds is not None:
            between_rounds(measured / seconds)


def _median_of_children(argv: list[str], samples: int, parse) -> float:
    values = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=120, check=True)
        values.append(parse(proc.stdout, (time.perf_counter() - t0) * 1e3))
    return statistics.median(values)


def setup_child(name: str, seed: int) -> float:
    """setup_s of a fresh interpreter, as the first run in a checkout pays it."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def cli_probes() -> dict[str, float]:
    """Interpreter-plus-numpy floor and ``import qleb.cli`` time, in ms."""
    interp = _median_of_children([sys.executable, "-c", "import numpy"],
                                 PROBE_SAMPLES, lambda out, wall: wall)
    code = ("import time; t = time.perf_counter(); import qleb.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    imp = _median_of_children([sys.executable, "-c", code], PROBE_SAMPLES,
                              lambda out, wall: float(out.split()[-1]))
    return {"cli.interp_ms": interp, "cli.import_ms": imp}


# -- metrics ---------------------------------------------------------------------


def _frac(phase: Phase, op: str, mode: str | None = None) -> float:
    keys = [k for k in phase.attempted if k[0] == op and (mode is None or k[1] == mode)]
    attempted = sum(phase.attempted[k] for k in keys)
    return sum(phase.failed[k] for k in keys) / attempted if attempted else 0.0


def end_to_end(phase: Phase, setups: list[float]) -> dict:
    attempted = sum(phase.attempted.values())
    best = phase.best_ms
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": len(best) / (math.fsum(best) / 1e3),
        "item_ms_p50": statistics.median(best),
        "item_ms_p90": statistics.quantiles(best, n=10, method="inclusive")[8],
        "ok_frac": 1.0 - sum(phase.failed.values()) / attempted,
        "peak_rss_mb": phase.rss_mb,
    }


def per_layer(workload, untraced: Phase, traced: Phase, profile, probes) -> dict:
    from tracing import EIGH, LAYERS
    import workloads as wl

    n = traced.items
    per_item = lambda x: x / n
    med = lambda xs: statistics.median(xs) if xs else 0.0
    eigh_ms = profile.total_ms(EIGH)
    eigh_self = profile.self_ms(EIGH)
    m = {
        "linalg.hermitize.calls": per_item(profile.calls("linalg.hermitize")),
        "linalg.positive.calls": per_item(profile.calls("linalg.positive")),
        "linalg.positive.self_ms": per_item(profile.self_ms("linalg.positive")),
        "linalg.overhead_ratio": ((profile.layer_self_ms("linalg") - eigh_self) / eigh_ms
                                  if eigh_ms else 0.0),
        "linalg.eigh.calls": per_item(profile.calls(EIGH)),
        "linalg.eigh.ms": per_item(eigh_ms),
        "linalg.expm.calls": per_item(profile.calls("linalg.expm")),
        "linalg.expm.self_ms": per_item(profile.self_ms("linalg.expm")),
        "linalg.geometric_mean.calls": per_item(profile.calls("linalg.geometric_mean")),
    }
    for layer in LAYERS:
        own = profile.layer_self_ms(layer) - (eigh_self if layer == "linalg" else 0.0)
        m[f"{layer}.self_ms"] = per_item(own)

    def eigh_per_call(label: str) -> float:
        tops = profile.top_calls(label)
        return profile.calls_under_top(EIGH, label) / tops if tops else 0.0

    for fn in wl.DECOMP_FNS:
        m[f"decomp.{fn}.ms_p50"] = med(untraced.fn_ms.get(fn, []))
        m[f"decomp.{fn}.eigh_calls"] = eigh_per_call(f"decomp.{fn}")
    for op in (*wl.DECOMP_FNS, wl.ROUTE_CHECK):
        m[f"decomp.{op}.failed_frac"] = _frac(untraced, op)
        for mode in wl.MODES:
            m[f"decomp.{op}.{mode}.failed_frac"] = _frac(untraced, op, mode)
    for report in wl.STUDY_REPORTS:
        m[f"qlan.{report}.ms_p50"] = med(untraced.group_ms.get((report,), []))
        m[f"qlan.{report}.eigh_calls"] = eigh_per_call(f"qlan.{report}")
        m[f"qlan.{report}.failed_frac"] = _frac(untraced, report)
    for label in ("qlan.sld_set", "qlan.collective_qcf_factorized", "decomp.qllr",
                  "gaussian.qcf", "gaussian.GaussianSpec", "models.state_at"):
        m[f"{label}.calls"] = per_item(profile.calls(label))
    m["gaussian.qcf.self_ms"] = per_item(profile.self_ms("gaussian.qcf"))
    m["models.random_psd_pair.ms"] = med(workload.generator_ms)
    m["cli.interp_ms"] = probes.get("cli.interp_ms", 0.0)
    m["cli.import_ms"] = probes.get("cli.import_ms", 0.0)
    m["cli.process_ms"] = med(getattr(workload, "process_ms", []))
    for sub in ("decompose", "check", "qlan"):
        m[f"cli.main.{sub}.ms"] = (med(untraced.group_ms.get((sub,), []))
                                   if workload.name == "cli" else 0.0)
    for fn in ("load_matrix", "dumps_json", "write_text_atomic"):
        m[f"matio.{fn}.ms"] = per_item(profile.total_ms(f"matio.{fn}"))
    m["matio.bytes_written"] = per_item(traced.bytes_written)
    plain, traced_ms = math.fsum(untraced.best_ms), math.fsum(traced.best_ms)
    m["trace.overhead_ms"] = (traced_ms - plain) / len(workload.items)
    m["trace.overhead_frac"] = traced_ms / plain - 1.0
    return m


def run_record() -> dict:
    import platform
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


# -- entry points ----------------------------------------------------------------


def run_one(args, spec: dict) -> int:
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    workdir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        if hasattr(workload, "make_reference"):
            workload.make_reference()
        if not args.trace:
            setups = [setup_s]

            def set_up_again(done: float) -> None:
                while len(setups) <= SETUP_CHILDREN * done:
                    setups.append(setup_child(args.workload, args.seed))

            phase = measure(workload, args.seconds, between_rounds=set_up_again)
            set_up_again(1.0)
            phases = [phase]
            values = end_to_end(phase, setups)
        else:
            from tracing import Profile, Tracer
            untraced = measure(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds / 2, tracer=tracer)
            finally:
                tracer.uninstall()
            tracer.write(os.path.join(OUT_DIR, f"{args.workload}.spans.jsonl"))
            probes = cli_probes() if args.workload == "cli" else {}
            phases = [untraced, traced]
            values = per_layer(workload, untraced, traced, Profile(tracer), probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(OUT_DIR)  # kept while it holds spans or another run's workdir

    import workloads  # already loaded by set_up, which put src/ on the path

    reproducible = all(p.deterministic for p in phases)
    tracing_neutral = all(p.records == phases[0].records for p in phases)
    census = workloads.Census.load()
    unexpected = census.unexpected(args.workload, args.seed,
                                   set().union(*(p.failures for p in phases)))
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not computed: {', '.join(missing)}")
    attempted = sum(sum(p.attempted.values()) for p in phases)
    # the census failures are the expected outcome of their operations at the
    # seed commit (ok_frac and the per-mode shares report them); an operation
    # fails when it fails in a way the census lacks
    failed = sum(p.failed_at[at] for p in phases for at in {u[:3] for u in unexpected})

    print(f"run record: {json.dumps(run_record(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(workload.items)} items, each timed in {len(phases[0].rounds_ms)} rounds"
          + (f", then traced in {len(phases[1].rounds_ms)}" if args.trace else ""))
    first = phases[0]
    for (op, mode), tried in sorted(first.attempted.items()):
        bad = first.failed[op, mode]
        if bad:
            why = ", ".join(f"{r} {c}" for (o, md, r), c in sorted(first.reasons.items())
                            if (o, md) == (op, mode))
            print(f"  failed {op} [{mode or '-'}]: {bad}/{tried} ({why})")
    print(f"  failures outside the seed-commit census ({census.scope(args.workload, args.seed)}): "
          f"{len(unexpected)}")
    for index, op, mode, reason in unexpected[:20]:
        print(f"    item {index} ({workload.items[index].label}) {op}: {reason}")
    print(f"  outputs repeat across rounds: {reproducible}"
          + (f"; traced results equal untraced: {tracing_neutral}" if args.trace else ""))
    for name in units:
        print(f"  {name} = {values[name]!r} {units[name]}")
    correct = reproducible and tracing_neutral and not unexpected
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                    "--seed", str(args.seed), "--seconds", str(seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                                  timeout=900)
            sys.stdout.write(proc.stdout)
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                print(f"workload {w['name']} trace {trace}: exit {proc.returncode}")
                ok = False
    return 0 if ok else 1


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all of them")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.workload is None:
            return run_all(args, spec)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        return run_one(args, spec)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
