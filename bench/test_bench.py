"""Self-checks of the benchmark itself (run with ``python3 -m pytest bench``).

They are kept out of the library's test suite so that it stays fast: the
first test runs every workload once per trace mode.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run

workloads = run.import_program()

import numpy as np  # noqa: E402  (after import_program put src/ on the path)

from tracing import EIGH, LAYERS, Profile, Tracer  # noqa: E402

with open(run.SPEC_PATH, encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*argv: str, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *argv],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


def _library_bindings() -> dict:
    """Every function object bound in a qleb namespace, plus the other patch points."""
    names = ["qleb", *(f"qleb.{m}" for m in LAYERS)]
    found = {}
    for name in names:
        for attr, obj in vars(importlib.import_module(name)).items():
            if inspect.isfunction(obj):
                found[name, attr] = obj
    spec = importlib.import_module("qleb.gaussian").GaussianSpec
    found["GaussianSpec", "__post_init__"] = spec.__post_init__
    found["numpy.linalg", "eigh"] = np.linalg.eigh
    return found


def _one_round(workload, tracer=None) -> run.Phase:
    return run.measure(workload, 0.0, tracer=tracer)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    spans = os.path.join(run.OUT_DIR, f"{workload}.spans.jsonl")
    with contextlib.suppress(FileNotFoundError):
        os.unlink(spans)
    # the default seed, so that pairs runs are held to their per-item census
    proc = _run("--workload", workload, "--seed", str(run.DEFAULT_SEED),
                "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert f"  {m['name']} = " in proc.stdout
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
        # census failures are not in `failed`, but they still count against ok_frac
        if workload.startswith("pairs-"):
            assert result["metrics"]["ok_frac"]["value"] < 1.0
    else:
        with open(spans, encoding="utf-8") as fh:
            assert json.loads(fh.readline())["parent"] == -1


def test_untraced_run_leaves_the_library_unwrapped():
    before = _library_bindings()
    workload = workloads.make("pairs-small", 3, "", {})
    seen = []
    check = workload.check

    def watching_check(item, raw):
        seen.append(_library_bindings() == before)
        return check(item, raw)

    workload.check = watching_check
    _one_round(workload)
    assert seen and all(seen)
    assert _library_bindings() == before


def test_tracer_wraps_every_layer_and_restores_it():
    before = _library_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _library_bindings()
        assert during["numpy.linalg", "eigh"] is not before["numpy.linalg", "eigh"]
        # a name imported into another module is wrapped there too
        assert during["qleb.decomp", "positive"] is during["qleb.linalg", "positive"]
        assert during["qleb.decomp", "positive"] is not before["qleb.decomp", "positive"]
        assert all(during[k] is not before[k] for k in before
                   if k[0] == "qleb.cli" and not k[1].startswith("_")
                   and before[k].__module__ == "qleb.cli")
    finally:
        tracer.uninstall()
    assert _library_bindings() == before


@pytest.mark.parametrize("name", ["pairs-small", "qlan-studies", "cli"])
def test_tracing_changes_no_result(name, tmp_path):
    workload = workloads.make(name, 3, str(tmp_path), run.child_env())
    if name == "cli":
        workload.make_reference()
    untraced = _one_round(workload)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _one_round(workload, tracer=tracer)
    finally:
        tracer.uninstall()
    assert Profile(tracer).calls(EIGH) > 0
    assert traced.records == untraced.records
    assert traced.failed == untraced.failed
    if name == "cli":
        # both reproduce the bytes of the `python -m qleb.cli` reference runs
        assert sum(untraced.attempted.values()) == len(workload.items)
        assert not untraced.failed


def test_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        workload = workloads.make("pairs-small", 5, "", {})
        tracer = Tracer()
        tracer.install()
        try:
            phase = _one_round(workload, tracer=tracer)
        finally:
            tracer.uninstall()
        profile = Profile(tracer)
        counts.append((profile.calls(EIGH), profile.calls("linalg.positive"),
                       dict(phase.attempted), dict(phase.failed)))
    assert counts[0] == counts[1]


def test_spans_nest_and_are_written_out(tmp_path):
    workload = workloads.make("qlan-studies", 3, "", {})
    tracer = Tracer()
    tracer.install()
    try:
        _one_round(workload, tracer=tracer)
    finally:
        tracer.uninstall()
    path = tmp_path / "spans.jsonl"
    tracer.write(str(path))
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    # self times partition the time of the outermost spans
    top_ms = sum(s["dur_ms"] for s in spans if s["parent"] < 0)
    assert sum(s["self_ms"] for s in spans) == pytest.approx(top_ms, rel=1e-9)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert -1e-9 <= s["self_ms"] <= s["dur_ms"] + 1e-9
        if s["parent"] >= 0:
            parent = by_id[s["parent"]]
            assert parent["start_s"] <= s["start_s"]
            assert s["dur_ms"] <= parent["dur_ms"] + 1e-9
    assert {s["name"] for s in spans if s["parent"] < 0} == {
        f"qlan.{r}" for r in workloads.STUDY_REPORTS} | {"qlan.sld_set", "qlan.iid_remainder_rule"}


def test_census_admits_only_seed_commit_failures():
    census = workloads.Census.load()
    seed = run.DEFAULT_SEED
    listed = census.items["pairs-small"][seed]
    index, op, reason = min(listed)
    pairs = workloads.make("pairs-small", seed, "", {}).items
    mode = pairs[index].mode
    known = (index, op, mode, reason)
    assert census.unexpected("pairs-small", seed, {known}) == []
    # the same failure on an item that did not fail so at the seed commit is new ...
    other = next(i for i, p in enumerate(pairs)
                 if p.mode == mode and (i, op, reason) not in listed)
    moved = (other, op, mode, reason)
    assert census.unexpected("pairs-small", seed, {known, moved}) == [moved]
    # ... but at a seed without an item census, only its class is checked
    assert census.unexpected("pairs-small", seed + 1, {moved}) == []
    for new in [(index, op, mode, "untyped:LinAlgError"), (index, op, "generic", reason),
                (0, "qclt_report", "spin-pure", "verdict_fail")]:
        assert census.unexpected("pairs-small", seed + 1, {new}) == [new]


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "pairs-small", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
