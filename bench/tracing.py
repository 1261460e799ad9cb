"""Span tracer that measures qleb's layers from outside the library.

``Tracer.install`` rebinds every public function of the qleb modules, in
every qleb namespace that holds it (``decomp`` imports ``positive`` by name,
so patching ``qleb.linalg`` alone would miss those calls), to a wrapper that
records a span: name, start, end, parent span and outermost span.
``numpy.linalg.eigh`` and ``GaussianSpec`` construction are wrapped the same
way. ``uninstall`` puts every original back. Untraced runs never install it.

Spans are kept in flat arrays while the run lasts and are aggregated, or
written out, once it ends. A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from dataclasses import replace

import numpy as np

#: qleb modules measured as layers, in dependency order
LAYERS = ("linalg", "decomp", "gaussian", "qlan", "models", "matio", "cli")

#: span name of the wrapped ``numpy.linalg.eigh``
EIGH = "linalg.eigh"


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._top = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: spans are recorded only while this is set, so harness code that
        #: runs between timed calls (output checks) is never counted
        self.active = False

    # -- recording ---------------------------------------------------------

    def _intern(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def wrap(self, label: str, fn):
        """Return ``fn`` wrapped so that each call records a span ``label``."""
        ident = self._intern(label)
        clock = time.perf_counter
        stack = self._stack
        names, parents, tops = self._name, self._parent, self._top
        starts, ends = self._start, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(ident)
            parents.append(stack[-1] if stack else -1)
            tops.append(stack[0] if stack else i)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def wrap_model(self, model):
        """Copy of a ``ParametricModel`` whose ``state_at`` records spans."""
        return replace(model, state_at=self.wrap("models.state_at", model.state_at))

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {name: importlib.import_module(f"qleb.{name}") for name in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in (importlib.import_module("qleb"), *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        spec = modules["gaussian"].GaussianSpec
        self._patch(spec, "__post_init__",
                    self.wrap("gaussian.GaussianSpec", spec.__post_init__))
        self._patch(np.linalg, "eigh", self.wrap(EIGH, np.linalg.eigh))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All recorded spans as arrays, with durations and self times in ms."""
        if self._stack:
            raise RuntimeError("spans read while a traced call is still open")
        name = np.array(self._name, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        top = np.array(self._top, dtype=np.int64)
        start = np.array(self._start, dtype=float)
        dur = (np.array(self._end, dtype=float) - start) * 1e3
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return {"name": name, "parent": parent, "top": top, "start": start,
                "dur_ms": dur, "self_ms": dur - covered}

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        s = self.spans()
        names = [json.dumps(label) for label in self.labels]
        rows = zip(s["name"].tolist(), s["parent"].tolist(), s["start"].tolist(),
                   s["dur_ms"].tolist(), s["self_ms"].tolist())
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(
                f'{{"id": {i}, "name": {names[name]}, "parent": {parent}, '
                f'"start_s": {start!r}, "dur_ms": {dur!r}, "self_ms": {own!r}}}\n'
                for i, (name, parent, start, dur, own) in enumerate(rows))


class Profile:
    """Aggregates over a tracer's spans, keyed by span name."""

    def __init__(self, tracer: Tracer):
        s = tracer.spans()
        self._labels = tracer.labels
        self._s = s
        self._is_top = s["top"] == np.arange(len(s["top"]))

    def _mask(self, label: str) -> np.ndarray:
        if label not in self._labels:
            return np.zeros(len(self._s["name"]), dtype=bool)
        return self._s["name"] == self._labels.index(label)

    def calls(self, label: str) -> int:
        return int(np.count_nonzero(self._mask(label)))

    def total_ms(self, label: str) -> float:
        return float(self._s["dur_ms"][self._mask(label)].sum())

    def self_ms(self, label: str) -> float:
        return float(self._s["self_ms"][self._mask(label)].sum())

    def layer_self_ms(self, layer: str) -> float:
        """Self time of every span whose name starts with ``layer.``."""
        ids = [i for i, lab in enumerate(self._labels) if lab.startswith(layer + ".")]
        return float(self._s["self_ms"][np.isin(self._s["name"], ids)].sum())

    def top_calls(self, label: str) -> int:
        """Calls to ``label`` made directly by the harness."""
        return int(np.count_nonzero(self._mask(label) & self._is_top))

    def calls_under_top(self, label: str, top_label: str) -> int:
        """Calls to ``label`` made inside harness-level calls to ``top_label``."""
        tops = self._mask(top_label) & self._is_top
        inner = self._mask(label)
        return int(np.count_nonzero(tops[self._s["top"][inner]]))
