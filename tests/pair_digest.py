"""Digest of the pair functions' outputs on the benchmark's pairs, one line per item.

    python tests/pair_digest.py > digest.txt

For each item of the ``pairs-small`` and ``pairs-large`` workloads at seeds 1
and 7, in the workloads' order, it prints the workload, the seed, the item's
index and label, and a sha256 over what the six pair functions return when
called as the benchmark calls them: each returned operator's stack,
eigenvalues and rank thresholds, every verdict field, and for a call that
raised, the error's type and message. The digests of two trees compare with
``diff``. It runs the library in the ``src/`` beside it and reads
``bench/workloads.py`` without changing it; it needs only numpy and the
standard library, and pytest does not collect it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from qleb.linalg import PositiveOperator  # noqa: E402
from workloads import DECOMP_FNS, PairsWorkload  # noqa: E402

WORKLOADS = ("pairs-small", "pairs-large")
SEEDS = (1, 7)


def _feed(h, value) -> None:
    """Hash ``value``: operators, arrays, errors and dataclasses field by field."""
    if isinstance(value, PositiveOperator):
        for part in (value.stack, value.values, value.tols):
            _feed(h, part)
    elif isinstance(value, np.ndarray):
        h.update(repr((value.dtype.str, value.shape)).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, BaseException):
        h.update(f"{type(value).__name__}: {value}".encode())
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _feed(h, getattr(value, f.name))
    else:
        h.update(repr(value).encode())
    h.update(b"\0")


def item_digest(raw: dict) -> str:
    """sha256 of what the six pair functions returned in ``raw``, ``PairsWorkload.call``'s dict."""
    h = hashlib.sha256()
    for name in DECOMP_FNS:
        h.update(name.encode())
        if name in raw:
            _feed(h, raw[name][0])
    return h.hexdigest()


def main() -> None:
    for workload in WORKLOADS:
        for seed in SEEDS:
            for index, pair in enumerate(PairsWorkload(workload, seed).items):
                print(workload, seed, index, pair.label, item_digest(PairsWorkload.call(pair)))


if __name__ == "__main__":
    main()
