"""Digests of the pair functions on the benchmark's pairs and of the built-in families.

    python tests/pair_digest.py > digest.txt

For each item of the ``pairs-small`` and ``pairs-large`` workloads at seeds 1
and 7, in the workloads' order, it prints the workload, the seed, the item's
index and label, and a sha256 over what the six pair functions return when
called as the benchmark calls them: each returned operator's stack,
eigenvalues and rank thresholds, every verdict field, and for a call that
raised, the error's type and message. Then, for each built-in model family,
it prints one sha256 over the bytes ``state_at`` returns at a fixed seeded
set of theta (``model_thetas``), an error's type and message where it
raises. Last, for each family, it prints the sha256 of the five q-LAN
reports of the ``qlan-studies`` workload (seed 1), called as that workload
calls them, in three settings: on a fresh model object, again on the same
object, and in reverse order on another fresh object (``qlan_digests``).
The three must agree, whatever the q-LAN base keeps between calls. The
digests of two trees compare with ``diff``. It runs the library in the
``src/`` beside it and reads ``bench/workloads.py`` without changing it; it
needs only numpy and the standard library, and pytest does not collect it.
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
from qleb.models import get_model  # noqa: E402
from qleb.matio import dumps_json  # noqa: E402
from workloads import DECOMP_FNS, STUDY_REPORTS, PairsWorkload, StudiesWorkload, Study  # noqa: E402

WORKLOADS = ("pairs-small", "pairs-large")
SEEDS = (1, 7)

#: the CLI names of the built-in families
FAMILIES = ("spin-pure", "spin-perturbed:quartic", "spin-perturbed:cubic",
            "spin-perturbed:squared", "qubit-fullrank")


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


def model_thetas(theta_dim: int) -> list[np.ndarray]:
    """The thetas of a family's digest, from seed 0.

    For the spin families (``theta_dim`` 2), 3000 thetas of norm 1e-8 to
    1e3 in random directions, the ray r (0.6, -0.8) out to r = 1e80, two
    thetas whose norm overflows, and thetas at which ||theta||^2, e^{-f} or
    the mix underflows. For ``qubit-fullrank`` (1), 3000 thetas in (-1, 1).
    """
    rng = np.random.default_rng(0)
    if theta_dim == 1:
        return list(rng.uniform(-1.0, 1.0, (3000, 1)))
    radii = 10.0 ** rng.uniform(-8.0, 3.0, 3000)
    angles = rng.uniform(-np.pi, np.pi, 3000)
    thetas = list(radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)]))
    thetas += [r * np.array([0.6, -0.8]) for r in (1.0, 10.0, 1e8, 1e16, 1e40, 1e80)]
    thetas += [np.array(t) for t in ((1e200, 1e200), (1.5e308, -1.5e308), (1e-320, 0.0),
                                     (30.0, 0.0), (5.18, 0.0), (0.0, -1e80))]
    return thetas


def model_digest(name: str) -> str:
    """sha256 of the model ``name``'s ``state_at`` at each of its ``model_thetas``."""
    model = get_model(name)
    h = hashlib.sha256()
    for theta in model_thetas(model.theta_dim):
        try:
            _feed(h, model.state_at(theta))
        except Exception as exc:  # the digest records whatever the family raises
            _feed(h, exc)
    return h.hexdigest()


def qlan_digests(name: str) -> list[tuple[str, str]]:
    """(setting, sha256) of family ``name``'s five q-LAN reports, hashed in the workload's order.

    A report is hashed as its ``to_json_dict`` JSON, an error as its type and
    message.
    """
    def digest(call, reports) -> str:
        out = {}
        for report in reports:
            raw = call(Study(name, report))
            out[report] = (f"{type(raw).__name__}: {raw}" if isinstance(raw, Exception)
                           else dumps_json(raw.to_json_dict()))
        return hashlib.sha256("\0".join(out[r] for r in STUDY_REPORTS).encode()).hexdigest()

    fresh = StudiesWorkload("qlan-studies", 1).caller(None)
    return [("fresh", digest(fresh, STUDY_REPORTS)), ("again", digest(fresh, STUDY_REPORTS)),
            ("reverse", digest(StudiesWorkload("qlan-studies", 1).caller(None),
                               STUDY_REPORTS[::-1]))]


def main() -> None:
    for workload in WORKLOADS:
        for seed in SEEDS:
            for index, pair in enumerate(PairsWorkload(workload, seed).items):
                print(workload, seed, index, pair.label, item_digest(PairsWorkload.call(pair)))
    for name in FAMILIES:
        print("state_at", name, model_digest(name))
    for name in FAMILIES:
        for setting, digest in qlan_digests(name):
            print("qlan", name, setting, digest)


if __name__ == "__main__":
    main()
