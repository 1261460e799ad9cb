"""Built-in parametric families and seeded random-instance generators.

The spin-1/2 families live on theta in R^2. The pure family

    rho_bar(theta) = e^{(theta.sigma - psi(theta) I)/2} |0><0| e^{(...)/2},
    psi(theta) = log cosh ||theta||

stays rank 1 with trace exactly 1; the perturbed family mixes in weight
1 - e^{-f(theta)} on the orthogonal pure state |1><1|, so its absolutely
continuous and singular parts along rho_bar(0) have closed forms that the
decomposition tests can check against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidRanksError,
    NotUnitError,
    UnreachableOverlapError,
)
from .linalg import (
    PositiveOperator,
    _expm_checked,
    _replay,
    expm,
    hermitian_part,
    positive,
)
from .matio import matrix_from_json_dict
from .qlan import ParametricModel

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_GROUND = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_EXCITED = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

_F_RULES = {
    "quartic": lambda theta: float(np.linalg.norm(theta) ** 4),
    "cubic": lambda theta: float(np.linalg.norm(theta) ** 3),
    "squared": lambda theta: float(np.linalg.norm(theta) ** 2),
}


def _theta2(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.shape[0] != 2:
        raise DimensionMismatchError(f"theta must be a real 2-vector, got {theta}")
    return theta


def spin_pure_state(theta) -> np.ndarray:
    return spin_pure_states([theta])[0]


def spin_perturbed_state(theta, f_rule="quartic") -> np.ndarray:
    return spin_perturbed_states([theta], f_rule)[0]


def spin_pure_states(thetas) -> np.ndarray:
    """``spin_pure_state`` at each theta of a sequence, as one (N, 2, 2) stack."""
    return _spin_states(thetas, None)


def spin_perturbed_states(thetas, f_rule="quartic") -> np.ndarray:
    """``spin_perturbed_state`` at each theta of a sequence, as one (N, 2, 2) stack."""
    f = _F_RULES[f_rule] if isinstance(f_rule, str) else f_rule
    return _spin_states(thetas, lambda theta: float(np.exp(-f(theta))))


def _spin_states(thetas, weight) -> np.ndarray:
    """The spin family at each theta, with one stacked exponential for all of them.

    ``weight`` gives the weight of the pure part at a validated theta (None:
    the pure family). Errors are those of a loop over the thetas: per theta,
    validation and weight, then the generator's exponential.
    """

    def point(theta):
        theta = _theta2(theta)
        w = None if weight is None else weight(theta)
        r = float(np.linalg.norm(theta))
        # psi = log cosh r, kept overflow-free
        return theta, float(np.logaddexp(r, -r) - np.log(2.0)), w

    def run(thetas):
        points = [point(theta) for theta in thetas]
        th = np.array([p[0] for p in points]).reshape(-1, 2)
        psi = np.array([p[1] for p in points])
        with np.errstate(over="ignore", invalid="ignore"):
            gen = (th[:, 0, None, None] * SIGMA_X + th[:, 1, None, None] * SIGMA_Y
                   - psi[:, None, None] * np.eye(2)) / 2.0
        half = _expm_checked(gen)
        pure = hermitian_part(half @ _GROUND @ half)
        if weight is None:
            return pure
        w = np.array([p[2] for p in points])[:, None, None]
        return w * pure + (1.0 - w) * _EXCITED

    return _replay(run, list(thetas))


def spin_pure_model() -> ParametricModel:
    return ParametricModel(
        name="spin-pure",
        dim=2,
        theta_dim=2,
        theta0=np.zeros(2),
        state_at=spin_pure_state,
        states_at=spin_pure_states,
    )


def spin_perturbed_model(f_rule="quartic") -> ParametricModel:
    if isinstance(f_rule, str):
        if f_rule not in _F_RULES:
            raise ValueError(
                f"unknown f rule {f_rule!r}; choose from {sorted(_F_RULES)} "
                "or pass a callable"
            )
        name = f"spin-perturbed:{f_rule}"
    else:
        name = "spin-perturbed:custom"
    return ParametricModel(
        name=name,
        dim=2,
        theta_dim=2,
        theta0=np.zeros(2),
        state_at=lambda theta: spin_perturbed_state(theta, f_rule),
        states_at=lambda thetas: spin_perturbed_states(thetas, f_rule),
    )


def qubit_fullrank_model() -> ParametricModel:
    def state(theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.shape[0] != 1:
            raise DimensionMismatchError(f"theta must be a real 1-vector, got {theta}")
        if abs(theta[0]) >= 1.0:
            raise ValueError(f"|theta| must be < 1 for a full-rank state, got {theta[0]}")
        return 0.5 * (np.eye(2, dtype=complex) + theta[0] * SIGMA_Z)

    return ParametricModel(
        name="qubit-fullrank",
        dim=2,
        theta_dim=1,
        theta0=np.zeros(1),
        state_at=state,
    )


def table_model(path) -> ParametricModel:
    """Model backed by an exact lookup table {theta grid -> matrix}.

    Evaluation off the stored grid raises KeyError; in particular the
    finite-difference SLD machinery refuses table models unless the probe
    points were tabulated, which is the intended behavior.
    """
    with open(path, "r", encoding="utf-8") as fh:
        # integers parse as floats, so a "-0" matrix entry keeps its sign
        obj = json.load(fh, parse_int=float)
    dim = int(obj["dim"])
    theta_dim = int(obj["theta_dim"])
    theta0 = np.asarray(obj["theta0"], dtype=float).reshape(-1)
    if theta0.shape[0] != theta_dim:
        raise DimensionMismatchError(
            f"theta0 has dimension {theta0.shape[0]}, declared theta_dim {theta_dim}"
        )
    table: dict[tuple, np.ndarray] = {}
    for row in obj["states"]:
        key = tuple(float(x) for x in row["theta"])
        if len(key) != theta_dim:
            raise DimensionMismatchError(f"grid point {key} has wrong dimension")
        matrix = matrix_from_json_dict(row["matrix"])
        if matrix.shape[0] != dim:
            raise DimensionMismatchError(
                f"state at {key} has dimension {matrix.shape[0]}, declared dim {dim}"
            )
        table[key] = matrix

    def state(theta) -> np.ndarray:
        key = tuple(float(x) for x in np.asarray(theta, dtype=float).reshape(-1))
        try:
            return table[key]
        except KeyError:
            raise KeyError(
                f"theta {key} is not on the table grid; interpolation is not supported"
            ) from None

    return ParametricModel(
        name=str(obj.get("name", f"table:{path}")),
        dim=dim,
        theta_dim=theta_dim,
        theta0=theta0,
        state_at=state,
    )


def get_model(name: str) -> ParametricModel:
    """Resolve a model by its CLI name."""
    if name == "spin-pure":
        return spin_pure_model()
    if name == "qubit-fullrank":
        return qubit_fullrank_model()
    if name == "spin-perturbed":
        return spin_perturbed_model()
    if name.startswith("spin-perturbed:"):
        return spin_perturbed_model(name.split(":", 1)[1])
    if name.startswith("table:"):
        return table_model(name.split(":", 1)[1])
    raise ValueError(
        f"unknown model {name!r}; known: spin-pure, spin-perturbed:quartic, "
        "spin-perturbed:cubic, spin-perturbed:squared, qubit-fullrank, table:<path>"
    )


@dataclass(frozen=True)
class RandomPsdPairSpec:
    """Deterministic recipe for a (rho, sigma) pair of positive operators."""

    dim: int
    rank_rho: int
    rank_sigma: int
    seed: int
    mode: str = "generic"


#: target overlap Tr rho sigma for the nearly-singular mode
NEAR_SINGULAR_OVERLAP = 1e-9

#: smallest kept eigenvalue in the near-rank-deficient mode
NEAR_DEFICIENT_EIG = 1e-8

#: doublings of the rotation angle tried before a target overlap is declared
#: unreachable; 2^64 times the starting angle is far past the period of any
#: rotation the generators here produce
_MAX_DOUBLINGS = 64


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _psd_from(cols: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    return hermitian_part((cols * eigs) @ cols.conj().T)


def random_psd_pair(spec: RandomPsdPairSpec) -> tuple[PositiveOperator, PositiveOperator]:
    """Seeded pair with prescribed ranks; see ``spec.mode`` for the geometry.

    generic: independent Haar frames. orthogonal: disjoint columns of one
    frame, so the supports are exactly orthogonal. near_singular: the
    orthogonal pair with sigma rotated just enough that Tr rho sigma lands
    near NEAR_SINGULAR_OVERLAP. near_deficient: generic with the smallest
    kept eigenvalue forced to NEAR_DEFICIENT_EIG on both operators.
    """
    d, kr, ks = spec.dim, spec.rank_rho, spec.rank_sigma
    if d < 1:
        raise InvalidRanksError(f"dim must be >= 1, got {d}")
    if not (1 <= kr <= d and 1 <= ks <= d):
        raise InvalidRanksError(
            f"ranks must lie in [1, {d}], got rank_rho={kr}, rank_sigma={ks}"
        )
    if spec.mode in ("orthogonal", "near_singular") and kr + ks > d:
        raise InvalidRanksError(
            f"mode {spec.mode!r} needs rank_rho + rank_sigma <= dim, "
            f"got {kr} + {ks} > {d}"
        )
    rng = np.random.default_rng(spec.seed)
    rho_eigs = rng.uniform(0.2, 1.0, size=kr)
    sigma_eigs = rng.uniform(0.2, 1.0, size=ks)
    if spec.mode == "near_deficient":
        rho_eigs[-1] = NEAR_DEFICIENT_EIG
        sigma_eigs[-1] = NEAR_DEFICIENT_EIG

    if spec.mode in ("generic", "near_deficient"):
        u = haar_unitary(d, rng)
        v = haar_unitary(d, rng)
        rho = _psd_from(u[:, :kr], rho_eigs)
        sigma = _psd_from(v[:, :ks], sigma_eigs)
        return positive(rho), positive(sigma)

    if spec.mode in ("orthogonal", "near_singular"):
        u = haar_unitary(d, rng)
        rho = _psd_from(u[:, :kr], rho_eigs)
        sigma = _psd_from(u[:, kr:kr + ks], sigma_eigs)
        if spec.mode == "orthogonal":
            return positive(rho), positive(sigma)
        gen = np.outer(u[:, 0], u[:, kr].conj())
        gen = gen - gen.conj().T
        sigma = _rotate_to_overlap(rho, sigma, gen, NEAR_SINGULAR_OVERLAP)
        return positive(rho), positive(sigma)

    raise ValueError(f"unknown mode {spec.mode!r}")


def _rotate_to_overlap(rho: np.ndarray, sigma: np.ndarray, gen: np.ndarray,
                       target: float) -> np.ndarray:
    """Conjugate sigma by e^{t gen} until Tr rho sigma sits near target.

    Raises UnreachableOverlapError when no angle tried gets there, e.g. when
    the target exceeds the largest overlap the rotation attains.
    """

    def overlap(t: float) -> tuple[float, np.ndarray]:
        w = expm(t * gen)
        rotated = hermitian_part(w @ sigma @ w.conj().T)
        return float(np.trace(rho @ rotated).real), rotated

    # overlap grows like t^2 from exact zero, so a square-root update
    # followed by bisection converges in a handful of steps
    t = 1e-4
    value, rotated = overlap(t)
    for _ in range(8):
        if 0.8 * target <= value <= 1.25 * target:
            return rotated
        if value <= 0.0:
            break
        t *= np.sqrt(target / value)
        value, rotated = overlap(t)
    lo, hi = 0.0, t
    val_hi = value
    doublings = 0
    while val_hi < target:
        if doublings == _MAX_DOUBLINGS:
            raise UnreachableOverlapError(
                f"no rotation angle up to {hi:.3e} reaches overlap {target:.3e} "
                f"(overlap there {val_hi:.3e})"
            )
        hi *= 2.0
        val_hi, rotated = overlap(hi)
        doublings += 1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value, rotated = overlap(mid)
        if 0.8 * target <= value <= 1.25 * target:
            return rotated
        if value < target:
            lo = mid
        else:
            hi = mid
    raise UnreachableOverlapError(
        f"bisection did not reach overlap {target:.3e}; stuck at {value:.3e}"
    )


def pure_pair(psi, xi) -> tuple[PositiveOperator, PositiveOperator]:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    if psi.shape != xi.shape:
        raise DimensionMismatchError(
            f"vectors have different dimensions {psi.shape[0]} and {xi.shape[0]}"
        )
    for label, vec in (("psi", psi), ("xi", xi)):
        gap = abs(float(np.linalg.norm(vec)) - 1.0)
        if gap > 1e-12:
            raise NotUnitError(f"{label} is off unit norm by {gap:.3e}")
    return positive(np.outer(psi, psi.conj())), positive(np.outer(xi, xi.conj()))
