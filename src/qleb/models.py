"""Built-in parametric families and seeded random-instance generators.

The spin-1/2 families live on theta in R^2. The pure family is the closed
form of a unit Bloch vector,

    rho_bar(theta) = (I + b.sigma) / 2,   b = (tanh r theta / r, sech r),   r = ||theta||,

which is e^{theta.sigma/2} |0><0| e^{theta.sigma/2} / cosh r: rank 1 with
trace 1 at every finite theta. The perturbed family mixes in weight
1 - e^{-f(theta)} on the orthogonal pure state |1><1|, so its absolutely
continuous and singular parts along rho_bar(0) = |0><0| are the closed
forms e^{-f} rho_bar(theta) and (1 - e^{-f}) |1><1|, which the
decomposition tests check against. Every family, like every model, is
evaluated one theta per ``state_at`` call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidMatrixError,
    InvalidRanksError,
    UnreachableOverlapError,
)
from .linalg import (
    PositiveOperator,
    _exp_anti_hermitian,
    _expm_checked,
    hermitian_part,
    positive,
)
from .matio import _dimension, _is_real, matrix_from_json_dict
from .qlan import ParametricModel

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_EXCITED = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

#: the built-in rules f(theta) = ||theta||^k, by name
_F_POWERS = {"quartic": 4, "cubic": 3, "squared": 2}


def _theta(theta, dim: int) -> np.ndarray:
    """``theta`` as a finite real ``dim``-vector; anything else raises."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.shape[0] != dim:
        raise DimensionMismatchError(f"theta must be a real {dim}-vector, got {theta}")
    if not np.isfinite(theta).all():
        raise ValueError(f"theta has non-finite entries: {theta.tolist()}")
    return theta


def _f_rule(f_rule):
    """``f_rule`` checked: a rule name of ``_F_POWERS``, or a callable f of theta."""
    if isinstance(f_rule, str) and f_rule not in _F_POWERS:
        raise ValueError(f"unknown f rule {f_rule!r}; choose from {sorted(_F_POWERS)} "
                         "or pass a callable")
    return f_rule


def _spin_state(theta, f_rule) -> np.ndarray:
    """The spin family at one theta: the pure family where ``f_rule`` is None.

    Otherwise ``f_rule`` is a name of ``_F_POWERS`` or a callable f, called
    after theta is validated. Overflow (||theta|| and its powers to inf) and
    underflow (e^{-f}, the norm, the mix) still give the state, so both are
    ignored throughout, a callable f included, whatever the caller set.
    """
    theta = _theta(theta, 2)
    with np.errstate(over="ignore", under="ignore"):
        r = np.linalg.norm(theta)
        if f_rule is not None:
            # r is a float64, whose power overflows to inf where a Python
            # float's raises OverflowError
            f = r ** _F_POWERS[f_rule] if isinstance(f_rule, str) else f_rule(theta)
            w = float(np.exp(-f))
        # theta / r from u, theta over its largest |entry|, which no finite
        # theta overflows; u has norm 0 or at least 1
        top = np.abs(theta).max()
        u = theta / top if top > 0.0 else theta
        # the unit Bloch vector (tanh r theta / r, sech r); cosh r overflows to inf
        bx, by = np.tanh(r) * (u / max(np.linalg.norm(u), 1.0))
        bz = 1.0 / np.cosh(r)
        pure = (np.eye(2) + bx * SIGMA_X + by * SIGMA_Y + bz * SIGMA_Z) / 2.0
        if f_rule is None:
            return pure
        return w * pure + (1.0 - w) * _EXCITED


def spin_pure_model() -> ParametricModel:
    return ParametricModel(
        name="spin-pure",
        dim=2,
        theta_dim=2,
        theta0=np.zeros(2),
        state_at=lambda theta: _spin_state(theta, None),
    )


def spin_perturbed_model(f_rule="quartic") -> ParametricModel:
    f_rule = _f_rule(f_rule)
    return ParametricModel(
        name=f"spin-perturbed:{f_rule if isinstance(f_rule, str) else 'custom'}",
        dim=2,
        theta_dim=2,
        theta0=np.zeros(2),
        state_at=lambda theta: _spin_state(theta, f_rule),
    )


def qubit_fullrank_model() -> ParametricModel:
    def state(theta) -> np.ndarray:
        theta = _theta(theta, 1)
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
    points were tabulated, which is the intended behavior. A missing or
    ill-typed field, a ``dim`` or ``theta_dim`` that is not a positive
    integer among them, raises InvalidMatrixError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        # integers parse as floats, so a "-0" matrix entry keeps its sign
        obj = json.load(fh, parse_int=float)
    dim = _dimension(obj, "dim", "table")
    theta_dim = _dimension(obj, "theta_dim", "table")
    theta0 = np.array(_point(obj, "theta0"))
    if theta0.shape[0] != theta_dim:
        raise DimensionMismatchError(
            f"theta0 has dimension {theta0.shape[0]}, declared theta_dim {theta_dim}"
        )
    rows = obj.get("states")
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise InvalidMatrixError("malformed table object: states must be a list of objects")
    table: dict[tuple, np.ndarray] = {}
    for row in rows:
        key = _point(row, "theta")
        if len(key) != theta_dim:
            raise DimensionMismatchError(f"grid point {key} has wrong dimension")
        matrix = matrix_from_json_dict(row.get("matrix"))
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


def _point(obj: dict, key: str) -> tuple[float, ...]:
    """``obj[key]`` of a table as a parameter vector; anything but finite numbers raises."""
    value = obj.get(key)
    if not isinstance(value, list) or not all(_is_real(x) and np.isfinite(x) for x in value):
        raise InvalidMatrixError(
            f"malformed table object: {key} must be a list of finite numbers, got {value!r}")
    return tuple(float(x) for x in value)


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
    """Conjugate sigma by e^{t gen}, gen anti-Hermitian, until Tr rho sigma sits near target.

    The overlap grows like t^2 from exact zero, so a square-root update of t
    lands in a handful of steps; on the near-singular geometry the overlap is
    p s sin^2 t for an eigenvalue p of rho and s of sigma, and the first
    update lands. Raises UnreachableOverlapError when eight updates do not,
    e.g. when the target exceeds the largest overlap the rotation attains.
    """
    t = 1e-4
    for _ in range(9):
        w = _expm_checked((t * gen)[None], _exp_anti_hermitian)[0]
        rotated = hermitian_part(w @ sigma @ w.conj().T)
        value = float(np.trace(rho @ rotated).real)
        if 0.8 * target <= value <= 1.25 * target:
            return rotated
        if value <= 0.0:
            break
        t *= np.sqrt(target / value)
    raise UnreachableOverlapError(
        f"no rotation angle tried reaches overlap {target:.3e} (the last gives {value:.3e})"
    )
