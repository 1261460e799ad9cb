"""Verification harness for quantum local asymptotic normality.

Collective observables X_i = (1/sqrt(n)) sum_k A_i^(k) over n i.i.d. sites
have quasi-characteristic functions that factorize exactly:

    Tr rho^(x n) prod_t exp(i xi_t . X) = ( Tr rho prod_t exp(i xi_t . A / sqrt(n)) )^n

so finite-n values are cheap at any n, and a dense tensor-power oracle is
kept around for small n to check the factorization itself. The reports
compare finite-n values against the Gaussian limit laws from ``gaussian``
and fit the decay rate of the error.

Each report evaluates its grid in stacked passes through the ``(N, d, d)``
kernels of ``linalg``: the model's states (one ``states_at`` call where the
model has one) at the Richardson stencil of every SLD direction, at the
local shifts theta0 + h / sqrt(n) of the n grid and at the ``oh2_report``
points; their positivity, AC and ``qllr`` checks; and the site factors of
every (n, query) pair. Errors stay those of the point-by-point loop: the
earliest point fails first, and within a point the earlier stage.
``_guarded_powers`` checks its (n, query) slices in that order. The other
kernels raise at a slice that fails, which on a failing grid need not be
the earliest; ``linalg._replay`` then reruns the grid one point at a time
(one SLD direction, one n, one ``oh2_report`` point) and raises the first
point's error. A grid that passes is evaluated once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import decomp
from .errors import (
    DerivativeLeavesSupportError,
    DerivativeUnstableError,
    DimensionMismatchError,
    DimensionTooLargeError,
    InvalidMatrixError,
    NotCenteredError,
    QueryOutOfSafeRangeError,
    SupportViolationError,
)
from .gaussian import GaussianSpec, as_query, lecam_limit_spec, qcf
from .linalg import (
    _EXPM_OVERFLOW,
    PositiveOperator,
    _expm_checked,
    _expm_stack,
    _hermitize_stack,
    _positive,
    _replay,
    expm,
    hermitian_part,
    hermitize,
    positive,
)

#: central-difference step for state derivatives
FD_STEP = 1e-5

#: weight allowed outside the reference support before the derivative is rejected
FD_TOL = 1e-7

#: per-site traces must stay within this distance of 1 for a safe n-th power
QCF_GUARD = 0.3

#: cap on dim**n for the dense tensor-power oracle
BRUTE_DIM_CAP = 4096

#: fitted log-log slope must be at most this for a convergence verdict
RATE_THRESHOLD = -0.45

#: errors below this floor, scaled by n, count as converged outright; the
#: n-th power amplifies per-site rounding by a factor of n, so a flat floor
#: would misread exactly-converged studies as noise
ERROR_FLOOR = 1e-14

#: fitted slope of log g vs log ||h|| must be at least this for the
#: second-order normalization verdict
OH2_SLOPE_THRESHOLD = 0.5


@dataclass(frozen=True)
class ParametricModel:
    """A parametric family of density operators theta -> rho_theta.

    ``states_at``, when given, evaluates a sequence of thetas as one
    ``(N, dim, dim)`` stack. Its slice j must equal ``state_at(thetas[j])``
    byte for byte, and it must raise the error a loop over ``state_at`` meets
    first. The harness does not check this: an error that ``states_at``
    raises reaches the caller as it is, even where a loop over ``state_at``
    would have met another one first. Without it the harness loops over
    ``state_at``.
    """

    name: str
    dim: int
    theta_dim: int
    theta0: np.ndarray
    state_at: Callable[[np.ndarray], np.ndarray]
    states_at: Callable[[Sequence[np.ndarray]], np.ndarray] | None = None

    def state0(self) -> np.ndarray:
        return self.state_at(np.asarray(self.theta0, dtype=float))


def _model_states(model: ParametricModel, thetas) -> Sequence:
    """The model's states at ``thetas``: one ``states_at`` call when the model has it."""
    if model.states_at is not None:
        return model.states_at(thetas)
    return [model.state_at(theta) for theta in thetas]


def sld(model: ParametricModel, direction: int, step: float = FD_STEP,
        cutoff: float | None = None) -> np.ndarray:
    """Symmetric logarithmic derivative L_i at theta0.

    Solves d rho / d theta^i = (rho L + L rho) / 2 in the eigenbasis of
    rho_theta0, zeroing the blocks where both eigenvalues vanish. Derivative
    weight on those blocks means the family leaves the support to first
    order, which is rejected.
    """
    if not 0 <= direction < model.theta_dim:
        raise DimensionMismatchError(
            f"direction {direction} out of range for theta_dim {model.theta_dim}"
        )
    return _slds(model, positive(model.state0(), cutoff), [direction], step)[0]


def _slds(model: ParametricModel, rho0: PositiveOperator, directions: Sequence[int],
          step: float) -> list[np.ndarray]:
    """``sld`` along each direction at the already validated base state ``rho0``.

    The Richardson stencils of all directions are evaluated in one pass, in
    the order a loop over the directions visits them; a failing pass is
    replayed one direction at a time.
    """
    t0 = np.asarray(model.theta0, dtype=float)

    def run(directions):
        thetas = []
        for direction in directions:
            e = np.zeros_like(t0)
            e[direction] = 1.0
            for s in (step, step / 2):
                thetas += [t0 + s * e, t0 - s * e]
        states = _model_states(model, thetas)
        ls = []
        for i in range(len(directions)):
            plus, minus, half_plus, half_minus = states[4 * i:4 * (i + 1)]
            # Richardson-extrapolated central differences at step and step / 2
            d1 = (plus - minus) / (2 * step)
            d2 = (half_plus - half_minus) / (2 * (step / 2))
            ls.append(_sld(rho0, (4.0 * d2 - d1) / 3.0))
        return ls

    return _replay(run, directions)


def _sld(rho0: PositiveOperator, drho: np.ndarray) -> np.ndarray:
    """The SLD at ``rho0`` of the state derivative ``drho``."""
    gap = float(np.max(np.abs(drho - drho.conj().T)))
    if gap > FD_TOL:
        raise DerivativeUnstableError(
            f"state derivative is not Hermitian within {FD_TOL:.1e} (gap {gap:.3e})"
        )
    drho = hermitian_part(drho)
    tr = abs(float(np.trace(drho).real))
    if tr > FD_TOL:
        raise DerivativeUnstableError(
            f"state derivative has trace {tr:.3e}; the family is not trace-preserving"
        )
    w = rho0.eigenvalues
    v = rho0.eigenvectors
    db = v.conj().T @ drho @ v
    den = w[:, None] + w[None, :]
    alive = den > rho0.rank_tol
    leak = float(np.max(np.abs(np.where(alive, 0.0, db)))) if db.size else 0.0
    if leak > FD_TOL:
        raise DerivativeLeavesSupportError(
            f"derivative weight {leak:.3e} outside the support of the base state"
        )
    lb = np.where(alive, 2.0 * db / np.where(alive, den, 1.0), 0.0)
    return hermitian_part(v @ lb @ v.conj().T)


@dataclass(frozen=True)
class SldSet:
    """All SLD directions at theta0 plus the induced information matrix."""

    l_ops: tuple[np.ndarray, ...]
    j_matrix: np.ndarray


def fisher_j(model: ParametricModel, cutoff: float | None = None) -> np.ndarray:
    """Information matrix J_ij = Tr rho_theta0 L_j L_i."""
    return sld_set(model, cutoff).j_matrix


def sld_set(model: ParametricModel, cutoff: float | None = None) -> SldSet:
    return _sld_set(model, positive(model.state0(), cutoff))


def _sld_set(model: ParametricModel, rho0: PositiveOperator) -> SldSet:
    """``sld_set`` at the already validated base state ``rho0``."""
    ls = tuple(_slds(model, rho0, range(model.theta_dim), FD_STEP))
    k = model.theta_dim
    j = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for jj in range(k):
            j[i, jj] = np.trace(rho0.matrix @ ls[jj] @ ls[i])
    j = hermitize(j, tol=1e-8)
    # J itself is a Gram matrix and may be singular (pure models saturate
    # the uncertainty bound); only a singular covariance Re J degenerates
    # the limit law
    v = np.linalg.eigvalsh(j.real + j.real.T) / 2.0
    if v[0] < 1e-12 * max(1.0, float(v[-1])):
        warnings.warn(
            "covariance Re J is not strictly positive definite; "
            "the Gaussian limit law is degenerate",
            stacklevel=3,
        )
    return SldSet(l_ops=ls, j_matrix=j)


def _combination(ops: Sequence[np.ndarray], xi: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(np.asarray(ops[0], dtype=complex))
    for c, op in zip(xi, ops):
        acc = acc + c * np.asarray(op, dtype=complex)
    return acc


def collective_qcf_factorized(site_state, site_ops, query, n: int,
                              guard: float = QCF_GUARD) -> complex:
    """QCF of collective observables over n sites, via exact factorization.

    Computes z = Tr rho prod_t exp(i xi_t . A / sqrt(n)) and returns z^n
    through the principal logarithm. The identity z^n = exp(n log z) is exact
    for integer n on any branch; the |z - 1| < guard requirement keeps the
    logarithm well conditioned and the power away from underflow, and
    queries violating it are rejected.
    """
    state, ops, q = _site_operands(site_state, site_ops, query)
    if int(n) < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return _guarded_powers([[state]], ops, [q], [int(n)], guard)[0][0][0]


def _site_operands(site_state, site_ops, query) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The validated site state, site observables and query of the QCF functions."""
    state = hermitize(site_state)
    ops = [hermitize(op) for op in site_ops]
    if not ops:
        raise ValueError("site_ops is empty; the QCF needs at least one site observable")
    for i, op in enumerate(ops):
        if op.shape != state.shape:
            raise DimensionMismatchError(f"site observable {i} has shape {op.shape} but the "
                                         f"site state has shape {state.shape}")
    return state, ops, as_query(query, len(ops))


def _guarded_powers(states: Sequence[Sequence[np.ndarray]], ops: Sequence[np.ndarray],
                    queries: Sequence[np.ndarray], ns: Sequence[int], guard: float = QCF_GUARD,
                    extras: Sequence[np.ndarray] | None = None,
                    etas: Sequence[float | None] | None = None) -> list[list[list[complex]]]:
    """z^n = exp(n log z) for z = Tr rho prod_t exp(i (xi_t . A + eta R_n) / sqrt(n)).

    ``ns`` is an n grid. At ``ns[i]`` each state of ``states[i]`` is traced against one
    product per slice: slice j is the query ``queries[j]``, with eta_j R_n
    (R_n = ``extras[i]``) added to each factor's generator when ``etas[j]``
    is not None. The factors of every (n, slice) are exponentiated in one
    stacked pass. Errors are those of a loop over the n and then the slices:
    each factor's exponential, then |z - 1| < ``guard`` for each state in
    turn. Returns per n one list per state of one value per slice.

    Operands are trusted: states, ``ops`` and ``extras`` hermitized, queries
    normalized by ``as_query``, each n a positive int.
    """
    count = len(queries)
    d = ops[0].shape[0]
    t_max = max(q.shape[0] for q in queries)
    # shorter queries get identity factors in front; eye @ eye is exactly
    # eye, so every product is the one a loop over that query alone builds
    coef = np.zeros((count, t_max, len(ops)), dtype=complex)
    real = np.zeros((count, t_max), dtype=bool)
    for j, q in enumerate(queries):
        coef[j, t_max - q.shape[0]:] = q
        real[j, t_max - q.shape[0]:] = True
    factors = []
    with np.errstate(over="ignore", invalid="ignore"):
        gen = np.zeros((count, t_max, d, d), dtype=complex)
        for i, op in enumerate(ops):
            gen = gen + coef[:, :, i, None, None] * op
        if etas is not None:
            shifted = [j for j, eta in enumerate(etas) if eta is not None]
            eta_col = np.array([etas[j] for j in shifted])[:, None, None, None]
        for i, n in enumerate(ns):
            gen_n = gen
            if etas is not None:
                gen_n = gen.copy()
                gen_n[shifted] = gen[shifted] + eta_col * extras[i]
            factors.append(1j * (1.0 / np.sqrt(n)) * gen_n[real])
    factors = np.concatenate(factors)
    # flat (n, slice, factor) position of each factor
    at = (np.arange(len(ns))[:, None] * (count * t_max) + np.flatnonzero(real.ravel())).ravel()
    finite = np.isfinite(factors).all(axis=(-2, -1))
    exps, overflowed = _expm_stack(factors[finite])
    total = len(ns) * count
    mats = np.broadcast_to(np.eye(d, dtype=complex), (total, t_max, d, d)).copy()
    mats.reshape(-1, d, d)[at[finite]] = exps
    invalid = at[~finite].tolist()
    bad = min(invalid + at[finite][overflowed].tolist(), default=total * t_max)
    # the first slice with a failing factor fails with that factor's error;
    # no later slice can fail first, so none of them is traced
    first = bad // t_max
    prod = np.eye(d, dtype=complex)
    for t in range(t_max):
        prod = prod @ mats[:first, t]
    traces = []
    for i in range(len(ns)):
        zs = [np.trace(state @ prod[i * count:(i + 1) * count], axis1=-2, axis2=-1).tolist()
              for state in states[i]]
        for z_states in zip(*zs):
            z = next((z for z in z_states if abs(z - 1.0) >= guard), None)
            if z is not None:
                raise QueryOutOfSafeRangeError(
                    f"per-site trace {z:.6f} strays {abs(z - 1.0):.3f} from 1 "
                    f"(guard {guard}); shrink ||xi|| / sqrt(n)"
                )
        if first < (i + 1) * count:
            if bad in invalid:
                raise InvalidMatrixError("matrix has non-finite entries")
            raise OverflowError(_EXPM_OVERFLOW)
        traces.append(zs)
    return [[[complex(np.exp(n * np.log(z))) for z in z_state] for z_state in zs]
            for n, zs in zip(ns, traces)]


def _kron_chain(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def collective_qcf_brute(site_state, site_ops, query, n: int) -> complex:
    """Dense tensor-power oracle for the collective QCF (small n only)."""
    state, ops, q = _site_operands(site_state, site_ops, query)
    n = int(n)
    d = state.shape[0]
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    # d >= 2 and n >= the cap's bit length give d^n > cap without forming d^n
    if (d >= 2 and n >= BRUTE_DIM_CAP.bit_length()) or d ** n > BRUTE_DIM_CAP:
        raise DimensionTooLargeError(
            f"dense tensor power would be {d}^{n}-dimensional (cap {BRUTE_DIM_CAP})"
        )
    big_state = _kron_chain([state] * n)
    eye = np.eye(d, dtype=complex)
    big_ops = []
    for op in ops:
        acc = np.zeros((d ** n, d ** n), dtype=complex)
        for k in range(n):
            acc += _kron_chain([eye] * k + [op] + [eye] * (n - k - 1))
        big_ops.append(acc / np.sqrt(n))
    dim_big = d ** n
    prod = np.eye(dim_big, dtype=complex)
    for t in range(q.shape[0]):
        with np.errstate(over="ignore", invalid="ignore"):
            gen = 1j * _combination(big_ops, q[t])
        prod = prod @ expm(gen)
    return complex(np.trace(big_state @ prod))


@dataclass(frozen=True)
class ConvergenceReport:
    """Max error against a limit law per n, with a fitted decay rate."""

    study: str
    n_values: tuple[int, ...]
    errors: tuple[float, ...]
    fitted_rate: float | None
    verdict: str
    rate_threshold: float
    monotone: bool

    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "n": list(self.n_values),
            "errors": list(self.errors),
            "fitted_rate": self.fitted_rate,
            "verdict": self.verdict,
            "study": self.study,
            "rate_threshold": self.rate_threshold,
            "monotone": self.monotone,
        }


def _normalize_n_grid(n_grid) -> tuple[int, ...]:
    ns = tuple(int(n) for n in n_grid)
    if len(ns) < 2:
        raise ValueError("need at least two n values to fit a rate")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"n grid must be strictly increasing, got {ns}")
    if ns[0] < 1:
        raise ValueError(f"n must be a positive integer, got {ns[0]}")
    return ns


def _rate_report(study: str, ns: tuple[int, ...], errors: list[float],
                 rate_threshold: float) -> ConvergenceReport:
    errs = tuple(float(e) for e in errors)
    if all(e <= ERROR_FLOOR * n for e, n in zip(errs, ns)):
        return ConvergenceReport(study, ns, errs, None, "pass", rate_threshold, True)
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    fit = None
    if min(errs) > 0:
        slope, _ = np.polyfit(np.log(np.asarray(ns, float)), np.log(np.asarray(errs)), 1)
        fit = float(slope)
    ok = monotone and fit is not None and fit <= rate_threshold
    return ConvergenceReport(study, ns, errs, fit, "pass" if ok else "fail",
                             rate_threshold, monotone)


def _normalize_queries(query_grid, dim: int) -> list[np.ndarray]:
    queries = [as_query(q, dim) for q in query_grid]
    if not queries:
        raise ValueError("query grid is empty")
    return queries


def qclt_report(model: ParametricModel, query_grid, n_grid,
                rate_threshold: float = RATE_THRESHOLD,
                cutoff: float | None = None) -> ConvergenceReport:
    """Central-limit check: collective SLD observables against N(0, J)."""
    ns = _normalize_n_grid(n_grid)
    rho0 = positive(model.state0(), cutoff)
    slds = _sld_set(model, rho0)
    queries = _normalize_queries(query_grid, model.theta_dim)
    limit = GaussianSpec(np.zeros(model.theta_dim), slds.j_matrix)
    limits = [qcf(limit, q) for q in queries]
    powers = _guarded_powers([[rho0.matrix]] * len(ns), slds.l_ops, queries, ns)
    errors = [max(abs(z - lim) for z, lim in zip(zs[0], limits)) for zs in powers]
    return _rate_report("qclt", ns, errors, rate_threshold)


def _centered_or_raise(rho0: np.ndarray, ops: Sequence[np.ndarray]) -> None:
    for i, op in enumerate(ops):
        mean = abs(complex(np.trace(rho0 @ op)))
        if mean > 1e-10 * max(1.0, float(np.max(np.abs(op)))):
            raise NotCenteredError(
                f"site observable {i} has mean {mean:.3e} in the base state"
            )


def _shift(model: ParametricModel, h) -> np.ndarray:
    """A local shift ``h`` as a finite real vector of the model's parameter dimension."""
    h = np.asarray(h, dtype=float).reshape(-1)
    if h.shape[0] != model.theta_dim:
        raise DimensionMismatchError(
            f"h has dimension {h.shape[0]}, expected {model.theta_dim}"
        )
    if not np.isfinite(h).all():
        raise ValueError(f"h has non-finite entries: {h.tolist()}")
    return h


def _local_shifts(model: ParametricModel, h: np.ndarray, ns: Sequence[int]) -> list[np.ndarray]:
    """The local shifts theta0 + h / sqrt(n) of an n grid."""
    t0 = np.asarray(model.theta0, dtype=float)
    return [t0 + h / np.sqrt(n) for n in ns]


def _shifted_states(model: ParametricModel, thetas, rho0: PositiveOperator) -> PositiveOperator:
    """The model's states at ``thetas``, validated as one stack at rho0's cutoff.

    A state whose shape differs from rho0's raises the error of
    ``decomp._pair``.
    """
    states = _model_states(model, thetas)
    shape = rho0.matrix.shape
    for state in states:
        if np.shape(state) != shape:
            decomp._pair(rho0, state, rho0.cutoff)
    return _positive(_hermitize_stack(np.asarray(states, dtype=complex).reshape(-1, *shape)),
                     rho0.cutoff)


def lecam_report(model: ParametricModel, b_ops, h, query_grid, n_grid,
                 rate_threshold: float = RATE_THRESHOLD,
                 cutoff: float | None = None) -> ConvergenceReport:
    """Third-lemma check: shifted collective observables against N((Re tau) h, Sigma).

    Sigma_ij = Tr rho0 B_j B_i and tau_ij = Tr rho0 L_j B_i. Each n is
    evaluated under the local shift theta0 + h / sqrt(n); shifts that break
    absolute continuity of the base state raise SupportViolationError.
    ``b_ops=None`` takes the SLDs at theta0 as the observables B.
    """
    ns = _normalize_n_grid(n_grid)
    ops = None if b_ops is None else [hermitize(op) for op in b_ops]
    h = _shift(model, h)
    base = positive(model.state0(), cutoff)
    rho0 = base.matrix
    slds = _sld_set(model, base)
    if ops is None:
        ops = list(slds.l_ops)
    _centered_or_raise(rho0, ops)
    k = len(ops)
    sigma = np.zeros((k, k), dtype=complex)
    tau = np.zeros((k, model.theta_dim), dtype=complex)
    for i in range(k):
        for j in range(k):
            sigma[i, j] = np.trace(rho0 @ ops[j] @ ops[i])
        for j in range(model.theta_dim):
            tau[i, j] = np.trace(rho0 @ slds.l_ops[j] @ ops[i])
    limit = lecam_limit_spec(sigma, tau, h)
    queries = _normalize_queries(query_grid, k)
    limits = [qcf(limit, q) for q in queries]

    def run(ns):
        thetas = _local_shifts(model, h, ns)
        rho_n = _shifted_states(model, thetas, base)
        _, min_eigs, floors = decomp._ac_verdicts(base, rho_n)
        for n, theta, min_eig, floor in zip(ns, thetas, min_eigs, floors):
            if not min_eig > floor:
                raise SupportViolationError(
                    f"shifted state at n = {n} does not dominate the base state",
                    n=n,
                    theta=theta,
                )
        return _guarded_powers([[m] for m in rho_n.stack], ops, queries, ns)

    powers = _replay(run, ns)
    errors = [max(abs(z - lim) for z, lim in zip(zs[0], limits)) for zs in powers]
    return _rate_report("lecam", ns, errors, rate_threshold)


def sandwich_qcf(model: ParametricModel, h, query, n: int, site_ops=None,
                 cutoff: float | None = None) -> complex:
    """QCF with the shifted state replaced by its sandwich exp(L/2) rho0 exp(L/2).

    L is the symmetric log-likelihood ratio of the shifted state along the
    base state, so the sandwich is exactly the absolutely continuous part of
    the shifted state; the gap to the true shifted QCF is controlled by the
    singular mass. Site observables default to the SLDs.
    """
    h = _shift(model, h)
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    rho0 = positive(model.state0(), cutoff)
    ops = [hermitize(op) for op in site_ops] if site_ops is not None else list(
        _sld_set(model, rho0).l_ops
    )
    rho_n = _shifted_states(model, _local_shifts(model, h, [n]), rho0)
    return _guarded_powers([_sandwiches(rho0, rho_n)], ops, [as_query(query, len(ops))],
                           [n])[0][0][0]


def _sandwiches(rho0: PositiveOperator, rho_n: PositiveOperator) -> np.ndarray:
    """exp(L/2) rho0 exp(L/2) for the log-likelihood ratio L of each slice along rho0."""
    halves = _expm_checked(decomp._qllr_stack(rho0, rho_n) / 2.0)
    return hermitian_part(halves @ rho0.matrix @ halves)


def sandwich_report(model: ParametricModel, h, query_grid, n_grid,
                    rate_threshold: float = RATE_THRESHOLD,
                    cutoff: float | None = None) -> ConvergenceReport:
    """Gap between the sandwiched and true shifted collective QCFs, per n."""
    ns = _normalize_n_grid(n_grid)
    h = _shift(model, h)
    rho0 = positive(model.state0(), cutoff)
    ops = list(_sld_set(model, rho0).l_ops)
    queries = _normalize_queries(query_grid, len(ops))

    def run(ns):
        rho_n = _shifted_states(model, _local_shifts(model, h, ns), rho0)
        # one product per query, traced against both states
        return _guarded_powers(list(zip(_sandwiches(rho0, rho_n), rho_n.stack)), ops,
                               queries, ns)

    powers = _replay(run, ns)
    errors = [max(abs(a - b) for a, b in zip(shifted, unshifted))
              for shifted, unshifted in powers]
    return _rate_report("sandwich", ns, errors, rate_threshold)


@dataclass(frozen=True)
class Oh2Report:
    """Second-order normalization: g(h) = (1 - Tr rho0 e^{L_h}) / ||h||^2."""

    radii: tuple[float, ...]
    g_values: tuple[float, ...]
    slope: float | None
    g_at_smallest_radius: float
    slope_threshold: float
    verdict: str

    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "radii": list(self.radii),
            "g_values": list(self.g_values),
            "slope": self.slope,
            "g_at_smallest_radius": self.g_at_smallest_radius,
            "slope_threshold": self.slope_threshold,
            "verdict": self.verdict,
        }


def _sphere_directions(dim: int, count: int, seed: int) -> np.ndarray:
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(angles), np.sin(angles)])
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((count, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def oh2_report(model: ParametricModel, radii=(0.2, 0.1, 0.05, 0.025),
               n_directions: int = 8, seed: int = 0,
               slope_threshold: float = OH2_SLOPE_THRESHOLD,
               cutoff: float | None = None) -> Oh2Report:
    """Check Tr rho0 e^{L_h} = 1 - o(||h||^2) along shrinking radii.

    g(h) = (1 - Tr rho0 e^{L_h}) / ||h||^2 is maximized over directions at
    each radius; the verdict passes iff g vanishes identically (within
    1e-10) or fits a positive log-log slope of at least ``slope_threshold``.
    """
    radii = tuple(sorted((float(r) for r in radii), reverse=True))
    if len(radii) < 2 or radii[-1] <= 0:
        raise ValueError("need at least two positive radii")
    if n_directions < 1:
        raise ValueError(f"need at least one direction, got {n_directions}")
    dirs = _sphere_directions(model.theta_dim, n_directions, seed)
    rho0 = positive(model.state0(), cutoff)
    t0 = np.asarray(model.theta0, dtype=float)

    def run(points):
        exps = _expm_checked(decomp._qllr_stack(rho0, _shifted_states(model, points, rho0)))
        return np.trace(rho0.matrix @ exps, axis1=-2, axis2=-1).real.tolist()

    # every (radius, direction) point in one stack, radius-major as a loop
    # over radii and then directions would visit them
    traces = _replay(run, [t0 + r * u for r in radii for u in dirs])
    g_values = []
    for i, r in enumerate(radii):
        worst = -np.inf
        for tr in traces[i * len(dirs):(i + 1) * len(dirs)]:
            worst = max(worst, (1.0 - tr) / (r * r))
        g_values.append(float(worst))
    gs = np.asarray(g_values)
    if np.max(np.abs(gs)) <= 1e-10:
        return Oh2Report(radii, tuple(g_values), None, g_values[-1],
                         slope_threshold, "pass")
    slope = None
    if np.min(gs) > 0:
        slope = float(np.polyfit(np.log(np.asarray(radii)), np.log(gs), 1)[0])
    ok = slope is not None and slope >= slope_threshold
    return Oh2Report(radii, tuple(g_values), slope, g_values[-1],
                     slope_threshold, "pass" if ok else "fail")


@dataclass(frozen=True)
class ProbeReport:
    """Joint QCF of collective observables with an infinitesimal remainder.

    ``deviation`` is the distance of the eta-perturbed finite-n QCF from the
    eta-free Gaussian limit; ``excess`` is its distance from the eta-free
    finite-n QCF (zero iff the remainder contributes nothing).
    """

    n_values: tuple[int, ...]
    deviation: tuple[float, ...]
    excess: tuple[float, ...]
    ceiling: float
    verdict: str

    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "n": list(self.n_values),
            "deviation": list(self.deviation),
            "excess": list(self.excess),
            "ceiling": self.ceiling,
            "verdict": self.verdict,
        }


def infinitesimal_probe(remainder_rule: Callable[[int], np.ndarray],
                        model: ParametricModel, query_grid, eta_grid, n_grid,
                        ceiling: float = 0.05,
                        cutoff: float | None = None) -> ProbeReport:
    """Probe whether a site-local remainder R(n) is asymptotically negligible.

    Evaluates Tr rho^(x n) prod_t exp(i (xi_t . X + eta_t R(n)) / ... ) via
    site factorization at sampled real (xi, eta) and reports how far the
    values sit from the eta-free limit and from the eta-free finite-n values.
    """
    ns = _normalize_n_grid(n_grid)
    base = positive(model.state0(), cutoff)
    slds = _sld_set(model, base)
    ops = list(slds.l_ops)
    queries = _normalize_queries(query_grid, len(ops))
    etas = [float(e) for e in eta_grid]
    if not etas:
        raise ValueError("eta grid is empty")
    limit = GaussianSpec(np.zeros(len(ops)), slds.j_matrix)
    limits = [qcf(limit, q) for q in queries]
    rho0 = base.matrix
    # per query: the eta-free slice, then one slice per eta
    slices = [(q, eta) for q in queries for eta in (None, *etas)]

    def run(ns):
        extras = [hermitize(remainder_rule(n)) for n in ns]
        for n, extra in zip(ns, extras):
            if extra.shape[0] != model.dim:
                raise DimensionMismatchError(
                    f"remainder at n = {n} has dimension {extra.shape[0]}, "
                    f"expected {model.dim}"
                )
        return _guarded_powers([[rho0]] * len(ns), ops, [q for q, _ in slices], ns,
                               extras=extras, etas=[eta for _, eta in slices])

    grid = _replay(run, ns)
    deviations = []
    excesses = []
    for zs in grid:
        powers = iter(zs[0])
        dev = 0.0
        exc = 0.0
        for lim in limits:
            plain = next(powers)
            for _ in etas:
                joint = next(powers)
                dev = max(dev, abs(joint - lim))
                exc = max(exc, abs(joint - plain))
        deviations.append(dev)
        excesses.append(exc)
    ok = (
        deviations[-1] <= ceiling
        and deviations[-1] <= deviations[0] + 1e-12
        and excesses[-1] <= ceiling
    )
    return ProbeReport(ns, tuple(deviations), tuple(excesses), ceiling,
                       "pass" if ok else "fail")


def iid_remainder_rule(model: ParametricModel, h,
                       cutoff: float | None = None) -> Callable[[int], np.ndarray]:
    """Remainder of the i.i.d. expansion of L at the local shift h / sqrt(n).

    R(n) = sqrt(n) ( L_{h/sqrt(n)} - h^i L_i / sqrt(n) + (h^i h^j J_ij / 2n) I );
    for a second-order-normalized family this tends to zero with n.
    """
    h = _shift(model, h)
    rho0 = positive(model.state0(), cutoff)
    slds = _sld_set(model, rho0)
    lin = _combination(slds.l_ops, h)
    jquad = float((h @ (slds.j_matrix @ h)).real)
    t0 = np.asarray(model.theta0, dtype=float)
    eye = np.eye(model.dim, dtype=complex)

    def rule(n: int) -> np.ndarray:
        rn = np.sqrt(float(n))
        l_matrix = decomp.qllr(model.state_at(t0 + h / rn), rho0, cutoff).l_matrix
        return rn * (l_matrix - lin / rn + (jquad / (2.0 * n)) * eye)

    return rule
