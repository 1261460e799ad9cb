"""Verification harness for quantum local asymptotic normality.

Collective observables X_i = (1/sqrt(n)) sum_k A_i^(k) over n i.i.d. sites
have quasi-characteristic functions that factorize exactly:

    Tr rho^(x n) prod_t exp(i xi_t . X) = ( Tr rho prod_t exp(i xi_t . A / sqrt(n)) )^n

so finite-n values are cheap at any n, and a dense tensor-power oracle is
kept around for small n to check the factorization itself. The reports
compare finite-n values against the Gaussian limit laws from ``gaussian``
and fit the decay rate of the error.

The model is evaluated one ``state_at`` call per theta. Each report
evaluates the states of its grid (the local shifts theta0 + h / sqrt(n) of
the n grid, or the ``oh2_report`` points) in stacked passes through the
``(N, d, d)`` kernels of ``linalg``: their positivity, domination and
``qllr`` checks, and the site factors of every (n, query) pair. The probe
evaluates the rule of ``iid_remainder_rule`` the same way, over its whole n
grid; a remainder rule that a caller supplies is called once per n. The QCF
kernel has two halves: ``_factor_products`` builds the products of every
(n, query) from the site observables of each n, and ``_traced_powers``
traces the states against them. The probe's remainder R(n) enters as one
more observable beside the SLDs, with eta as its query column. Errors stay those of the point-by-point loop: the earliest point
fails first, and within a point the earlier stage. ``_traced_powers`` and
the domination check, whose ``SupportViolationError`` names theta (and n),
check their slices in that order; a failing factor's error is raised after
the guard of every state at its n. The other kernels raise at a slice that
fails, which need not be the earliest; ``linalg._replay`` then reruns the
grid one point at a time and raises the first point's error. A grid that
passes is evaluated once.

Every report reads one q-LAN base per model from ``_base``: theta0's
validated state and, built on first use, the SLD set and its limit law
N(0, J). The base also holds the states, parts and L_n of its last
``_MEMO_SIZE`` theta grids, so the reports at one h and n grid evaluate its
local shifts once, and the factor products of its last ``_MEMO_SIZE``
(observables, queries, n grid), keyed on their exact bytes, so ``qclt``,
``lecam``, ``sandwich`` and the probe exponentiate each set of factors once.
The base is kept per thread, keyed on the model object's identity and the
resolved cutoff; a failure is not kept, so it is raised again on every call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
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
    ZeroOperatorError,
)
from .gaussian import GaussianSpec, as_query, lecam_limit_spec, qcf
from .linalg import (
    _EXPM_OVERFLOW,
    PositiveOperator,
    _Memo,
    _exp_anti_hermitian,
    _exp_hermitian,
    _expm_checked,
    _hermitize_stack,
    _pair,
    _positive,
    _replay,
    _resolve_cutoff,
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

#: radii ||h|| of the second-order normalization check, largest first
OH2_RADII = (0.2, 0.1, 0.05, 0.025)

#: directions of h sampled at each radius
OH2_DIRECTIONS = 8

#: the probe's deviation and excess at the largest n must be at most this
PROBE_CEILING = 0.05


@dataclass(frozen=True)
class ParametricModel:
    """A parametric family of density operators theta -> rho_theta.

    The harness evaluates it one theta at a time through ``state_at``. The
    family must be pure, ``state_at`` returning the same bytes for the same
    theta: theta0, the SLD stencil and each recent theta grid a report
    evaluated (local shifts, ``oh2_report`` points) are evaluated once per
    model object, cutoff and thread (see ``_base``).

    The reports query the family with real test vectors of dimension
    ``theta_dim`` (see ``gaussian.as_query``); a query with a nonzero
    imaginary part is rejected before the family is evaluated.
    """

    name: str
    dim: int
    theta_dim: int
    theta0: np.ndarray
    state_at: Callable[[np.ndarray], np.ndarray]

    def state0(self) -> np.ndarray:
        return self.state_at(np.asarray(self.theta0, dtype=float))


@dataclass
class _Base:
    """A model's validated theta0 state at one cutoff, its SLD set, its grids and QCF products."""

    model: ParametricModel  # held, so the id keying this entry is not reused
    rho0: PositiveOperator
    grids: _Memo = field(default_factory=_Memo)
    products: _Memo = field(default_factory=_Memo)

    @cached_property
    def slds(self) -> SldSet:
        """The SLDs at theta0 and J, built on their first read; a failure is not kept."""
        ls = tuple(_slds(self.model, self.rho0))
        return SldSet(l_ops=ls, j_matrix=hermitize(_gram(self.rho0.matrix, ls, ls), tol=1e-8))

    @cached_property
    def degenerate(self) -> bool:
        """Whether Re J is singular; J, a Gram matrix, may be (pure models saturate the bound)."""
        j = self.slds.j_matrix
        v = np.linalg.eigvalsh(j.real + j.real.T) / 2.0
        return bool(v[0] < 1e-12 * max(1.0, float(v[-1])))

    @cached_property
    def limit(self) -> GaussianSpec:
        """N(0, J) of the SLD set, validated on its first read; a failure is not kept."""
        return GaussianSpec(np.zeros(self.model.theta_dim), self.slds.j_matrix)

    def grid(self, thetas: Sequence[np.ndarray], ns: Sequence[int] | None = None) -> decomp._Parts:
        """The validated states at ``thetas`` and their parts along rho0, kept by exact bytes.

        The first state that does not dominate rho0 raises
        ``SupportViolationError`` with its theta and, where ``ns`` labels the
        grid, its n. A build that raises keeps nothing.
        """
        stack = np.asarray(thetas, dtype=float)
        build = lambda: decomp._Parts(self.rho0, _shifted_states(self.model, thetas, self.rho0))
        parts = self.grids.get((stack.shape, stack.tobytes()), build)
        eig, floors = parts.verdicts
        for j, (min_eig, floor) in enumerate(zip(eig.eigenvalues[:, -1].tolist(), floors)):
            if not min_eig > floor:
                n = None if ns is None else ns[j]
                where = f"theta = {stack[j].tolist()}" if n is None else f"n = {n}"
                raise SupportViolationError(
                    f"shifted state at {where} does not dominate the base state",
                    n=n, theta=thetas[j])
        return parts

    def powers(self, states: Sequence[Sequence[np.ndarray]], ops: Sequence[Sequence[np.ndarray]],
               queries: Sequence[np.ndarray], ns: Sequence[int]) -> list[list[list[complex]]]:
        """``_traced_powers`` of ``states`` against ``_factor_products(ops, queries, ns)``.

        The products are kept frozen, by the exact bytes of the observables,
        queries and n grid; a build with a failing factor is not kept.
        """
        stack = np.asarray(ops)
        key = (tuple(ns), stack.shape, stack.tobytes(),
               tuple((q.shape, q.tobytes()) for q in queries))
        products = self.products.get(key, lambda: _factor_products(ops, queries, ns))
        products[0].flags.writeable = False
        if products[1] is not None:
            del self.products.entries[key]
        return _traced_powers(states, products, len(queries), ns)


#: (id(model), cutoff) -> _Base
_bases = _Memo()


def _base(model: ParametricModel, cutoff: float | None) -> _Base:
    """The q-LAN base of ``model`` at ``cutoff``; this thread's last ``_MEMO_SIZE`` are kept.

    A zero theta0 state raises ``ZeroOperatorError``: every base has a nonzero rho0.
    """
    c = _resolve_cutoff(cutoff)

    def build() -> _Base:
        rho0 = positive(model.state0(), c)
        if not rho0.rank:
            raise ZeroOperatorError(f"model {model.name!r} has a zero state at theta0")
        return _Base(model, rho0)

    return _bases.get((id(model), c), build)


def _slds(model: ParametricModel, rho0: PositiveOperator) -> list[np.ndarray]:
    """The SLD along each direction at the already validated base state ``rho0``.

    Each direction evaluates its Richardson stencil, four states, and then
    its SLD, before the next direction starts.
    """
    t0 = np.asarray(model.theta0, dtype=float)
    ls = []
    for direction in range(model.theta_dim):
        e = np.zeros_like(t0)
        e[direction] = 1.0
        plus, minus, half_plus, half_minus = [model.state_at(t) for s in (FD_STEP, FD_STEP / 2)
                                              for t in (t0 + s * e, t0 - s * e)]
        # Richardson-extrapolated central differences at FD_STEP and FD_STEP / 2
        d1 = (plus - minus) / (2 * FD_STEP)
        d2 = (half_plus - half_minus) / (2 * (FD_STEP / 2))
        ls.append(_sld(rho0, (4.0 * d2 - d1) / 3.0))
    return ls


def _sld(rho0: PositiveOperator, drho: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative L at ``rho0`` of the state derivative ``drho``.

    Solves drho = (rho0 L + L rho0) / 2 in the eigenbasis of rho0, zeroing the
    blocks where both eigenvalues vanish. Derivative weight on those blocks
    means the family leaves the support to first order, which is rejected.
    """
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
    """All SLD directions at theta0 plus the information matrix J_ij = Tr rho_theta0 L_j L_i."""

    l_ops: tuple[np.ndarray, ...]
    j_matrix: np.ndarray


def sld_set(model: ParametricModel, cutoff: float | None = None) -> SldSet:
    slds = _sld_set(model, cutoff).slds
    return SldSet(tuple(op.copy() for op in slds.l_ops), slds.j_matrix.copy())


def _sld_set(model: ParametricModel, cutoff: float | None) -> _Base:
    """The ``_base`` of ``model`` with its SLD set read.

    A degenerate covariance warns on every call, at the public entry's caller.
    """
    base = _base(model, cutoff)
    if base.degenerate:
        warnings.warn(
            "covariance Re J is not strictly positive definite; "
            "the Gaussian limit law is degenerate",
            stacklevel=3,
        )
    return base


def _gram(rho0: np.ndarray, a_ops: Sequence[np.ndarray],
          b_ops: Sequence[np.ndarray]) -> np.ndarray:
    """The matrix G_ij = Tr rho0 B_j A_i: J, Sigma and tau of the reports."""
    g = np.zeros((len(a_ops), len(b_ops)), dtype=complex)
    for i, a in enumerate(a_ops):
        for j, b in enumerate(b_ops):
            g[i, j] = np.trace(rho0 @ b @ a)
    return g


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
    state, ops, q, n = _site_operands(site_state, site_ops, query, n)
    return _traced_powers([[state]], _factor_products([ops], [q], [n]), 1, [n], guard)[0][0][0]


def _site_operands(site_state, site_ops, query, n) -> tuple[np.ndarray, list, np.ndarray, int]:
    """The validated site state, site observables, query and n of the QCF functions."""
    state = hermitize(site_state)
    ops = _site_ops(site_ops, state.shape)
    return state, ops, as_query(query, len(ops)), _positive_n(n)


def _positive_n(n) -> int:
    """The one reader of n: an integer or integral float of at least 1, never a bool, as an int."""
    value = int(n) if isinstance(n, (float, np.floating)) and float(n).is_integer() else n
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1:
        return int(value)
    raise ValueError(f"n must be a positive integer, got {repr(n) if isinstance(n, str) else n}")


def _site_ops(site_ops, shape: tuple[int, int]) -> list[np.ndarray]:
    """Site observables, hermitized, for a site state of ``shape``: nonempty, each that shape."""
    ops = [hermitize(op) for op in site_ops]
    if not ops:
        raise ValueError("site_ops is empty; the QCF needs at least one site observable")
    for i, op in enumerate(ops):
        if op.shape != shape:
            raise DimensionMismatchError(f"site observable {i} has shape {op.shape} but the "
                                         f"site state has shape {shape}")
    return ops


def _factor_products(ops: Sequence[Sequence[np.ndarray]], queries: Sequence[np.ndarray],
                     ns: Sequence[int]) -> tuple[np.ndarray, Exception | None]:
    """The products prod_t exp(i xi_t . A / sqrt(n)) of every (n, query), n-major.

    ``ns`` is an n grid; at ``ns[i]`` the site observables A are ``ops[i]``.
    The factors of every (n, query) are exponentiated in one stacked pass.
    Returns the products of the slices before the first one with a failing
    factor, and that factor's error (None when no factor fails); the states
    are traced against them by ``_traced_powers``.

    Operands are trusted: observables hermitized, queries normalized by
    ``as_query`` with one column per observable, each n a positive int. The
    queries are real, so every factor is anti-Hermitian.
    """
    count = len(queries)
    d = ops[0][0].shape[0]
    t_max = max(q.shape[0] for q in queries)
    # shorter queries get identity factors in front; eye @ eye is exactly
    # eye, so every product is the one a loop over that query alone builds
    coef = np.zeros((count, t_max, len(ops[0])), dtype=complex)
    real = np.zeros((count, t_max), dtype=bool)
    for j, q in enumerate(queries):
        coef[j, t_max - q.shape[0]:] = q
        real[j, t_max - q.shape[0]:] = True
    factors = []
    with np.errstate(over="ignore", invalid="ignore"):
        for n, site_ops in zip(ns, ops):
            gen = np.zeros((count, t_max, d, d), dtype=complex)
            for i, op in enumerate(site_ops):
                gen = gen + coef[:, :, i, None, None] * op
            factors.append(1j * (1.0 / np.sqrt(n)) * gen[real])
    factors = np.concatenate(factors)
    # flat (n, slice, factor) position of each factor
    at = (np.arange(len(ns))[:, None] * (count * t_max) + np.flatnonzero(real.ravel())).ravel()
    finite = np.isfinite(factors).all(axis=(-2, -1))
    exps = _exp_anti_hermitian(factors[finite])
    overflowed = ~np.isfinite(exps).all(axis=(-2, -1))
    total = len(ns) * count
    mats = np.broadcast_to(np.eye(d, dtype=complex), (total, t_max, d, d)).copy()
    mats.reshape(-1, d, d)[at[finite]] = exps
    invalid = at[~finite].tolist()
    bad = min(invalid + at[finite][overflowed].tolist(), default=total * t_max)
    # no slice after the first one with a failing factor is ever traced
    prod = np.eye(d, dtype=complex)
    for t in range(t_max):
        prod = prod @ mats[:bad // t_max, t]
    if bad == total * t_max:
        return prod, None
    return prod, (InvalidMatrixError("matrix has non-finite entries") if bad in invalid
                  else OverflowError(_EXPM_OVERFLOW))


def _traced_powers(states: Sequence[Sequence[np.ndarray]],
                   products: tuple[np.ndarray, Exception | None], count: int,
                   ns: Sequence[int], guard: float = QCF_GUARD) -> list[list[list[complex]]]:
    """z^n = exp(n log z) for z = Tr rho prod_t exp(i xi_t . A / sqrt(n)).

    ``products`` are ``_factor_products`` of ``count`` queries over the n
    grid ``ns``; each state of ``states[i]`` is traced against the products
    of ``ns[i]``. Errors are those of a loop over the n and then the
    queries: each factor's exponential, then |z - 1| < ``guard`` for each
    state in turn. Returns per n one list per state of one value per query.
    States are trusted: hermitized, of the observables' shape.
    """
    prod, error = products
    traces = []
    for i in range(len(ns)):
        zs = [np.trace(state @ prod[i * count:(i + 1) * count], axis1=-2, axis2=-1).tolist()
              for state in states[i]]
        for z_states in zip(*zs):
            # Python's complex abs: np.abs(z - 1) rounds differently on
            # about a third of values, which could flip a verdict at the guard
            z = next((z for z in z_states if abs(z - 1.0) >= guard), None)
            if z is not None:
                raise QueryOutOfSafeRangeError(
                    f"per-site trace {z:.6f} strays {abs(z - 1.0):.3f} from 1 "
                    f"(guard {guard}); shrink ||xi|| / sqrt(n)"
                )
        # the first slice with a failing factor fails with that factor's error
        if len(prod) < (i + 1) * count:
            raise error
        traces.append(zs)
    # one array pass per n has the bits of the scalar exp(n log z) of each z
    return [np.exp(n * np.log(zs)).tolist() for n, zs in zip(ns, traces)]


def _kron_chain(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def collective_qcf_brute(site_state, site_ops, query, n: int) -> complex:
    """Dense tensor-power oracle for the collective QCF (small n only)."""
    state, ops, q, n = _site_operands(site_state, site_ops, query, n)
    d = state.shape[0]
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
    ns = tuple(_positive_n(n) for n in n_grid)
    if len(ns) < 2:
        raise ValueError("need at least two n values to fit a rate")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"n grid must be strictly increasing, got {ns}")
    return ns


def _rate_report(study: str, ns: tuple[int, ...], errors: list[float]) -> ConvergenceReport:
    errs = tuple(float(e) for e in errors)
    converged = all(e <= ERROR_FLOOR * n for e, n in zip(errs, ns))
    monotone = converged or all(b < a for a, b in zip(errs, errs[1:]))
    fit = None
    if not converged and min(errs) > 0:
        fit = float(np.polyfit(np.log(np.asarray(ns, float)), np.log(np.asarray(errs)), 1)[0])
    ok = converged or (monotone and fit is not None and fit <= RATE_THRESHOLD)
    return ConvergenceReport(study, ns, errs, fit, "pass" if ok else "fail",
                             RATE_THRESHOLD, monotone)


def _normalize_queries(query_grid, dim: int) -> list[np.ndarray]:
    queries = [as_query(q, dim) for q in query_grid]
    if not queries:
        raise ValueError("query grid is empty")
    return queries


def qclt_report(model: ParametricModel, query_grid, n_grid,
                cutoff: float | None = None) -> ConvergenceReport:
    """Central-limit check: collective SLD observables against N(0, J)."""
    ns = _normalize_n_grid(n_grid)
    queries = _normalize_queries(query_grid, model.theta_dim)
    base = _sld_set(model, cutoff)
    limits = [qcf(base.limit, q) for q in queries]
    powers = base.powers([[base.rho0.matrix]] * len(ns), [base.slds.l_ops] * len(ns), queries, ns)
    errors = [max(abs(z - lim) for z, lim in zip(zs[0], limits)) for zs in powers]
    return _rate_report("qclt", ns, errors)


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
    ``linalg._pair``.
    """
    states = [model.state_at(theta) for theta in thetas]
    shape = rho0.matrix.shape
    for state in states:
        if np.shape(state) != shape:
            _pair(rho0, state, rho0.cutoff)
    return _positive(_hermitize_stack(np.asarray(states, dtype=complex).reshape(-1, *shape)),
                     rho0.cutoff)


def lecam_report(model: ParametricModel, b_ops, h, query_grid, n_grid,
                 cutoff: float | None = None) -> ConvergenceReport:
    """Third-lemma check: shifted collective observables against N((Re tau) h, Sigma).

    Sigma_ij = Tr rho0 B_j B_i and tau_ij = Tr rho0 L_j B_i. Each n is
    evaluated under the local shift theta0 + h / sqrt(n); a shifted state
    that does not dominate the base state raises SupportViolationError, as
    in every report that evaluates shifted states.
    ``b_ops=None`` takes the SLDs at theta0 as the observables B.
    """
    ns = _normalize_n_grid(n_grid)
    ops = None if b_ops is None else _site_ops(b_ops, (model.dim, model.dim))
    h = _shift(model, h)
    queries = _normalize_queries(query_grid, model.theta_dim if ops is None else len(ops))
    base = _sld_set(model, cutoff)
    rho0, slds = base.rho0.matrix, base.slds
    if ops is None:
        ops = list(slds.l_ops)
    _centered_or_raise(rho0, ops)
    limit = lecam_limit_spec(_gram(rho0, ops, ops), _gram(rho0, ops, slds.l_ops), h)
    limits = [qcf(limit, q) for q in queries]

    def run(ns):
        grid = base.grid(_local_shifts(model, h, ns), ns)
        return base.powers([[m] for m in grid.s.stack], [ops] * len(ns), queries, ns)

    powers = _replay(run, ns)
    errors = [max(abs(z - lim) for z, lim in zip(zs[0], limits)) for zs in powers]
    return _rate_report("lecam", ns, errors)


def sandwich_qcf(model: ParametricModel, h, query, n: int,
                 cutoff: float | None = None) -> complex:
    """QCF with the shifted state replaced by its sandwich exp(L/2) rho0 exp(L/2).

    L is the symmetric log-likelihood ratio of the shifted state along the
    base state, so the sandwich is exactly the absolutely continuous part of
    the shifted state; the gap to the true shifted QCF is controlled by the
    singular mass. The site observables are the SLDs.
    """
    h = _shift(model, h)
    n = _positive_n(n)
    q = as_query(query, model.theta_dim)
    base = _sld_set(model, cutoff)
    grid = base.grid(_local_shifts(model, h, [n]), [n])
    return base.powers([_sandwiches(grid)], [base.slds.l_ops], [q], [n])[0][0][0]


def _sandwiches(grid: decomp._Parts) -> np.ndarray:
    """exp(L/2) rho0 exp(L/2) for the log-likelihood ratio L of each state of ``grid``."""
    halves = _expm_checked(grid.l_stack / 2.0, _exp_hermitian)
    return hermitian_part(halves @ grid.r.matrix @ halves)


def sandwich_report(model: ParametricModel, h, query_grid, n_grid,
                    cutoff: float | None = None) -> ConvergenceReport:
    """Gap between the sandwiched and true shifted collective QCFs, per n."""
    ns = _normalize_n_grid(n_grid)
    h = _shift(model, h)
    queries = _normalize_queries(query_grid, model.theta_dim)
    base = _sld_set(model, cutoff)

    def run(ns):
        grid = base.grid(_local_shifts(model, h, ns), ns)
        # one product per query, traced against both states
        return base.powers(list(zip(_sandwiches(grid), grid.s.stack)),
                           [base.slds.l_ops] * len(ns), queries, ns)

    powers = _replay(run, ns)
    errors = [max(abs(a - b) for a, b in zip(shifted, unshifted))
              for shifted, unshifted in powers]
    return _rate_report("sandwich", ns, errors)


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


def oh2_report(model: ParametricModel, seed: int = 0,
               cutoff: float | None = None) -> Oh2Report:
    """Check Tr rho0 e^{L_h} = 1 - o(||h||^2) along shrinking radii.

    g(h) = (1 - Tr rho0 e^{L_h}) / ||h||^2 is maximized over ``OH2_DIRECTIONS``
    directions (drawn with ``seed`` unless theta is 2-dimensional) at each of
    ``OH2_RADII``; the verdict passes iff g vanishes identically (within
    1e-10) or fits a log-log slope of at least ``OH2_SLOPE_THRESHOLD``.
    """
    radii = np.asarray(OH2_RADII)
    dirs = _sphere_directions(model.theta_dim, OH2_DIRECTIONS, seed)
    base = _base(model, cutoff)
    t0 = np.asarray(model.theta0, dtype=float)

    def run(points):
        exps = _expm_checked(base.grid(points).l_stack, _exp_hermitian)
        return np.trace(base.rho0.matrix @ exps, axis1=-2, axis2=-1).real.tolist()

    # every (radius, direction) point t0 + r * u in one stack, radius-major
    # as a loop over radii and then directions would visit them
    points = (t0 + radii[:, None, None] * dirs).reshape(radii.size * len(dirs), -1)
    traces = _replay(run, list(points))
    gs = ((1.0 - np.reshape(traces, (len(radii), -1))) / (radii * radii)[:, None]).max(axis=1)
    g_values = tuple(gs.tolist())
    vanishes = np.max(np.abs(gs)) <= 1e-10
    slope = None
    if not vanishes and np.min(gs) > 0:
        slope = float(np.polyfit(np.log(radii), np.log(gs), 1)[0])
    ok = vanishes or (slope is not None and slope >= OH2_SLOPE_THRESHOLD)
    return Oh2Report(OH2_RADII, g_values, slope, g_values[-1], OH2_SLOPE_THRESHOLD,
                     "pass" if ok else "fail")


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
                        cutoff: float | None = None) -> ProbeReport:
    """Probe whether a site-local remainder R(n) is asymptotically negligible.

    Evaluates Tr rho^(x n) prod_t exp(i (xi_t . X + eta_t R(n)) / ... ) via
    site factorization at sampled real (xi, eta) and reports how far the
    values sit from the eta-free limit and from the eta-free finite-n values;
    it passes when both stay within ``PROBE_CEILING`` at the largest n.
    """
    ns = _normalize_n_grid(n_grid)
    etas = [float(e) for e in eta_grid]
    if not etas:
        raise ValueError("eta grid is empty")
    if not np.isfinite(etas).all():
        raise ValueError(f"eta grid has non-finite entries: {etas}")
    queries = _normalize_queries(query_grid, model.theta_dim)
    base = _sld_set(model, cutoff)
    ops = list(base.slds.l_ops)
    limits = [qcf(base.limit, q) for q in queries]
    rho0 = base.rho0.matrix
    # R(n) is one more site observable, with coefficient eta in every factor:
    # per query the eta-free slice (eta = 0), then one slice per eta
    slices = [np.column_stack([q, np.full(len(q), eta)]) for q in queries for eta in (0.0, *etas)]
    # the built-in rule evaluates the whole grid at once; any other is called once per n
    remainders = (remainder_rule.grid if isinstance(remainder_rule, _IidRemainder)
                  else lambda ns: map(remainder_rule, ns))

    def run(ns):
        extras = [hermitize(r) for r in remainders(ns)]
        for n, extra in zip(ns, extras):
            if extra.shape[0] != model.dim:
                raise DimensionMismatchError(
                    f"remainder at n = {n} has dimension {extra.shape[0]}, "
                    f"expected {model.dim}"
                )
        return base.powers([[rho0]] * len(ns), [ops + [extra] for extra in extras], slices, ns)

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
    ok = (deviations[-1] <= PROBE_CEILING and deviations[-1] <= deviations[0] + 1e-12
          and excesses[-1] <= PROBE_CEILING)
    return ProbeReport(ns, tuple(deviations), tuple(excesses), PROBE_CEILING,
                       "pass" if ok else "fail")


def iid_remainder_rule(model: ParametricModel, h,
                       cutoff: float | None = None) -> Callable[[int], np.ndarray]:
    """Remainder of the i.i.d. expansion of L at the local shift h / sqrt(n).

    R(n) = sqrt(n) ( L_{h/sqrt(n)} - h^i L_i / sqrt(n) + (h^i h^j J_ij / 2n) I );
    for a second-order-normalized family this tends to zero with n. The rule
    takes n as the reports read it, an integer or integral float of at least
    1, and raises ``ValueError`` for any other n before it evaluates the
    model. ``infinitesimal_probe`` evaluates it over its whole n grid at once.
    """
    return _IidRemainder(model, _shift(model, h), _sld_set(model, cutoff))


class _IidRemainder:
    """The rule of ``iid_remainder_rule``, called at one n or evaluated over an n grid."""

    def __init__(self, model: ParametricModel, h: np.ndarray, base: _Base):
        self.model, self.h, self.base = model, h, base
        self.lin = _combination(base.slds.l_ops, h)
        self.jquad = float((h @ (base.slds.j_matrix @ h)).real)

    def __call__(self, n) -> np.ndarray:
        return self.grid([n])[0]

    def grid(self, ns: Sequence) -> list[np.ndarray]:
        """R(n) at each n of ``ns``, its shifted states, checks and ``qllr`` as one stack.

        Every n is read before the model is evaluated. A failing grid raises
        at a failing n, not necessarily the first; ``_replay`` gives it the
        error of the loop over ``__call__``.
        """
        ns = [_positive_n(n) for n in ns]
        l_stack = self.base.grid(_local_shifts(self.model, self.h, ns), ns).l_stack
        eye = np.eye(self.model.dim, dtype=complex)
        return [rn * (l_matrix - self.lin / rn + (self.jquad / (2.0 * n)) * eye)
                for n, rn, l_matrix in zip(ns, np.sqrt(np.array(ns, dtype=float)), l_stack)]
