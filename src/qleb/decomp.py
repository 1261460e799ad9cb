"""Lebesgue decomposition of one positive operator along another.

Given PSD matrices rho and sigma, sigma splits uniquely as sigma_ac +
sigma_sing with sigma_ac absolutely continuous with respect to rho (it is
R rho R for some R >= 0) and sigma_sing singular to rho (Tr rho sigma_sing
= 0). Two independent computations are provided: a block construction in a
basis adapted to the supports, and a closed formula built from a square-root
sandwich and a pseudoinverse. Their agreement is the main cross-check.

Singularity and absolute continuity each come with several equivalent
criteria; the predicates here evaluate all of them and report consistency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    MutuallySingularError,
    NotAbsolutelyContinuousError,
    ZeroOperatorError,
)
from .linalg import (
    PositiveOperator,
    _dagger,
    _eigh,
    _eigh_raw,
    _excision,
    _geometric_mean,
    _log_stack,
    _positive,
    _resolve_cutoff,
    excision,
    hermitian_part,
    positive,
    support_projector,
)

#: absolute overlap tolerance, scaled by operator norms where it is applied
SINGULARITY_TOL = 1e-10

#: machine-level floor (relative to ||sigma||_2) below which an excision
#: eigenvalue is indistinguishable from compression rounding
EXCISION_FLOOR = 1e-14


def _pair(rho, sigma, cutoff) -> tuple[PositiveOperator, PositiveOperator]:
    r = positive(rho, cutoff)
    s = positive(sigma, cutoff)
    if r.dim != s.dim:
        raise DimensionMismatchError(
            f"operands must share a dimension, got {r.dim} and {s.dim}"
        )
    return r, s


def _spectral_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _trace_singular(r: PositiveOperator, s: PositiveOperator) -> bool:
    """The trace criterion of mutual singularity: Tr rho sigma within tolerance."""
    tr = float(np.trace(r.matrix @ s.matrix).real)
    return tr <= SINGULARITY_TOL * r.norm2 * s.norm2


def _excision_pos_tol(exc_dim: int, exc_norm: float, sigma_norm: float, cutoff: float) -> float:
    # strict positivity of a compressed sigma is decided against the larger of
    # the usual rank tolerance and a machine floor anchored to sigma itself;
    # an all-noise excision (orthogonal supports) has exc_norm ~ eps and its
    # own rank_tol would accept the noise as positive
    return exc_dim * max(cutoff * exc_norm, EXCISION_FLOOR * sigma_norm)


@dataclass(frozen=True)
class SingularityCheck:
    """Verdict plus the three overlap functionals and their thresholds."""

    singular: bool
    trace_overlap: float
    excision_norm: float
    projector_overlap: float
    trace_bound: float
    excision_bound: float
    projector_bound: float
    consistent: bool

    def __bool__(self) -> bool:
        return self.singular


def is_singular(rho, sigma, cutoff: float | None = None, tol: float = SINGULARITY_TOL) -> SingularityCheck:
    """Test whether rho and sigma are mutually singular.

    Three equivalent criteria are evaluated: the compression of sigma onto
    supp rho vanishes, the support projectors are orthogonal, and Tr rho
    sigma = 0. The verdict is the trace criterion; ``consistent`` records
    whether all three agree at their calibrated thresholds (the projector
    functional scales as the square root of the other two, hence sqrt(tol)).
    """
    r, s = _pair(rho, sigma, cutoff)
    if r.rank == 0 or s.rank == 0:
        raise ZeroOperatorError("singularity test needs two nonzero operators")
    exc = excision(s, r)
    exc_norm = _spectral_norm(exc)
    proj = _spectral_norm(support_projector(r) @ support_projector(s))
    tr = float(np.trace(r.matrix @ s.matrix).real)
    trace_bound = tol * r.norm2 * s.norm2
    exc_bound = tol * s.norm2
    proj_bound = float(np.sqrt(tol))
    by_trace = tr <= trace_bound
    by_exc = exc_norm <= exc_bound
    by_proj = proj <= proj_bound
    return SingularityCheck(
        singular=by_trace,
        trace_overlap=tr,
        excision_norm=exc_norm,
        projector_overlap=proj,
        trace_bound=trace_bound,
        excision_bound=exc_bound,
        projector_bound=proj_bound,
        consistent=(by_trace == by_exc == by_proj),
    )


def _ac_verdicts(r: PositiveOperator,
                 s: PositiveOperator) -> tuple[np.ndarray, list[float], list[float]]:
    """Excision of each slice of s onto supp r, its min eigenvalue and its positivity floor.

    r << s iff the min eigenvalue exceeds the floor. Takes validated
    operators of one dimension with a nonzero reference and builds no
    witness.
    """
    exc = _excision(r.support_basis(), s.bases(), s.values)
    k = exc.shape[-1]
    vals = _eigh_raw(exc).eigenvalues.tolist()
    floors = [_excision_pos_tol(k, w[0] if k else 0.0, norm, r.cutoff)
              for w, norm in zip(vals, s.norms())]
    return exc, [w[-1] for w in vals], floors


@dataclass(frozen=True)
class AbsoluteContinuityCheck:
    """Verdict for rho << sigma plus the witness diagnostic when it holds."""

    absolutely_continuous: bool
    excision_min_eigenvalue: float
    positivity_floor: float
    witness: np.ndarray | None
    witness_residual: float | None

    def __bool__(self) -> bool:
        return self.absolutely_continuous


def is_absolutely_continuous(rho, sigma, cutoff: float | None = None) -> AbsoluteContinuityCheck:
    """Test rho << sigma, i.e. the compression of sigma onto supp rho is > 0.

    When the verdict is true, the equivalent witness characterization is also
    exercised: with rho = [[rho0, 0], [0, 0]] and sigma = [[sigma0, .], [., .]]
    in a basis adapted to supp rho, R = blockdiag(rho0 # sigma0^-1, 0)
    satisfies rho = R sigma R; the residual of that identity is reported.
    """
    r, s = _pair(rho, sigma, cutoff)
    if r.rank == 0:
        raise ZeroOperatorError("absolute continuity needs a nonzero reference")
    (exc,), (min_eig,), (floor,) = _ac_verdicts(r, s)
    holds = min_eig > floor
    witness = None
    residual = None
    if holds:
        k = r.rank
        rho0 = np.diag(r.eigenvalues[:k]).astype(complex)
        sigma0_inv = np.linalg.inv(exc)
        x = _geometric_mean(_positive(rho0[None], r.cutoff),
                            _positive(hermitian_part(sigma0_inv)[None], r.cutoff)).matrix
        v = r.support_basis()
        witness = hermitian_part(v @ x @ v.conj().T)
        # evaluate R sigma R through sigma's spectral root: R can be large
        # (~ 1/sqrt of a small overlap) while R @ root stays O(||rho||^1/2),
        # so the identity is checked without amplifying rounding by ||R||^2
        root = s.eigenvectors * np.sqrt(s.eigenvalues)
        m = witness @ root
        residual = float(np.max(np.abs(m @ m.conj().T - r.matrix)))
    return AbsoluteContinuityCheck(
        absolutely_continuous=holds,
        excision_min_eigenvalue=min_eig,
        positivity_floor=floor,
        witness=witness,
        witness_residual=residual,
    )


@dataclass(frozen=True)
class MutualContinuityCheck:
    """Both one-sided verdicts plus the rank-equality cross-check."""

    mutually_ac: bool
    forward: AbsoluteContinuityCheck
    backward: AbsoluteContinuityCheck
    rank_criterion: bool
    consistent: bool

    def __bool__(self) -> bool:
        return self.mutually_ac


def is_mutually_ac(rho, sigma, cutoff: float | None = None) -> MutualContinuityCheck:
    """Test rho << sigma and sigma << rho.

    Cross-checked against the criterion "the compression of sigma onto
    supp rho is strictly positive and rank rho = rank sigma".
    """
    r, s = _pair(rho, sigma, cutoff)
    fwd = is_absolutely_continuous(r, s, cutoff)
    bwd = is_absolutely_continuous(s, r, cutoff)
    both = bool(fwd) and bool(bwd)
    rank_crit = bool(fwd) and (r.rank == s.rank)
    return MutualContinuityCheck(
        mutually_ac=both,
        forward=fwd,
        backward=bwd,
        rank_criterion=rank_crit,
        consistent=(both == rank_crit),
    )


@dataclass(frozen=True)
class SupportSplit:
    """Basis adapted to a pair (rho, sigma) and the induced blocks.

    H2 is the support of sigma compressed onto supp rho, H1 its kernel inside
    supp rho, H3 the kernel of rho. In the basis (H1, H2, H3):

        rho   = [[rho2,  rho1, 0],     sigma = [[0, 0,      0],
                 [rho1*, rho0, 0],              [0, sigma0, alpha],
                 [0,     0,    0]]              [0, alpha*, beta]]

    with [[rho2, rho1], [rho1*, rho0]] > 0 and sigma0 > 0.
    """

    basis_h1: np.ndarray
    basis_h2: np.ndarray
    basis_h3: np.ndarray
    rho2: np.ndarray
    rho1: np.ndarray
    rho0: np.ndarray
    sigma0: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def dims(self) -> tuple[int, int, int]:
        return (
            self.basis_h1.shape[1],
            self.basis_h2.shape[1],
            self.basis_h3.shape[1],
        )

    def full_basis(self) -> np.ndarray:
        return np.hstack([self.basis_h1, self.basis_h2, self.basis_h3])


def support_split(rho, sigma, cutoff: float | None = None) -> SupportSplit:
    """Adapt a basis to (rho, sigma) and extract the canonical blocks."""
    r, s = _pair(rho, sigma, cutoff)
    if r.rank == 0 or s.rank == 0:
        raise ZeroOperatorError("support split needs two nonzero operators")
    if _trace_singular(r, s):
        raise MutuallySingularError(
            "operators are mutually singular; the adapted split is empty"
        )
    return _support_split(r, s)


def _support_split(r: PositiveOperator, s: PositiveOperator) -> SupportSplit:
    """``support_split`` of a validated pair already found not trace-singular."""
    v_supp = r.support_basis()
    v_ker = r.kernel_basis()
    exc = excision(s, r)
    w, u = _eigh(exc)
    pos_tol = _excision_pos_tol(exc.shape[0], float(w[0]), s.norm2, r.cutoff)
    m = int(np.count_nonzero(w > pos_tol))
    if m == 0:
        raise MutuallySingularError(
            "compression of sigma onto supp rho vanishes within tolerance"
        )
    h2 = v_supp @ u[:, :m]
    h1 = v_supp @ u[:, m:]
    h3 = v_ker
    sm = s.matrix
    rm = r.matrix
    return SupportSplit(
        basis_h1=h1,
        basis_h2=h2,
        basis_h3=h3,
        rho2=hermitian_part(h1.conj().T @ rm @ h1),
        rho1=h1.conj().T @ rm @ h2,
        rho0=hermitian_part(h2.conj().T @ rm @ h2),
        sigma0=hermitian_part(h2.conj().T @ sm @ h2),
        alpha=h2.conj().T @ sm @ h3,
        beta=hermitian_part(h3.conj().T @ sm @ h3),
    )


@dataclass(frozen=True)
class LebesgueDecomposition:
    """sigma = sigma_ac + sigma_sing with a witness R >= 0, sigma_ac = R rho R."""

    sigma_ac: PositiveOperator
    sigma_sing: PositiveOperator
    witness_r: PositiveOperator
    route: str

    def reconstruction(self) -> np.ndarray:
        return self.sigma_ac.matrix + self.sigma_sing.matrix


def _zero_decomposition(s: PositiveOperator, cutoff: float, route: str) -> LebesgueDecomposition:
    d = s.dim
    zero = _positive(np.zeros((1, d, d), dtype=complex), cutoff)
    return LebesgueDecomposition(
        sigma_ac=zero,
        sigma_sing=s,
        witness_r=zero,
        route=route,
    )


def _witness_stack(sigma0: np.ndarray, alpha: np.ndarray, rho0: np.ndarray, lead: int,
                   fill: float, cutoff: float) -> np.ndarray:
    """E* blockdiag(0, sigma0 # rho0^-1, fill I) E for each slice of a stack.

    The diagonal blocks are ``lead``, k and m wide for sigma0 of shape
    (N, k, k) and alpha of shape (N, k, m); E = I plus the off-diagonal
    (k, m) block sigma0^-1 alpha. ``rho0`` (k x k) is shared by every slice.
    The checks run in this order: sigma0 > 0, inv(rho0) > 0, then the
    geometric mean; each raises at a slice that fails.
    """
    rho0_inv = hermitian_part(np.linalg.inv(rho0))
    x = _geometric_mean(_positive(sigma0, cutoff), _positive(rho0_inv[None], cutoff)).stack
    k, m = alpha.shape[-2:]
    i2, i3 = slice(lead, lead + k), slice(lead + k, None)
    e = np.eye(lead + k + m, dtype=complex)[None].repeat(len(x), axis=0)
    mid = np.zeros_like(e)
    mid[:, i2, i2] = x
    mid[:, i3, i3] = fill * np.eye(m)
    e[:, i2, i3] = np.linalg.inv(sigma0) @ alpha
    return hermitian_part(_dagger(e) @ mid @ e)


def lebesgue_decompose(sigma, rho, cutoff: float | None = None) -> LebesgueDecomposition:
    """Split sigma along rho via the adapted block construction.

    In the (H1, H2, H3) basis of ``support_split``:

        sigma_ac   = [[0, 0,      0],                [[0, 0, 0],
                      [0, sigma0, alpha],  sigma_sing = [0, 0, 0],
                      [0, alpha*, alpha* sigma0^-1 alpha]]   [0, 0, beta - alpha* sigma0^-1 alpha]]

    and the witness is R = E* blockdiag(0, sigma0 # rho0^-1, 0) E with
    E = I + the (H2, H3) block sigma0^-1 alpha. Mutually singular pairs
    return sigma_ac = 0, sigma_sing = sigma, R = 0.
    """
    c = _resolve_cutoff(cutoff)
    r, s = _pair(rho, sigma, c)
    if r.rank == 0:
        raise ZeroOperatorError("decomposition needs a nonzero reference operator")
    if s.rank == 0 or _trace_singular(r, s):
        return _zero_decomposition(s, c, "block")
    split = _support_split(r, s)
    n1, n2, n3 = split.dims
    d = r.dim
    i2 = slice(n1, n1 + n2)
    i3 = slice(n1 + n2, d)
    sigma0, alpha = split.sigma0, split.alpha
    r_b = _witness_stack(sigma0[None], alpha[None], split.rho0, n1, 0.0, c)[0]
    cross = hermitian_part(alpha.conj().T @ np.linalg.inv(sigma0) @ alpha)
    ac_b = np.zeros((d, d), dtype=complex)
    ac_b[i2, i2] = sigma0
    ac_b[i2, i3] = alpha
    ac_b[i3, i2] = alpha.conj().T
    ac_b[i3, i3] = cross
    sing_b = np.zeros((d, d), dtype=complex)
    sing_b[i3, i3] = split.beta - cross
    basis = split.full_basis()
    to_ambient = lambda blk: hermitian_part(basis @ blk @ basis.conj().T)
    floor = s.norm2
    return LebesgueDecomposition(
        sigma_ac=_positive(to_ambient(ac_b)[None], c, floor),
        sigma_sing=_positive(to_ambient(sing_b)[None], c, floor),
        witness_r=_positive(to_ambient(r_b)[None], c, max(floor, 1.0)),
        route="block",
    )


def lebesgue_decompose_direct(sigma, rho, cutoff: float | None = None) -> LebesgueDecomposition:
    """Split sigma along rho via the closed sandwich formula.

    R = sqrt(sigma) (sqrt(sqrt(sigma) rho sqrt(sigma)))^+ sqrt(sigma), then
    sigma_ac = R rho R and sigma_sing = sigma - sigma_ac. Independent of the
    block route: no adapted basis, no geometric mean. The pseudoinverse cut
    is anchored to ||rho||_2 ||sigma||_2 because the sandwich's rounding
    noise lives at that ambient scale even when the product's own norm is
    tiny (nearly singular pairs).
    """
    c = _resolve_cutoff(cutoff)
    r, s = _pair(rho, sigma, c)
    if r.rank == 0:
        raise ZeroOperatorError("decomposition needs a nonzero reference operator")
    if s.rank == 0:
        return _zero_decomposition(s, c, "direct")
    v, wv = s.eigenvectors, s.eigenvalues
    root = (v * np.sqrt(wv)) @ v.conj().T
    sandwich = hermitian_part(root @ r.matrix @ root)
    w, u = _eigh(sandwich)
    cut = sandwich.shape[0] * r.norm2 * s.norm2 * c
    kept = w > cut
    if not np.any(kept):
        return _zero_decomposition(s, c, "direct")
    uk = u[:, kept]
    inv_root = (uk * (1.0 / np.sqrt(w[kept]))) @ uk.conj().T
    witness = hermitian_part(root @ inv_root @ root)
    ac = hermitian_part(witness @ r.matrix @ witness)
    # the difference of two exactly Hermitian matrices is Hermitian up to
    # the sign of zero imaginary parts, which hermitian_part fixes
    sing = hermitian_part(s.matrix - ac)
    floor = s.norm2
    return LebesgueDecomposition(
        sigma_ac=_positive(ac[None], c, floor),
        sigma_sing=_positive(sing[None], c, floor),
        witness_r=_positive(witness[None], c, max(floor, 1.0)),
        route="direct",
    )


@dataclass(frozen=True)
class QllrVersion:
    """A symmetric log-likelihood ratio L with exp(L/2) rho exp(L/2) = sigma_ac."""

    l_matrix: np.ndarray
    gamma_choice: str


def qllr(sigma, rho, cutoff: float | None = None) -> QllrVersion:
    """Symmetric log-likelihood ratio of sigma along rho.

    Requires rho << sigma, which makes sigma_ac and rho mutually absolutely
    continuous and the construction strictly positive. In the eigenbasis of
    rho (support first), with sigma = [[sigma0, alpha], [alpha*, beta]] and
    rho = [[rho0, 0], [0, 0]]:

        R+ = E* blockdiag(sigma0 # rho0^-1, I) E,   E = [[I, sigma0^-1 alpha],
                                                         [0, I]]
        L  = 2 log R+

    The identity block on ker rho fixes one version among the many valid
    ones; it makes qllr(rho, rho) vanish.

    The precondition is decided by the same excision test as
    ``is_absolutely_continuous``, without building that check's witness.
    """
    c = _resolve_cutoff(cutoff)
    r, s = _pair(rho, sigma, c)
    return QllrVersion(
        l_matrix=_qllr_stack(r, s)[0],
        gamma_choice="identity on the kernel of the reference operator",
    )


def _qllr_stack(r: PositiveOperator, s: PositiveOperator) -> np.ndarray:
    """``qllr`` of each slice of a stack along one reference, at ``r.cutoff``.

    ``s`` holds validated operators of r's dimension. The slices meet
    ``qllr``'s checks in ``qllr``'s order, and each check raises at a slice
    that fails. The operand inv(rho0) that every slice shares is built once.
    """
    if r.rank == 0:
        raise ZeroOperatorError("log-likelihood ratio needs a nonzero reference")
    _, min_eigs, floors = _ac_verdicts(r, s)
    for min_eig, floor in zip(min_eigs, floors):
        if not min_eig > floor:
            raise NotAbsolutelyContinuousError(
                "rho is not absolutely continuous with respect to sigma "
                f"(min excision eigenvalue {min_eig:.3e} <= floor {floor:.3e})"
            )
    c = r.cutoff
    k = r.rank
    v = r.eigenvectors
    sb = _dagger(v) @ s.stack @ v
    rho0 = np.diag(r.eigenvalues[:k]).astype(complex)
    r_plus = _witness_stack(hermitian_part(sb[:, :k, :k]), sb[:, :k, k:], rho0, 0, 1.0, c)
    l_basis = _log_stack(_positive(r_plus, c, 1.0))
    return hermitian_part(v @ l_basis @ _dagger(v)) * 2.0


def ac_ball_radius(rho, cutoff: float | None = None) -> float:
    """Smallest positive eigenvalue of a density operator rho.

    Every state sigma with ||sigma - rho||_2 below this radius satisfies
    rho << sigma.
    """
    r = positive(rho, cutoff)
    if r.rank == 0:
        raise ZeroOperatorError("radius of the zero operator is undefined")
    tr = r.trace()
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"expected a density operator (trace 1), got trace {tr!r}")
    return float(r.eigenvalues[r.rank - 1])
