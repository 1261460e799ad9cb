"""Lebesgue decomposition of one positive operator along another.

Given PSD matrices rho and sigma, sigma splits uniquely as sigma_ac +
sigma_sing with sigma_ac absolutely continuous with respect to rho (it is
R rho R for some R >= 0) and sigma_sing singular to rho (Tr rho sigma_sing
= 0). Two independent computations are provided: a block construction in a
basis adapted to the supports, and a closed formula built from a square-root
sandwich and a pseudoinverse. Their agreement is the main cross-check.

Singularity and absolute continuity each come with several equivalent
criteria; the predicates here evaluate all of them and report consistency.

The pair functions share what they build from one validated pair through
``_shared``: the excision of sigma onto supp rho, its eigenpairs and floor,
and the ``is_absolutely_continuous`` check of each direction. Each thread
keeps its last few pairs, keyed on the identity of the operators that
``positive`` hands out; a part that fails to build is not kept, and a caller
gets its own copy of a witness. The q-LAN grids never enter this memo.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    MutuallySingularError,
    NotAbsolutelyContinuousError,
    ZeroOperatorError,
)
from .linalg import (
    PositiveOperator,
    _Spectrum,
    _dagger,
    _eigh_raw,
    _excision,
    _geometric_mean,
    _log_stack,
    _Memo,
    _pair,
    _positive,
    _resolve_cutoff,
    _support_projector,
    hermitian_part,
    positive,  # noqa: F401  not called here; bench/test_bench.py reads this binding
)

#: absolute overlap tolerance, scaled by operator norms where it is applied
SINGULARITY_TOL = 1e-10

#: machine-level floor (relative to ||sigma||_2) below which an excision
#: eigenvalue is indistinguishable from compression rounding
EXCISION_FLOOR = 1e-14


def _trace_singular(r: PositiveOperator, s: PositiveOperator) -> tuple[bool, float, float]:
    """The trace criterion of mutual singularity: its verdict, Tr rho sigma and the bound."""
    tr = float(np.trace(r.matrix @ s.matrix).real)
    bound = SINGULARITY_TOL * r.norm2 * s.norm2
    return tr <= bound, tr, bound


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


def is_singular(rho, sigma, cutoff: float | None = None) -> SingularityCheck:
    """Test whether rho and sigma are mutually singular.

    Three equivalent criteria are evaluated: the compression of sigma onto
    supp rho vanishes, the support projectors are orthogonal, and Tr rho
    sigma = 0. The verdict is the trace criterion; ``consistent`` records
    whether all three agree at thresholds set by ``SINGULARITY_TOL`` (the
    projector functional scales as the square root of the other two).
    """
    r, s = _pair(rho, sigma, cutoff)
    if r.rank == 0 or s.rank == 0:
        raise ZeroOperatorError("singularity test needs two nonzero operators")
    # both operands are nonzero, so neither matrix is empty
    exc_norm = float(np.linalg.svd(_shared(r, s).excision[0], compute_uv=False)[0])
    proj = float(np.linalg.svd(_support_projector(r) @ _support_projector(s),
                               compute_uv=False)[0])
    by_trace, tr, trace_bound = _trace_singular(r, s)
    exc_bound = SINGULARITY_TOL * s.norm2
    proj_bound = float(np.sqrt(SINGULARITY_TOL))
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


class _Parts:
    """What the pair functions build from validated operators r and s, each part once.

    s is a stack of r's dimension, and a part is read only for a nonzero r.
    Each part is built on first read and kept only if it built without an
    error. ``_shared`` keeps the parts of this thread's recent public pairs;
    a q-LAN base keeps those of its recent grids.
    """

    def __init__(self, r: PositiveOperator, s: PositiveOperator):
        self.r, self.s = r, s

    @cached_property
    def excision(self) -> np.ndarray:
        """Excision of each slice of s onto supp r."""
        return _excision(self.r.support_basis(), self.s.bases(), self.s.values)

    @cached_property
    def verdicts(self) -> tuple[_Spectrum, list[float]]:
        """The excision's eigenpairs and each slice's positivity floor, frozen.

        r << s iff the smallest eigenvalue exceeds the floor; the eigenvectors
        of the eigenvalues above it span H2 of ``_support_split``, and those
        below it H1. They are the solver's: the split's blocks are spectral
        functions of the pair, blind to the basis inside an eigenspace.
        """
        exc = self.excision
        eig = _eigh_raw(exc)
        for a in (exc, *eig):
            a.flags.writeable = False
        k = exc.shape[-1]
        # strict positivity of a compressed sigma is decided against the larger of
        # the usual rank tolerance and a machine floor anchored to sigma itself;
        # an all-noise excision (orthogonal supports) has a norm ~ eps, and its
        # own rank_tol would accept the noise as positive
        floors = [k * max(self.r.cutoff * w[0], EXCISION_FLOOR * norm)
                  for w, norm in zip(eig.eigenvalues.tolist(), self.s.norms())]
        return eig, floors

    @cached_property
    def check(self) -> AbsoluteContinuityCheck:
        """``is_absolutely_continuous`` for s a single operator, its witness frozen."""
        r, s = self.r, self.s
        eig, (floor,) = self.verdicts
        (min_eig,) = eig.eigenvalues[:, -1].tolist()
        holds = min_eig > floor
        witness = None
        residual = None
        if holds:
            rho0 = np.diag(r.eigenvalues[:r.rank]).astype(complex)
            x = _mean_with_inverse(rho0[None], self.excision[0], r.cutoff)[0]
            v = r.support_basis()
            witness = hermitian_part(v @ x @ v.conj().T)
            witness.flags.writeable = False
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

    @cached_property
    def l_stack(self) -> np.ndarray:
        """``qllr`` of each slice of s along r, frozen; ``qllr`` builds its own copy."""
        l_stack = _qllr_stack(self)
        l_stack.flags.writeable = False
        return l_stack


#: (id(r), id(s)) -> _Parts
_pairs = _Memo()


def _shared(r: PositiveOperator, s: PositiveOperator) -> _Parts:
    """The parts of a public pair; this thread's last ``_MEMO_SIZE`` pairs are kept.

    An entry holds r and s, so the ids that key it are not reused while it lives.
    """
    return _pairs.get((id(r), id(s)), lambda: _Parts(r, s))


def _mean_with_inverse(a: np.ndarray, b: np.ndarray, cutoff: float) -> np.ndarray:
    """A # B^-1 for each slice A of the stack ``a`` and the one matrix ``b``.

    The checks run in this order: A > 0, inv(B) > 0, then the geometric
    mean's; each raises at a slice that fails.
    """
    b_inv = hermitian_part(np.linalg.inv(b))
    return _geometric_mean(_positive(a, cutoff), _positive(b_inv[None], cutoff)).stack


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
    chk = _shared(r, s).check
    return dataclasses.replace(chk, witness=None if chk.witness is None else chk.witness.copy())


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
class _SupportSplit:
    """Basis adapted to a pair (rho, sigma) and the blocks the block route reads.

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


def _support_split(r: PositiveOperator, s: PositiveOperator) -> _SupportSplit:
    """The adapted basis and blocks of a validated pair already found not trace-singular."""
    v_supp = r.support_basis()
    v_ker = r.kernel_basis()
    ((w,), (u,)), (pos_tol,) = _shared(r, s).verdicts
    m = int(np.count_nonzero(w > pos_tol))
    if m == 0:
        raise MutuallySingularError(
            "compression of sigma onto supp rho vanishes within tolerance"
        )
    h2 = v_supp @ u[:, :m]
    h1 = v_supp @ u[:, m:]
    h3 = v_ker
    sm = s.matrix
    return _SupportSplit(
        basis_h1=h1,
        basis_h2=h2,
        basis_h3=h3,
        rho0=hermitian_part(h2.conj().T @ r.matrix @ h2),
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
    return LebesgueDecomposition(sigma_ac=zero, sigma_sing=s, witness_r=zero, route=route)


def _witness_stack(sigma0: np.ndarray, alpha: np.ndarray, rho0: np.ndarray, lead: int,
                   fill: float, cutoff: float) -> np.ndarray:
    """E* blockdiag(0, sigma0 # rho0^-1, fill I) E for each slice of a stack.

    The diagonal blocks are ``lead``, k and m wide for sigma0 of shape
    (N, k, k) and alpha of shape (N, k, m); E = I plus the off-diagonal
    (k, m) block sigma0^-1 alpha. ``rho0`` (k x k) is shared by every slice.
    The checks are ``_mean_with_inverse``'s, in its order.
    """
    x = _mean_with_inverse(sigma0, rho0, cutoff)
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

    In the (H1, H2, H3) basis of ``_support_split``:

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
    if s.rank == 0 or _trace_singular(r, s)[0]:
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
    w, u = _eigh_raw(sandwich)
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
        l_matrix=_qllr_stack(_shared(r, s))[0],
        gamma_choice="identity on the kernel of the reference operator",
    )


def _qllr_stack(p: _Parts) -> np.ndarray:
    """``qllr`` of each slice of the stack ``p.s`` along one reference ``p.r``, at its cutoff.

    ``p.s`` holds validated operators of r's dimension. The slices meet
    ``qllr``'s checks in ``qllr``'s order, and each check raises at a slice
    that fails. The operand inv(rho0) that every slice shares is built once.
    """
    r, s = p.r, p.s
    if r.rank == 0:
        raise ZeroOperatorError("log-likelihood ratio needs a nonzero reference")
    eig, floors = p.verdicts
    for min_eig, floor in zip(eig.eigenvalues[:, -1].tolist(), floors):
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
