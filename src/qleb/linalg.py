"""Spectral primitives for dense complex matrices.

Matrices are plain complex ndarrays throughout. ``hermitize`` is the
validating constructor for Hermitian input; ``PositiveOperator`` bundles a
PSD matrix with its eigendecomposition (eigenvalues descending), the rank
cutoff in force, and the numerical rank derived from it. Eigenbases are made
deterministic by re-orthonormalizing degenerate eigenspaces against the
standard basis, so block conventions downstream are reproducible run to run;
a ``PositiveOperator`` does this on the first read of its eigenvectors.

Public functions validate their input; the private kernels (``_positive``,
``_geometric_mean``, ``_eigh``) take operands the package has just built and
skip the checks those operands pass by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    EigenConvergenceError,
    InvalidMatrixError,
    NonSquareError,
    NotHermitianError,
    NotPositiveError,
    SingularInputError,
    ZeroOperatorError,
)

#: relative tolerance for accepting input as Hermitian
HERMITIAN_TOL = 1e-12

#: default relative rank cutoff; rank_tol = dim * ||A||_2 * cutoff
DEFAULT_CUTOFF = 1e-11

# eigenvalues closer than this (relative to the spectral norm) are treated as
# one degenerate cluster; comfortably above LAPACK splitting noise and far
# below any spectral gap the package cares about
_CLUSTER_TOL = 64 * np.finfo(float).eps

_process_cutoff = DEFAULT_CUTOFF


def default_cutoff() -> float:
    """Process-wide rank cutoff used when no per-call override is given."""
    return _process_cutoff


def set_default_cutoff(value: float) -> None:
    """Set the process-wide rank cutoff; meant to be called once at startup."""
    global _process_cutoff
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"rank cutoff must lie in (0, 1), got {value}")
    _process_cutoff = value


def _resolve_cutoff(cutoff: float | None) -> float:
    if cutoff is None:
        return _process_cutoff
    cutoff = float(cutoff)
    if not 0.0 < cutoff < 1.0:
        raise ValueError(f"rank cutoff must lie in (0, 1), got {cutoff}")
    return cutoff


def _as_square(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidMatrixError("matrix has non-finite entries")
    return m


def _maxabs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermitian_part(a) -> np.ndarray:
    """(A + A^dagger) / 2, without any validation."""
    m = np.asarray(a, dtype=complex)
    return (m + m.conj().T) / 2


def hermitize(a, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate Hermiticity of ``a`` and return (A + A^dagger) / 2.

    The violation is measured entrywise against tol * max(1, max|A_ij|).
    """
    m = _as_square(a)
    gap = _maxabs(m - m.conj().T)
    bound = tol * max(1.0, _maxabs(m))
    if gap > bound:
        raise NotHermitianError(
            f"Hermiticity violation {gap:.3e} exceeds tolerance {bound:.3e}"
        )
    return hermitian_part(m)


class SpectralDecomposition(NamedTuple):
    """Eigenvalues (real, descending) and matching orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _standard_basis_section(cols: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of span(cols) grown from e_1, e_2, ..."""
    d, k = cols.shape
    proj = cols @ cols.conj().T
    picked: list[np.ndarray] = []
    picked_conj: list[np.ndarray] = []
    for j in range(d):
        u = proj[:, j].copy()
        for q, q_conj in zip(picked, picked_conj):
            u -= q * (q_conj @ u)
        nrm = float(np.linalg.norm(u))
        if nrm > 1e-8:
            picked.append(u / nrm)
            picked_conj.append(picked[-1].conj())
            if len(picked) == k:
                break
    if len(picked) < k:
        # numerically defective projection; keep the solver's basis
        return cols
    return np.column_stack(picked)


def _clusters(w: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each degenerate cluster of descending eigenvalues ``w``."""
    d = len(w)
    if d < 2:
        return []
    vals = w.tolist()
    tol = _CLUSTER_TOL * max(1.0, abs(vals[0]), abs(vals[-1]))
    clusters = []
    start = 0
    for stop in range(1, d + 1):
        if stop == d or vals[stop - 1] - vals[stop] > tol:
            if stop - start > 1:
                clusters.append((start, stop))
            start = stop
    return clusters


def _canonicalize_clusters(v: np.ndarray, clusters: list[tuple[int, int]]) -> None:
    for start, stop in clusters:
        v[:, start:stop] = _standard_basis_section(v[:, start:stop])


def eig_hermitian(a) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending.

    Within degenerate eigenspaces the eigenvectors are replaced by a
    deterministic orthonormalization of the standard basis projected onto the
    eigenspace, so the returned basis does not depend on solver internals.
    """
    return _eigh(hermitize(a))


def _eigh(h: np.ndarray) -> SpectralDecomposition:
    """``eig_hermitian`` of a matrix that is already ``hermitian_part``-exact."""
    w, v = _eigh_raw(h)
    _canonicalize_clusters(v, _clusters(w))
    return SpectralDecomposition(w, v)


def _eigh_raw(h: np.ndarray) -> SpectralDecomposition:
    """The solver's eigenpairs of ``h``, descending, in fresh arrays.

    Degenerate eigenspaces keep whatever basis the solver returned, so use it
    where only the eigenvalues are read.
    """
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigensolver failed: {exc}") from exc
    return SpectralDecomposition(np.ascontiguousarray(w[::-1]),
                                 np.ascontiguousarray(v[:, ::-1]))


@dataclass(frozen=True)
class PositiveOperator:
    """A PSD matrix with its spectral data and the rank cutoff in force.

    ``eigenvalues`` are descending and already clipped to [0, inf);
    ``rank_tol`` is the absolute threshold below which eigenvalues count as
    zero. ``matrix`` keeps the (hermitized) input, not a resynthesis, so
    traces and products see the caller's data.

    ``eigenvectors`` is built on its first read: the solver's basis with
    each degenerate eigenspace re-orthonormalized against the standard
    basis. Until then ``_basis`` holds the solver's vectors and ``_pending``
    the degenerate clusters still to canonicalize, decided on the unclipped
    eigenvalues; afterwards ``_basis`` is the frozen canonical basis.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    _basis: np.ndarray = field(repr=False)
    cutoff: float
    rank_tol: float
    _pending: list[tuple[int, int]] = field(default_factory=list, repr=False)

    def __post_init__(self):
        # the arrays are the operator's own: freeze them in place
        self.matrix.flags.writeable = False
        self.eigenvalues.flags.writeable = False
        if not self._pending:
            self._basis.flags.writeable = False

    @property
    def eigenvectors(self) -> np.ndarray:
        if self._pending:
            _canonicalize_clusters(self._basis, self._pending)
            self._basis.flags.writeable = False
            object.__setattr__(self, "_pending", [])
        return self._basis

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def norm2(self) -> float:
        return float(self.eigenvalues[0]) if self.dim else 0.0

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.eigenvalues > self.rank_tol))

    def support_basis(self) -> np.ndarray:
        """Columns spanning the numerical support."""
        return self.eigenvectors[:, : self.rank]

    def kernel_basis(self) -> np.ndarray:
        """Columns spanning the numerical kernel."""
        return self.eigenvectors[:, self.rank :]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def positive(a, cutoff: float | None = None, *, scale_floor: float = 0.0) -> PositiveOperator:
    """Validate a PSD matrix and wrap it with its spectral data.

    Eigenvalues in [-rank_tol, 0) are clipped to 0; anything more negative
    raises NotPositiveError. ``scale_floor`` optionally anchors rank_tol to a
    larger ambient scale (useful when the matrix is a residual of operators of
    norm ``scale_floor`` and its own norm is pure noise).
    """
    if isinstance(a, PositiveOperator):
        if cutoff is None or float(cutoff) == a.cutoff:
            return a
        a = a.matrix
    c = _resolve_cutoff(cutoff)
    return _positive(hermitize(a), c, scale_floor)


def _positive(m: np.ndarray, cutoff: float, scale_floor: float = 0.0) -> PositiveOperator:
    """``positive`` of a fresh, ``hermitian_part``-exact square matrix.

    Skips the Hermiticity check, which such a matrix passes with gap 0, and
    takes ``cutoff`` already resolved. ``m`` becomes the operator's frozen
    ``matrix``, so the caller must not hold it for writing.
    """
    if not np.all(np.isfinite(m)):
        raise InvalidMatrixError("matrix has non-finite entries")
    w, v = _eigh_raw(m)
    d = m.shape[0]
    norm2 = max(abs(w[0]), abs(w[-1])) if d else 0.0
    rank_tol = d * max(norm2, float(scale_floor)) * cutoff
    if d and w[-1] < -rank_tol:
        raise NotPositiveError(
            f"eigenvalue {w[-1]:.6e} below -rank_tol = {-rank_tol:.6e}"
        )
    return PositiveOperator(m, np.clip(w, 0.0, None), v, cutoff, float(rank_tol),
                            _clusters(w))


def _from_spectrum(vals: np.ndarray, vecs: np.ndarray, cutoff: float) -> PositiveOperator:
    """Build a PositiveOperator from nonnegative eigenvalues and vectors."""
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    m = hermitian_part((vecs * vals) @ vecs.conj().T)
    d = m.shape[0]
    rank_tol = d * (float(vals[0]) if d else 0.0) * cutoff
    return PositiveOperator(m, vals, vecs, cutoff, float(rank_tol))


def support_projector(a, cutoff: float | None = None) -> np.ndarray:
    """Orthogonal projector onto the numerical support of a PSD matrix."""
    p = positive(a, cutoff)
    v = p.support_basis()
    return hermitian_part(v @ v.conj().T)


def sqrt_psd(a, cutoff: float | None = None) -> PositiveOperator:
    """Positive square root, computed spectrally."""
    p = positive(a, cutoff)
    return _from_spectrum(np.sqrt(p.eigenvalues), p.eigenvectors, p.cutoff)


def pinv_psd(a, cutoff: float | None = None) -> PositiveOperator:
    """Moore-Penrose inverse of a PSD matrix (eigenvalues below rank_tol drop)."""
    p = positive(a, cutoff)
    w = p.eigenvalues
    inv = np.where(w > p.rank_tol, 1.0 / np.where(w > p.rank_tol, w, 1.0), 0.0)
    return _from_spectrum(inv, p.eigenvectors, p.cutoff)


def log_pd(a, cutoff: float | None = None) -> np.ndarray:
    """Matrix logarithm of a strictly positive matrix."""
    p = positive(a, cutoff)
    if p.dim == 0:
        return np.zeros((0, 0), dtype=complex)
    if p.rank < p.dim:
        raise SingularInputError(
            f"logarithm needs a strictly positive matrix; numerical rank "
            f"{p.rank} < dim {p.dim}"
        )
    v = p.eigenvectors
    return hermitian_part((v * np.log(p.eigenvalues)) @ v.conj().T)


def expm(a) -> np.ndarray:
    """Matrix exponential.

    Hermitian and anti-Hermitian input go through the spectral decomposition;
    everything else through scaling-and-squaring.
    """
    m = _as_square(a)
    if m.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex)
    tol = HERMITIAN_TOL * max(1.0, _maxabs(m))
    with np.errstate(over="ignore", invalid="ignore"):
        # each branch test is the one ``hermitize`` would repeat on the
        # operand handed to the eigensolver
        if _maxabs(m - m.conj().T) <= tol:
            w, v = _eigh(hermitian_part(m))
            out = hermitian_part((v * np.exp(w)) @ v.conj().T)
        elif _maxabs(m + m.conj().T) <= tol:
            w, v = _eigh(hermitian_part(-1j * m))
            out = (v * np.exp(1j * w)) @ v.conj().T
        else:
            out = scipy.linalg.expm(m)
    if not np.all(np.isfinite(out)):
        raise OverflowError("matrix exponential overflowed the float range")
    return out


def geometric_mean(a, b, cutoff: float | None = None) -> PositiveOperator:
    """Operator geometric mean A # B of strictly positive A, B.

    A # B = sqrt(A) sqrt(sqrt(A)^-1 B sqrt(A)^-1) sqrt(A); it is the unique
    positive X solving B = X A^-1 X.
    """
    pa = positive(a, cutoff)
    pb = positive(b, cutoff)
    if pa.dim != pb.dim:
        raise DimensionMismatchError(
            f"operands must share a dimension, got {pa.dim} and {pb.dim}"
        )
    return _geometric_mean(pa, pb)


def _geometric_mean(pa: PositiveOperator, pb: PositiveOperator) -> PositiveOperator:
    """``geometric_mean`` of validated operands of one dimension, at ``pa.cutoff``."""
    for name, p in (("left", pa), ("right", pb)):
        if p.dim and p.rank < p.dim:
            raise SingularInputError(
                f"geometric mean needs strictly positive operands; {name} "
                f"operand has numerical rank {p.rank} < dim {p.dim}"
            )
    if pa.dim == 0:
        return _from_spectrum(np.zeros(0), np.zeros((0, 0), dtype=complex), pa.cutoff)
    va, wa = pa.eigenvectors, pa.eigenvalues
    root = (va * np.sqrt(wa)) @ va.conj().T
    iroot = (va * (1.0 / np.sqrt(wa))) @ va.conj().T
    inner = hermitian_part(iroot @ pb.matrix @ iroot)
    wi, vi = _eigh(inner)
    sqrt_inner = (vi * np.sqrt(np.clip(wi, 0.0, None))) @ vi.conj().T
    x = hermitian_part(root @ sqrt_inner @ root)
    return _positive(x, pa.cutoff, scale_floor=max(pa.norm2, pb.norm2))


def excision(sigma, rho, cutoff: float | None = None) -> np.ndarray:
    """Compression of sigma onto the support of rho.

    Returned in the eigenbasis of rho restricted to its support (eigenvalues
    descending, degenerate eigenspaces orthonormalized against the standard
    basis), as an r x r Hermitian matrix with r = rank(rho).

    Assembled from sigma's spectral form, (V* U) diag(w) (V* U)*, rather
    than as V* sigma V: the diagonal entries become sums of nonnegative
    terms, so a compression that is small because of near-orthogonal
    supports keeps full relative accuracy instead of cancelling to rounding
    noise at the scale of ||sigma||.
    """
    r = positive(rho, cutoff)
    if r.rank == 0:
        raise ZeroOperatorError("cannot excise onto the support of the zero operator")
    s = sigma if isinstance(sigma, PositiveOperator) else positive(sigma, cutoff)
    if s.dim != r.dim:
        raise DimensionMismatchError(
            f"operands must share a dimension, got {s.dim} and {r.dim}"
        )
    w = r.support_basis().conj().T @ s.eigenvectors
    return hermitian_part((w * s.eigenvalues) @ w.conj().T)
