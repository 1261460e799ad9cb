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

The spectral kernels also take stacks ``(N, d, d)``: the q-LAN reports
evaluate whole grids of small matrices in one pass, and a single matrix is a
stack of one. A kernel computes the whole stack or raises at a slice that
fails. ``_replay`` gives a failing grid the error of the point-by-point loop
it replaces: it reruns the grid one point at a time, and the first point
that raises is the loop's error. A passing grid runs once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

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

def _resolve_cutoff(cutoff: float | None) -> float:
    if cutoff is None:
        return DEFAULT_CUTOFF
    cutoff = float(cutoff)
    if not 0.0 < cutoff < 1.0:
        raise ValueError(f"rank cutoff must lie in (0, 1), got {cutoff}")
    return cutoff


def _as_square(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidMatrixError("matrix has non-finite entries")
    return m


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a) -> np.ndarray:
    """(A + A^dagger) / 2, without any validation; stacks work slice by slice."""
    m = np.asarray(a, dtype=complex)
    return (m + _dagger(m)) / 2


def hermitize(a, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate Hermiticity of ``a`` and return (A + A^dagger) / 2.

    The violation is measured entrywise against tol * max(1, max|A_ij|).
    """
    return _hermitize_stack(_as_square(a)[None], tol)[0]


def _hermitize_stack(m: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """``hermitize`` of each slice of a stack; raises at a slice that fails."""
    if not np.isfinite(m).all():
        raise InvalidMatrixError("matrix has non-finite entries")
    gaps = np.abs(m - _dagger(m)).max(axis=(-2, -1), initial=0.0).tolist()
    for j, gap in enumerate(gaps):
        # the bound is at least tol, so only a larger gap needs it
        bound = tol * max(1.0, float(np.abs(m[j]).max())) if gap > tol else tol
        if gap > bound:
            raise NotHermitianError(
                f"Hermiticity violation {gap:.3e} exceeds tolerance {bound:.3e}"
            )
    return hermitian_part(m)


class SpectralDecomposition(NamedTuple):
    """Eigenvalues (real, descending) and matching orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _replay(run: Callable[[list], object], points: Sequence):
    """``run(points)``, raising the error a loop of ``run([p])`` over ``points`` meets first.

    ``run`` evaluates a grid in stacked passes, which on a failing grid may
    raise at any failing point. Only then, and only for two points or more,
    the grid is rerun one point at a time, in order; the first point that
    raises does so outside the handler of the stacked error, so no error
    chains to it. A grid that passes runs once.
    """
    try:
        return run(points)
    except Exception:
        if len(points) < 2:
            raise
    for point in points:
        run([point])
    # no point fails alone: the stacked pass raises its error again
    return run(points)


class _Spectra(NamedTuple):
    """A stack of validated PSD matrices with their spectral data.

    ``eigenvalues`` are descending and clipped to [0, inf); ``rank_tol`` is
    each slice's zero threshold. ``vectors`` are the solver's eigenvectors
    with the degenerate clusters listed in ``pending`` (decided on the
    unclipped eigenvalues) still to canonicalize; ``canonical`` does that.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray
    rank_tol: list[float]
    pending: list[list[tuple[int, int]]]
    cutoff: float

    def canonical(self) -> "_Spectra":
        if not any(self.pending):
            return self
        for v, clusters in zip(self.vectors, self.pending):
            _canonicalize_clusters(v, clusters)
        return _Spectra(self.matrix, self.eigenvalues, self.vectors, self.rank_tol,
                        [[]] * len(self.pending), self.cutoff)

    def ranks(self) -> list[int]:
        return [sum(x > tol for x in w)
                for w, tol in zip(self.eigenvalues.tolist(), self.rank_tol)]

    def norms(self) -> list[float]:
        """Spectral norm of each slice (of dimension at least 1)."""
        return self.eigenvalues[:, 0].tolist()


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


def _clusters(vals: list[float]) -> list[tuple[int, int]]:
    """(start, stop) of each degenerate cluster of descending eigenvalues ``vals``."""
    d = len(vals)
    if d < 2:
        return []
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
    """``eig_hermitian`` of a matrix, or a stack, that is ``hermitian_part``-exact."""
    w, v = _eigh_raw(h)
    n, d = (1, w.shape[0]) if w.ndim == 1 else w.shape
    for vals, vecs in zip(w.reshape(n, d).tolist(), v.reshape(n, d, d)):
        _canonicalize_clusters(vecs, _clusters(vals))
    return SpectralDecomposition(w, v)


def _eigh_raw(h: np.ndarray) -> SpectralDecomposition:
    """The solver's eigenpairs of ``h`` (or of each slice), descending, in fresh arrays.

    Degenerate eigenspaces keep whatever basis the solver returned, so use it
    where only the eigenvalues are read.
    """
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigensolver failed: {exc}") from exc
    return SpectralDecomposition(np.ascontiguousarray(w[..., ::-1]),
                                 np.ascontiguousarray(v[..., ::-1]))


def _synth(v: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """V diag(f(w)) V^dagger from eigenvectors ``v`` and values ``fw``, stacked or not."""
    return (v * fw[..., None, :]) @ _dagger(v)


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
        """Columns spanning the numerical support.

        Canonicalizes only the degenerate clusters that reach into the
        support; the kernel's stay pending for ``eigenvectors``. Clusters are
        canonicalized independently, so the columns are those of
        ``eigenvectors[:, :rank]``.
        """
        rank = self.rank
        if not self._pending:
            return self._basis[:, :rank]
        _canonicalize_clusters(self._basis, [c for c in self._pending if c[0] < rank])
        object.__setattr__(self, "_pending", [c for c in self._pending if c[0] >= rank])
        if not self._pending:
            self._basis.flags.writeable = False
        support = self._basis[:, :rank]
        support.flags.writeable = False
        return support

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
    takes ``cutoff`` already resolved. The operator's frozen ``matrix`` is a
    view of ``m``, so the caller must not write to ``m`` afterwards.
    """
    return _operator(_positive_stack(m[None], cutoff, scale_floor))


def _positive_stack(m: np.ndarray, cutoff: float, scale_floor=0.0) -> _Spectra:
    """``_positive`` of each slice of a stack; raises at a slice that fails.

    ``scale_floor`` is one float for every slice or a list of one per slice.
    """
    floors = scale_floor if isinstance(scale_floor, list) else [float(scale_floor)] * len(m)
    if not np.isfinite(m).all():
        raise InvalidMatrixError("matrix has non-finite entries")
    w, v = _eigh_raw(m)
    d = m.shape[-1]
    vals = w.tolist()
    rank_tols = []
    for wj, floor in zip(vals, floors):
        norm2 = max(abs(wj[0]), abs(wj[-1])) if d else 0.0
        rank_tol = d * max(norm2, floor) * cutoff
        if d and wj[-1] < -rank_tol:
            raise NotPositiveError(
                f"eigenvalue {wj[-1]:.6e} below -rank_tol = {-rank_tol:.6e}"
            )
        rank_tols.append(rank_tol)
    return _Spectra(m, np.maximum(w, 0.0), v, rank_tols, [_clusters(wj) for wj in vals], cutoff)


def _one(p: PositiveOperator) -> _Spectra:
    """A validated operator as a stack of one, with its canonical eigenvectors."""
    return _Spectra(p.matrix[None], p.eigenvalues[None], p.eigenvectors[None], [p.rank_tol],
                    [[]], p.cutoff)


def _operator(sp: _Spectra) -> PositiveOperator:
    """The operator of a stack of one."""
    return PositiveOperator(sp.matrix[0], sp.eigenvalues[0], sp.vectors[0], sp.cutoff,
                            sp.rank_tol[0], sp.pending[0])


def support_projector(a, cutoff: float | None = None) -> np.ndarray:
    """Orthogonal projector onto the numerical support of a PSD matrix."""
    p = positive(a, cutoff)
    v = p.support_basis()
    return hermitian_part(v @ v.conj().T)


def log_pd(a, cutoff: float | None = None) -> np.ndarray:
    """Matrix logarithm of a strictly positive matrix."""
    p = positive(a, cutoff)
    if p.dim == 0:
        return np.zeros((0, 0), dtype=complex)
    return _log_stack(_one(p))[0]


def _log_stack(p: _Spectra) -> np.ndarray:
    """``log_pd`` of each slice of a nonempty stack; raises at a rank-deficient slice."""
    d = p.matrix.shape[-1]
    for rank in p.ranks():
        if rank < d:
            raise SingularInputError(
                f"logarithm needs a strictly positive matrix; numerical rank {rank} < dim {d}"
            )
    p = p.canonical()
    return hermitian_part(_synth(p.vectors, np.log(p.eigenvalues)))


#: message of the OverflowError that ``expm`` raises
_EXPM_OVERFLOW = "matrix exponential overflowed the float range"


def expm(a) -> np.ndarray:
    """Matrix exponential.

    Hermitian and anti-Hermitian input go through the spectral decomposition;
    everything else through scaling-and-squaring.
    """
    return _expm_checked(_as_square(a)[None])[0]


def _expm_stack(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """``expm`` of each slice of a stack of finite square matrices.

    Returns the exponentials and the positions of the slices that
    overflowed; each slice takes the branch ``expm`` would take on it alone.
    """
    if not m.size:
        return np.zeros(m.shape, dtype=complex), []
    tols = [HERMITIAN_TOL * max(1.0, x) for x in np.abs(m).max(axis=(-2, -1)).tolist()]
    with np.errstate(over="ignore", invalid="ignore"):
        # each branch test is the one ``hermitize`` would repeat on the
        # operand handed to the eigensolver
        gaps = np.abs(m - _dagger(m)).max(axis=(-2, -1)).tolist()
        herm = [gap <= tol for gap, tol in zip(gaps, tols)]
        if all(herm):
            out = _exp_hermitian(m)
        else:
            gaps = np.abs(m + _dagger(m)).max(axis=(-2, -1)).tolist()
            anti = [not h and gap <= tol for h, gap, tol in zip(herm, gaps, tols)]
            if all(anti):
                out = _exp_anti_hermitian(m)
            else:
                out = np.empty_like(m)
                if any(herm):
                    out[herm] = _exp_hermitian(m[herm])
                if any(anti):
                    out[anti] = _exp_anti_hermitian(m[anti])
                for j, (h, a) in enumerate(zip(herm, anti)):
                    if not (h or a):
                        out[j] = scipy.linalg.expm(m[j])
    if np.isfinite(out).all():
        return out, []
    return out, np.flatnonzero(~np.isfinite(out).all(axis=(-2, -1))).tolist()


def _expm_checked(m: np.ndarray) -> np.ndarray:
    """``expm`` of each slice of a stack; raises at a slice that fails."""
    if not np.isfinite(m).all():
        raise InvalidMatrixError("matrix has non-finite entries")
    out, overflowed = _expm_stack(m)
    if overflowed:
        raise OverflowError(_EXPM_OVERFLOW)
    return out


def _exp_hermitian(m: np.ndarray) -> np.ndarray:
    w, v = _eigh(hermitian_part(m))
    return hermitian_part(_synth(v, np.exp(w)))


def _exp_anti_hermitian(m: np.ndarray) -> np.ndarray:
    w, v = _eigh(hermitian_part(-1j * m))
    return _synth(v, np.exp(1j * w))


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
    if pa.dim == 0:
        return _positive(np.zeros((0, 0), dtype=complex), pa.cutoff)
    return _operator(_geometric_mean_stack(_one(pa), pb))


def _require_rank(name: str, rank: int, dim: int) -> None:
    if rank < dim:
        raise SingularInputError(
            f"geometric mean needs strictly positive operands; {name} "
            f"operand has numerical rank {rank} < dim {dim}"
        )


def _geometric_mean_stack(pa: _Spectra, pb: PositiveOperator) -> _Spectra:
    """A # B for each slice A of ``pa``, at ``pa.cutoff``.

    ``pa`` has canonical eigenvectors and dimension at least 1; raises at a
    slice with a singular operand.
    """
    d = pa.matrix.shape[-1]
    for rank in pa.ranks():
        _require_rank("left", rank, d)
        _require_rank("right", pb.rank, pb.dim)
    va, wa = pa.vectors, pa.eigenvalues
    root = _synth(va, np.sqrt(wa))
    iroot = _synth(va, 1.0 / np.sqrt(wa))
    inner = hermitian_part(iroot @ pb.matrix @ iroot)
    wi, vi = _eigh(inner)
    x = hermitian_part(root @ _synth(vi, np.sqrt(np.maximum(wi, 0.0))) @ root)
    floors = [max(norm, pb.norm2) for norm in pa.norms()]
    return _positive_stack(x, pa.cutoff, floors)


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
    return _excision(r.support_basis(), s.eigenvectors, s.eigenvalues)


def _excision(basis: np.ndarray, vecs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``excision`` onto span(``basis``) of the operator(s) with spectra ``(vecs, vals)``."""
    return hermitian_part(_synth(_dagger(basis) @ vecs, vals))
