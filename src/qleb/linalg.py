"""Spectral primitives for dense complex matrices.

Matrices are plain complex ndarrays throughout. ``hermitize`` is the
validating constructor for Hermitian input. ``PositiveOperator`` is the one
type for validated PSD data: it holds a stack ``(N, d, d)`` of PSD matrices
with their eigendecompositions (eigenvalues descending), the rank cutoff in
force and each slice's rank threshold. A single operator is a stack of one,
and its accessors (``matrix``, ``eigenvalues``, ``eigenvectors``, ``rank``,
...) read that slice. The outputs are spectral functions, blind to the basis
inside a degenerate eigenspace, so most solves keep the solver's basis. Only
an operator's basis, ``_exp_anti_hermitian`` and ``_geometric_mean``'s inner
solve re-orthonormalize each degenerate eigenspace against the standard
basis, because adversarial benchmark outcomes move with the basis; an
operator does so whole on the first read of any basis accessor.
``_canonicalize`` makes one vectorized sweep per picked vector, whose bits
are those of the column-by-column Gram-Schmidt loop.

Public functions validate their input; the private kernels (``_positive``,
``_geometric_mean``, ``_eigh``) take operands the package has just built and
skip the checks those operands pass by construction. ``_pair`` is the one
boundary of every function that takes two operators. ``positive`` validates
a raw matrix once per pipeline: each thread keeps the last few operators it
built, keyed on the exact bytes and shape of the complex input and the
cutoff, and input equal to one of them gets the same shared immutable
operator back. ``copy.copy`` of an operator is a private one.

The spectral kernels take stacks: the q-LAN reports evaluate whole grids of
small matrices in one pass. A kernel computes the whole stack or raises at a
slice that fails. ``_replay`` gives a failing grid the error of the
point-by-point loop it replaces: it reruns the grid one point at a time, and
the first point that raises is the loop's error. A passing grid runs once.
On stacks of at least ``_STACKED`` slices the search for degenerate
clusters is one vectorized pass with the bits of the per-slice loop: a
screen of the eigenvalue gaps sends only the slices with a cluster to
``_clusters``. Shorter stacks, the single operators of the pair functions
among them, keep the loop, which costs less there.

Each matrix exponential the package forms is of a kind known where it is
built: e^{L/2} of a log-likelihood ratio is Hermitian, the QCF factors
e^{i xi . A} of real queries and the rotations of ``random_psd_pair``
anti-Hermitian. So
``_exp_hermitian`` and ``_exp_anti_hermitian`` each take a stack of one
kind, and only the public ``expm`` tells the two apart; it rejects any
other matrix.
"""

from __future__ import annotations

import threading
from typing import Callable, NamedTuple, Sequence

import numpy as np

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

#: operators ``positive`` keeps per thread, least recently used evicted first
_MEMO_SIZE = 8

#: stacks of at least this many slices do their per-slice bookkeeping in one
#: vectorized pass; below it the per-slice loop is faster
_STACKED = 8


class _Memo(threading.local):
    """Per-thread map key -> value holding the last ``_MEMO_SIZE`` used, oldest first.

    Per thread because what it holds is built further on first read (an
    operator canonicalizes its basis in place), so one value must not be read
    from two threads at once.
    """

    def __init__(self):
        self.entries: dict = {}

    def get(self, key, build: Callable[[], object]):
        """The value at ``key``, or ``build()`` kept there; a build that raises keeps nothing."""
        entries = self.entries
        value = entries.pop(key, None)
        if value is None:
            value = build()
            if len(entries) >= _MEMO_SIZE:
                del entries[next(iter(entries))]
        entries[key] = value
        return value


_memo = _Memo()


def _resolve_cutoff(cutoff: float | None) -> float:
    if cutoff is None:
        return DEFAULT_CUTOFF
    cutoff = float(cutoff)
    if not 0.0 < cutoff < 1.0:
        raise ValueError(f"rank cutoff must lie in (0, 1), got {cutoff}")
    return cutoff


def _as_complex(a) -> np.ndarray:
    """``a`` as a complex ndarray; input numpy cannot convert raises InvalidMatrixError."""
    try:
        return np.asarray(a, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        reason = exc
    # raised outside the handler, so numpy's error is not chained to it
    raise InvalidMatrixError(f"cannot read a complex matrix: {reason}")


def _as_square(a) -> np.ndarray:
    m = _as_complex(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
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

    The violation is measured entrywise against tol * max(1, max|A_ij|);
    ``tol`` must be finite and nonnegative.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"Hermitian tolerance must be finite and nonnegative, got {tol}")
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


class _Spectrum(NamedTuple):
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


def _standard_basis_section(cols: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of span(cols) grown from e_1, e_2, ...

    Modified Gram-Schmidt on the projector's columns, right-looking: row j
    of ``rows`` is column j of the projector, and each picked vector is swept
    out of every later row at once. Each row meets the same operations in the
    same order as in a loop over columns, so the bits are that loop's.
    """
    d, k = cols.shape
    rows = (cols @ cols.conj().T).T.copy()
    picked: list[np.ndarray] = []
    for j in range(d):
        u = rows[j]
        nrm = float(np.linalg.norm(u))
        if nrm > 1e-8:
            q = u / nrm
            picked.append(q)
            if len(picked) == k:
                break
            rest = rows[j + 1:]
            # one (1, d) @ (d, 1) matmul per row runs the same vector dot as
            # q.conj() @ row; q.conj() @ rest.T would run gemv, which rounds
            # differently, and np.vecdot needs numpy >= 2.0
            rest -= q * (q.conj() @ rest[:, :, None])
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


def _pending(w: np.ndarray) -> list[list[tuple[int, int]]]:
    """``_clusters`` of each slice of the ``(N, d)`` descending eigenvalues ``w``.

    A stack of at least ``_STACKED`` slices is screened in one pass: a slice
    none of whose gaps is within ``_clusters``' tolerance has no cluster.
    """
    n, d = w.shape
    if n < _STACKED:
        return [_clusters(wj) for wj in w.tolist()]
    pending: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    if d > 1:
        # the tolerance and gaps of ``_clusters``, in the same IEEE operations
        tol = _CLUSTER_TOL * np.maximum(1.0, np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1])))
        for j in np.flatnonzero((w[:, :-1] - w[:, 1:] <= tol[:, None]).any(axis=1)).tolist():
            pending[j] = _clusters(w[j].tolist())
    return pending


def _canonicalize(vectors: np.ndarray, pending: list[list[tuple[int, int]]]) -> None:
    """Canonicalize in place each degenerate cluster ``pending[j]`` of slice j of ``vectors``."""
    for v, clusters in zip(vectors, pending):
        for start, stop in clusters:
            v[:, start:stop] = _standard_basis_section(v[:, start:stop])


def _eigh(h: np.ndarray) -> _Spectrum:
    """Eigenpairs of a ``hermitian_part``-exact matrix or stack, eigenvalues descending.

    Within degenerate eigenspaces the eigenvectors are replaced by a
    deterministic orthonormalization of the standard basis projected onto the
    eigenspace, so the returned basis does not depend on solver internals.
    """
    w, v = _eigh_raw(h)
    n, d = (1, w.shape[0]) if w.ndim == 1 else w.shape
    pending = _pending(w.reshape(n, d))
    if any(pending):
        _canonicalize(v.reshape(n, d, d), pending)
    return _Spectrum(w, v)


def _eigh_raw(h: np.ndarray) -> _Spectrum:
    """The solver's eigenpairs of ``h`` (or of each slice), descending, in fresh arrays.

    Degenerate eigenspaces keep whatever basis the solver returned, so use it
    where only the eigenvalues are read.
    """
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigensolver failed: {exc}") from exc
    return _Spectrum(np.ascontiguousarray(w[..., ::-1]), np.ascontiguousarray(v[..., ::-1]))


def _synth(v: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """V diag(f(w)) V^dagger from eigenvectors ``v`` and values ``fw``, stacked or not."""
    return (v * fw[..., None, :]) @ _dagger(v)


class PositiveOperator:
    """A stack ``(N, d, d)`` of PSD matrices with their spectral data and the rank cutoff in force.

    ``stack`` keeps the (hermitized) input, not a resynthesis, so traces and
    products see the caller's data. ``values`` are each slice's eigenvalues,
    descending and already clipped to [0, inf); ``tols`` holds each slice's
    absolute threshold below which eigenvalues count as zero. A single
    operator is a stack of one: ``matrix``, ``eigenvalues``, ``eigenvectors``,
    ``rank_tol``, ``rank``, ``norm2``, ``support_basis()``,
    ``kernel_basis()`` and ``trace()`` read slice 0.

    The first read of any basis accessor canonicalizes ``_vectors``, the
    solver's basis, sweeping each degenerate cluster in ``_pending`` (decided
    on the unclipped eigenvalues) once. The arrays are frozen, the basis once
    it is canonical, and no attribute can be rebound.
    """

    __slots__ = ("stack", "values", "_vectors", "tols", "cutoff", "_pending", "_basis")

    def __init__(self, stack: np.ndarray, values: np.ndarray, vectors: np.ndarray,
                 tols: tuple[float, ...], cutoff: float, pending: list[list[tuple[int, int]]]):
        # the arrays are the operator's own: freeze them in place
        stack.flags.writeable = values.flags.writeable = False
        if not any(pending):
            vectors.flags.writeable = False
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_vectors", vectors)
        object.__setattr__(self, "tols", tols)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "_pending", pending)
        object.__setattr__(self, "_basis", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to attribute {name!r} of a PositiveOperator")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete attribute {name!r} of a PositiveOperator")

    def __reduce__(self):
        # rebuilt through the constructor; the basis may still be
        # canonicalized in place, so a copy gets its own
        return (PositiveOperator, (self.stack, self.values, self._vectors.copy(), self.tols,
                                   self.cutoff, [list(c) for c in self._pending]))

    def __repr__(self) -> str:
        return (f"PositiveOperator(stack={self.stack!r}, values={self.values!r}, "
                f"cutoff={self.cutoff!r}, tols={self.tols!r})")

    def bases(self) -> np.ndarray:
        """The canonical eigenvectors of every slice."""
        # the solver's basis: 6/9 pairs-small, 2/4 pairs-large items (seeds 1/7) fail off-census
        if any(self._pending):
            _canonicalize(self._vectors, self._pending)
            self._vectors.flags.writeable = False
            object.__setattr__(self, "_pending", [])
        return self._vectors

    def ranks(self) -> list[int]:
        return (self.values > np.array(self.tols)[:, None]).sum(axis=1).tolist()

    def norms(self) -> list[float]:
        """Spectral norm of each slice."""
        return self.values[:, 0].tolist() if self.dim else [0.0] * len(self.values)

    @property
    def matrix(self) -> np.ndarray:
        return self.stack[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.values[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        if self._basis is None:
            object.__setattr__(self, "_basis", self.bases()[0])
        return self._basis

    @property
    def rank_tol(self) -> float:
        return self.tols[0]

    @property
    def dim(self) -> int:
        return self.stack.shape[-1]

    @property
    def norm2(self) -> float:
        return self.norms()[0]

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.values[0] > self.tols[0]))

    def support_basis(self) -> np.ndarray:
        """Columns spanning the numerical support."""
        return self.eigenvectors[:, :self.rank]

    def kernel_basis(self) -> np.ndarray:
        """Columns spanning the numerical kernel."""
        return self.eigenvectors[:, self.rank :]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def positive(a, cutoff: float | None = None) -> PositiveOperator:
    """Validate a PSD matrix and wrap it with its spectral data.

    Eigenvalues in [-rank_tol, 0) are clipped to 0; anything more negative
    raises NotPositiveError.

    Input equal, byte for byte, to one this thread validated recently, at the
    same cutoff, gets that same shared operator back.
    """
    if isinstance(a, PositiveOperator):
        if cutoff is None or float(cutoff) == a.cutoff:
            return a
        a = a.matrix
    c = _resolve_cutoff(cutoff)
    m = _as_complex(a)
    return _memo.get((m.shape, m.tobytes(), c), lambda: _positive(hermitize(m)[None], c))


def _positive(m: np.ndarray, cutoff: float, scale_floor=0.0) -> PositiveOperator:
    """``positive`` of each slice of a fresh, ``hermitian_part``-exact stack.

    Skips the Hermiticity check, which such a stack passes with gap 0, takes
    ``cutoff`` already resolved, and raises at a slice that fails.
    ``scale_floor`` (one float, or a list of one per slice) anchors each
    rank_tol to at least that ambient scale, for residuals of larger operators.
    The operator's frozen ``stack`` is ``m``, so the caller must not write to
    ``m`` (or to an array it views) afterwards.
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
    return PositiveOperator(m, np.maximum(w, 0.0), v, tuple(rank_tols), cutoff, _pending(w))


def _support_projector(p: PositiveOperator) -> np.ndarray:
    """Orthogonal projector onto the numerical support of the operator ``p``."""
    v = p.support_basis()
    return hermitian_part(v @ v.conj().T)


def _log_stack(p: PositiveOperator) -> np.ndarray:
    """Matrix logarithm of each slice of a stack; raises at a rank-deficient slice."""
    d = p.dim
    for rank in p.ranks():
        if rank < d:
            raise SingularInputError(
                f"logarithm needs a strictly positive matrix; numerical rank {rank} < dim {d}"
            )
    return hermitian_part(_synth(p.bases(), np.log(p.values)))


#: message of the OverflowError that an exponential raises
_EXPM_OVERFLOW = "matrix exponential overflowed the float range"


def expm(a) -> np.ndarray:
    """Matrix exponential of a Hermitian or an anti-Hermitian matrix.

    Both go through the spectral decomposition. Any other matrix raises
    NotHermitianError: the package exponentiates only these two kinds.
    """
    m = _as_square(a)[None]
    # the test ``hermitize`` would repeat on the operand handed to the eigensolver
    tol = HERMITIAN_TOL * max(1.0, float(np.abs(m).max(initial=0.0)))
    with np.errstate(over="ignore", invalid="ignore"):
        hermitian = np.abs(m - _dagger(m)).max(initial=0.0) <= tol
        gap = 0.0 if hermitian else float(np.abs(m + _dagger(m)).max(initial=0.0))
    # a non-finite matrix is of neither kind: ``_expm_checked`` rejects it
    if gap > tol and np.isfinite(m).all():
        raise NotHermitianError(
            f"expm takes a Hermitian or anti-Hermitian matrix; anti-Hermiticity "
            f"violation {gap:.3e} exceeds tolerance {tol:.3e}"
        )
    return _expm_checked(m, _exp_hermitian if hermitian else _exp_anti_hermitian)[0]


def _expm_checked(m: np.ndarray, kernel: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``kernel(m)`` for a stack ``m``; raises at a non-finite slice or one that overflows."""
    if not np.isfinite(m).all():
        raise InvalidMatrixError("matrix has non-finite entries")
    out = kernel(m)
    if not np.isfinite(out).all():
        raise OverflowError(_EXPM_OVERFLOW)
    return out


def _exp_hermitian(m: np.ndarray) -> np.ndarray:
    """e^m of each slice of a stack of finite Hermitian matrices.

    A slice whose exponential overflows comes back with non-finite entries.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w, v = _eigh_raw(hermitian_part(m))
        return hermitian_part(_synth(v, np.exp(w)))


def _exp_anti_hermitian(m: np.ndarray) -> np.ndarray:
    """e^m of each slice of a stack of finite anti-Hermitian matrices.

    A slice whose exponential overflows comes back with non-finite entries.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # the solver's basis: 16/17 pairs-small, 3/1 pairs-large items (seeds 1/7) fail off-census
        w, v = _eigh(hermitian_part(-1j * m))
        return _synth(v, np.exp(1j * w))


def geometric_mean(a, b, cutoff: float | None = None) -> PositiveOperator:
    """Operator geometric mean A # B of strictly positive A, B.

    A # B = sqrt(A) sqrt(sqrt(A)^-1 B sqrt(A)^-1) sqrt(A); it is the unique
    positive X solving B = X A^-1 X.
    """
    return _geometric_mean(*_pair(a, b, cutoff))


def _pair(a, b, cutoff: float | None) -> tuple[PositiveOperator, PositiveOperator]:
    """``positive`` of both operands at one cutoff; their dimensions must agree."""
    pa = positive(a, cutoff)
    pb = positive(b, cutoff)
    if pa.dim != pb.dim:
        raise DimensionMismatchError(
            f"operands must share a dimension, got {pa.dim} and {pb.dim}"
        )
    return pa, pb


def _require_rank(name: str, rank: int, dim: int) -> None:
    if rank < dim:
        raise SingularInputError(
            f"geometric mean needs strictly positive operands; {name} "
            f"operand has numerical rank {rank} < dim {dim}"
        )


def _geometric_mean(pa: PositiveOperator, pb: PositiveOperator) -> PositiveOperator:
    """A # B for each slice A of ``pa`` and the single operator B = ``pb``, at ``pa.cutoff``.

    The operands share a dimension; raises at a slice with a singular
    operand.
    """
    d = pa.dim
    rank_b = pb.rank
    for rank in pa.ranks():
        _require_rank("left", rank, d)
        _require_rank("right", rank_b, pb.dim)
    va, wa = pa.bases(), pa.values
    root = _synth(va, np.sqrt(wa))
    iroot = _synth(va, 1.0 / np.sqrt(wa))
    inner = hermitian_part(iroot @ pb.matrix @ iroot)
    # the solver's basis: 0/1 pairs-small items (seeds 1/7) fail off the benchmark's census
    wi, vi = _eigh(inner)
    x = hermitian_part(root @ _synth(vi, np.sqrt(np.maximum(wi, 0.0))) @ root)
    norm_b = pb.norm2
    floors = [max(norm, norm_b) for norm in pa.norms()]
    return _positive(x, pa.cutoff, floors)


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
    s, r = _pair(sigma, r, cutoff)
    return _excision(r.support_basis(), s.eigenvectors, s.eigenvalues)


def _excision(basis: np.ndarray, vecs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``excision`` onto span(``basis``) of the operator(s) with spectra ``(vecs, vals)``."""
    return hermitian_part(_synth(_dagger(basis) @ vecs, vals))
