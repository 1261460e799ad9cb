"""Unit tests for the dense Hermitian/PSD toolbox."""

import copy
import pickle
import sys
import threading
import warnings

import numpy as np
import pytest

from qleb import linalg
from qleb.errors import (
    DimensionMismatchError,
    InvalidMatrixError,
    NonSquareError,
    NotHermitianError,
    NotPositiveError,
    SingularInputError,
    ZeroOperatorError,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_psd(rng, dim, rank=None):
    rank = dim if rank is None else rank
    z = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return z @ z.conj().T / rank


def test_hermitize_symmetrizes_small_noise():
    a = np.array([[1.0, 0.1 + 1e-14j], [0.1, 2.0]])
    h = linalg.hermitize(a)
    np.testing.assert_array_equal(h, h.conj().T)


def test_hermitize_rejects_large_gap():
    with pytest.raises(NotHermitianError):
        linalg.hermitize(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # lax tolerance lets the same matrix through, symmetrized
    h = linalg.hermitize(np.array([[0.0, 1.0], [0.0, 0.0]]), tol=10.0)
    np.testing.assert_allclose(h, SX / 2)


def test_hermitize_rejects_non_square():
    with pytest.raises(NonSquareError):
        linalg.hermitize(np.zeros((2, 3)))
    with pytest.raises(NonSquareError):
        linalg.hermitize(np.zeros(4))


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, -np.inf])
def test_hermitize_rejects_a_bad_tolerance(tol):
    # checked before the matrix is read: even an unusable matrix gets this error
    for a in ([[0.0, 1.0], [0.0, 0.0]], np.eye(2), "not a matrix"):
        with pytest.raises(ValueError, match="Hermitian tolerance must be finite and nonnegative"):
            linalg.hermitize(a, tol=tol)


def test_hermitize_accepts_a_zero_tolerance():
    np.testing.assert_array_equal(linalg.hermitize(np.eye(2), tol=0.0), np.eye(2))
    with pytest.raises(NotHermitianError):
        linalg.hermitize(np.array([[0.0, 1e-300], [0.0, 0.0]]), tol=0.0)


def test_hermitize_scales_its_bound_by_the_largest_entry():
    # max|A| = 3e3, so the bound is HERMITIAN_TOL * 3e3 = 3e-9, not 1e-12
    def lopsided(gap):
        return np.array([[3e3, gap], [0.0, 1.0]])

    assert linalg.HERMITIAN_TOL == 1e-12
    np.testing.assert_allclose(linalg.hermitize(lopsided(1e-10)),
                               np.array([[3e3, 5e-11], [5e-11, 1.0]]), rtol=0, atol=0)
    with pytest.raises(NotHermitianError, match="exceeds tolerance 3.000e-09"):
        linalg.hermitize(lopsided(4e-9))


def eig(a):
    """The canonical spectral decomposition of a Hermitian matrix."""
    return linalg._eigh(linalg.hermitize(a))


def test_eig_descending_and_reconstruction():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = random_psd(rng, 5)
        w, v = eig(a)
        assert np.all(np.diff(w) <= 1e-12)
        np.testing.assert_allclose((v * w) @ v.conj().T, a, atol=1e-12)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(5), atol=1e-12)


def test_eig_canonical_on_degenerate_spectrum():
    # identity has a fully degenerate spectrum; the canonical choice is the
    # standard basis itself, exactly
    w, v = eig(np.eye(3, dtype=complex))
    np.testing.assert_array_equal(v, np.eye(3))
    # two-fold cluster inside a larger matrix
    a = np.diag([2.0, 1.0, 1.0]).astype(complex)
    w, v = eig(a)
    np.testing.assert_array_equal(np.abs(v), np.eye(3))


def test_positive_clips_rounding_noise():
    a = np.diag([1.0, -1e-15]).astype(complex)
    p = linalg.positive(a)
    assert p.rank == 1
    assert p.eigenvalues[-1] == 0.0
    assert p.trace() == pytest.approx(1.0)


def test_positive_rejects_indefinite():
    with pytest.raises(NotPositiveError):
        linalg.positive(np.diag([1.0, -0.5]))


def test_positive_operator_is_frozen():
    p = linalg.positive(np.eye(2))
    with pytest.raises(ValueError):
        p.matrix[0, 0] = 7.0
    with pytest.raises(ValueError):
        p.eigenvalues[0] = 7.0
    with pytest.raises(ValueError):
        p.eigenvectors[0, 0] = 7.0


@pytest.mark.parametrize("name", ["cutoff", "matrix", "eigenvalues", "eigenvectors", "rank_tol",
                                  "rank", "dim", "norm2"])
def test_positive_operator_attributes_cannot_be_rebound(name):
    p = linalg.positive(np.diag([2.0, 1.0, 1.0]))
    before = getattr(p, name)
    with pytest.raises(AttributeError):
        setattr(p, name, 0.5)
    with pytest.raises(AttributeError):
        delattr(p, name)
    assert getattr(p, name) is before or np.array_equal(getattr(p, name), before)
    assert p.cutoff == linalg.DEFAULT_CUTOFF


@pytest.mark.parametrize("a", [np.eye(4), np.diag([2.0, 1.0]), np.diag([3.0, 0.5, 0.5, 0.0])])
def test_eigenvectors_read_twice_are_one_frozen_array(a):
    p = linalg.positive(a)
    v = p.eigenvectors
    assert p.eigenvectors is v
    assert not v.flags.writeable


def test_positive_leaves_callers_array_writeable():
    a = np.diag([2.0, 1.0, 1.0]).astype(complex)
    p = linalg.positive(a)
    assert a.flags.writeable
    a[0, 0] = 5.0
    assert p.matrix[0, 0] == 2.0


def _canonical_cases():
    rng = np.random.default_rng(11)
    yield np.eye(5, dtype=complex)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    yield linalg.hermitian_part((q * np.array([3.0, 3.0, 3.0, 1.0, 1.0, 0.5])) @ q.conj().T)
    # kernel noise straddling zero: clipped to 0 the last two eigenvalues
    # would form one cluster, unclipped they are two
    yield linalg.hermitian_part((q * np.array([1.0, 0.5, 0.2, 0.1, 5e-15, -2e-14])) @ q.conj().T)
    for dim in (2, 3, 4, 6, 8, 16, 32, 64):
        for rank in sorted({1, dim // 2, dim - 1}):
            yield random_psd(rng, dim, rank)


def test_lazy_eigenvectors_equal_eager_canonical_basis():
    for a in _canonical_cases():
        np.testing.assert_array_equal(linalg.positive(a).eigenvectors,
                                      eig(a).eigenvectors)


def _row_loop_section(cols):
    """Gram-Schmidt of the projector onto span(cols), one column at a time: the oracle."""
    d, k = cols.shape
    proj = cols @ cols.conj().T
    picked = []
    for j in range(d):
        u = proj[:, j].copy()
        for q in picked:
            u -= q * (q.conj() @ u)
        nrm = float(np.linalg.norm(u))
        if nrm > 1e-8:
            picked.append(u / nrm)
            if len(picked) == k:
                break
    if len(picked) < k:
        return cols
    return np.column_stack(picked)


def _orthonormal_columns(rng, d, k, complex_):
    z = rng.standard_normal((d, k))
    if complex_:
        z = z + 1j * rng.standard_normal((d, k))
    return np.linalg.qr(z)[0]


def _nearly_dependent_columns(rng, d, k):
    """k columns spanning k - 1 directions up to 1e-12: the projection is defective."""
    base = _orthonormal_columns(rng, d, k - 1, True)
    last = base[:, :1] + 1e-12 * (rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1)))
    return np.hstack([base, last])


def test_standard_basis_section_matches_the_row_loop():
    rng = np.random.default_rng(20)
    cases = [np.eye(8, dtype=complex), np.eye(64)[:, 8:]]
    for d in range(1, 65):
        widths = range(1, d + 1) if d <= 8 else sorted({1, d, *rng.integers(1, d + 1, 2).tolist()})
        for k in widths:
            cases += [_orthonormal_columns(rng, d, k, True), _orthonormal_columns(rng, d, k, False)]
    for cols in cases:
        got, want = linalg._standard_basis_section(cols), _row_loop_section(cols)
        assert got.shape == want.shape == cols.shape
        assert np.array_equal(got, want)
    for d, k in [(2, 2), (4, 3), (16, 9), (64, 57)]:
        cols = _nearly_dependent_columns(rng, d, k)
        assert _row_loop_section(cols) is cols
        assert linalg._standard_basis_section(cols) is cols


@pytest.mark.parametrize("dim", [16, 64])
@pytest.mark.parametrize("rank", [1, 4, 8])
def test_deep_kernel_basis_is_the_row_loops(monkeypatch, dim, rank):
    a = random_psd(np.random.default_rng(dim + rank), dim, rank)
    monkeypatch.setattr(linalg._memo, "entries", {})
    got = linalg.positive(a).eigenvectors
    widths = []

    def oracle(cols):
        widths.append(cols.shape[1])
        return _row_loop_section(cols)

    monkeypatch.setattr(linalg, "_standard_basis_section", oracle)
    monkeypatch.setattr(linalg._memo, "entries", {})
    want = linalg.positive(a).eigenvectors
    assert dim - rank in widths
    assert np.array_equal(got, want)


def test_canonical_basis_is_built_on_first_read(monkeypatch):
    calls = []
    real = linalg._standard_basis_section

    def counting(cols):
        calls.append(cols.shape)
        return real(cols)

    monkeypatch.setattr(linalg, "_standard_basis_section", counting)
    monkeypatch.setattr(linalg._memo, "entries", {})
    p = linalg.positive(np.zeros((8, 8)))
    assert p.rank == 0
    assert calls == []
    np.testing.assert_array_equal(p.kernel_basis(), np.eye(8))
    assert calls == [(8, 8)]
    p.eigenvectors
    assert calls == [(8, 8)]


@pytest.mark.parametrize("eigs", [
    [0.5, 0.5, 0.3, 0.3, 0.3, 0.0, 0.0, 0.0],
    [0.9, 0.4, 0.4, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.6, 0.2, 0.0, 0.0, 0.0, 0.0],
    [0.25, 0.25, 0.25, 0.25],
    # the pairs-large shape: a 56-wide kernel under a support with one degenerate pair
    [0.3, 0.2, 0.12, 0.12, 0.1, 0.08, 0.05, 0.03] + [0.0] * 56,
])
def test_support_basis_canonicalizes_only_the_support(monkeypatch, eigs):
    """``support_basis()`` returns the support part of a basis canonicalized whole.

    Whichever basis accessor is read first, that read sweeps each degenerate
    cluster, support and kernel alike, once, and later reads sweep none.
    Every accessor equals its part of the eager canonical basis, read-only.
    """
    rng = np.random.default_rng(len(eigs))
    dim = len(eigs)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    a = linalg.hermitian_part((q * np.array(eigs)) @ q.conj().T)
    eager = eig(a).eigenvectors
    calls = []
    real = linalg._standard_basis_section

    def counting(cols):
        calls.append(cols.shape[1])
        return real(cols)

    monkeypatch.setattr(linalg, "_standard_basis_section", counting)
    rank = int(np.count_nonzero(np.array(eigs) > 0))
    widths = sorted(c for c in np.unique(eigs, return_counts=True)[1].tolist() if c > 1)
    reads = [(lambda p: p.support_basis(), eager[:, :rank]),
             (lambda p: p.kernel_basis(), eager[:, rank:]),
             (lambda p: p.eigenvectors, eager),
             (lambda p: p.bases()[0], eager)]
    for first, _ in reads:
        monkeypatch.setattr(linalg._memo, "entries", {})
        calls.clear()
        p = linalg.positive(a)
        assert calls == []
        first(p)
        assert sorted(calls) == widths
        for read, want in reads:
            got = read(p)
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable
        assert sorted(calls) == widths


def test_positive_accepts_positive_operator_passthrough():
    p = linalg.positive(np.diag([2.0, 1.0]))
    q = linalg.positive(p)
    np.testing.assert_array_equal(p.matrix, q.matrix)


def test_positive_revalidates_an_operator_at_another_cutoff():
    p = linalg.positive(np.diag([1.0, 1e-10]))
    assert linalg.positive(p, linalg.DEFAULT_CUTOFF) is p and p.rank == 2
    q = linalg.positive(p, 1e-9)
    assert q is not p and q.cutoff == 1e-9 and q.rank == 1
    np.testing.assert_array_equal(q.matrix, p.matrix)


@pytest.mark.parametrize("fn", [linalg.positive, linalg.hermitize, linalg.expm])
@pytest.mark.parametrize("a", [[["a", "b"], ["c", "d"]], {"dim": 2}, [[1.0, 0.0], [0.0]],
                               [[10**400]]])
def test_unreadable_input_is_an_invalid_matrix(fn, a):
    with pytest.raises(InvalidMatrixError, match="^cannot read a complex matrix: ") as info:
        fn(a)
    assert info.value.__context__ is None


def test_support_and_kernel_bases():
    p = linalg.positive(np.diag([0.0, 3.0, 0.0]))
    assert p.rank == 1
    s = p.support_basis()
    k = p.kernel_basis()
    assert s.shape == (3, 1) and k.shape == (3, 2)
    np.testing.assert_allclose(np.abs(s[:, 0]), [0, 1, 0], atol=1e-14)


def test_cutoff_scales_with_norm():
    # rank decisions are relative to the largest eigenvalue
    p = linalg.positive(np.diag([1e6, 1e-3]))
    assert p.rank == 2
    q = linalg.positive(np.diag([1e6, 1e-7]))
    assert q.rank == 1


def test_per_call_cutoff():
    a = np.diag([1.0, 1e-10])
    assert linalg.positive(a, cutoff=1e-9).rank == 1
    p = linalg.positive(a, cutoff=None)
    assert p.rank == 2
    assert p.cutoff == linalg.DEFAULT_CUTOFF


def test_support_projector_identities():
    rng = np.random.default_rng(1)
    for dim, rank in [(3, 3), (4, 2), (5, 4)]:
        a = random_psd(rng, dim, rank)
        proj = linalg._support_projector(linalg.positive(a))
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
        np.testing.assert_allclose(proj @ a, a, atol=1e-12)
        assert np.trace(proj).real == pytest.approx(rank)


def test_log_pd_inverts_expm():
    rng = np.random.default_rng(2)
    a = random_psd(rng, 4) + 0.5 * np.eye(4)
    l = linalg._log_stack(linalg.positive(a))[0]
    np.testing.assert_allclose(linalg.expm(l), a, atol=1e-11)


def test_log_pd_needs_full_rank():
    with pytest.raises(SingularInputError):
        linalg._log_stack(linalg.positive(np.diag([1.0, 0.0])))


@pytest.mark.parametrize("seed", range(5))
def test_expm_matches_scipy(seed):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(seed)
    h = random_psd(rng, 4) - 0.3 * np.eye(4)
    np.testing.assert_allclose(linalg.expm(h), scipy_linalg.expm(h), atol=1e-10)
    k = 2.0j * linalg.hermitian_part(rng.standard_normal((4, 4))
                                     + 1j * rng.standard_normal((4, 4)))
    np.testing.assert_allclose(linalg.expm(k), scipy_linalg.expm(k), atol=1e-10)


@pytest.mark.parametrize("seed", range(3))
def test_expm_rejects_a_matrix_of_neither_kind(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(NotHermitianError, match="^expm takes a Hermitian or anti-Hermitian "
                                                "matrix; anti-Hermiticity violation "):
        linalg.expm(g)
    # the Hermitian tolerance, relative to the largest entry, holds for both kinds
    h = linalg.hermitian_part(g)
    for m in (h, 1j * h):
        off = np.zeros((4, 4), dtype=complex)
        off[0, 1] = 5e-13 * np.abs(m).max()
        linalg.expm(m + off)
        off[0, 1] *= 4
        with pytest.raises(NotHermitianError):
            linalg.expm(m + off)


@pytest.mark.parametrize("a", [[[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.inf], [0.0, 1.0]],
                               [[1.0, complex(0.0, np.nan)], [0.0, 1.0]],
                               [[np.inf, 1.0], [-1.0, -np.inf]]])
def test_expm_of_a_non_finite_matrix_is_an_invalid_matrix(a):
    # a non-finite matrix is of neither kind, and that is not its error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidMatrixError, match="^matrix has non-finite entries$"):
            linalg.expm(a)


def test_expm_anti_hermitian_is_unitary():
    u = linalg.expm(1j * np.pi * SX)
    np.testing.assert_allclose(u, -np.eye(2), atol=1e-14)
    k = np.array([[0.0, 0.3], [-0.3, 0.0]])
    u = linalg.expm(k)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)


def test_expm_overflow():
    with pytest.raises(OverflowError):
        linalg.expm(np.diag([1e4, 0.0]))


def test_geometric_mean_scalars_and_identity():
    g = linalg.geometric_mean(np.diag([4.0, 9.0]), np.diag([1.0, 4.0]))
    np.testing.assert_allclose(g.matrix, np.diag([2.0, 6.0]), atol=1e-13)


@pytest.mark.parametrize("seed", range(6))
def test_geometric_mean_defining_equation(seed):
    # X = A # B is the positive solution of B = X A^-1 X
    rng = np.random.default_rng(seed)
    a = random_psd(rng, 4) + 0.2 * np.eye(4)
    b = random_psd(rng, 4) + 0.2 * np.eye(4)
    x = linalg.geometric_mean(a, b).matrix
    np.testing.assert_allclose(x @ np.linalg.inv(a) @ x, b, atol=1e-11)
    y = linalg.geometric_mean(b, a).matrix
    np.testing.assert_allclose(x, y, atol=1e-11)


def test_geometric_mean_rejects_singular_operand():
    with pytest.raises(SingularInputError):
        linalg.geometric_mean(np.diag([1.0, 0.0]), np.eye(2))


def test_geometric_mean_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        linalg.geometric_mean(np.eye(3), np.eye(2))


def test_excision_worked_examples():
    rho = np.diag([1.0, 0.0])
    plus = np.full((2, 2), 0.5)
    np.testing.assert_allclose(linalg.excision(plus, rho), [[0.5]], atol=1e-15)
    np.testing.assert_allclose(linalg.excision(np.diag([0.0, 1.0]), rho), [[0.0]],
                               atol=1e-15)


def test_excision_of_zero_reference():
    with pytest.raises(ZeroOperatorError):
        linalg.excision(np.eye(2), np.zeros((2, 2)))


def test_excision_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        linalg.excision(np.eye(3), np.eye(2))


def test_excision_keeps_relative_accuracy_for_small_overlap():
    # compression of nearly orthogonal pure states: the diagonal entry is a
    # sum of nonnegative terms, so a 1e-9 value carries ~1e-11 relative error
    # instead of cancelling against ||sigma|| ~ 1
    eps = 1e-9
    c, s = np.sqrt(1 - eps), np.sqrt(eps)
    sigma = np.outer([s, c], [s, c])
    rho = np.diag([1.0, 0.0])
    exc = linalg.excision(sigma, rho)
    assert exc[0, 0].real == pytest.approx(eps, rel=1e-10)


def test_excision_is_psd_with_rank_deficient_sigma():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rho = random_psd(rng, 5, 3)
        sigma = random_psd(rng, 5, 2)
        exc = linalg.excision(sigma, rho)
        w = np.linalg.eigvalsh(exc)
        assert w[0] >= -1e-14


def public_view(p, support_first=True):
    """Every public accessor of ``p``, arrays as (shape, bytes, writeable).

    The lazily canonicalized basis is read through ``support_basis()``
    first, or through ``eigenvectors`` first.
    """
    if support_first:
        support, vectors = p.support_basis(), p.eigenvectors
    else:
        vectors, support = p.eigenvectors, p.support_basis()
    arrays = (p.matrix, p.eigenvalues, vectors, support, p.kernel_basis())
    scalars = (p.cutoff, p.rank_tol, p.rank, p.dim, p.norm2, p.trace())
    return ([(a.shape, a.tobytes(), a.flags.writeable) for a in arrays]
            + [repr(x) for x in scalars])


def unmemoized(a, cutoff=linalg.DEFAULT_CUTOFF):
    """``positive(a)`` built without the memo."""
    return linalg._positive(linalg.hermitize(a)[None], cutoff)


#: degenerate clusters in the support and in the kernel, each canonicalized
#: on the first read of a basis accessor
DEGENERATE = np.diag([2.0, 1.0, 1.0, 0.0, 0.0])


@pytest.fixture
def memo(monkeypatch):
    """An empty memo of ``positive``, this test's own."""
    entries = {}
    monkeypatch.setattr(linalg._memo, "entries", entries)
    return entries


@pytest.mark.parametrize("reuse", [copy.copy, copy.deepcopy,
                                   lambda p: pickle.loads(pickle.dumps(p))])
@pytest.mark.parametrize("read_first", [False, True])
def test_copies_of_an_operator_are_private_and_equal(reuse, read_first):
    p = linalg.positive(np.diag([2.0, 1.0, 1.0]))
    if read_first:
        p.eigenvectors
    q = reuse(p)
    assert type(q) is linalg.PositiveOperator and q is not p
    assert public_view(q) == public_view(p)
    assert q._vectors is not p._vectors
    for a in (q.matrix, q.eigenvalues, q.eigenvectors, q.support_basis(), q.kernel_basis()):
        with pytest.raises(ValueError):
            a[0] = 7.0
    with pytest.raises(AttributeError):
        q.cutoff = 0.5
    with pytest.raises(AttributeError):
        q.stack = p.stack


def test_a_copy_canonicalizes_its_own_basis():
    p = unmemoized(DEGENERATE)
    q = copy.copy(p)
    q.support_basis()
    # the copy's first read canonicalized its whole basis, and only the copy's
    assert q._pending == [] and not q._vectors.flags.writeable
    assert p._pending == [[(1, 3), (3, 5)]] and p._vectors.flags.writeable
    assert public_view(q, support_first=False) == public_view(p)


def test_equal_input_gets_the_same_operator(memo):
    p = linalg.positive(DEGENERATE)
    for same in (DEGENERATE.copy(), np.asfortranarray(DEGENERATE), np.diag([2, 1, 1, 0, 0]),
                 np.pad(DEGENERATE, 1)[1:-1, 1:-1], DEGENERATE.astype(complex)):
        assert linalg.positive(same) is p
    assert linalg.positive(DEGENERATE, None) is p
    assert len(memo) == 1


def test_the_memo_never_holds_the_callers_array(memo):
    a = np.array(DEGENERATE, dtype=complex)
    p = linalg.positive(a)
    assert not np.shares_memory(p.matrix, a)
    a[0, 0] = 5.0
    assert linalg.positive(a) is not p
    assert linalg.positive(DEGENERATE) is p and p.matrix[0, 0] == 2.0


def test_the_sign_of_zero_is_part_of_the_key(memo):
    plus = np.diag([1.0, 0.5]).astype(complex)
    minus = plus.copy()
    # a signed zero that (A + A^dagger) / 2 keeps
    minus[0, 1] = complex(0.0, -0.0)
    p, q = linalg.positive(plus), linalg.positive(minus)
    assert p is not q
    assert not np.signbit(p.matrix.imag).any()
    np.testing.assert_array_equal(np.signbit(q.matrix.imag), [[False, True], [False, False]])
    assert public_view(q) == public_view(unmemoized(minus))


def test_shape_and_cutoff_are_part_of_the_key(memo):
    p = linalg.positive(np.eye(4))
    with pytest.raises(NonSquareError):
        linalg.positive(np.eye(4).reshape(2, 8))
    q = linalg.positive(np.eye(4), 1e-9)
    assert p is not q and len(memo) == 2
    assert q.cutoff == 1e-9
    assert linalg.positive(np.eye(4), 1e-9) is q
    assert public_view(q) == public_view(unmemoized(np.eye(4), 1e-9))


@pytest.mark.parametrize("a,error", [
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), InvalidMatrixError),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), NotHermitianError),
    (np.diag([1.0, -0.5]), NotPositiveError),
])
def test_failing_input_is_not_kept(memo, a, error):
    raised = []
    for _ in range(2):
        with pytest.raises(error) as info:
            linalg.positive(a)
        assert info.value.__context__ is None
        raised.append(str(info.value))
    assert raised[0] == raised[1]
    assert memo == {}


def test_each_thread_gets_its_own_operator(memo):
    # more threads than cores, switching often, each reading the lazily
    # canonicalized bases of its operators while the others read theirs
    scales = (1.0, 2.0, 3.0)
    expected = {s: public_view(unmemoized(DEGENERATE * s)) for s in scales}
    mine = {s: linalg.positive(DEGENERATE * s) for s in scales}
    results = [[] for _ in range(4)]

    def build(out):
        for k in range(30):
            s = scales[k % 3]
            p = linalg.positive(DEGENERATE * s)
            out.append((s, p, public_view(p, support_first=k % 2 == 0)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(out,)) for out in results]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    ops = {id(p) for p in mine.values()}
    for out in results:
        assert len(out) == 30
        kept = {}
        for s, p, view in out:
            # a thread keeps getting its own operator
            assert kept.setdefault(s, p) is p
            assert view == expected[s]
        ops.update(id(p) for p in kept.values())
    assert len(ops) == (1 + len(results)) * len(scales)
    assert len(memo) == len(scales)


def test_the_memo_keeps_its_most_recently_used_operators(memo):
    size = linalg._MEMO_SIZE
    ops = [linalg.positive(np.eye(2) * k) for k in range(size + 2)]
    assert len(memo) == size
    # 0 and 1 were evicted; a hit on 2 makes 3 the least recently used
    assert linalg.positive(np.eye(2) * 2) is ops[2]
    linalg.positive(np.eye(3))
    assert len(memo) == size
    assert linalg.positive(np.eye(2) * 2) is ops[2]
    for k in (0, 1, 3):
        assert linalg.positive(np.eye(2) * k) is not ops[k]
        assert len(memo) == size


# -- stacks on both sides of linalg._STACKED -------------------------------------

#: stack lengths on both sides of ``_STACKED``: a single operator, just
#: below, at and just above it, and a long stack
STACK_LENGTHS = (1, linalg._STACKED - 1, linalg._STACKED, linalg._STACKED + 1, 45)


def boundary_spectra(d):
    """Descending spectra of length ``d`` whose gaps sit on ``_clusters``' tolerance.

    The tolerance is 64 eps * max(1, |w_0|, |w_-1|). At w_0 = 1 that is
    2^-46, so 1 - 2^-46 leaves a gap of exactly the tolerance (a cluster),
    and one ulp (2^-53) either side of it a gap just inside (a cluster) or
    just outside (none). At w_-1 = -4 it is 2^-44, with an ulp of 2^-51.
    """
    tol = linalg._CLUSTER_TOL
    assert tol == 2.0**-46
    if d < 2:
        return [[0.25] * d]
    top = [0.5 - 0.1 * k for k in range(d - 2)]
    bottom = [3.0 - 0.25 * k for k in range(d - 2)]
    rows = [[1.0, second] + top for second in (1.0, 1.0 - tol, 1.0 - tol + 2.0**-53,
                                                1.0 - tol - 2.0**-53)]
    rows += [bottom + [-4.0 + 4 * tol + gap, -4.0] for gap in (0.0, 2.0**-51)]
    # degenerate in the middle and at the top
    rows.append([0.9] + [0.3] * (d - 1))
    rows.append([0.7, 0.7] + [0.0] * (d - 2))
    return rows


@pytest.mark.parametrize("n", STACK_LENGTHS)
@pytest.mark.parametrize("d", (0, 1, 2, 6))
def test_cluster_screen_is_the_per_slice_clusters(n, d):
    rng = np.random.default_rng(10 * n + d)
    spectra = boundary_spectra(d)
    rows = [spectra[j % len(spectra)] if j % 3 else sorted(rng.uniform(-1, 1, d), reverse=True)
            for j in range(n)]
    w = np.array(rows, dtype=float).reshape(n, d)
    assert linalg._pending(w) == [linalg._clusters(row) for row in w.tolist()]


def test_cluster_screen_sees_gaps_on_both_sides_of_the_tolerance():
    w = np.array(boundary_spectra(2) * 2)
    assert len(w) >= linalg._STACKED
    assert [bool(c) for c in linalg._pending(w)][:8] == [
        True, True, True, False, True, False, False, True]


def stack_with_boundaries(n, d, seed):
    """Hermitian PSD-ish stacks: random, exactly degenerate and gap-on-the-tolerance slices."""
    rng = np.random.default_rng(seed)
    spectra = [[abs(x) for x in row] for row in boundary_spectra(d)]
    slices = []
    for j in range(n):
        if j % 3 == 0:
            slices.append(random_psd(rng, d, rank=max(d - 1, 1)) if d else np.zeros((0, 0)))
        elif j % 3 == 1:
            # diagonal: the solver returns these eigenvalues exactly
            slices.append(np.diag(spectra[j % len(spectra)]).astype(complex))
        else:
            eigs = spectra[j % len(spectra)]
            u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            slices.append(linalg.hermitian_part((u * np.asarray(eigs)) @ u.conj().T))
    return linalg.hermitian_part(np.array(slices, dtype=complex).reshape(n, d, d))


@pytest.mark.parametrize("n", STACK_LENGTHS)
@pytest.mark.parametrize("d", (0, 1, 2, 6))
def test_stacked_positive_is_the_per_slice_positive(n, d):
    m = stack_with_boundaries(n, d, seed=n + 100 * d)
    c = linalg.DEFAULT_CUTOFF
    stacked = linalg._positive(m.copy(), c)
    alone = [linalg._positive(m[j:j + 1].copy(), c) for j in range(n)]
    assert np.array_equal(stacked.values, np.concatenate([p.values for p in alone]))
    assert stacked.tols == tuple(p.tols[0] for p in alone)
    pending = [list(c) for c in stacked._pending]
    assert pending == [p._pending[0] for p in alone]
    # the degenerate and on-the-tolerance slices do reach the canonicalization
    assert any(pending) == (d >= 2 and n >= 2)
    assert stacked.ranks() == [p.rank for p in alone]
    assert stacked.ranks() == [sum(x > t for x in w)
                               for w, t in zip(stacked.values.tolist(), stacked.tols)]
    assert np.array_equal(stacked.bases(), np.concatenate([p.bases() for p in alone]))


@pytest.mark.parametrize("n", STACK_LENGTHS)
@pytest.mark.parametrize("d", (0, 1, 2, 6))
def test_stacked_eigh_is_the_per_slice_eigh(n, d):
    m = stack_with_boundaries(n, d, seed=7 * n + d)
    w, v = linalg._eigh(m)
    for j in range(n):
        wj, vj = linalg._eigh(m[j])
        assert np.array_equal(w[j], wj)
        assert np.array_equal(v[j], vj)


@pytest.mark.parametrize("n", STACK_LENGTHS[2:])
@pytest.mark.parametrize("j", (0, 3, -1))
def test_stacked_positive_raises_the_first_indefinite_slice(n, j):
    m = stack_with_boundaries(n, 3, seed=n)
    bad = np.diag([0.5, 0.2, -0.1]).astype(complex)
    m[j] = bad
    if j != -1:
        m[-1] = np.diag([0.5, 0.2, -0.3])
    with pytest.raises(NotPositiveError) as stacked:
        linalg._positive(m, linalg.DEFAULT_CUTOFF)
    with pytest.raises(NotPositiveError) as alone:
        linalg._positive(bad[None], linalg.DEFAULT_CUTOFF)
    assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("n", (2, linalg._STACKED + 1))
def test_stacked_geometric_mean_checks_slice_0_then_the_right_operand(n):
    c = linalg.DEFAULT_CUTOFF
    singular = np.diag([1.0, 0.0]).astype(complex)
    left = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    left[-1] = singular
    right_singular = linalg._positive(singular[None], c)
    with pytest.raises(SingularInputError, match="right operand"):
        linalg._geometric_mean(linalg._positive(left.copy(), c), right_singular)
    left[0] = singular
    with pytest.raises(SingularInputError, match="left operand"):
        linalg._geometric_mean(linalg._positive(left.copy(), c), right_singular)
