"""Unit tests for the dense Hermitian/PSD toolbox."""

import numpy as np
import pytest
import scipy.linalg

from qleb import linalg
from qleb.errors import (
    DimensionMismatchError,
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


def test_eig_descending_and_reconstruction():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = random_psd(rng, 5)
        w, v = linalg.eig_hermitian(a)
        assert np.all(np.diff(w) <= 1e-12)
        np.testing.assert_allclose((v * w) @ v.conj().T, a, atol=1e-12)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(5), atol=1e-12)


def test_eig_canonical_on_degenerate_spectrum():
    # identity has a fully degenerate spectrum; the canonical choice is the
    # standard basis itself, exactly
    w, v = linalg.eig_hermitian(np.eye(3, dtype=complex))
    np.testing.assert_array_equal(v, np.eye(3))
    # two-fold cluster inside a larger matrix
    a = np.diag([2.0, 1.0, 1.0]).astype(complex)
    w, v = linalg.eig_hermitian(a)
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
                                      linalg.eig_hermitian(a).eigenvectors)


def test_canonical_basis_is_built_on_first_read(monkeypatch):
    calls = []
    real = linalg._standard_basis_section

    def counting(cols):
        calls.append(cols.shape)
        return real(cols)

    monkeypatch.setattr(linalg, "_standard_basis_section", counting)
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
])
def test_support_basis_canonicalizes_only_the_support(monkeypatch, eigs):
    rng = np.random.default_rng(len(eigs))
    dim = len(eigs)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    a = linalg.hermitian_part((q * np.array(eigs)) @ q.conj().T)
    eager = linalg.eig_hermitian(a).eigenvectors
    calls = []
    real = linalg._standard_basis_section

    def counting(cols):
        calls.append(cols.shape[1])
        return real(cols)

    monkeypatch.setattr(linalg, "_standard_basis_section", counting)
    p = linalg.positive(a)
    rank = int(np.count_nonzero(np.array(eigs) > 0))
    support = p.support_basis()
    # only the degenerate support clusters were canonicalized
    values, counts = np.unique(np.array(eigs)[:rank], return_counts=True)
    assert sorted(calls) == sorted(c for c in counts.tolist() if c > 1)
    assert not support.flags.writeable
    np.testing.assert_array_equal(support, eager[:, :rank])
    np.testing.assert_array_equal(p.support_basis(), eager[:, :rank])
    np.testing.assert_array_equal(p.eigenvectors, eager)
    np.testing.assert_array_equal(p.kernel_basis(), eager[:, rank:])
    assert not p.eigenvectors.flags.writeable


def test_positive_accepts_positive_operator_passthrough():
    p = linalg.positive(np.diag([2.0, 1.0]))
    q = linalg.positive(p)
    np.testing.assert_array_equal(p.matrix, q.matrix)


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
        proj = linalg.support_projector(a)
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
        np.testing.assert_allclose(proj @ a, a, atol=1e-12)
        assert np.trace(proj).real == pytest.approx(rank)


def test_log_pd_inverts_expm():
    rng = np.random.default_rng(2)
    a = random_psd(rng, 4) + 0.5 * np.eye(4)
    l = linalg.log_pd(a)
    np.testing.assert_allclose(linalg.expm(l), a, atol=1e-11)


def test_log_pd_needs_full_rank():
    with pytest.raises(SingularInputError):
        linalg.log_pd(np.diag([1.0, 0.0]))


@pytest.mark.parametrize("seed", range(5))
def test_expm_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    h = random_psd(rng, 4) - 0.3 * np.eye(4)
    np.testing.assert_allclose(linalg.expm(h), scipy.linalg.expm(h), atol=1e-10)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(linalg.expm(g), scipy.linalg.expm(g), atol=1e-10)


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
