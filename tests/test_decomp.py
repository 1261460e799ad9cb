"""Tests for the operator Lebesgue decomposition and its diagnostics."""

import numpy as np
import pytest

from qleb import decomp, linalg, models
from qleb.errors import (
    DimensionMismatchError,
    MutuallySingularError,
    NotAbsolutelyContinuousError,
    QlebError,
    ZeroOperatorError,
)

PLUS = np.full((2, 2), 0.5, dtype=complex)


def random_density(rng, dim, rank=None):
    rank = dim if rank is None else rank
    z = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = z @ z.conj().T
    return m / np.trace(m).real


class TestSingularity:
    def test_orthogonal_diagonals(self):
        chk = decomp.is_singular(np.diag([1.0, 0.0]), np.diag([0.0, 2.0]))
        assert chk.singular and chk.consistent
        assert bool(chk) is True
        assert chk.trace_overlap <= chk.trace_bound
        assert chk.excision_norm <= chk.excision_bound
        assert chk.projector_overlap <= chk.projector_bound

    def test_overlapping_pair(self):
        chk = decomp.is_singular(np.diag([1.0, 0.0]), PLUS)
        assert not chk.singular and chk.consistent
        assert chk.trace_overlap == pytest.approx(0.5)

    def test_rotated_orthogonal_projectors(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(z)
        rho = q[:, :2] @ q[:, :2].conj().T
        sigma = q[:, 2:] @ q[:, 2:].conj().T
        assert decomp.is_singular(rho, sigma).singular

    def test_zero_operator_rejected(self):
        with pytest.raises(ZeroOperatorError):
            decomp.is_singular(np.zeros((2, 2)), np.eye(2))


class TestAbsoluteContinuity:
    def test_full_rank_dominates_everything(self):
        chk = decomp.is_absolutely_continuous(PLUS, np.eye(2) / 2)
        assert chk.absolutely_continuous
        assert chk.witness is not None
        assert chk.witness_residual < 1e-13

    def test_orthogonal_supports_rejected(self):
        chk = decomp.is_absolutely_continuous(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert not chk.absolutely_continuous
        assert chk.witness is None and chk.witness_residual is None

    def test_rank_one_reference_inside_support(self):
        # rho = e0 projector, sigma = plus state: the compression is [[1/2]]
        chk = decomp.is_absolutely_continuous(np.diag([1.0, 0.0]), PLUS)
        assert chk.absolutely_continuous
        assert chk.excision_min_eigenvalue == pytest.approx(0.5)
        # witness satisfies R sigma R = rho
        r = chk.witness
        np.testing.assert_allclose(r @ PLUS @ r, np.diag([1.0, 0.0]), atol=1e-12)

    def test_partial_overlap_is_not_domination(self):
        # sigma misses the e1 direction of supp rho
        rho = np.diag([0.5, 0.5, 0.0])
        sigma = np.diag([1.0, 0.0, 0.0])
        assert not decomp.is_absolutely_continuous(rho, sigma)


class TestMutualContinuity:
    def test_full_rank_pair(self):
        rng = np.random.default_rng(11)
        chk = decomp.is_mutually_ac(random_density(rng, 3), random_density(rng, 3))
        assert chk.mutually_ac and chk.rank_criterion and chk.consistent

    def test_one_sided_fails(self):
        chk = decomp.is_mutually_ac(np.diag([1.0, 0.0]), np.eye(2) / 2)
        assert not chk.mutually_ac
        assert bool(chk.forward) and not bool(chk.backward)
        assert not chk.rank_criterion and chk.consistent

    def test_overlapping_pure_states_are_mutually_ac(self):
        # excision of either projector onto the other's support is the
        # squared overlap, strictly positive here
        chk = decomp.is_mutually_ac(np.diag([1.0, 0.0]), PLUS)
        assert chk.mutually_ac and chk.rank_criterion and chk.consistent

    def test_same_support_different_weights(self):
        rho = np.diag([0.9, 0.1, 0.0])
        sigma = np.diag([0.2, 0.8, 0.0])
        chk = decomp.is_mutually_ac(rho, sigma)
        assert chk.mutually_ac and chk.consistent


class TestSupportSplit:
    # three-block pair: supp rho = span(e0, e1); sigma couples e0 to e2 only
    RHO = np.diag([0.7, 0.3, 0.0]).astype(complex)
    SIGMA = np.array(
        [[0.5, 0.0, 0.4], [0.0, 0.0, 0.0], [0.4, 0.0, 0.5]], dtype=complex
    )

    def test_block_dimensions(self):
        split = decomp.support_split(self.RHO, self.SIGMA)
        assert split.dims == (1, 1, 1)
        basis = split.full_basis()
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(3), atol=1e-13)

    def test_block_values(self):
        split = decomp.support_split(self.RHO, self.SIGMA)
        np.testing.assert_allclose(split.sigma0, [[0.5]], atol=1e-13)
        np.testing.assert_allclose(np.abs(split.alpha), [[0.4]], atol=1e-13)
        np.testing.assert_allclose(split.beta, [[0.5]], atol=1e-13)
        np.testing.assert_allclose(split.rho0, [[0.7]], atol=1e-13)
        np.testing.assert_allclose(split.rho2, [[0.3]], atol=1e-13)
        np.testing.assert_allclose(split.rho1, [[0.0]], atol=1e-13)

    def test_zero_patterns_in_adapted_basis(self):
        split = decomp.support_split(self.RHO, self.SIGMA)
        basis = split.full_basis()
        rho_b = basis.conj().T @ self.RHO @ basis
        sigma_b = basis.conj().T @ self.SIGMA @ basis
        # rho has no H3 component, sigma no H1 component
        np.testing.assert_allclose(rho_b[2, :], 0.0, atol=1e-13)
        np.testing.assert_allclose(sigma_b[0, :], 0.0, atol=1e-13)

    def test_mutually_singular_pair_rejected(self):
        with pytest.raises(MutuallySingularError):
            decomp.support_split(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))

    def test_zero_operator_rejected(self):
        with pytest.raises(ZeroOperatorError):
            decomp.support_split(self.RHO, np.zeros((3, 3)))


class TestLebesgueDecompose:
    def test_commuting_diagonal_split(self):
        rho = np.diag([0.5, 0.5, 0.0])
        sigma = np.diag([1.0 / 3.0, 0.0, 2.0 / 3.0])
        dec = decomp.lebesgue_decompose(sigma, rho)
        np.testing.assert_allclose(dec.sigma_ac.matrix, np.diag([1 / 3, 0, 0]),
                                   atol=1e-13)
        np.testing.assert_allclose(dec.sigma_sing.matrix, np.diag([0, 0, 2 / 3]),
                                   atol=1e-13)
        # R rho R reproduces the a.c. part
        r = dec.witness_r.matrix
        np.testing.assert_allclose(r @ rho @ r, dec.sigma_ac.matrix, atol=1e-13)

    def test_full_rank_reference_keeps_everything(self):
        dec = decomp.lebesgue_decompose(PLUS, np.eye(2) / 2)
        np.testing.assert_allclose(dec.sigma_ac.matrix, PLUS, atol=1e-13)
        assert dec.sigma_sing.norm2 < 1e-13
        np.testing.assert_allclose(dec.witness_r.matrix, np.sqrt(2) * PLUS,
                                   atol=1e-12)

    def test_mutually_singular_pair_gives_zero_ac(self):
        dec = decomp.lebesgue_decompose(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
        assert dec.sigma_ac.rank == 0 and dec.witness_r.rank == 0
        np.testing.assert_array_equal(dec.sigma_sing.matrix, np.diag([0.0, 1.0]))
        assert dec.route == "block"

    def test_graph_coupling_example(self):
        # sigma couples supp rho to ker rho; the a.c. part keeps the coupling
        # and completes the corner to the smallest PSD block
        dec = decomp.lebesgue_decompose(TestSupportSplit.SIGMA, TestSupportSplit.RHO)
        expected_ac = np.array(
            [[0.5, 0.0, 0.4], [0.0, 0.0, 0.0], [0.4, 0.0, 0.32]]
        )
        np.testing.assert_allclose(dec.sigma_ac.matrix, expected_ac, atol=1e-12)
        np.testing.assert_allclose(dec.sigma_sing.matrix,
                                   np.diag([0.0, 0.0, 0.18]), atol=1e-12)
        r = dec.witness_r.matrix
        np.testing.assert_allclose(r @ TestSupportSplit.RHO @ r,
                                   dec.sigma_ac.matrix, atol=1e-12)

    def test_parts_satisfy_their_defining_relations(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            rho = random_density(rng, 4, rank=rng.integers(1, 5))
            sigma = random_density(rng, 4, rank=rng.integers(1, 5))
            dec = decomp.lebesgue_decompose(sigma, rho)
            np.testing.assert_allclose(dec.reconstruction(), sigma, atol=1e-11)
            overlap = float(np.trace(rho @ dec.sigma_sing.matrix).real)
            assert abs(overlap) < 1e-11
            if dec.sigma_ac.rank > 0:
                assert decomp.is_absolutely_continuous(dec.sigma_ac, rho)

    @pytest.mark.parametrize("seed", range(8))
    def test_block_and_direct_routes_agree(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, 5, rank=int(rng.integers(1, 6)))
        sigma = random_density(rng, 5, rank=int(rng.integers(1, 6)))
        a = decomp.lebesgue_decompose(sigma, rho)
        b = decomp.lebesgue_decompose_direct(sigma, rho)
        assert a.route == "block" and b.route == "direct"
        np.testing.assert_allclose(a.sigma_ac.matrix, b.sigma_ac.matrix, atol=1e-9)
        np.testing.assert_allclose(a.sigma_sing.matrix, b.sigma_sing.matrix,
                                   atol=1e-9)

    def test_unitary_covariance(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 4, rank=2)
        sigma = random_density(rng, 4, rank=3)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(z)
        a = decomp.lebesgue_decompose(sigma, rho)
        b = decomp.lebesgue_decompose(u @ sigma @ u.conj().T, u @ rho @ u.conj().T)
        np.testing.assert_allclose(b.sigma_ac.matrix,
                                   u @ a.sigma_ac.matrix @ u.conj().T, atol=1e-10)

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroOperatorError):
            decomp.lebesgue_decompose(np.eye(2), np.zeros((2, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            decomp.lebesgue_decompose(np.eye(3), np.eye(2))


class TestQllr:
    def test_commuting_full_rank_pair(self):
        rho = np.diag([0.5, 0.5])
        sigma = np.diag([1.0 / 3.0, 2.0 / 3.0])
        ver = decomp.qllr(sigma, rho)
        expected = np.diag([np.log(2.0 / 3.0), np.log(4.0 / 3.0)])
        np.testing.assert_allclose(ver.l_matrix, expected, atol=1e-12)
        assert "kernel" in ver.gamma_choice

    def test_self_ratio_vanishes(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            rho = random_density(rng, 3)
            ver = decomp.qllr(rho, rho)
            assert np.max(np.abs(ver.l_matrix)) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_defining_relation(self, seed):
        # exp(L/2) rho exp(L/2) recovers the a.c. part of sigma
        rng = np.random.default_rng(seed)
        rho = random_density(rng, 4, rank=int(rng.integers(1, 5)))
        sigma = random_density(rng, 4)  # full rank, so rho << sigma
        ver = decomp.qllr(sigma, rho)
        half = linalg.expm(ver.l_matrix / 2)
        ac = decomp.lebesgue_decompose(sigma, rho).sigma_ac.matrix
        np.testing.assert_allclose(half @ rho @ half, ac, atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_exponential_trace_identity(self, seed):
        # Tr rho exp(L) equals Tr sigma_ac for every version; checked on this one
        rng = np.random.default_rng(100 + seed)
        rho = random_density(rng, 4, rank=int(rng.integers(1, 5)))
        sigma = random_density(rng, 4)
        ver = decomp.qllr(sigma, rho)
        lhs = float(np.trace(rho @ linalg.expm(ver.l_matrix)).real)
        rhs = decomp.lebesgue_decompose(sigma, rho).sigma_ac.trace()
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_rank_deficient_reference_on_kernel(self):
        # gamma convention: L acts as 0 on ker rho when sigma has no coupling
        rho = np.diag([1.0, 0.0])
        sigma = np.diag([0.5, 0.5])
        ver = decomp.qllr(sigma, rho)
        np.testing.assert_allclose(ver.l_matrix,
                                   np.diag([np.log(0.5), 0.0]), atol=1e-12)

    def test_requires_domination(self):
        with pytest.raises(NotAbsolutelyContinuousError):
            decomp.qllr(np.diag([1.0, 0.0]), np.eye(2) / 2)

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroOperatorError):
            decomp.qllr(np.eye(2), np.zeros((2, 2)))

    @pytest.mark.parametrize("mode", ["generic", "orthogonal", "near_singular",
                                      "near_deficient"])
    def test_precondition_matches_absolute_continuity(self, mode):
        # qllr refuses a pair exactly when is_absolutely_continuous says no
        checked = 0
        for d in range(2, 7):
            for kr in range(1, d + 1):
                for ks in range(1, d + 1):
                    if mode in ("orthogonal", "near_singular") and kr + ks > d:
                        continue
                    spec = models.RandomPsdPairSpec(d, kr, ks, seed=d * 100 + kr * 10 + ks,
                                                    mode=mode)
                    rho, sigma = models.random_psd_pair(spec)
                    holds = bool(decomp.is_absolutely_continuous(rho.matrix, sigma.matrix))
                    try:
                        decomp.qllr(sigma.matrix, rho.matrix)
                        refused = False
                    except NotAbsolutelyContinuousError:
                        refused = True
                    except QlebError:
                        # other failures (e.g. a singular geometric-mean operand)
                        # happen only after the precondition passed
                        refused = False
                    assert refused == (not holds), (spec, holds)
                    checked += 1
        assert checked > 0


class TestAcBallRadius:
    def test_value_is_smallest_positive_eigenvalue(self):
        rho = np.diag([0.6, 0.3, 0.1])
        assert decomp.ac_ball_radius(rho) == pytest.approx(0.1)
        rank_def = np.diag([0.9, 0.1, 0.0])
        assert decomp.ac_ball_radius(rank_def) == pytest.approx(0.1)

    def test_requires_unit_trace(self):
        with pytest.raises(ValueError):
            decomp.ac_ball_radius(np.diag([0.6, 0.6]))

    def test_perturbations_inside_ball_stay_dominating(self):
        rng = np.random.default_rng(17)
        rho = np.diag([0.6, 0.3, 0.1]).astype(complex)
        radius = decomp.ac_ball_radius(rho)
        for _ in range(10):
            h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            h = (h + h.conj().T) / 2
            h -= np.trace(h).real * np.eye(3) / 3
            h *= 0.9 * radius / np.linalg.norm(h, 2)
            sigma = rho + h
            assert np.linalg.eigvalsh(sigma)[0] > 0
            assert decomp.is_absolutely_continuous(rho, sigma)
