"""Tests for the operator Lebesgue decomposition and its diagnostics."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from qleb import cli, decomp, linalg, models, qlan
from qleb.errors import (
    DimensionMismatchError,
    MutuallySingularError,
    NotAbsolutelyContinuousError,
    NotPositiveError,
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

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroOperatorError, match="^absolute continuity needs a nonzero"):
            decomp.is_absolutely_continuous(np.zeros((2, 2)), np.eye(2))

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

    def test_witness_runs_at_the_call_cutoff(self):
        # rank 2 at cutoff 1e-15, rank 1 at the default 1e-11: the witness
        # mean must see the cutoff the verdict was decided at
        rho = np.diag([1.0, 1e-13])
        chk = decomp.is_absolutely_continuous(rho, np.eye(2), cutoff=1e-15)
        assert chk.absolutely_continuous
        assert chk.witness_residual <= 1e-9
        decomp.qllr(np.eye(2), rho, cutoff=1e-15)


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

    def split(self):
        return decomp._support_split(*linalg._pair(self.RHO, self.SIGMA, None))

    def test_block_dimensions(self):
        split = self.split()
        assert split.dims == (1, 1, 1)
        basis = split.full_basis()
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(3), atol=1e-13)

    def test_block_values(self):
        split = self.split()
        np.testing.assert_allclose(split.sigma0, [[0.5]], atol=1e-13)
        np.testing.assert_allclose(np.abs(split.alpha), [[0.4]], atol=1e-13)
        np.testing.assert_allclose(split.beta, [[0.5]], atol=1e-13)
        np.testing.assert_allclose(split.rho0, [[0.7]], atol=1e-13)
        h1, h2 = split.basis_h1, split.basis_h2
        np.testing.assert_allclose(h1.conj().T @ self.RHO @ h1, [[0.3]], atol=1e-13)
        np.testing.assert_allclose(h1.conj().T @ self.RHO @ h2, [[0.0]], atol=1e-13)

    def test_zero_patterns_in_adapted_basis(self):
        split = self.split()
        basis = split.full_basis()
        rho_b = basis.conj().T @ self.RHO @ basis
        sigma_b = basis.conj().T @ self.SIGMA @ basis
        # rho has no H3 component, sigma no H1 component
        np.testing.assert_allclose(rho_b[2, :], 0.0, atol=1e-13)
        np.testing.assert_allclose(sigma_b[0, :], 0.0, atol=1e-13)

    def test_mutually_singular_pair_rejected(self):
        # the compression of sigma onto supp rho vanishes: no H2 to split off
        pair = linalg._pair(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), None)
        with pytest.raises(MutuallySingularError):
            decomp._support_split(*pair)


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

    def test_direct_route_zero_operands(self):
        with pytest.raises(ZeroOperatorError, match="^decomposition needs a nonzero reference"):
            decomp.lebesgue_decompose_direct(np.eye(2), np.zeros((2, 2)))
        # sigma of rank 0 is all singular part
        dec = decomp.lebesgue_decompose_direct(np.zeros((2, 2)), np.eye(2))
        assert dec.route == "direct" and dec.sigma_ac.rank == 0 and dec.witness_r.rank == 0
        np.testing.assert_array_equal(dec.sigma_sing.matrix, np.zeros((2, 2)))


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

    def test_r_plus_rank_is_anchored_at_unit_scale(self):
        # R+ = 1e-10 I: its rank_tol is d * max(||R+||, 1) * cutoff = 2e-11, so
        # R+ is full rank and L = 2 log(1e-10) I exactly; a floor of 10 would
        # raise the rank_tol to 2e-10 and reject R+ as singular
        ver = decomp.qllr(1e-20 * np.eye(2), np.eye(2))
        np.testing.assert_array_equal(ver.l_matrix, np.log(1e-20) * np.eye(2))

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
    """Every state within the smallest positive eigenvalue of rho, in norm, dominates rho."""

    @staticmethod
    def radius(rho) -> float:
        p = linalg.positive(rho)
        return float(p.eigenvalues[p.rank - 1])

    def test_value_is_smallest_positive_eigenvalue(self):
        rho = np.diag([0.6, 0.3, 0.1])
        assert self.radius(rho) == pytest.approx(0.1)
        rank_def = np.diag([0.9, 0.1, 0.0])
        assert self.radius(rank_def) == pytest.approx(0.1)

    def test_perturbations_inside_ball_stay_dominating(self):
        rng = np.random.default_rng(17)
        rho = np.diag([0.6, 0.3, 0.1]).astype(complex)
        radius = self.radius(rho)
        for _ in range(10):
            h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            h = (h + h.conj().T) / 2
            h -= np.trace(h).real * np.eye(3) / 3
            h *= 0.9 * radius / np.linalg.norm(h, 2)
            sigma = rho + h
            assert np.linalg.eigvalsh(sigma)[0] > 0
            assert decomp.is_absolutely_continuous(rho, sigma)


class TestOracles:
    """Closed forms checked against the rewritten kernels.

    Tolerances are those of the tier-1 gate, fixed before any run: 1e-9 for
    witness identities and ``cli.ROUTE_TOL`` between a route and an exact
    answer.
    """

    @pytest.mark.parametrize("route", ["lebesgue_decompose", "lebesgue_decompose_direct"])
    @pytest.mark.parametrize("mode", ["generic", "orthogonal"])
    def test_rank_one_reference(self, route, mode):
        # rho = |psi><psi|: sigma_ac = sigma |psi><psi| sigma / <psi|sigma|psi>,
        # which is 0 when the supports are orthogonal
        checked = 0
        for d in range(2, 9):
            for ks in range(1, d + 1 if mode == "generic" else d):
                spec = models.RandomPsdPairSpec(d, 1, ks, seed=700 + 10 * d + ks, mode=mode)
                rho, sigma = models.random_psd_pair(spec)
                s = sigma.matrix
                if mode == "generic":
                    col = s @ rho.support_basis()[:, 0]
                    expected = np.outer(col, col.conj()) / (rho.support_basis()[:, 0].conj() @ col)
                else:
                    expected = np.zeros((d, d))
                got = getattr(decomp, route)(s, rho.matrix).sigma_ac.matrix
                assert np.max(np.abs(got - expected)) <= cli.ROUTE_TOL, spec
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("route", ["lebesgue_decompose", "lebesgue_decompose_direct"])
    @pytest.mark.parametrize("d", range(2, 7))
    def test_rank_one_reference_at_a_small_scale(self, route, d):
        # rank-1/1 near_deficient pairs have norm 1e-8, so the absolute
        # ROUTE_TOL cannot see an error there; the bound is relative: sigma_ac
        # = sigma |psi><psi| sigma / <psi|sigma|psi> within 1e-13 ||sigma||
        for seed in range(4):
            spec = models.RandomPsdPairSpec(d, 1, 1, seed=seed, mode="near_deficient")
            rho, sigma = (p.matrix for p in models.random_psd_pair(spec))
            psi = np.linalg.eigh(rho)[1][:, -1]
            col = sigma @ psi
            expected = np.outer(col, col.conj()) / (psi.conj() @ col).real
            got = getattr(decomp, route)(sigma, rho).sigma_ac.matrix
            gap = np.max(np.abs(got - expected))
            assert gap <= 1e-13 * np.linalg.norm(sigma, 2), (spec, gap)

    @pytest.mark.parametrize("d", range(3, 7))
    def test_degenerate_compression(self, d):
        # the compression of sigma onto supp rho is c I_k, so the excision's
        # eigenbasis is any basis of supp rho; in an orthonormal basis V of it,
        # sigma_ac = sigma V (V* sigma V)^-1 V* sigma, and R rho R = sigma_ac,
        # both within 1e-13 ||sigma||
        rng = np.random.default_rng(40 + d)
        for k in range(2, d):
            u = models.haar_unitary(d, rng)
            c = rng.uniform(0.5, 2.0)
            # sigma = u b b* u* with b's first k rows [sqrt(c) I_k, 0]
            b = np.zeros((d, d), dtype=complex)
            b[:k, :k] = np.sqrt(c) * np.eye(k)
            b[k:] = rng.standard_normal((d - k, d)) + 1j * rng.standard_normal((d - k, d))
            b[k:, k + 1:] = 0.0
            sigma = linalg.hermitian_part(u @ b @ b.conj().T @ u.conj().T)
            v = u[:, :k]
            rho = linalg.hermitian_part((v * rng.uniform(0.5, 1.5, k)) @ v.conj().T)
            sv = sigma @ v
            expected = sv @ np.linalg.inv(v.conj().T @ sv) @ sv.conj().T
            bound = 1e-13 * np.linalg.norm(sigma, 2)
            for route in (decomp.lebesgue_decompose, decomp.lebesgue_decompose_direct):
                dec = route(sigma, rho)
                r = dec.witness_r.matrix
                assert np.max(np.abs(dec.sigma_ac.matrix - expected)) <= bound, (k, dec.route)
                assert np.max(np.abs(r @ rho @ r - expected)) <= bound, (k, dec.route)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_qllr_sandwich_identity_every_rank_mix(self, d):
        # exp(L/2) rho exp(L/2) = sigma_ac whenever rho << sigma: supp rho is
        # spanned by the first kr columns of a Haar frame, supp sigma by the
        # first ks >= kr
        rng = np.random.default_rng(900 + d)
        for kr in range(1, d + 1):
            for ks in range(kr, d + 1):
                u = models.haar_unitary(d, rng)
                rho = (u[:, :kr] * rng.uniform(0.2, 1.0, kr)) @ u[:, :kr].conj().T
                a = rng.standard_normal((ks, ks)) + 1j * rng.standard_normal((ks, ks))
                sigma = u[:, :ks] @ (a @ a.conj().T) @ u[:, :ks].conj().T
                half = linalg.expm(decomp.qllr(sigma, rho).l_matrix / 2)
                ac = decomp.lebesgue_decompose(sigma, rho).sigma_ac.matrix
                assert np.max(np.abs(half @ rho @ half - ac)) <= 1e-9, (kr, ks)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_qllr_witness_is_the_block_witness(self, d):
        # qllr's R+ and the block route's R come from one construction: when
        # rho << sigma, H1 is empty and R+ = R + (I - P), P onto supp rho
        checked = 0
        for seed in range(3):
            for kr in range(1, d + 1):
                for ks in range(1, d + 1):
                    spec = models.RandomPsdPairSpec(d, kr, ks, seed=seed)
                    rho, sigma = models.random_psd_pair(spec)
                    if not decomp.is_absolutely_continuous(rho, sigma):
                        continue
                    half = linalg.expm(decomp.qllr(sigma, rho).l_matrix / 2)
                    r = decomp.lebesgue_decompose(sigma, rho).witness_r.matrix
                    expected = r + np.eye(d) - linalg._support_projector(rho)
                    gap = np.max(np.abs(half - expected))
                    assert gap <= 1e-10 * max(1.0, np.max(np.abs(r))), spec
                    checked += 1
        assert checked > 0


#: the six public pair functions, in the order ``qleb check`` and the benchmark call them
PIPELINE = ("is_singular", "is_absolutely_continuous", "is_mutually_ac",
            "lebesgue_decompose", "lebesgue_decompose_direct", "qllr")

MODES = ("generic", "orthogonal", "near_singular", "near_deficient")


def exact(x):
    """``x`` as nested tuples that compare equal only if every bit is equal."""
    if isinstance(x, np.ndarray):
        return x.shape, x.dtype.str, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, linalg.PositiveOperator):
        return tuple(exact(v) for v in (x.matrix, x.eigenvalues, x.eigenvectors, x.cutoff,
                                        x.rank_tol, x.rank, x.support_basis(), x.kernel_basis()))
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple(exact(getattr(x, f.name)) for f in dataclasses.fields(x))
    return x


def outcome(name, rho, sigma):
    """Every field of the result of ``name`` on the pair, or its error's type, text and context."""
    args = (rho, sigma) if name.startswith("is_") else (sigma, rho)
    try:
        return exact(getattr(decomp, name)(*args))
    except Exception as exc:
        ctx = exc.__context__
        return type(exc), str(exc), type(ctx), str(ctx)


def clear_memos():
    linalg._memo.entries.clear()
    decomp._pairs.entries.clear()


def raw_pair(dim, rank_rho, rank_sigma, mode="generic", seed=3):
    rho, sigma = models.random_psd_pair(
        models.RandomPsdPairSpec(dim, rank_rho, rank_sigma, seed=seed, mode=mode))
    return np.array(rho.matrix), np.array(sigma.matrix)


class TestPairMemo:
    """The per-thread memo of what the pair functions build from one validated pair."""

    @pytest.fixture(autouse=True)
    def pair_memo(self, monkeypatch):
        entries = {}
        monkeypatch.setattr(decomp._pairs, "entries", entries)
        monkeypatch.setattr(linalg._memo, "entries", {})
        return entries

    def test_warm_calls_equal_cold_ones(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def pairs(draw):
            mode = draw(st.sampled_from(MODES))
            d = draw(st.integers(2, 6))
            apart = mode in ("orthogonal", "near_singular")
            kr = draw(st.integers(1, d - 1 if apart else d))
            ks = draw(st.integers(1, d - kr if apart else d))
            return raw_pair(d, kr, ks, mode, draw(st.integers(0, 2 ** 31 - 1)))

        @hypothesis.settings(derandomize=True, database=None, deadline=None)
        @hypothesis.given(pairs())
        def check(pair):
            rho, sigma = pair
            cold = {}
            for name in PIPELINE:
                clear_memos()
                cold[name] = outcome(name, rho, sigma)
            clear_memos()
            for order in (PIPELINE, PIPELINE[::-1]):
                assert {name: outcome(name, rho, sigma) for name in order} == cold
            # the shared excision is the one the public ``excision`` builds
            norm = np.linalg.norm(linalg.excision(sigma, rho), 2)
            assert decomp.is_singular(rho, sigma).excision_norm == norm

        check()

    def test_a_returned_witness_is_the_callers_own(self):
        rho, sigma = raw_pair(4, 4, 4)
        forward = exact(decomp.is_absolutely_continuous(rho, sigma))
        backward = exact(decomp.is_absolutely_continuous(sigma, rho))
        mutual = decomp.is_mutually_ac(rho, sigma)
        for chk in (decomp.is_absolutely_continuous(rho, sigma), mutual.forward,
                    mutual.backward):
            chk.witness[...] = 7.0
        assert exact(decomp.is_absolutely_continuous(rho, sigma)) == forward
        assert exact(decomp.is_absolutely_continuous(sigma, rho)) == backward
        assert exact(decomp.is_mutually_ac(rho, sigma).forward) == forward

    def test_the_split_canonicalizes_its_own_copy(self, pair_memo):
        # a degenerate excision spectrum: the split reads the solver's basis
        # of the shared verdicts and leaves it as it is
        rho, sigma = np.eye(3) / 3, np.diag([1.0, 1.0, 2.0])
        cold = exact(decomp.lebesgue_decompose(sigma, rho))
        (entry,) = pair_memo.values()
        (eig, _) = entry.verdicts
        solver = exact(eig.eigenvectors)
        assert exact(decomp.lebesgue_decompose(sigma, rho)) == cold
        assert exact(eig.eigenvectors) == solver
        assert not any(a.flags.writeable for a in (entry.excision, *eig))

    def test_the_last_eight_pairs_are_kept(self, pair_memo, monkeypatch):
        ops = [(linalg.positive(np.diag([1.0, k])), linalg.positive(np.diag([k, 1.0])))
               for k in range(1, 10)]
        for r, s in ops[:8]:
            decomp.is_absolutely_continuous(r, s)
        decomp.qllr(ops[0][1], ops[0][0])
        # the ninth evicts the least recently used, ops[1]
        decomp.is_singular(*ops[8])
        kept = ops[2:8] + [ops[0], ops[8]]
        assert list(pair_memo) == [(id(r), id(s)) for r, s in kept]
        # each entry holds its operators, so their ids key no other pair
        assert all(e.r is r and e.s is s for e, (r, s) in zip(pair_memo.values(), kept))
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append(1) or real(*a))
        decomp.is_absolutely_continuous(*ops[0])
        assert calls == []
        decomp.is_absolutely_continuous(*ops[1])
        assert calls

    def test_a_part_that_fails_is_not_kept(self, pair_memo, monkeypatch):
        rho, sigma = raw_pair(3, 2, 3)
        want = exact(decomp.is_absolutely_continuous(rho, sigma))
        clear_memos()
        real = decomp._mean_with_inverse

        def fails_once(*args):
            monkeypatch.setattr(decomp, "_mean_with_inverse", real)
            raise NotPositiveError("injected")

        monkeypatch.setattr(decomp, "_mean_with_inverse", fails_once)
        with pytest.raises(NotPositiveError, match="^injected$"):
            decomp.is_absolutely_continuous(rho, sigma)
        (entry,) = pair_memo.values()
        assert "verdicts" in vars(entry) and "check" not in vars(entry)
        assert exact(decomp.is_absolutely_continuous(rho, sigma)) == want

    def test_each_thread_keeps_its_own_pairs(self, pair_memo):
        r, s = linalg.positive(np.eye(2)), linalg.positive(np.diag([1.0, 2.0]))
        mine = decomp._shared(r, s)
        theirs = []
        worker = threading.Thread(target=lambda: theirs.append(decomp._shared(r, s)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert theirs[0] is not mine
        assert decomp._shared(r, s) is mine and list(pair_memo) == [(id(r), id(s))]

    def test_threads_on_one_pair_get_the_serial_results(self):
        rho, sigma = raw_pair(5, 3, 4)
        want = [outcome(name, rho, sigma) for name in PIPELINE]
        got = []

        def work():
            got.append([[outcome(name, rho, sigma) for name in PIPELINE] for _ in range(3)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert got == [[want] * 3] * 4

    def test_qlan_reports_leave_the_pair_memo_empty(self, pair_memo):
        m = models.get_model("spin-perturbed:quartic")
        h, queries, ns = (0.3, 0.1), [np.array([[1.0, 0.0]])], (10, 100, 1000)
        qlan.lecam_report(m, None, h, queries, ns)
        qlan.sandwich_report(m, h, queries, ns)
        qlan.oh2_report(m, seed=0)
        qlan.infinitesimal_probe(qlan.iid_remainder_rule(m, h), m, queries, (0.5, 1.0), ns)
        assert pair_memo == {}
