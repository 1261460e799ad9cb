"""Tests for the built-in state families and random pair generators."""

import json
import warnings

import numpy as np
import pytest

from qleb import decomp, linalg, models
from qleb.errors import (
    DimensionMismatchError,
    InvalidRanksError,
    NotUnitError,
    UnreachableOverlapError,
)


class TestSpinPure:
    def test_origin_is_ground_state(self):
        np.testing.assert_allclose(models.spin_pure_state((0.0, 0.0)),
                                   np.diag([1.0, 0.0]), atol=1e-15)

    @pytest.mark.parametrize("theta", [(0.3, 0.0), (0.0, -0.7), (1.2, 0.9),
                                       (4.0, 3.0), (-2.5, 1.5)])
    def test_unit_trace_and_rank_one(self, theta):
        rho = models.spin_pure_state(theta)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        w = np.linalg.eigvalsh(rho)
        assert w[0] == pytest.approx(0.0, abs=1e-12)
        assert w[1] == pytest.approx(1.0, abs=1e-12)

    def test_large_theta_does_not_overflow(self):
        rho = models.spin_pure_state((400.0, 300.0))
        assert np.all(np.isfinite(rho))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)

    def test_direction_symmetry(self):
        # rotating theta by phi in the plane conjugates the state by
        # exp(-i phi sz / 2); here phi = pi/4
        a = models.spin_pure_state((0.5, 0.0))
        u = linalg.expm(-0.125j * np.pi * models.SIGMA_Z)
        b = models.spin_pure_state((0.5 / np.sqrt(2), 0.5 / np.sqrt(2)))
        np.testing.assert_allclose(u @ a @ u.conj().T, b, atol=1e-12)

    def test_theta_must_be_a_2_vector(self):
        with pytest.raises(DimensionMismatchError):
            models.spin_pure_state((0.1,))


class TestSpinPerturbed:
    def test_origin_is_ground_state(self):
        np.testing.assert_allclose(models.spin_perturbed_state((0.0, 0.0)),
                                   np.diag([1.0, 0.0]), atol=1e-15)

    @pytest.mark.parametrize("rule,power", [("quartic", 4), ("cubic", 3),
                                            ("squared", 2)])
    def test_mixture_weight_follows_rule(self, rule, power):
        theta = np.array([0.3, 0.4])  # norm 1/2
        weight = np.exp(-0.5 ** power)
        rho = models.spin_perturbed_state(theta, rule)
        pure = models.spin_pure_state(theta)
        np.testing.assert_allclose(rho, weight * pure + (1 - weight) * np.diag([0, 1.0]),
                                   atol=1e-14)

    def test_callable_rule(self):
        rho = models.spin_perturbed_state((1.0, 0.0), lambda t: 0.0)
        np.testing.assert_allclose(rho, models.spin_pure_state((1.0, 0.0)), atol=1e-15)

    def test_unknown_rule_name(self):
        with pytest.raises(ValueError):
            models.spin_perturbed_model("quintic")

    def test_lebesgue_parts_have_closed_form(self):
        # along rho(0) = |0><0| the a.c. part is the reweighted pure state and
        # the singular part is the excited-state remainder, exactly
        theta = (0.3, 0.1)
        rho0 = models.spin_pure_state((0.0, 0.0))
        sigma = models.spin_perturbed_state(theta)
        dec = decomp.lebesgue_decompose(sigma, rho0)
        weight = np.exp(-np.linalg.norm(theta) ** 4)
        np.testing.assert_allclose(dec.sigma_ac.matrix,
                                   weight * models.spin_pure_state(theta), atol=1e-12)
        np.testing.assert_allclose(dec.sigma_sing.matrix,
                                   (1 - weight) * np.diag([0.0, 1.0]), atol=1e-12)

    def test_llr_shift_under_perturbation(self):
        # the pure family's log-likelihood ratio minus f(theta) I is a valid
        # version for the perturbed family: it satisfies the defining sandwich
        # relation, and version-independent functionals agree with the
        # kernel-identity version
        theta = (0.25, -0.15)
        f = float(np.linalg.norm(theta) ** 4)
        rho0 = models.spin_pure_state((0.0, 0.0))
        pure_l = decomp.qllr(models.spin_pure_state(theta), rho0).l_matrix
        pert_l = decomp.qllr(models.spin_perturbed_state(theta), rho0).l_matrix
        shifted = pure_l - f * np.eye(2)
        half = linalg.expm(shifted / 2)
        ac = decomp.lebesgue_decompose(models.spin_perturbed_state(theta),
                                       rho0).sigma_ac.matrix
        np.testing.assert_allclose(half @ rho0 @ half, ac, atol=1e-9)
        lhs = float(np.trace(rho0 @ linalg.expm(pert_l)).real)
        rhs = float(np.trace(rho0 @ linalg.expm(shifted)).real)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert lhs == pytest.approx(np.trace(ac).real, abs=1e-12)


class TestQubitFullrank:
    def test_state_and_derivative_direction(self):
        m = models.qubit_fullrank_model()
        np.testing.assert_allclose(m.state0(), np.eye(2) / 2, atol=1e-15)
        np.testing.assert_allclose(m.state_at([0.4]), [[0.7, 0], [0, 0.3]],
                                   atol=1e-15)

    def test_parameter_bound(self):
        m = models.qubit_fullrank_model()
        with pytest.raises(ValueError):
            m.state_at([1.0])


class TestModelRegistry:
    @pytest.mark.parametrize("name,dim,theta_dim", [
        ("spin-pure", 2, 2),
        ("spin-perturbed", 2, 2),
        ("spin-perturbed:cubic", 2, 2),
        ("qubit-fullrank", 2, 1),
    ])
    def test_known_names(self, name, dim, theta_dim):
        m = models.get_model(name)
        assert m.dim == dim and m.theta_dim == theta_dim

    def test_perturbed_alias_is_quartic(self):
        a = models.get_model("spin-perturbed")
        b = models.get_model("spin-perturbed:quartic")
        theta = (0.4, 0.2)
        np.testing.assert_array_equal(a.state_at(theta), b.state_at(theta))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            models.get_model("heisenberg-chain")

    def test_table_model_roundtrip(self, tmp_path):
        from qleb.matio import matrix_to_json_dict

        grid = [(0.0,), (0.5,)]
        states = [np.diag([1.0, 0.0]), np.diag([0.75, 0.25])]
        doc = {
            "name": "toy-table",
            "dim": 2,
            "theta_dim": 1,
            "theta0": [0.0],
            "states": [
                {"theta": list(t), "matrix": matrix_to_json_dict(s)}
                for t, s in zip(grid, states)
            ],
        }
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        m = models.get_model(f"table:{path}")
        assert m.name == "toy-table"
        np.testing.assert_array_equal(m.state_at([0.5]), states[1])
        with pytest.raises(KeyError):
            m.state_at([0.25])


class TestRandomPsdPair:
    def test_deterministic_in_the_seed(self):
        spec = models.RandomPsdPairSpec(dim=4, rank_rho=2, rank_sigma=3, seed=42)
        r1, s1 = models.random_psd_pair(spec)
        r2, s2 = models.random_psd_pair(spec)
        np.testing.assert_array_equal(r1.matrix, r2.matrix)
        np.testing.assert_array_equal(s1.matrix, s2.matrix)

    @pytest.mark.parametrize("mode", ["generic", "orthogonal", "near_singular",
                                      "near_deficient"])
    def test_ranks_are_as_requested(self, mode):
        spec = models.RandomPsdPairSpec(dim=5, rank_rho=2, rank_sigma=2,
                                        seed=7, mode=mode)
        rho, sigma = models.random_psd_pair(spec)
        assert rho.rank == 2 and sigma.rank == 2

    def test_orthogonal_mode_is_exactly_singular(self):
        spec = models.RandomPsdPairSpec(dim=6, rank_rho=2, rank_sigma=3,
                                        seed=3, mode="orthogonal")
        rho, sigma = models.random_psd_pair(spec)
        chk = decomp.is_singular(rho, sigma)
        assert chk.singular and chk.consistent

    def test_near_singular_mode_hits_the_overlap_window(self):
        for seed in range(5):
            spec = models.RandomPsdPairSpec(dim=5, rank_rho=2, rank_sigma=2,
                                            seed=seed, mode="near_singular")
            rho, sigma = models.random_psd_pair(spec)
            tr = float(np.trace(rho.matrix @ sigma.matrix).real)
            assert 0.8e-9 <= tr <= 1.25e-9

    def test_near_deficient_mode_keeps_a_tiny_eigenvalue(self):
        spec = models.RandomPsdPairSpec(dim=4, rank_rho=3, rank_sigma=3,
                                        seed=11, mode="near_deficient")
        rho, sigma = models.random_psd_pair(spec)
        assert rho.eigenvalues[2] == pytest.approx(1e-8, rel=1e-6)
        assert sigma.eigenvalues[2] == pytest.approx(1e-8, rel=1e-6)
        assert rho.rank == 3

    def test_rank_validation(self):
        with pytest.raises(InvalidRanksError):
            models.random_psd_pair(models.RandomPsdPairSpec(3, 0, 1, 0))
        with pytest.raises(InvalidRanksError):
            models.random_psd_pair(models.RandomPsdPairSpec(3, 1, 4, 0))
        with pytest.raises(InvalidRanksError):
            models.random_psd_pair(
                models.RandomPsdPairSpec(3, 2, 2, 0, mode="orthogonal"))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            models.random_psd_pair(
                models.RandomPsdPairSpec(3, 1, 1, 0, mode="twisted"))


class TestRotateToOverlap:
    @staticmethod
    def _count_rotations(monkeypatch):
        calls = []
        real = models.expm
        monkeypatch.setattr(models, "expm", lambda a: calls.append(1) or real(a))
        return calls

    @pytest.mark.parametrize("rho, sigma, gen, target", [
        # Tr rho e^{tG} sigma e^{-tG} = sin^2 t never exceeds 1
        (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
         np.array([[0.0, -1.0], [1.0, 0.0]]), 5.0),
        # the generator moves sigma only inside ker rho: the overlap stays 0
        (np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]),
         np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]), 1e-9),
    ])
    def test_unreachable_target_raises_typed_error(self, monkeypatch, rho, sigma,
                                                   gen, target):
        calls = self._count_rotations(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnreachableOverlapError, match="reaches overlap"):
                models._rotate_to_overlap(rho.astype(complex), sigma.astype(complex),
                                          gen.astype(complex), target)
        # the start, at most 8 square-root updates and the bounded doublings
        assert len(calls) <= 1 + 8 + models._MAX_DOUBLINGS

    def test_reachable_target_is_hit(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        sigma = np.diag([0.0, 1.0]).astype(complex)
        gen = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        rotated = models._rotate_to_overlap(rho, sigma, gen, 0.5)
        assert 0.4 <= float(np.trace(rho @ rotated).real) <= 0.625


class TestPurePair:
    def test_projectors(self):
        psi = np.array([1.0, 0.0])
        xi = np.array([1.0, 1.0]) / np.sqrt(2)
        rho, sigma = models.pure_pair(psi, xi)
        assert rho.rank == 1 and sigma.rank == 1
        np.testing.assert_allclose(sigma.matrix, np.full((2, 2), 0.5), atol=1e-15)

    def test_norm_validation(self):
        with pytest.raises(NotUnitError):
            models.pure_pair([1.0, 1.0], [1.0, 0.0])

    def test_dimension_validation(self):
        with pytest.raises(DimensionMismatchError):
            models.pure_pair([1.0, 0.0], [1.0, 0.0, 0.0])


def test_haar_unitary_is_unitary_and_deterministic():
    rng = np.random.default_rng(0)
    u = models.haar_unitary(5, rng)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-13)
    v = models.haar_unitary(5, np.random.default_rng(0))
    np.testing.assert_array_equal(u, v)
