import numpy as np
import pytest

from qleb import gaussian
from qleb.errors import DimensionMismatchError, NotHermitianError, NotPositiveError

# standard single-mode limit: unit covariance with maximal commutator part
J_SPIN = np.array([[1.0, -1.0j], [1.0j, 1.0]])


def spin_spec(mean=(0.0, 0.0)):
    return gaussian.GaussianSpec(mean=np.asarray(mean, dtype=float), j_matrix=J_SPIN)


class TestGaussianSpec:
    def test_splits_j_into_real_and_skew_parts(self):
        spec = spin_spec()
        np.testing.assert_array_equal(spec.v_matrix, np.eye(2))
        np.testing.assert_array_equal(spec.s_matrix, [[0.0, -1.0], [1.0, 0.0]])
        assert spec.dim == 2

    def test_mean_is_frozen(self):
        spec = spin_spec((0.5, 0.1))
        with pytest.raises(ValueError):
            spec.mean[0] = 2.0

    def test_rejects_indefinite_j(self):
        with pytest.raises(NotPositiveError):
            gaussian.GaussianSpec(mean=np.zeros(2), j_matrix=np.diag([1.0, -1.0]))

    def test_rejects_mismatched_mean(self):
        with pytest.raises(DimensionMismatchError):
            gaussian.GaussianSpec(mean=np.zeros(3), j_matrix=J_SPIN)

    def test_rejects_skew_only_violations(self):
        # J must be Hermitian; a real antisymmetric matrix alone is not
        with pytest.raises(NotHermitianError):
            gaussian.GaussianSpec(mean=np.zeros(2),
                                  j_matrix=np.array([[0.0, 1.0], [-1.0, 0.0]]))


class TestCharFn:
    """The characteristic function: ``qcf`` at one real test vector."""

    def test_gaussian_formula(self):
        spec = spin_spec((0.3, -0.2))
        xi = np.array([1.0, 2.0])
        expected = np.exp(1j * (xi @ spec.mean) - 0.5 * (xi @ spec.v_matrix @ xi))
        assert gaussian.qcf(spec, xi[None]) == pytest.approx(expected, abs=1e-15)

    def test_zero_vector_gives_one(self):
        assert gaussian.qcf(spin_spec(), np.zeros(2)[None]) == pytest.approx(1.0)


class TestQcf:
    def test_two_factor_cross_term(self):
        # xi1 = e1, xi2 = e2 against J = [[1, -i], [i, 1]], zero mean:
        # per-factor quadratics give e^-1/2 each, the cross term is
        # -xi2 . J xi1 = -J_21 = -i, so the product is e^(-1 - i)
        spec = spin_spec()
        value = gaussian.qcf(spec, [[1.0, 0.0], [0.0, 1.0]])
        assert value == pytest.approx(np.exp(-1.0 - 1.0j), abs=1e-15)

    def test_order_matters_when_j_has_skew_part(self):
        spec = spin_spec()
        forward = gaussian.qcf(spec, [[1.0, 0.0], [0.0, 1.0]])
        backward = gaussian.qcf(spec, [[0.0, 1.0], [1.0, 0.0]])
        assert forward == pytest.approx(np.exp(-1.0 - 1.0j), abs=1e-15)
        assert backward == pytest.approx(np.exp(-1.0 + 1.0j), abs=1e-15)
        assert abs(forward - backward) > 0.5

    def test_order_irrelevant_for_real_j(self):
        spec = gaussian.GaussianSpec(mean=np.zeros(2), j_matrix=np.eye(2))
        rng = np.random.default_rng(1)
        q = rng.standard_normal((3, 2))
        assert gaussian.qcf(spec, q) == pytest.approx(
            gaussian.qcf(spec, q[::-1]), abs=1e-15)

    def test_concatenation_additivity_of_exponents(self):
        # a two-factor query with equal vectors collapses to one factor with
        # the summed vector; the skew cross term cancels against itself
        spec = spin_spec((0.2, 0.0))
        xi = np.array([0.4, 0.3])
        both = gaussian.qcf(spec, [xi, xi])
        merged = gaussian.qcf(spec, 2 * xi)
        # difference is the cross term xi^T J xi = xi^T V xi (real)
        expected = merged * np.exp(xi @ xi - xi @ (J_SPIN @ xi))
        assert both == pytest.approx(expected, abs=1e-14)

    def test_complex_test_vectors_rejected(self):
        with pytest.raises(ValueError, match="^query has entries with a nonzero imaginary part; "
                                             "test vectors are real$"):
            gaussian.qcf(spin_spec(), [[1.0, 0.0], [0.0, 1.0 - 0.25j]])
        # a zero imaginary part is a real query
        assert gaussian.qcf(spin_spec(), [[1.0 + 0j, 0.0]]) == gaussian.qcf(spin_spec(), [1.0, 0.0])

    def test_rejects_empty_query(self):
        with pytest.raises(DimensionMismatchError):
            gaussian.qcf(spin_spec(), np.zeros((0, 2)))

    def test_rejects_wrong_vector_dimension(self):
        with pytest.raises(DimensionMismatchError):
            gaussian.qcf(spin_spec(), [1.0, 0.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            gaussian.qcf(spin_spec(), [np.inf, 0.0])


class TestLecamLimitSpec:
    def test_mean_uses_real_part_of_tau(self):
        tau = np.array([[1.0, -1.0j], [1.0j, 1.0]])
        h = np.array([0.3, 0.1])
        spec = gaussian.lecam_limit_spec(np.eye(2), tau, h)
        np.testing.assert_allclose(spec.mean, [0.3, 0.1])
        np.testing.assert_array_equal(spec.j_matrix, np.eye(2))

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            gaussian.lecam_limit_spec(np.eye(2), np.eye(3), np.zeros(3))
