"""Tests for the local-asymptotic-normality harness."""

import warnings

import numpy as np
import pytest

from qleb import cli, matio, models, qlan
from qleb.errors import (
    DerivativeLeavesSupportError,
    DerivativeUnstableError,
    DimensionMismatchError,
    DimensionTooLargeError,
    InvalidMatrixError,
    NotCenteredError,
    QueryOutOfSafeRangeError,
    SupportViolationError,
)

SX = models.SIGMA_X
SY = models.SIGMA_Y
SZ = models.SIGMA_Z

J_SPIN = np.array([[1.0, -1.0j], [1.0j, 1.0]])

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def toy_model(state_fn, theta_dim=1, dim=2, theta0=None):
    return qlan.ParametricModel(
        name="toy",
        dim=dim,
        theta_dim=theta_dim,
        theta0=np.zeros(theta_dim) if theta0 is None else np.asarray(theta0, float),
        state_at=state_fn,
    )


class TestSld:
    def test_pure_model_directions(self):
        m = models.spin_pure_model()
        np.testing.assert_allclose(qlan.sld(m, 0), SX, atol=1e-9)
        np.testing.assert_allclose(qlan.sld(m, 1), SY, atol=1e-9)

    def test_fullrank_model_direction(self):
        m = models.qubit_fullrank_model()
        np.testing.assert_allclose(qlan.sld(m, 0), SZ, atol=1e-9)

    def test_defining_equation(self):
        # drho = (rho L + L rho) / 2 against an analytic derivative
        m = models.qubit_fullrank_model()
        l = qlan.sld(m, 0)
        rho0 = m.state0()
        np.testing.assert_allclose((rho0 @ l + l @ rho0) / 2, SZ / 2, atol=1e-9)

    def test_direction_out_of_range(self):
        with pytest.raises(DimensionMismatchError):
            qlan.sld(models.spin_pure_model(), 2)

    def test_rejects_derivative_leaving_support(self):
        m = toy_model(lambda t: (1 - t[0]) * np.diag([1.0, 0.0])
                      + t[0] * np.diag([0.0, 1.0]))
        with pytest.raises(DerivativeLeavesSupportError):
            qlan.sld(m, 0)

    def test_rejects_non_hermitian_derivative(self):
        nudge = np.array([[0.0, 1.0], [0.0, 0.0]])
        m = toy_model(lambda t: np.eye(2) / 2 + t[0] * nudge)
        with pytest.raises(DerivativeUnstableError):
            qlan.sld(m, 0)

    def test_rejects_trace_breaking_derivative(self):
        m = toy_model(lambda t: (1.0 + t[0]) * np.eye(2) / 2)
        with pytest.raises(DerivativeUnstableError):
            qlan.sld(m, 0)


class TestSldSet:
    def test_fisher_j_of_pure_model(self):
        j = qlan.fisher_j(models.spin_pure_model())
        np.testing.assert_allclose(j, J_SPIN, atol=1e-10)

    def test_fisher_j_of_fullrank_model(self):
        j = qlan.fisher_j(models.qubit_fullrank_model())
        np.testing.assert_allclose(j, [[1.0]], atol=1e-10)

    def test_pure_model_does_not_warn(self):
        # J itself is singular for the pure model, but the covariance Re J
        # is the identity, so the limit law is not degenerate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = qlan.sld_set(models.spin_pure_model())
        assert abs(np.linalg.eigvalsh(s.j_matrix)[0]) < 1e-9

    def test_degenerate_covariance_warns(self):
        m = toy_model(lambda t: np.eye(2, dtype=complex) / 2)
        with pytest.warns(UserWarning, match="degenerate"):
            qlan.sld_set(m)


class TestCollectiveQcf:
    def test_closed_form_single_direction(self):
        # rho = |0><0|, A = sx: per-site trace is cos(s / sqrt(n))
        rho = np.diag([1.0, 0.0])
        for n in (10, 1000):
            for s in (0.4, 1.1):
                got = qlan.collective_qcf_factorized(rho, [SX], [s], n)
                assert got == pytest.approx(np.cos(s / np.sqrt(n)) ** n, abs=1e-10)

    def test_brute_agrees_on_single_site(self):
        rho = np.diag([0.7, 0.3])
        a = qlan.collective_qcf_factorized(rho, [SX, SY], [[0.3, 0.2]], 1)
        b = qlan.collective_qcf_brute(rho, [SX, SY], [[0.3, 0.2]], 1)
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_factorization_against_tensor_oracle(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            op = (z + z.conj().T) / 2
            op = op / np.linalg.norm(op, 2)
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            q = rng.standard_normal((2, 1)) + 1j * 0.3 * rng.standard_normal((2, 1))
            a = qlan.collective_qcf_factorized(rho, [op], q, n, guard=8.0)
            b = qlan.collective_qcf_brute(rho, [op], q, n)
            assert a == pytest.approx(b, abs=1e-11)

    def test_guard_rejects_wild_queries(self):
        rho = np.diag([1.0, 0.0])
        with pytest.raises(QueryOutOfSafeRangeError):
            qlan.collective_qcf_factorized(rho, [SX], [2.0], 1)
        # the same query is fine with the guard widened
        value = qlan.collective_qcf_factorized(rho, [SX], [2.0], 1, guard=8.0)
        assert value == pytest.approx(np.cos(2.0), abs=1e-12)

    @pytest.mark.parametrize("oracle", ["factorized", "brute"])
    def test_overflowing_generator_raises_the_typed_error(self, oracle):
        # xi . A = 1e10 * 1e300 leaves the float range; that must surface as
        # the typed error even where numpy's warnings are errors
        call = getattr(qlan, f"collective_qcf_{oracle}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidMatrixError, match="non-finite"):
                call(np.eye(2) / 2, [np.diag([1e300, -1e300])], [[1e10]], 1)

    def test_brute_cap(self):
        # the size is written as d^n, never formed: 2^(10^5) alone has more
        # digits than int-to-str conversion allows
        for d, n in [(2, 13), (2, 10 ** 5), (2, 10 ** 9), (3, 8)]:
            rho = np.eye(d) / d
            op = np.diag([1.0, -1.0] + [0.0] * (d - 2))
            with pytest.raises(DimensionTooLargeError, match=rf"would be {d}\^{n}-dimensional"):
                qlan.collective_qcf_brute(rho, [op], [0.1], n)

    def test_positive_n_required(self):
        rho = np.eye(2) / 2
        with pytest.raises(ValueError):
            qlan.collective_qcf_factorized(rho, [SX], [0.1], 0)
        with pytest.raises(ValueError):
            qlan.collective_qcf_brute(rho, [SX], [0.1], 0)

    @pytest.mark.parametrize("qcf", [qlan.collective_qcf_factorized, qlan.collective_qcf_brute])
    @pytest.mark.parametrize("ops,query,expected", [
        ([], [[0.1]], (ValueError,
                       "site_ops is empty; the QCF needs at least one site observable")),
        ([], np.zeros((1, 0)), (ValueError,
                                "site_ops is empty; the QCF needs at least one site observable")),
        ([np.eye(3)], [[0.1]], (DimensionMismatchError, "site observable 0 has shape (3, 3) "
                                "but the site state has shape (2, 2)")),
        ([SX, np.eye(3)], [[0.1, 0.2]], (DimensionMismatchError, "site observable 1 has shape "
                                         "(3, 3) but the site state has shape (2, 2)")),
    ])
    def test_site_operators_are_checked_at_the_boundary(self, monkeypatch, qcf, ops, query,
                                                        expected):
        def no_exponential(*args):
            raise AssertionError("exponential formed before the operands were checked")

        monkeypatch.setattr(qlan, "_expm_stack", no_exponential)
        monkeypatch.setattr(qlan, "expm", no_exponential)
        with pytest.raises(expected[0]) as exc:
            qcf(np.eye(2) / 2, ops, query, 2)
        assert (type(exc.value), str(exc.value)) == expected
        assert exc.value.__context__ is None


@pytest.mark.parametrize("n_grid", [(-2, -1), (0, 100)])
@pytest.mark.parametrize("report", ["qclt", "lecam", "sandwich", "probe"])
def test_non_positive_n_grid_rejected(report, n_grid):
    m = models.spin_perturbed_model()
    calls = {
        "qclt": lambda: qlan.qclt_report(m, [E1], n_grid),
        "lecam": lambda: qlan.lecam_report(m, None, (0.3, 0.1), [E1], n_grid),
        "sandwich": lambda: qlan.sandwich_report(m, (0.3, 0.1), [E1], n_grid),
        "probe": lambda: qlan.infinitesimal_probe(lambda n: np.zeros((2, 2)), m, [E1],
                                                  [0.5], n_grid),
    }
    with pytest.raises(ValueError, match=rf"^n must be a positive integer, got {n_grid[0]}$"):
        calls[report]()


@pytest.mark.parametrize("entry", ["lecam", "sandwich_report", "sandwich_qcf", "remainder"])
@pytest.mark.parametrize("h", [(np.nan, 0.0), (0.3, np.inf)])
def test_non_finite_h_rejected_before_any_model_evaluation(entry, h):
    def state(theta):
        raise AssertionError("model evaluated before h was checked")

    m = qlan.ParametricModel("toy", 2, 2, np.zeros(2), state)
    queries = [np.array([[1.0, 0.0]])]
    calls = {
        "lecam": lambda: qlan.lecam_report(m, None, h, queries, (10, 100)),
        "sandwich_report": lambda: qlan.sandwich_report(m, h, queries, (10, 100)),
        "sandwich_qcf": lambda: qlan.sandwich_qcf(m, h, queries[0], 10),
        "remainder": lambda: qlan.iid_remainder_rule(m, h)(4),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            calls[entry]()
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"h has non-finite entries: {list(h)}"
    assert exc.value.__context__ is None


class TestQcltReport:
    def test_pure_model_converges_at_rate_one(self):
        rep = qlan.qclt_report(models.spin_pure_model(), [E1], (100, 1000, 10000))
        assert rep.passed() and rep.monotone
        assert rep.fitted_rate == pytest.approx(-1.0, abs=0.05)
        assert rep.study == "qclt"

    def test_zero_query_is_a_trivial_pass(self):
        rep = qlan.qclt_report(models.spin_pure_model(), [np.zeros(2)], (100, 1000))
        assert rep.passed() and rep.fitted_rate is None
        assert rep.errors == (0.0, 0.0)

    def test_json_shape(self):
        rep = qlan.qclt_report(models.spin_pure_model(), [E1], (100, 1000))
        doc = rep.to_json_dict()
        assert set(doc) == {"n", "errors", "fitted_rate", "verdict", "study",
                            "rate_threshold", "monotone"}
        assert doc["n"] == [100, 1000]

    def test_n_grid_validation(self):
        m = models.spin_pure_model()
        with pytest.raises(ValueError):
            qlan.qclt_report(m, [E1], (100,))
        with pytest.raises(ValueError):
            qlan.qclt_report(m, [E1], (1000, 100))

    def test_empty_query_grid(self):
        with pytest.raises(ValueError):
            qlan.qclt_report(models.spin_pure_model(), [], (100, 1000))


class TestLecamReport:
    def test_perturbed_model_converges(self):
        m = models.spin_perturbed_model()
        slds = qlan.sld_set(m)
        rep = qlan.lecam_report(m, slds.l_ops, (0.3, 0.1), [E1, E2],
                                (100, 400, 1600))
        assert rep.passed() and rep.monotone
        assert rep.study == "lecam"

    @pytest.mark.parametrize("family", ["spin-pure", "spin-perturbed:quartic",
                                        "spin-perturbed:squared", "qubit-fullrank"])
    def test_default_observables_are_the_slds(self, family):
        m = models.get_model(family)
        queries = [q[None, :] for q in cli._default_queries(m.theta_dim)]
        args = (cli._default_h(m.theta_dim), queries, (100, 1000, 10000))
        explicit = qlan.lecam_report(m, qlan.sld_set(m).l_ops, *args)
        default = qlan.lecam_report(m, None, *args)
        assert (matio.dumps_json(default.to_json_dict())
                == matio.dumps_json(explicit.to_json_dict()))

    def test_centering_is_enforced(self):
        m = models.spin_pure_model()
        with pytest.raises(NotCenteredError):
            qlan.lecam_report(m, [SZ], (0.3, 0.1), [np.array([1.0])], (100, 1000))

    def test_h_dimension_checked(self):
        m = models.spin_pure_model()
        slds = qlan.sld_set(m)
        with pytest.raises(DimensionMismatchError):
            qlan.lecam_report(m, slds.l_ops, (0.3,), [E1], (100, 1000))

    def test_support_violation_reports_first_bad_n(self):
        # smooth at theta0 but jumps to the orthogonal state at finite shifts
        def state(t):
            if np.linalg.norm(t) < 1e-3:
                return models.spin_pure_state(t)
            return np.diag([0.0, 1.0])

        m = toy_model(state, theta_dim=2)
        with pytest.raises(SupportViolationError) as exc:
            qlan.lecam_report(m, [SX, SY], (0.3, 0.1), [E1], (100, 1000))
        assert exc.value.n == 100
        np.testing.assert_allclose(exc.value.theta, np.array([0.3, 0.1]) / 10.0)


class TestSandwich:
    def test_pure_family_sandwich_is_exact(self):
        # the a.c. part of a shifted pure state along the base pure state is
        # the shifted state itself, so the gap is pure rounding
        rep = qlan.sandwich_report(models.spin_pure_model(), (0.3, 0.1),
                                   [E1], (10, 100))
        assert rep.passed() and rep.fitted_rate is None

    def test_perturbed_family_gap_decays(self):
        rep = qlan.sandwich_report(models.spin_perturbed_model(), (0.3, 0.1),
                                   [E1], (10, 100, 1000))
        assert rep.passed() and rep.monotone
        assert rep.fitted_rate == pytest.approx(-1.0, abs=0.1)
        assert rep.study == "sandwich"

    def test_single_value_matches_direct_computation(self):
        m = models.spin_perturbed_model()
        n = 50
        h = np.array([0.3, 0.1])
        got = qlan.sandwich_qcf(m, h, E1, n)
        # reproduce by hand through the a.c. part of the shifted state
        from qleb import decomp, linalg

        rho0 = m.state0()
        rho_n = m.state_at(h / np.sqrt(n))
        ac = decomp.lebesgue_decompose(rho_n, rho0).sigma_ac.matrix
        slds = qlan.sld_set(m)
        want = qlan.collective_qcf_factorized(ac, slds.l_ops, E1, n)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("family", ["quartic", "cubic", "squared"])
    def test_report_equals_public_qcf_gaps(self, family):
        # each error is the max over queries of |sandwich_qcf - true QCF|,
        # both computed through the public, self-validating functions
        m = models.spin_perturbed_model(family)
        h = np.array([0.3, 0.1])
        queries = [E1, E2, -E1, -E2, np.full(2, 0.5)]
        ns = (100, 1000, 10000)
        rep = qlan.sandwich_report(m, h, [q[None, :] for q in queries], ns)
        ops = qlan.sld_set(m).l_ops
        for n, err in zip(ns, rep.errors):
            rho_n = m.state_at(h / np.sqrt(n))
            want = max(
                abs(qlan.sandwich_qcf(m, h, q, n)
                    - qlan.collective_qcf_factorized(rho_n, ops, q, n))
                for q in queries
            )
            assert err == want


class TestOh2Report:
    def test_quartic_family_passes_with_slope_two(self):
        rep = qlan.oh2_report(models.spin_perturbed_model("quartic"))
        assert rep.passed()
        assert rep.slope == pytest.approx(2.0, abs=0.2)

    def test_squared_family_fails_with_unit_plateau(self):
        rep = qlan.oh2_report(models.spin_perturbed_model("squared"))
        assert not rep.passed()
        assert rep.g_at_smallest_radius == pytest.approx(1.0, abs=0.05)

    def test_pure_family_is_a_trivial_pass(self):
        rep = qlan.oh2_report(models.spin_pure_model())
        assert rep.passed() and rep.slope is None
        assert max(abs(g) for g in rep.g_values) <= 1e-10

    def test_json_shape(self):
        rep = qlan.oh2_report(models.spin_pure_model(), radii=(0.2, 0.1))
        doc = rep.to_json_dict()
        assert set(doc) == {"radii", "g_values", "slope", "g_at_smallest_radius",
                            "slope_threshold", "verdict"}

    def test_radii_validation(self):
        with pytest.raises(ValueError):
            qlan.oh2_report(models.spin_pure_model(), radii=(0.1,))


class TestInfinitesimalProbe:
    def test_zero_remainder_has_zero_excess(self):
        rep = qlan.infinitesimal_probe(lambda n: np.zeros((2, 2)),
                                       models.spin_pure_model(), [E1],
                                       [0.5, 1.0], (100, 1000))
        assert rep.passed()
        assert rep.excess == (0.0, 0.0)
        assert rep.deviation[1] < rep.deviation[0]

    def test_iid_remainder_is_negligible(self):
        m = models.spin_perturbed_model()
        rule = qlan.iid_remainder_rule(m, (0.3, 0.1))
        rep = qlan.infinitesimal_probe(rule, m, [E1], [0.5, 1.0], (100, 1000))
        assert rep.passed()
        assert rep.excess[1] < rep.excess[0]

    def test_iid_remainder_shrinks(self):
        rule = qlan.iid_remainder_rule(models.spin_perturbed_model(), (0.3, 0.1))
        norms = [np.linalg.norm(rule(n), 2) for n in (100, 10000)]
        assert norms[1] < 0.2 * norms[0]

    def test_iid_remainder_h_dimension_checked(self):
        with pytest.raises(DimensionMismatchError, match="h has dimension 1, expected 2"):
            qlan.iid_remainder_rule(models.spin_perturbed_model(), (0.3,))

    def test_eta_grid_validation(self):
        with pytest.raises(ValueError):
            qlan.infinitesimal_probe(lambda n: np.zeros((2, 2)),
                                     models.spin_pure_model(), [E1], [],
                                     (100, 1000))

    def test_remainder_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            qlan.infinitesimal_probe(lambda n: np.zeros((3, 3)),
                                     models.spin_pure_model(), [E1], [0.5],
                                     (100, 1000))

    def test_json_shape(self):
        rep = qlan.infinitesimal_probe(lambda n: np.zeros((2, 2)),
                                       models.spin_pure_model(), [E1], [0.5],
                                       (100, 1000))
        doc = rep.to_json_dict()
        assert set(doc) == {"n", "deviation", "excess", "ceiling", "verdict"}
