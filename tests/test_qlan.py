"""Tests for the local-asymptotic-normality harness."""

import dataclasses
import gc
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

from qleb import cli, decomp, linalg, matio, models, qlan
from qleb.errors import (
    DerivativeLeavesSupportError,
    DerivativeUnstableError,
    DimensionMismatchError,
    DimensionTooLargeError,
    InvalidMatrixError,
    NotCenteredError,
    NotPositiveError,
    QueryOutOfSafeRangeError,
    SupportViolationError,
    ZeroOperatorError,
)

SX = models.SIGMA_X
SY = models.SIGMA_Y
SZ = models.SIGMA_Z

J_SPIN = np.array([[1.0, -1.0j], [1.0j, 1.0]])

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def spin_pure_state(theta):
    return models.spin_pure_model().state_at(theta)


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
        l_ops = qlan.sld_set(models.spin_pure_model()).l_ops
        np.testing.assert_allclose(l_ops[0], SX, atol=1e-9)
        np.testing.assert_allclose(l_ops[1], SY, atol=1e-9)

    def test_fullrank_model_direction(self):
        m = models.qubit_fullrank_model()
        np.testing.assert_allclose(qlan.sld_set(m).l_ops[0], SZ, atol=1e-9)

    def test_defining_equation(self):
        # drho = (rho L + L rho) / 2 against an analytic derivative
        m = models.qubit_fullrank_model()
        l = qlan.sld_set(m).l_ops[0]
        rho0 = m.state0()
        np.testing.assert_allclose((rho0 @ l + l @ rho0) / 2, SZ / 2, atol=1e-9)

    def test_rejects_derivative_leaving_support(self):
        m = toy_model(lambda t: (1 - t[0]) * np.diag([1.0, 0.0])
                      + t[0] * np.diag([0.0, 1.0]))
        with pytest.raises(DerivativeLeavesSupportError):
            qlan.sld_set(m)

    def test_rejects_non_hermitian_derivative(self):
        nudge = np.array([[0.0, 1.0], [0.0, 0.0]])
        m = toy_model(lambda t: np.eye(2) / 2 + t[0] * nudge)
        with pytest.raises(DerivativeUnstableError):
            qlan.sld_set(m)

    def test_rejects_trace_breaking_derivative(self):
        m = toy_model(lambda t: (1.0 + t[0]) * np.eye(2) / 2)
        with pytest.raises(DerivativeUnstableError):
            qlan.sld_set(m)


class TestSldSet:
    def test_fisher_j_of_pure_model(self):
        j = qlan.sld_set(models.spin_pure_model()).j_matrix
        np.testing.assert_allclose(j, J_SPIN, atol=1e-10)

    def test_fisher_j_of_fullrank_model(self):
        j = qlan.sld_set(models.qubit_fullrank_model()).j_matrix
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
            q = rng.standard_normal((2, 1))
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

        for name in ("_exp_anti_hermitian", "_exp_hermitian", "expm"):
            monkeypatch.setattr(qlan, name, no_exponential)
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


def test_sandwich_qcf_rejects_a_non_positive_n():
    with pytest.raises(ValueError, match=r"^n must be a positive integer, got 0$"):
        qlan.sandwich_qcf(models.spin_perturbed_model(), (0.3, 0.1), E1, 0)


def test_a_shifted_state_of_another_shape_is_a_dimension_mismatch():
    def state(theta):
        # the base state is 2 x 2, every shifted one 3 x 3
        return np.eye(3) / 3 if np.any(theta) else np.eye(2) / 2

    with pytest.raises(DimensionMismatchError,
                       match=r"^operands must share a dimension, got 2 and 3$"):
        qlan.oh2_report(toy_model(state, theta_dim=2))


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


def unevaluated_model():
    def fail(*args):
        raise AssertionError("model evaluated before the arguments were checked")

    return qlan.ParametricModel("toy", 2, 2, np.zeros(2), fail)


def raised_first(monkeypatch, call):
    """Type and text of the error ``call`` raises before any exponential, chaining none."""
    def no_exponential(*args):
        raise AssertionError("exponential formed before the arguments were checked")

    for name in ("_exp_anti_hermitian", "_exp_hermitian", "expm"):
        monkeypatch.setattr(qlan, name, no_exponential)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as exc:
            call()
    assert exc.value.__context__ is None
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("n,shown", [(2.5, "2.5"), (np.float64(10.5), "10.5"), (True, "True"),
                                     ("3", "'3'"), (np.nan, "nan"), (0, "0")])
@pytest.mark.parametrize("entry", ["factorized", "brute", "sandwich_qcf", "qclt", "lecam",
                                   "sandwich_report", "probe"])
def test_n_is_read_as_a_positive_integer(monkeypatch, entry, n, shown):
    m = unevaluated_model()
    q = np.array([[1.0, 0.0]])

    def rule(n):
        raise AssertionError("remainder rule ran before n was checked")

    calls = {
        "factorized": lambda: qlan.collective_qcf_factorized(np.eye(2) / 2, [SX, SY], q, n),
        "brute": lambda: qlan.collective_qcf_brute(np.eye(2) / 2, [SX, SY], q, n),
        "sandwich_qcf": lambda: qlan.sandwich_qcf(m, (0.3, 0.1), q, n),
        "qclt": lambda: qlan.qclt_report(m, [q], (n, 100)),
        "lecam": lambda: qlan.lecam_report(m, None, (0.3, 0.1), [q], (n, 100)),
        "sandwich_report": lambda: qlan.sandwich_report(m, (0.3, 0.1), [q], (n, 100)),
        "probe": lambda: qlan.infinitesimal_probe(rule, m, [q], [0.5], (n, 100)),
    }
    assert raised_first(monkeypatch, calls[entry]) == (
        ValueError, f"n must be a positive integer, got {shown}")


@pytest.mark.parametrize("n,shown", [(0, "0"), (-4, "-4"), (2.5, "2.5"), (True, "True"),
                                     ("10", "'10'"), (np.nan, "nan")])
@pytest.mark.parametrize("entry", ["call", "grid"])
def test_remainder_rule_reads_n_as_a_positive_integer(monkeypatch, entry, n, shown):
    rule = qlan.iid_remainder_rule(models.spin_perturbed_model(), (0.3, 0.1))

    def unevaluated(*args):
        raise AssertionError("model evaluated before n was checked")

    monkeypatch.setattr(qlan, "_shifted_states", unevaluated)
    call = (lambda: rule(n)) if entry == "call" else (lambda: rule.grid([10, n, 100]))
    assert raised_first(monkeypatch, call) == (
        ValueError, f"n must be a positive integer, got {shown}")


def test_n_accepts_numpy_integers_and_integral_floats():
    rho = np.diag([0.7, 0.3])
    want = qlan.collective_qcf_factorized(rho, [SX], [0.3], 5)
    for n in (np.int64(5), np.uint8(5), 5.0, np.float64(5.0)):
        assert qlan.collective_qcf_factorized(rho, [SX], [0.3], n) == want
        assert qlan.collective_qcf_brute(rho, [SX], [0.3], n) == qlan.collective_qcf_brute(
            rho, [SX], [0.3], 5)
    m = models.spin_perturbed_model()
    want = qlan.qclt_report(m, [E1], (10, 100))
    assert qlan.qclt_report(m, [E1], np.array([10, 100])) == want
    assert qlan.qclt_report(m, [E1], (10.0, 100.0)) == want
    assert want.n_values == (10, 100) and all(type(n) is int for n in want.n_values)


@pytest.mark.parametrize("b_ops,expected", [
    ([np.eye(3)], (DimensionMismatchError,
                   "site observable 0 has shape (3, 3) but the site state has shape (2, 2)")),
    ([SX, np.eye(3)], (DimensionMismatchError,
                       "site observable 1 has shape (3, 3) but the site state has shape (2, 2)")),
    ([], (ValueError, "site_ops is empty; the QCF needs at least one site observable")),
])
def test_lecam_observables_are_checked_before_any_model_evaluation(monkeypatch, b_ops,
                                                                    expected):
    query = np.ones((1, max(len(b_ops), 1)))
    call = lambda: qlan.lecam_report(unevaluated_model(), b_ops, (0.3, 0.1), [query], (10, 100))
    assert raised_first(monkeypatch, call) == expected


@pytest.mark.parametrize("etas", [[np.nan, 0.5], [0.5, np.inf], [-np.inf]])
def test_non_finite_eta_rejected_before_any_model_evaluation(monkeypatch, etas):
    def rule(n):
        raise AssertionError("remainder rule ran before eta was checked")

    call = lambda: qlan.infinitesimal_probe(rule, unevaluated_model(), [E1[None]], etas,
                                            (10, 100))
    assert raised_first(monkeypatch, call) == (
        ValueError, f"eta grid has non-finite entries: {[float(e) for e in etas]}")


BAD_QUERIES = [
    (np.ones((1, 3)), (DimensionMismatchError, "query vectors have dimension 3, expected 2")),
    (np.zeros((0, 2)), (DimensionMismatchError,
                        "a query is a nonempty sequence of test vectors, got shape (0, 2)")),
    (np.array([[np.nan, 0.0]]), (ValueError, "query has non-finite entries")),
    (np.array([[1.0, 0.5j]]), (ValueError, "query has entries with a nonzero imaginary part; "
                                           "test vectors are real")),
]


@pytest.mark.parametrize("grid,expected", [
    *[([E1[None], q], want) for q, want in BAD_QUERIES],
    ([], (ValueError, "query grid is empty")),
])
@pytest.mark.parametrize("entry", ["qclt", "lecam", "lecam_b_ops", "sandwich_report", "probe"])
def test_query_grid_checked_before_any_model_evaluation(monkeypatch, entry, grid, expected):
    m = unevaluated_model()

    def rule(n):
        raise AssertionError("remainder rule ran before the query grid was checked")

    ns = (10, 100)
    calls = {
        "qclt": lambda: qlan.qclt_report(m, grid, ns),
        "lecam": lambda: qlan.lecam_report(m, None, (0.3, 0.1), grid, ns),
        "lecam_b_ops": lambda: qlan.lecam_report(m, [SX, SY], (0.3, 0.1), grid, ns),
        "sandwich_report": lambda: qlan.sandwich_report(m, (0.3, 0.1), grid, ns),
        "probe": lambda: qlan.infinitesimal_probe(rule, m, grid, [0.5], ns),
    }
    assert raised_first(monkeypatch, calls[entry]) == expected


@pytest.mark.parametrize("query,expected", BAD_QUERIES)
@pytest.mark.parametrize("qcf", [qlan.collective_qcf_factorized, qlan.collective_qcf_brute])
def test_site_query_checked_before_any_exponential(monkeypatch, qcf, query, expected):
    call = lambda: qcf(np.eye(2) / 2, [SX, SY], query, 2)
    assert raised_first(monkeypatch, call) == expected


@pytest.mark.parametrize("query,expected", BAD_QUERIES)
def test_sandwich_query_checked_before_any_model_evaluation(monkeypatch, query, expected):
    call = lambda: qlan.sandwich_qcf(unevaluated_model(), (0.3, 0.1), query, 10)
    assert raised_first(monkeypatch, call) == expected


@pytest.mark.parametrize("entry", ["sld_set", "qclt", "lecam", "sandwich_qcf", "sandwich_report",
                                   "oh2", "remainder", "probe"])
def test_cutoff_checked_before_any_model_evaluation(monkeypatch, entry):
    m = unevaluated_model()
    q = E1[None]
    cut = {"cutoff": 2.0}
    calls = {
        "sld_set": lambda: qlan.sld_set(m, **cut),
        "qclt": lambda: qlan.qclt_report(m, [q], (10, 100), **cut),
        "lecam": lambda: qlan.lecam_report(m, None, (0.3, 0.1), [q], (10, 100), **cut),
        "sandwich_qcf": lambda: qlan.sandwich_qcf(m, (0.3, 0.1), q, 10, **cut),
        "sandwich_report": lambda: qlan.sandwich_report(m, (0.3, 0.1), [q], (10, 100), **cut),
        "oh2": lambda: qlan.oh2_report(m, **cut),
        "remainder": lambda: qlan.iid_remainder_rule(m, (0.3, 0.1), **cut),
        "probe": lambda: qlan.infinitesimal_probe(lambda n: np.zeros((2, 2)), m, [q], [0.5],
                                                  (10, 100), **cut),
    }
    assert raised_first(monkeypatch, calls[entry]) == (
        ValueError, "rank cutoff must lie in (0, 1), got 2.0")


#: each public entry that reads the q-LAN base, as one call on a model
BASE_READERS = {
    "sld_set": lambda m, h, qs, ns: qlan.sld_set(m),
    "qclt": lambda m, h, qs, ns: qlan.qclt_report(m, qs, ns),
    "lecam": lambda m, h, qs, ns: qlan.lecam_report(m, None, h, qs, ns),
    "sandwich_qcf": lambda m, h, qs, ns: qlan.sandwich_qcf(m, h, qs[0], ns[1]),
    "sandwich_report": lambda m, h, qs, ns: qlan.sandwich_report(m, h, qs, ns),
    "oh2": lambda m, h, qs, ns: qlan.oh2_report(m, seed=3),
    "remainder": lambda m, h, qs, ns: [qlan.iid_remainder_rule(m, h)(n) for n in ns],
    "probe": lambda m, h, qs, ns: qlan.infinitesimal_probe(qlan.iid_remainder_rule(m, h), m, qs,
                                                           (0.5, 1.0), ns),
}


def result_bytes(value) -> bytes:
    if isinstance(value, qlan.SldSet):
        return b"".join(op.tobytes() for op in value.l_ops) + value.j_matrix.tobytes()
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, list):
        return b"".join(result_bytes(v) for v in value)
    if isinstance(value, complex):
        return repr(value).encode()
    return matio.dumps_json(value.to_json_dict()).encode()


class TestBase:
    """The per-thread q-LAN base: theta0 and the SLD set, built once per model object."""

    @pytest.fixture(autouse=True)
    def own_memo(self, monkeypatch):
        monkeypatch.setattr(qlan._bases, "entries", {})

    @staticmethod
    def counted(state_fn, calls):
        def state(theta):
            calls.append(1)
            return state_fn(theta)

        return state

    @pytest.mark.parametrize("family", ["spin-perturbed:quartic", "qubit-fullrank"])
    def test_warm_calls_equal_cold_ones(self, family):
        def args(m):
            ns = (10, 100, 1000)
            return cli._default_h(m.theta_dim), [q[None] for q in cli._default_queries(
                m.theta_dim)], ns

        # cold: each entry on a model object of its own
        cold = {}
        for name, call in BASE_READERS.items():
            m = models.get_model(family)
            cold[name] = result_bytes(call(m, *args(m)))
        m = models.get_model(family)
        for _ in range(2):
            warm = {name: result_bytes(call(m, *args(m))) for name, call in BASE_READERS.items()}
            assert warm == cold

    def test_degenerate_covariance_warns_on_every_call(self):
        m = toy_model(lambda t: np.eye(2, dtype=complex) / 2)
        calls = [(lambda: qlan.sld_set(m), __file__),
                 (lambda: qlan.sld_set(m), __file__),
                 (lambda: qlan.qclt_report(m, [np.array([[0.5]])], (10, 100)), __file__),
                 (lambda: qlan.sld_set(m).j_matrix, __file__),
                 (lambda: qlan.iid_remainder_rule(m, (0.3,)), __file__)]
        for call, blamed in calls:
            with pytest.warns(UserWarning, match="degenerate") as record:
                call()
            assert [w.filename for w in record] == [blamed]

    @pytest.mark.parametrize("entry", list(BASE_READERS))
    def test_a_zero_theta0_state_is_rejected_at_the_base(self, entry):
        calls = []
        m = toy_model(self.counted(lambda t: np.zeros((2, 2)), calls), theta_dim=2)
        for i in range(2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ZeroOperatorError) as exc:
                    BASE_READERS[entry](m, (0.3, 0.1), [E1[None]], (10, 100))
            assert str(exc.value) == "model 'toy' has a zero state at theta0"
            assert exc.value.__context__ is None
            # theta0 only, on every call: the failure is not kept
            assert len(calls) == i + 1

    def test_a_failing_sld_set_is_rebuilt_and_raised_on_every_call(self):
        def state(t):
            # leaves the support to first order inside the SLD stencil only
            s = t[0] if abs(t[0]) < 1e-3 else 0.0
            return np.diag([1.0 - s, s])

        calls = []
        m = toy_model(self.counted(state, calls))
        readers = [lambda: qlan.sld_set(m), lambda: qlan.sld_set(m).j_matrix,
                   lambda: qlan.qclt_report(m, [np.array([[0.5]])], (10, 100)),
                   lambda: qlan.iid_remainder_rule(m, (0.3,))]
        for i, call in enumerate(readers * 2):
            with pytest.raises(DerivativeLeavesSupportError,
                               match=r"^derivative weight 1\.000e\+00 outside the support"):
                call()
            # theta0 once, then the four stencil states on every call
            assert len(calls) == 1 + 4 * (i + 1)
        assert qlan.oh2_report(m).passed()

    def test_handed_out_arrays_are_the_callers_own(self):
        m = models.spin_perturbed_model("cubic")
        want = result_bytes(qlan.sld_set(m))
        report = result_bytes(qlan.qclt_report(m, [E1[None]], (10, 100)))
        s = qlan.sld_set(m)
        s.l_ops[0][...] = 7.0
        s.j_matrix[...] = 7.0
        assert result_bytes(qlan.sld_set(m)) == want
        assert result_bytes(qlan.qclt_report(m, [E1[None]], (10, 100))) == report

    def test_a_replaced_copy_is_another_model(self):
        calls = []
        m = toy_model(self.counted(spin_pure_state, calls), theta_dim=2)
        qlan.sld_set(m)
        assert len(calls) == 9
        qlan.sld_set(m)
        qlan.oh2_report(m)
        assert len(calls) == 9 + 32
        qlan.sld_set(dataclasses.replace(m))
        assert len(calls) == 9 + 32 + 9

    def test_the_last_eight_models_are_kept(self):
        calls = []
        family = [toy_model(self.counted(spin_pure_state, calls), theta_dim=2)
                  for _ in range(9)]
        for m in family[:8]:
            qlan.sld_set(m)
        # theta0 and the two directions' four stencil states each
        assert len(calls) == 8 * 9
        qlan.sld_set(family[0])
        assert len(calls) == 8 * 9
        # the ninth evicts the least recently used, family[1]
        qlan.sld_set(family[8])
        qlan.sld_set(family[1])
        assert len(calls) == 8 * 9 + 9 + 9

    def test_the_memo_holds_its_models(self):
        m = toy_model(spin_pure_state, theta_dim=2)
        ref = weakref.ref(m)
        qlan.oh2_report(m)
        del m
        gc.collect()
        # alive, so its id cannot key another model's base
        assert ref() is not None

    def test_each_thread_builds_its_own_base(self):
        m = models.spin_perturbed_model()
        mine = qlan._base(m, None)
        theirs = []
        worker = threading.Thread(target=lambda: theirs.append(qlan._base(m, None)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert theirs[0] is not mine and theirs[0].rho0 is not mine.rho0
        assert qlan._base(m, None) is mine

    def test_threads_sharing_a_model_get_the_serial_results(self):
        m = models.spin_perturbed_model()
        h, queries, ns = (0.3, 0.1), [E1[None], E2[None]], (10, 100, 1000)
        readers = ["sld_set", "qclt", "lecam", "oh2", "probe"]
        want = {name: result_bytes(BASE_READERS[name](m, h, queries, ns)) for name in readers}
        got = []

        def work():
            got.append([{name: result_bytes(BASE_READERS[name](m, h, queries, ns))
                         for name in readers} for _ in range(3)])

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


class TestGrid:
    """The local experiments a q-LAN base holds: states, parts and L_n of its recent grids."""

    H, QUERIES, NS = (0.3, 0.1), [E1[None], E2[None]], (10, 100, 1000)

    @pytest.fixture(autouse=True)
    def own_memo(self, monkeypatch):
        monkeypatch.setattr(qlan._bases, "entries", {})

    @pytest.fixture
    def counted(self, monkeypatch):
        """A spin-perturbed model recording each theta it evaluates, and the L_n builds."""
        quartic = models.spin_perturbed_model()
        evaluated, builds = [], []

        def state_at(theta):
            evaluated.append(np.asarray(theta, dtype=float).tobytes())
            return quartic.state_at(theta)

        real = decomp._qllr_stack

        def qllr_stack(parts):
            builds.append(1)
            return real(parts)

        monkeypatch.setattr(decomp, "_qllr_stack", qllr_stack)
        return dataclasses.replace(quartic, state_at=state_at), evaluated, builds

    def test_lecam_sandwich_and_the_probe_evaluate_the_local_shifts_once(self, counted):
        m, evaluated, builds = counted
        h = np.array(self.H)
        qlan.sld_set(m)
        evaluated.clear()
        qlan.lecam_report(m, None, h, self.QUERIES, self.NS)
        qlan.sandwich_report(m, h, self.QUERIES, self.NS)
        qlan.infinitesimal_probe(qlan.iid_remainder_rule(m, h), m, self.QUERIES, (0.5, 1.0),
                                 self.NS)
        # one state_at call per theta of the grid, all in the first report
        assert evaluated == [(m.theta0 + h / np.sqrt(n)).tobytes() for n in self.NS]
        assert len(builds) == 1

    def test_two_oh2_reports_evaluate_the_sphere_once(self, counted):
        m, evaluated, builds = counted
        first = qlan.oh2_report(m)
        # theta0, then one call per point of the sphere
        assert len(evaluated) == 1 + len(qlan.OH2_RADII) * qlan.OH2_DIRECTIONS
        evaluated.clear()
        assert qlan.oh2_report(m) == first
        assert (len(evaluated), len(builds)) == (0, 1)

    @staticmethod
    def banded(inside):
        """A pure spin model whose state is ``inside`` for 1e-3 < ||theta|| < 0.02.

        With h = (0.3, 0.1) the local shifts leave the band at n = 100 and
        enter it at n = 1000 and 10000.
        """
        def state(t):
            return inside if 1e-3 < np.linalg.norm(t) < 0.02 else spin_pure_state(t)

        return toy_model(state, theta_dim=2)

    def test_a_failing_grid_raises_the_same_error_on_every_call(self):
        m = self.banded(np.diag([0.0, 1.0]))
        ns = (100, 1000, 10000)
        calls = [lambda m: qlan.lecam_report(m, None, self.H, [E1[None]], ns),
                 lambda m: qlan.sandwich_report(m, self.H, [E1[None]], ns)]
        for call in calls:
            raised = []
            for model in (m, m, dataclasses.replace(m)):
                with pytest.raises(SupportViolationError) as exc:
                    call(model)
                raised.append((str(exc.value), exc.value.n))
            # the first n that fails, though n = 10000 fails too
            assert raised == [("shifted state at n = 1000 does not dominate the base state",
                               1000)] * 3
        # m keeps the whole grid and the replay's points n = 100 and 1000, but
        # an L_n only where every state dominates: at n = 100
        kept = qlan._base(m, None).grids.entries.values()
        assert ([(len(g.s.stack), "l_stack" in vars(g)) for g in kept]
                == [(3, False), (1, True), (1, False)])

    def test_a_grid_whose_states_fail_is_not_kept(self):
        m = self.banded(np.diag([1.5, -0.5]))
        raised = []
        for _ in range(2):
            with pytest.raises(NotPositiveError) as exc:
                qlan.lecam_report(m, None, self.H, [E1[None]], (100, 1000, 10000))
            raised.append(str(exc.value))
        assert raised[0] == raised[1]
        # only the replay's passing point n = 100 is kept
        kept = qlan._base(m, None).grids.entries.values()
        assert [len(g.s.stack) for g in kept] == [1]

    def test_handed_out_arrays_are_read_only_and_a_full_memo_evicts_the_oldest(self, counted):
        m, evaluated, _ = counted
        base = qlan._base(m, None)
        evaluated.clear()
        size = linalg._MEMO_SIZE
        thetas = [[np.array([0.01 * k, 0.02])] for k in range(1, size + 2)]
        first = base.grid(thetas[0])
        for array in (first.s.stack, first.l_stack):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        for t in thetas[1:size]:
            base.grid(t)
        assert base.grid(thetas[0]) is first
        # thetas[1] is now the least recently used
        base.grid(thetas[size])
        assert base.grid(thetas[0]) is first and len(evaluated) == size + 1
        base.grid(thetas[1])
        assert len(evaluated) == size + 2


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
                return spin_pure_state(t)
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
        rep = qlan.oh2_report(models.spin_pure_model())
        doc = rep.to_json_dict()
        assert set(doc) == {"radii", "g_values", "slope", "g_at_smallest_radius",
                            "slope_threshold", "verdict"}


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
