"""Stacked spectral kernels against the point-by-point loops they replace.

The q-LAN reports evaluate their grids through kernels that take a leading
stack axis (the two exponentials of ``linalg``, ``decomp._qllr_stack``, the
QCF kernel ``qlan._factor_products`` and ``qlan._traced_powers``, the checks
of a q-LAN grid). Each test keeps the per-point loop over the public
single-matrix functions as the reference: values must be equal to the last
bit (``np.array_equal``), and a failing grid must raise the error, type and
text, that the loop meets first, with no other error chained to it.
"""

import gc
import warnings

import numpy as np
import pytest

from qleb import cli, decomp, linalg, matio, models, qlan
from qleb.errors import (
    DimensionMismatchError,
    InvalidMatrixError,
    QlebError,
    NotAbsolutelyContinuousError,
    NotPositiveError,
    QueryOutOfSafeRangeError,
    SupportViolationError,
)
from qleb.gaussian import as_query


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hermitian_with(rng, eigs):
    u = random_unitary(rng, len(eigs))
    return linalg.hermitian_part((u * np.asarray(eigs, float)) @ u.conj().T)


def spectra(rng, d):
    """Eigenvalue lists at dimension d: generic, repeated, and rank-deficient."""
    generic = rng.uniform(0.1, 1.0, d)
    repeated = np.repeat(rng.uniform(0.1, 1.0, (d + 1) // 2), 2)[:d]
    deficient = np.concatenate([rng.uniform(0.1, 1.0, d - d // 2), np.zeros(d // 2)])
    return generic, repeated, deficient


def first_error(calls):
    """Type and text of the first exception a loop over ``calls`` raises."""
    for call in calls:
        try:
            call()
        except Exception as exc:  # the loop is the reference, whatever it raises
            return type(exc), str(exc)
    return None


def raised(call):
    """Type and text of the error ``call`` raises, which must not chain another."""
    try:
        call()
    except Exception as exc:
        assert exc.__context__ is None, exc.__context__
        return type(exc), str(exc)
    return None


def stacked_qllr(states, r):
    def run(states):
        return decomp._qllr_stack(decomp._Parts(r, linalg._positive(np.array(states), r.cutoff)))

    return linalg._replay(run, states)


@pytest.mark.parametrize("d", range(2, 7))
def test_qllr_stack_is_the_per_point_qllr(d):
    rng = np.random.default_rng(40 + d)
    generic, repeated, deficient = spectra(rng, d)
    # full-rank states (repeated eigenvalues among them) dominate any reference
    states = [hermitian_with(rng, rng.uniform(0.1, 1.0, d)) for _ in range(6)]
    states += [hermitian_with(rng, repeated) for _ in range(3)]
    states += [np.eye(d, dtype=complex) / d]
    for eigs in (generic, repeated, deficient, np.eye(d)[0]):
        r = linalg.positive(hermitian_with(rng, eigs))
        l_stack = stacked_qllr(states, r)
        assert len(l_stack) == len(states)
        for state, l_matrix in zip(states, l_stack):
            assert np.array_equal(l_matrix, decomp.qllr(state, r).l_matrix)


@pytest.mark.parametrize("bad", [
    {3: "not_ac"},
    {3: "not_ac", 5: "indefinite"},
    {5: "not_ac", 3: "indefinite"},
    {0: "indefinite", 1: "not_ac"},
    {6: "not_ac"},
])
def test_qllr_stack_raises_the_first_failing_point(bad):
    rng = np.random.default_rng(7)
    d = 3
    r = linalg.positive(hermitian_with(rng, [0.5, 0.3, 0.0]))
    states = [hermitian_with(rng, rng.uniform(0.1, 1.0, d)) for _ in range(7)]
    for j, kind in bad.items():
        if kind == "not_ac":
            # supported on ker rho plus one direction of supp rho only
            k = r.kernel_basis()[:, 0]
            s = r.support_basis()[:, 0]
            states[j] = linalg.hermitian_part(np.outer(k, k.conj()) + 0.5 * np.outer(s, s.conj()))
        else:
            states[j] = hermitian_with(rng, [1.0, 0.5, -0.2])
    expected = first_error([lambda s=s: decomp.qllr(s, r) for s in states])
    assert expected is not None and expected[0] in (NotAbsolutelyContinuousError,
                                                    NotPositiveError)
    assert raised(lambda: stacked_qllr(states, r)) == expected


def test_failing_checks_leave_no_reference_cycles():
    # an error held in a local of a frame that raises it holds, through its
    # traceback, that frame; garbage for the cycle collector
    oh2_toy, radii, _ = oh2_model({9: "not_ac", 3: "raise"})
    # (call, the error it raises)
    failing = [(lambda: linalg._log_stack(linalg.positive(np.diag([1.0, 0.0]))), QlebError),
               (lambda: decomp.qllr(np.diag([1.0, 0.0]), np.eye(2) / 2), QlebError),
               (lambda: linalg.positive(-np.eye(2)), QlebError),
               (lambda: linalg.geometric_mean(np.diag([1.0, 0.0]), np.eye(2)), QlebError),
               # failing grids, replayed one point at a time; the toy model's
               # own error at point 3 is a plain ValueError
               (lambda: qlan.oh2_report(oh2_toy), ValueError),
               # a spin state at a 3-vector
               (lambda: models.spin_pure_model().state_at(np.zeros(3)), DimensionMismatchError)]
    gc.collect()
    gc.disable()
    try:
        for call, error in failing:
            with pytest.raises(error):
                call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_exp_kernels_are_the_per_slice_expm():
    rng = np.random.default_rng(5)
    for d in range(1, 7):
        herms = [hermitian_with(rng, eigs) for eigs in spectra(rng, d)]
        herms += [np.zeros((d, d), dtype=complex), 2.0 * np.eye(d, dtype=complex)]
        # each kernel takes a stack of its own kind; every slice is public expm's
        for kernel, stack in ((linalg._exp_hermitian, np.array(herms)),
                              (linalg._exp_anti_hermitian, 1j * np.array(herms))):
            out = kernel(stack)
            for m, e in zip(stack, out):
                assert np.array_equal(e, linalg.expm(m))
        # a zero slice, the factor of a zero query vector, has the same bits,
        # sign bits included, in both
        zero = np.zeros((1, d, d), dtype=complex)
        bits = [kernel(zero).view(np.uint64)
                for kernel in (linalg._exp_hermitian, linalg._exp_anti_hermitian)]
        assert np.array_equal(*bits)


def test_exp_kernels_report_each_overflow():
    herm = np.array([np.eye(2), np.diag([1e4, 0.0]), -np.eye(2), np.diag([1e4, 1.0])],
                    dtype=complex)
    # a finite anti-Hermitian slice overflows only on the way to its spectrum
    anti = np.array([1j * np.eye(2), np.diag([1e308j, -1e308j]), -1j * np.eye(2)])
    for kernel, stack, overflowed in ((linalg._exp_hermitian, herm, [1, 3]),
                                      (linalg._exp_anti_hermitian, anti, [1])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = kernel(stack)
        assert np.flatnonzero(~np.isfinite(out).all(axis=(-2, -1))).tolist() == overflowed
        for j, m in enumerate(stack):
            if j in overflowed:
                with pytest.raises(OverflowError, match=linalg._EXPM_OVERFLOW):
                    linalg.expm(m)
            else:
                assert np.array_equal(out[j], linalg.expm(m))


def site_power_loop(state, ops, query, n, extra=None, eta=None, guard=qlan.QCF_GUARD):
    """The per-query construction: a product of public ``expm`` factors."""
    prod = np.eye(state.shape[0], dtype=complex)
    for t in range(query.shape[0]):
        gen = qlan._combination(ops, query[t])
        if eta is not None:
            gen = gen + np.full(query.shape[0], eta)[t] * extra
        prod = prod @ linalg.expm(1j * (1.0 / np.sqrt(n)) * gen)
    z = complex(np.trace(state @ prod))
    if abs(z - 1.0) >= guard:
        raise QueryOutOfSafeRangeError(
            f"per-site trace {z:.6f} strays {abs(z - 1.0):.3f} from 1 "
            f"(guard {guard}); shrink ||xi|| / sqrt(n)"
        )
    return complex(np.exp(n * np.log(z)))


def site_powers(states, ops, queries, ns):
    """The QCF kernel as a q-LAN base runs it: the factor products, then the traces."""
    return qlan._traced_powers(states, qlan._factor_products(ops, queries, ns), len(queries), ns)


@pytest.mark.parametrize("d", range(2, 7))
def test_site_products_are_the_per_query_products(d):
    rng = np.random.default_rng(60 + d)
    generic, repeated, _ = spectra(rng, d)
    states = [hermitian_with(rng, generic / generic.sum()),
              hermitian_with(rng, repeated / repeated.sum())]
    ops = [hermitian_with(rng, rng.uniform(-1.0, 1.0, d)) for _ in range(2)]
    ops.append(hermitian_with(rng, repeated))
    ns = (400, 900, 1600)
    # a remainder per n, and per n the states in a different order
    extras = [hermitian_with(rng, rng.uniform(-1.0, 1.0, d)) for _ in ns]
    per_n = [states, states[::-1], states]
    queries = [rng.standard_normal((t, 3)) * 0.5 for t in (1, 3, 2, 1)]
    # a zero test vector among them
    queries.append(np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.1]]))
    queries = [as_query(q, 3) for q in queries]
    slices = [(q, eta) for q in queries for eta in (None, 0.5, -1.0)]
    # the remainder is one more site observable; its column holds eta, 0 for None
    grid = site_powers(per_n, [ops + [extra] for extra in extras],
                       [np.column_stack([q, np.full(len(q), eta or 0.0)]) for q, eta in slices],
                       ns)
    assert len(grid) == len(ns)
    for n, extra, traced, powers in zip(ns, extras, per_n, grid):
        for state, values in zip(traced, powers):
            for (q, eta), value in zip(slices, values):
                assert value == site_power_loop(state, ops, q, n, extra, eta)
                if eta is None:
                    assert value == qlan.collective_qcf_factorized(state, ops, q, n)


@pytest.mark.parametrize("order", ["overflow_first", "invalid_first"])
def test_site_products_fail_at_the_first_failing_factor(order):
    state = np.eye(2, dtype=complex) / 2
    ops = [np.diag([1.0, -1.0]).astype(complex), np.diag([1e300, -1e300]).astype(complex)]
    overflow = [0.0, 1e8]  # 1e8 * 1e300 is finite, twice that is not
    invalid = [0.0, 1e10]  # 1e10 * 1e300 is not finite
    failing = [overflow, invalid] if order == "overflow_first" else [invalid, overflow]
    queries = [as_query([[0.1, 0.0]], 2), as_query(failing, 2)]
    with np.errstate(over="ignore", invalid="ignore"):
        expected = first_error([lambda q=q: site_power_loop(state, ops, q, 1) for q in queries])
        got = raised(lambda: site_powers([[state]], [ops], queries, [1]))
    assert expected[0] is (OverflowError if order == "overflow_first" else InvalidMatrixError)
    assert got == expected


def _quartic():
    model = models.get_model("spin-perturbed:quartic")
    rho0 = linalg.positive(model.state0())
    return model, rho0, qlan.sld_set(model).l_ops


def test_qclt_report_raises_the_loops_guard_error():
    model, rho0, ops = _quartic()
    queries = [np.array([[0.3, 0.1]]), np.array([[40.0, -25.0]]), np.array([[0.2, 0.2]]),
               np.array([[-30.0, 60.0]])]
    ns = (10, 100, 1000)
    expected = first_error([lambda q=q, n=n: qlan.collective_qcf_factorized(rho0.matrix, ops, q, n)
                            for n in ns for q in queries])
    assert expected is not None and expected[0] is QueryOutOfSafeRangeError
    assert raised(lambda: qlan.qclt_report(model, queries, ns)) == expected


def test_sandwich_report_raises_the_loops_guard_error():
    model, _, ops = _quartic()
    h = np.array([0.5, -0.25])
    queries = [np.array([[0.3, 0.1]]), np.array([[60.0, 35.0]])]
    ns = (10, 100)
    t0 = np.asarray(model.theta0, float)
    calls = []
    for n in ns:
        rho_n = model.state_at(t0 + h / np.sqrt(n))
        for q in queries:
            calls.append(lambda q=q, n=n: qlan.sandwich_qcf(model, h, q, n))
            calls.append(lambda q=q, n=n, s=rho_n: qlan.collective_qcf_factorized(s, ops, q, n))
    expected = first_error(calls)
    assert expected is not None and expected[0] is QueryOutOfSafeRangeError
    assert raised(lambda: qlan.sandwich_report(model, h, queries, ns)) == expected


RHO0 = np.diag([0.7, 0.3]).astype(complex)


def oh2_model(bad: dict[int, str]):
    """Full-rank states near RHO0, except at the listed grid points."""
    radii = (0.2, 0.1, 0.05, 0.025)
    dirs = qlan._sphere_directions(2, 8, 0)
    points = [r * u for r in radii for u in dirs]

    def state_at(theta):
        for j, kind in bad.items():
            if np.array_equal(theta, points[j]):
                if kind == "not_ac":
                    return np.diag([1.0, 0.0])
                if kind == "indefinite":
                    return np.diag([1.2, -0.2])
                if kind == "not_hermitian":
                    return np.array([[0.7, 0.2], [0.0, 0.3]])
                raise ValueError(f"no state at point {j}")
        a, b = 0.1 * theta
        return RHO0 + np.array([[a, b - 0.5j * a], [b + 0.5j * a, -a]])

    model = qlan.ParametricModel("oh2-toy", 2, 2, np.zeros(2), state_at)
    return model, radii, points


def oh2_point(model, rho0, point):
    """One point of ``oh2_report`` over public calls: its state, domination, then ``qllr``."""
    state = model.state_at(point)
    if not decomp.is_absolutely_continuous(rho0.matrix, state):
        raise SupportViolationError(
            f"shifted state at theta = {point.tolist()} does not dominate the base state")
    return decomp.qllr(state, rho0)


@pytest.mark.parametrize("bad", [
    {13: "not_ac"},
    {20: "not_ac", 7: "indefinite"},
    {3: "not_ac", 9: "raise"},
    {9: "not_ac", 3: "raise"},
    {12: "not_hermitian", 30: "not_ac"},
    {31: "not_ac"},
    {0: "raise"},
])
def test_oh2_report_raises_the_first_failing_point(bad):
    model, radii, points = oh2_model(bad)
    rho0 = linalg.positive(model.state0())
    expected = first_error([lambda p=p: oh2_point(model, rho0, p) for p in points])
    assert expected is not None
    assert raised(lambda: qlan.oh2_report(model)) == expected


def test_oh2_report_of_a_good_custom_model_matches_the_loop():
    model, radii, points = oh2_model({})
    rho0 = linalg.positive(model.state0())
    rep = qlan.oh2_report(model)
    traces = [float(np.trace(rho0.matrix @ linalg.expm(decomp.qllr(model.state_at(p), rho0)
                                                         .l_matrix)).real) for p in points]
    for i, r in enumerate(radii):
        worst = -np.inf
        for tr in traces[8 * i:8 * (i + 1)]:
            worst = max(worst, (1.0 - tr) / (r * r))
        assert rep.g_values[i] == float(worst)


FAMILIES = ("spin-pure", "spin-perturbed:quartic", "spin-perturbed:cubic",
            "spin-perturbed:squared", "qubit-fullrank")
def custom_f(theta):
    return float(np.sum(theta ** 2)) / 3.0


SPIN = [models.get_model(name) for name in FAMILIES[:4]]
SPIN.append(models.spin_perturbed_model(custom_f))


@pytest.mark.parametrize("model", SPIN + [models.get_model(FAMILIES[4])], ids=lambda m: m.name)
@pytest.mark.parametrize("count", [0, 1, 9])
def test_model_states_are_the_per_point_states(model, count):
    rng = np.random.default_rng(count)
    thetas = list(rng.uniform(-0.9, 0.9, (count, model.theta_dim)))
    # the states a grid validates are each theta's state_at, hermitized
    rho0 = linalg.positive(model.state0())
    stack = qlan._shifted_states(model, thetas, rho0).stack
    assert stack.shape == (count, model.dim, model.dim)
    for theta, state in zip(thetas, stack, strict=True):
        assert np.array_equal(state, linalg.hermitize(model.state_at(theta)))


@pytest.mark.parametrize("model", SPIN, ids=lambda m: m.name)
@pytest.mark.parametrize("bad", [
    {4: "shape"},
    {4: "non-finite"},
    {2: "non-finite", 5: "shape"},
    {2: "shape", 5: "non-finite"},
    {0: "non-finite", 1: "shape"},
    {1: "far", 4: "shape"},
    {3: "far", 5: "non-finite"},
])
@pytest.mark.parametrize("numpy_warnings", ["ignored", "errors"])
def test_states_at_raises_the_loops_first_error(model, bad, numpy_warnings):
    # a loop over state_at stops at the first bad theta with that theta's own
    # error; a far theta before it gives a state, whether numpy warnings are
    # raised or ignored
    rng = np.random.default_rng(3)
    thetas = list(rng.uniform(-0.9, 0.9, (7, 2)))
    for j, kind in bad.items():
        # a 3-vector, a non-finite theta, or one whose norm 1e80 overflows
        # only its fourth or third power
        thetas[j] = {"shape": np.array([0.1, 0.2, 0.3]), "non-finite": np.array([np.inf, 0.1]),
                     "far": np.array([0.0, -1e80])}[kind]
    with warnings.catch_warnings():
        if numpy_warnings == "errors":
            warnings.simplefilter("error")
            ctx = np.errstate()
        else:
            ctx = np.errstate(all="ignore")
        with ctx:
            got = first_error([lambda t=t: model.state_at(t) for t in thetas])
    # raised or ignored, numpy warnings leave the error the same
    with np.errstate(all="ignore"):
        assert first_error([lambda t=t: model.state_at(t) for t in thetas]) == got
    first = min(j for j, kind in bad.items() if kind != "far")
    assert got == raised(lambda: model.state_at(thetas[first]))
    assert got[0] is (ValueError if bad[first] == "non-finite" else DimensionMismatchError)


@pytest.mark.parametrize("model", SPIN, ids=lambda m: m.name)
def test_a_theta_whose_norm_overflows_is_the_closed_form_state(model):
    # ||(1e200, 1e200)|| overflows to inf: tanh r theta / r = (1, 1) / sqrt 2, sech r = 0
    far = np.array([1e200, 1e200])
    with np.errstate(all="ignore"):
        rho = model.state_at(far)
    pure = (np.eye(2) + (models.SIGMA_X + models.SIGMA_Y) / np.sqrt(2.0)) / 2.0
    # e^{-f} is 0 there: the perturbed families give the excited state
    expected = pure if model.name == "spin-pure" else np.diag([0.0, 1.0])
    np.testing.assert_allclose(rho, expected, rtol=0, atol=np.finfo(float).eps)


@pytest.mark.parametrize("model", SPIN, ids=lambda m: m.name)
def test_a_far_theta_is_one_state_with_numpy_warnings_raised_or_ignored(model):
    thetas = [np.array([0.3, -0.2]), np.array([0.0, -1e80]), np.array([1e80, 0.0])]
    with np.errstate(all="ignore"):
        ignored = np.array([model.state_at(theta) for theta in thetas])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate():
            raised_ = np.array([model.state_at(theta) for theta in thetas])
    assert np.array_equal(raised_, ignored)
    if model.name != "spin-pure":
        # e^{-f} underflows to 0: the excited state
        assert np.array_equal(ignored[1:], np.array([np.diag([0.0, 1.0])] * 2))


def shifted_toy(bad_theta):
    """Full-rank states near RHO0; at ``bad_theta`` one that RHO0 is not AC to."""

    def state_at(theta):
        if np.array_equal(theta, bad_theta):
            return np.diag([1.0, 0.0])
        a, b = 0.1 * theta
        return RHO0 + np.array([[a, b - 0.5j * a], [b + 0.5j * a, -a]])

    return qlan.ParametricModel("shift-toy", 2, 2, np.zeros(2), state_at)


H = np.array([0.5, -0.25])
NS = (10, 100, 1000)
BENIGN = np.array([[0.3, 0.1]])
WILD = np.array([[60.0, 35.0]])  # trips the QCF guard at every n


def lecam_loop(model, queries):
    """The per-n loop of the Le Cam report, over public calls."""
    rho0 = linalg.positive(model.state0())
    ops = qlan.sld_set(model).l_ops
    calls = []
    for n in NS:
        theta = H / np.sqrt(n)

        def ac(theta=theta, n=n):
            if not decomp.is_absolutely_continuous(rho0.matrix, model.state_at(theta)):
                raise SupportViolationError(
                    f"shifted state at n = {n} does not dominate the base state",
                    n=n, theta=theta)

        calls.append(ac)
        calls += [lambda q=q, n=n, theta=theta:
                  qlan.collective_qcf_factorized(model.state_at(theta), ops, q, n)
                  for q in queries]
    return calls


def sandwich_loop(model, queries):
    """The per-n loop of the sandwich report, over public calls."""
    ops = qlan.sld_set(model).l_ops
    calls = []
    for n in NS:
        for q in queries:
            calls.append(lambda q=q, n=n: qlan.sandwich_qcf(model, H, q, n))
            calls.append(lambda q=q, n=n: qlan.collective_qcf_factorized(
                model.state_at(H / np.sqrt(n)), ops, q, n))
    return calls


@pytest.mark.parametrize("queries", [[BENIGN], [BENIGN, WILD]], ids=["ac", "guard"])
@pytest.mark.parametrize("report", ["lecam", "sandwich"])
def test_shifted_reports_raise_the_loops_first_error(report, queries):
    # rho0 << rho_n breaks at the middle n; with the wild query the first n
    # already trips the guard, and that error must win
    model = shifted_toy(H / np.sqrt(NS[1]))
    loop = lecam_loop if report == "lecam" else sandwich_loop
    expected = first_error(loop(model, queries))
    assert expected is not None
    assert expected[0] is (QueryOutOfSafeRangeError if len(queries) > 1
                           else SupportViolationError)
    if report == "lecam":
        call = lambda: qlan.lecam_report(model, None, H, queries, NS)
    else:
        call = lambda: qlan.sandwich_report(model, H, queries, NS)
    assert raised(call) == expected
    if expected[0] is SupportViolationError:
        with pytest.raises(SupportViolationError) as exc:
            call()
        assert exc.value.n == NS[1]
        assert np.array_equal(exc.value.theta, H / np.sqrt(NS[1]))



def probe_loop(model, rule, queries, etas):
    """The per-n loop of the infinitesimal probe, over public calls.

    Each eta slice is the QCF of the site observables with the remainder
    appended, queried at (xi, eta).
    """
    rho0 = linalg.positive(model.state0()).matrix
    ops = list(qlan.sld_set(model).l_ops)
    calls = []
    for n in NS:

        def remainder(n=n):
            extra = linalg.hermitize(rule(n))
            if extra.shape[0] != model.dim:
                raise DimensionMismatchError(
                    f"remainder at n = {n} has dimension {extra.shape[0]}, "
                    f"expected {model.dim}")
            return extra

        calls.append(remainder)
        for q in queries:
            calls.append(lambda q=q, n=n: qlan.collective_qcf_factorized(rho0, ops, q, n))
            calls += [lambda q=q, n=n, eta=eta: qlan.collective_qcf_factorized(
                rho0, ops + [remainder(n)], np.hstack([q, np.full((len(q), 1), eta)]), n)
                for eta in etas]
    return calls


def failing_rule(n_bad, kind):
    def rule(n):
        if n == n_bad:
            if kind == "raise":
                raise ValueError(f"no remainder at n = {n}")
            return np.zeros((3, 3))
        return 0.1 * np.diag([1.0, -1.0])

    return rule


@pytest.mark.parametrize("n_bad, kind, queries, error", [
    (NS[1], "raise", [BENIGN, WILD], QueryOutOfSafeRangeError),
    (NS[0], "raise", [BENIGN], ValueError),
    (NS[1], "shape", [BENIGN], DimensionMismatchError),
    (NS[1], "iid", [BENIGN], SupportViolationError),
    (NS[1], "iid", [BENIGN, WILD], QueryOutOfSafeRangeError),
], ids=["guard", "rule", "shape", "iid", "iid-guard"])
def test_probe_raises_the_loops_first_error(n_bad, kind, queries, error):
    if kind == "iid":
        # the shifted state at n_bad breaks domination, so the built-in
        # rule's grid raises there
        model = shifted_toy(H / np.sqrt(n_bad))
        rule = qlan.iid_remainder_rule(model, H)
    else:
        model = models.get_model("spin-perturbed:quartic")
        rule = failing_rule(n_bad, kind)
    etas = (0.5, -1.0)
    expected = first_error(probe_loop(model, rule, queries, etas))
    assert expected is not None and expected[0] is error
    assert raised(lambda: qlan.infinitesimal_probe(rule, model, queries, etas, NS)) == expected


@pytest.mark.parametrize("family", FAMILIES)
def test_remainder_grid_is_the_per_n_rule(family):
    model = models.get_model(family)
    h = cli._default_h(model.theta_dim)
    queries = [q[None] for q in cli._default_queries(model.theta_dim)]
    rule = qlan.iid_remainder_rule(model, h)
    ns = (10, 100, 1000, 10000)
    for got, n in zip(rule.grid(ns), ns, strict=True):
        assert np.array_equal(got, rule(n))
    stacked = qlan.infinitesimal_probe(rule, model, queries, (0.5, 1.0), ns)
    looped = qlan.infinitesimal_probe(lambda n: rule(n), model, queries, (0.5, 1.0), ns)
    assert matio.dumps_json(stacked.to_json_dict()) == matio.dumps_json(looped.to_json_dict())


@pytest.mark.parametrize("family", ["spin-perturbed:quartic", "spin-pure", "qubit-fullrank"])
def test_site_powers_are_the_scalar_powers_from_n_1_to_a_million(family):
    # z^n for traces spread over the guard's disc, n from 1 to 10^6, against
    # the scalar exp(n log z) of the per-query loop
    model = models.get_model(family)
    rho0 = linalg.positive(model.state0()).matrix
    ops = list(qlan.sld_set(model).l_ops)
    state = model.state_at(model.theta0 + 0.05)
    scale = qlan.QCF_GUARD / max(np.linalg.norm(op, 2) for op in ops)
    rng = np.random.default_rng(9)
    ns = (1, 7, 100, 10**4, 10**6)
    # every product stays inside the guard at n = 1: ||sum_t xi_t . A|| < guard
    queries = [as_query(rng.uniform(-1.0, 1.0, (t, len(ops))) * rng.uniform(0.05, 1.0)
                        * scale / (t * len(ops)), len(ops))
               for t in (1, 1, 2, 3, 1, 2, 1, 3, 1, 1, 2, 1)]
    grid = site_powers([[rho0, state]] * len(ns), [ops] * len(ns), queries, ns)
    for n, powers in zip(ns, grid):
        for traced, values in zip((rho0, state), powers):
            for q, value in zip(queries, values):
                assert value == site_power_loop(traced, ops, q, n)
