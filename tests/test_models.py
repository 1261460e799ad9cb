"""Tests for the built-in state families and random pair generators."""

import json
import re
import warnings

import numpy as np
import pytest

from qleb import cli, decomp, linalg, models, qlan
from qleb.errors import (
    DimensionMismatchError,
    InvalidMatrixError,
    InvalidRanksError,
    UnreachableOverlapError,
)


def spin_pure_state(theta):
    """The pure family at one theta, through its model's single-point ``state_at``."""
    return models.spin_pure_model().state_at(theta)


def spin_perturbed_state(theta, f_rule="quartic"):
    """The perturbed family at one theta, through its model's single-point ``state_at``."""
    return models.spin_perturbed_model(f_rule).state_at(theta)


class TestSpinPure:
    def test_origin_is_ground_state(self):
        np.testing.assert_allclose(spin_pure_state((0.0, 0.0)),
                                   np.diag([1.0, 0.0]), atol=1e-15)

    @pytest.mark.parametrize("theta", [(0.3, 0.0), (0.0, -0.7), (1.2, 0.9),
                                       (4.0, 3.0), (-2.5, 1.5)])
    def test_unit_trace_and_rank_one(self, theta):
        rho = spin_pure_state(theta)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        w = np.linalg.eigvalsh(rho)
        assert w[0] == pytest.approx(0.0, abs=1e-12)
        assert w[1] == pytest.approx(1.0, abs=1e-12)

    def test_large_theta_does_not_overflow(self):
        rho = spin_pure_state((400.0, 300.0))
        assert np.all(np.isfinite(rho))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("r,bound", [
        (1.0, 1e-13),
        (10.0, 1e-13),
        # e^{(theta.sigma - psi I)/2} lost the trace here: 1.9e-9 off at
        # r = 1e8 and 0.5 from r = 1e16 on, and r = 1e40 overflowed
        *((r, 1e-12) for r in (1e8, 1e16, 1e40, 1e80)),
        # ||theta|| overflows the float range, and the direction does not
        *(pytest.param(theta, 1e-12, id=f"{theta}-1e-12")
          for theta in ((1e200, 1e200), (1.5e308, -1.5e308))),
    ])
    def test_unit_trace_and_psd_along_a_ray(self, r, bound):
        theta = r * np.array([0.6, -0.8]) if np.isscalar(r) else np.array(r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = spin_pure_state(theta)
        assert abs(np.trace(rho).real - 1.0) <= bound
        assert np.linalg.eigvalsh(rho)[0] >= -bound
        # the Bloch vector's first two entries, tanh r theta / r
        direction = theta / np.abs(theta).max()
        with np.errstate(over="ignore"):
            direction *= np.tanh(np.hypot(*theta)) / np.linalg.norm(direction)
        np.testing.assert_allclose([2 * rho[1, 0].real, 2 * rho[1, 0].imag], direction,
                                   rtol=0, atol=bound)

    def test_direction_symmetry(self):
        # rotating theta by phi in the plane conjugates the state by
        # exp(-i phi sz / 2); here phi = pi/4
        a = spin_pure_state((0.5, 0.0))
        u = linalg.expm(-0.125j * np.pi * models.SIGMA_Z)
        b = spin_pure_state((0.5 / np.sqrt(2), 0.5 / np.sqrt(2)))
        np.testing.assert_allclose(u @ a @ u.conj().T, b, atol=1e-12)

    @pytest.mark.parametrize("family", [spin_pure_state, spin_perturbed_state])
    @pytest.mark.parametrize("theta", [(np.nan, 0.0), (0.0, np.inf), (-np.inf, np.nan)])
    def test_theta_must_be_finite(self, family, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                family(theta)
        assert str(info.value) == f"theta has non-finite entries: {list(theta)}"
        assert info.value.__context__ is None

    def test_theta_must_be_a_2_vector(self):
        with pytest.raises(DimensionMismatchError):
            spin_pure_state((0.1,))


class TestSpinPerturbed:
    def test_origin_is_ground_state(self):
        np.testing.assert_allclose(spin_perturbed_state((0.0, 0.0)),
                                   np.diag([1.0, 0.0]), atol=1e-15)

    @pytest.mark.parametrize("rule,power", [("quartic", 4), ("cubic", 3),
                                            ("squared", 2)])
    def test_mixture_weight_follows_rule(self, rule, power):
        theta = np.array([0.3, 0.4])  # norm 1/2
        weight = np.exp(-0.5 ** power)
        rho = spin_perturbed_state(theta, rule)
        pure = spin_pure_state(theta)
        np.testing.assert_allclose(rho, weight * pure + (1 - weight) * np.diag([0, 1.0]),
                                   atol=1e-14)

    def test_callable_rule(self):
        rho = spin_perturbed_state((1.0, 0.0), lambda t: 0.0)
        np.testing.assert_allclose(rho, spin_pure_state((1.0, 0.0)), atol=1e-15)

    def test_unknown_rule_name(self):
        with pytest.raises(ValueError):
            models.spin_perturbed_model("quintic")

    @pytest.mark.parametrize("call", [
        lambda: models.spin_perturbed_model("quintic"),
        lambda: spin_perturbed_state((0.1, 0.2), "quintic"),
        lambda: models.get_model("spin-perturbed:quintic"),
    ])
    def test_unknown_rule_name_is_rejected_before_any_state(self, monkeypatch, call):
        def no_state(*args):
            raise AssertionError("state built before the rule was checked")

        monkeypatch.setattr(models, "_spin_state", no_state)
        with pytest.raises(ValueError) as exc:
            call()
        assert type(exc.value) is ValueError
        assert str(exc.value) == ("unknown f rule 'quintic'; choose from "
                                  "['cubic', 'quartic', 'squared'] or pass a callable")
        assert exc.value.__context__ is None

    def test_lebesgue_parts_have_closed_form(self):
        # along rho_bar(0) = |0><0| both routes give sigma_ac = e^{-f} rho_bar(theta)
        # and sigma_sing = (1 - e^{-f}) |1><1|, and the sandwich of the
        # log-likelihood ratio, e^{L/2} rho_bar(0) e^{L/2}, is sigma_ac;
        # rho_bar(theta) = (I + b.sigma) / 2, theta = r (cos phi, sin phi)
        rng = np.random.default_rng(4)
        rho0 = np.diag([1.0, 0.0])
        cases = [(rule, power, r, phi) for rule, power in (("quartic", 4), ("cubic", 3),
                                                           ("squared", 2))
                 for r, phi in zip(rng.uniform(0.0, 1.0, 100), rng.uniform(-np.pi, np.pi, 100))]
        for rule, power, r, phi in cases:
            bloch = (np.tanh(r) * np.cos(phi), np.tanh(r) * np.sin(phi), 1.0 / np.cosh(r))
            pure = (np.eye(2) + sum(b * s for b, s in zip(
                bloch, (models.SIGMA_X, models.SIGMA_Y, models.SIGMA_Z)))) / 2.0
            weight = np.exp(-r ** power)
            ac, sing = weight * pure, (1.0 - weight) * np.diag([0.0, 1.0])
            sigma = spin_perturbed_state(r * np.array([np.cos(phi), np.sin(phi)]), rule)
            for route in (decomp.lebesgue_decompose, decomp.lebesgue_decompose_direct):
                dec = route(sigma, rho0)
                assert np.abs(dec.sigma_ac.matrix - ac).max() <= 1e-14
                assert np.abs(dec.sigma_sing.matrix - sing).max() <= 1e-14
            half = linalg.expm(decomp.qllr(sigma, rho0).l_matrix / 2.0)
            assert np.abs(half @ rho0 @ half - ac).max() <= 1e-14

    def test_llr_shift_under_perturbation(self):
        # the pure family's log-likelihood ratio minus f(theta) I is a valid
        # version for the perturbed family: it satisfies the defining sandwich
        # relation, and version-independent functionals agree with the
        # kernel-identity version
        theta = (0.25, -0.15)
        f = float(np.linalg.norm(theta) ** 4)
        rho0 = spin_pure_state((0.0, 0.0))
        pure_l = decomp.qllr(spin_pure_state(theta), rho0).l_matrix
        pert_l = decomp.qllr(spin_perturbed_state(theta), rho0).l_matrix
        shifted = pure_l - f * np.eye(2)
        half = linalg.expm(shifted / 2)
        ac = decomp.lebesgue_decompose(spin_perturbed_state(theta),
                                       rho0).sigma_ac.matrix
        np.testing.assert_allclose(half @ rho0 @ half, ac, atol=1e-9)
        lhs = float(np.trace(rho0 @ linalg.expm(pert_l)).real)
        rhs = float(np.trace(rho0 @ linalg.expm(shifted)).real)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert lhs == pytest.approx(np.trace(ac).real, abs=1e-12)


def oracle_theta2(theta):
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.shape[0] != 2:
        raise DimensionMismatchError(f"theta must be a real 2-vector, got {theta}")
    if not np.isfinite(theta).all():
        raise ValueError(f"theta has non-finite entries: {theta.tolist()}")
    return theta


#: the built-in rules as the per-theta loop evaluates them
ORACLE_RULES = {
    "quartic": lambda theta: float(np.linalg.norm(theta) ** 4),
    "cubic": lambda theta: float(np.linalg.norm(theta) ** 3),
    "squared": lambda theta: float(np.linalg.norm(theta) ** 2),
}


def oracle_spin_state(theta, f_rule):
    """The spin family at one theta, in scalars: the reference of ``state_at``.

    Validation, the weight e^{-f}, then the unit Bloch vector
    b = (tanh r theta / r, sech r) and (I + b.sigma) / 2, with theta / r read
    from theta over its largest |entry|.
    """
    theta = oracle_theta2(theta)
    f = ORACLE_RULES[f_rule] if isinstance(f_rule, str) else f_rule
    # the scalar power overflows at ||theta|| = 1e80, to the excited state
    with np.errstate(over="ignore"):
        w = None if f_rule is None else float(np.exp(-f(theta)))
        r = np.linalg.norm(theta)
        top = np.abs(theta).max()
        unit = theta / top if top > 0.0 else theta
        bx, by = np.tanh(r) * (unit / max(np.linalg.norm(unit), 1.0))
        bz = 1.0 / np.cosh(r)
    pure = np.array([[1.0 + bz, bx - 1j * by], [bx + 1j * by, 1.0 - bz]]) / 2.0
    if f_rule is None:
        return pure
    return w * pure + (1.0 - w) * np.diag([0.0, 1.0])


def oracle_spin_states(thetas, f_rule):
    """``oracle_spin_state`` at each theta."""
    return np.array([oracle_spin_state(theta, f_rule) for theta in thetas]).reshape(-1, 2, 2)


def expm_spin_states(thetas, f_rule):
    """e^{(theta.sigma - psi I)/2} |0><0| e^{(theta.sigma - psi I)/2}, psi = log cosh r, mixed.

    The construction the families used before their closed form, through the
    public ``expm``: an independent oracle for moderate ||theta||.
    """
    f = ORACLE_RULES[f_rule] if isinstance(f_rule, str) else f_rule
    states = []
    for theta in thetas:
        r = np.linalg.norm(theta)
        psi = np.logaddexp(r, -r) - np.log(2.0)
        half = linalg.expm((theta[0] * models.SIGMA_X + theta[1] * models.SIGMA_Y
                            - psi * np.eye(2)) / 2.0)
        pure = half @ np.diag([1.0, 0.0]) @ half
        w = 1.0 if f_rule is None else np.exp(-f(theta))
        states.append(w * pure + (1.0 - w) * np.diag([0.0, 1.0]))
    return np.array(states)


def family_model(f_rule):
    """The spin family's model: the pure one where ``f_rule`` is None."""
    return models.spin_pure_model() if f_rule is None else models.spin_perturbed_model(f_rule)


def family_states(thetas, f_rule):
    """The spin family's ``state_at`` at each theta, as one (N, 2, 2) stack."""
    model = family_model(f_rule)
    return np.array([model.state_at(theta) for theta in thetas]).reshape(-1, 2, 2)


ORACLE_FAMILIES = [None, "quartic", "cubic", "squared",
                   lambda theta: float(np.sum(theta ** 2)) / 3.0]


def oracle_thetas():
    """Seeded thetas from 1e-6 to 400, the grids of the q-LAN reports and ||theta|| = 1e80."""
    rng = np.random.default_rng(21)
    thetas = [scale * rng.standard_normal(2) for scale in (1e-6, 1e-4, 1e-2, 0.3, 3.0, 40.0, 400.0)
              for _ in range(200)]
    t0 = np.zeros(2)
    for e in np.eye(2):
        for step in (qlan.FD_STEP, qlan.FD_STEP / 2):
            thetas += [t0 + step * e, t0 - step * e]
    thetas += [t0 + r * u for r in qlan.OH2_RADII
               for u in qlan._sphere_directions(2, qlan.OH2_DIRECTIONS, 0)]
    h = cli._default_h(2)
    thetas += [t0 + h / np.sqrt(n) for n in (1, 10, 100, 1000, 10000)]
    # e^{-f} underflows to 0 there: the excited state
    thetas.append(np.array([0.0, -1e80]))
    return thetas


FAMILY_IDS = ["pure", "quartic", "cubic", "squared", "custom"]

#: theta = r (0.6, -0.8) out to r = 1e80, and two thetas whose norm overflows
RAYS = [r * np.array([0.6, -0.8]) for r in (1.0, 10.0, 1e8, 1e16, 1e40, 1e80)] + [
    np.array([1e200, 1e200]), np.array([1.5e308, -1.5e308])]


@pytest.mark.parametrize("f_rule", ORACLE_FAMILIES, ids=FAMILY_IDS)
def test_spin_states_are_the_per_theta_loops_bit_for_bit(f_rule):
    thetas = oracle_thetas()
    states = family_states(thetas, f_rule)
    assert np.array_equal(states, oracle_spin_states(thetas, f_rule))
    if f_rule is not None:
        assert np.array_equal(states[-1], np.diag([0.0, 1.0]))


@pytest.mark.parametrize("f_rule", ORACLE_FAMILIES, ids=FAMILY_IDS)
def test_spin_states_are_the_exponential_construction(f_rule):
    thetas = [theta for theta in oracle_thetas() if np.linalg.norm(theta) <= 10.0]
    gap = np.abs(family_states(thetas, f_rule) - expm_spin_states(thetas, f_rule)).max()
    assert gap <= 16 * np.finfo(float).eps


@pytest.mark.parametrize("f_rule", ORACLE_FAMILIES, ids=FAMILY_IDS)
def test_spin_states_are_hermitian_unit_trace_and_psd(f_rule):
    eps = np.finfo(float).eps
    # the custom rule's own theta ** 2 overflows on the last rays
    with np.errstate(over="ignore" if f_rule is ORACLE_FAMILIES[-1] else "warn"):
        states = family_states(oracle_thetas() + RAYS, f_rule)
    assert np.array_equal(states, states.conj().swapaxes(1, 2))
    assert np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0).max() <= 4 * eps
    assert np.linalg.eigvalsh(states)[:, 0].min() >= -4 * eps


@pytest.mark.parametrize("f_rule", ORACLE_FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("theta", [(30.0, 0.0), (1e-320, 0.0), (5.18, 0.0)],
                         ids=["30", "1e-320", "5.18"])
def test_spin_states_are_the_same_bytes_when_the_caller_raises_on_underflow(f_rule, theta):
    # e^{-f} underflows at (30, 0), ||theta||^2 at (1e-320, 0), and at (5.18, 0)
    # the quartic weight is subnormal and so is its share of the mix
    expected = family_states([theta], f_rule)
    with np.errstate(all="raise"):
        got = family_states([theta], f_rule)
    assert got.tobytes() == expected.tobytes()


def raising_rule(bad):
    def f(theta):
        if np.array_equal(theta, bad):
            raise RuntimeError(f"f fails at {theta.tolist()}")
        return float(theta @ theta)

    return f


def error_of(call):
    try:
        call()
    except Exception as exc:
        assert exc.__context__ is None, exc.__context__
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("at", [0, 1, 5])
@pytest.mark.parametrize("f_rule,kind", [
    *((f_rule, kind) for f_rule in ORACLE_FAMILIES for kind in ("shape", "non-finite")),
    (ORACLE_FAMILIES[-1], "f raises"),
])
def test_spin_states_raise_the_per_theta_loops_error(f_rule, kind, at):
    # state_at at each theta in turn raises what the oracle meets first
    rng = np.random.default_rng(at)
    thetas = list(rng.uniform(-0.9, 0.9, (7, 2)))
    # a later bad theta, which the loop does not reach
    thetas[6] = np.array([np.inf, 0.0])
    if kind == "shape":
        thetas[at] = np.array([0.1, 0.2, 0.3])
    elif kind == "non-finite":
        thetas[at] = np.array([0.1, np.nan])
    else:
        f_rule = raising_rule(thetas[at])
    expected = error_of(lambda: oracle_spin_states(thetas, f_rule))
    assert expected is not None and expected[1].endswith(
        {"shape": "[0.1 0.2 0.3]", "non-finite": "[0.1, nan]"}.get(kind, "]"))
    assert error_of(lambda: family_states(thetas, f_rule)) == expected


BAD_THETAS = [np.array([0.1, 0.2, 0.3]), np.array([np.inf, 0.1]), np.array([0.1, np.nan])]


def outcome(call):
    """The bytes ``call`` returns, or the type and text of what it raises."""
    try:
        return call().tobytes()
    except Exception as exc:  # the outcome is compared, whatever it is
        return type(exc), str(exc)


@pytest.mark.parametrize("f_rule", ORACLE_FAMILIES, ids=FAMILY_IDS)
def test_state_at_is_the_same_when_the_caller_raises_on_every_numpy_error(f_rule):
    model = family_model(f_rule)
    thetas = oracle_thetas() + RAYS + BAD_THETAS
    # the custom rule's own theta ** 2 overflows on the last rays
    with np.errstate(over="ignore" if f_rule is ORACLE_FAMILIES[-1] else "warn"):
        expected = [outcome(lambda t=theta: model.state_at(t)) for theta in thetas]
    with np.errstate(all="raise"):
        got = [outcome(lambda t=theta: model.state_at(t)) for theta in thetas]
    assert got == expected
    # a state at every good theta, an error at every bad one
    bad = len(BAD_THETAS)
    assert [isinstance(x, tuple) for x in got] == [False] * (len(thetas) - bad) + [True] * bad


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

    @pytest.mark.parametrize("theta", [[np.nan], [np.inf], [-np.inf]])
    def test_theta_must_be_finite(self, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                models.qubit_fullrank_model().state_at(theta)
        assert str(info.value) == f"theta has non-finite entries: {theta}"
        assert info.value.__context__ is None

    def test_theta_must_be_a_1_vector(self):
        with pytest.raises(DimensionMismatchError) as info:
            models.qubit_fullrank_model().state_at([0.1, 0.2])
        assert str(info.value) == "theta must be a real 1-vector, got [0.1 0.2]"


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

    @pytest.mark.parametrize("header", [
        {"dim": float("inf"), "theta_dim": 1}, {"dim": 2, "theta_dim": float("inf")},
        {"dim": "two", "theta_dim": 1}, {"dim": 2, "theta_dim": None}, {"dim": 2}])
    def test_table_model_malformed_header(self, tmp_path, header):
        path = tmp_path / "table.json"
        # json writes inf as Infinity, which loads as the float that 1e400 parses to
        path.write_text(json.dumps({**header, "theta0": [0.0], "states": []}))
        with pytest.raises(InvalidMatrixError, match="malformed table object"):
            models.table_model(path)

    @pytest.mark.parametrize("header,field", [
        ({"dim": 2.5, "theta_dim": 1.9}, "dim"), ({"dim": 2, "theta_dim": 1.9}, "theta_dim"),
        ({"dim": 2, "theta_dim": 0}, "theta_dim"), ({"dim": -2, "theta_dim": 1}, "dim")])
    def test_table_model_dims_are_positive_integers(self, tmp_path, header, field):
        state = {"theta": [0.0], "matrix": {"dim": 2, "entries": [[0.5, 0.0]] * 4}}
        path = tmp_path / "table.json"
        path.write_text(json.dumps({**header, "theta0": [0.0], "states": [state]}))
        with pytest.raises(InvalidMatrixError, match=f"^{field} must be"):
            models.table_model(path)


    @pytest.mark.parametrize("body,message", [
        ({"states": []}, "theta0 must be a list of finite numbers, got None"),
        ({"theta0": 0.0, "states": []}, "theta0 must be a list of finite numbers, got 0.0"),
        ({"theta0": ["0"], "states": []},
         "theta0 must be a list of finite numbers, got ['0']"),
        ({"theta0": [None], "states": []},
         "theta0 must be a list of finite numbers, got [None]"),
        ({"theta0": [True], "states": []},
         "theta0 must be a list of finite numbers, got [True]"),
        ({"theta0": [float("nan")], "states": []},
         "theta0 must be a list of finite numbers, got [nan]"),
        ({"theta0": [0.0]}, "states must be a list of objects"),
        ({"theta0": [0.0], "states": 3}, "states must be a list of objects"),
        ({"theta0": [0.0], "states": [[0.0]]}, "states must be a list of objects"),
        ({"theta0": [0.0], "states": [{"matrix": None}]},
         "theta must be a list of finite numbers, got None"),
        ({"theta0": [0.0], "states": [{"theta": ["a"]}]},
         "theta must be a list of finite numbers, got ['a']"),
        ({"theta0": [0.0], "states": [{"theta": 0.5}]},
         "theta must be a list of finite numbers, got 0.5"),
    ])
    def test_table_model_malformed_body(self, tmp_path, body, message):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"dim": 2, "theta_dim": 1, **body}))
        with pytest.raises(InvalidMatrixError) as exc:
            models.table_model(path)
        assert str(exc.value) == f"malformed table object: {message}"
        assert exc.value.__context__ is None

    @pytest.mark.parametrize("state,message", [
        ({"theta": [0.0]}, "expected a matrix object, got NoneType"),
        ({"theta": [0.0], "matrix": {"dim": 2, "entries": 4}}, "entries must be a list, got float"),
    ])
    def test_table_model_malformed_matrix(self, tmp_path, state, message):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"dim": 2, "theta_dim": 1, "theta0": [0.0],
                                    "states": [state]}))
        with pytest.raises(InvalidMatrixError) as exc:
            models.table_model(path)
        assert str(exc.value) == message
        assert exc.value.__context__ is None

    def test_table_model_keeps_its_dimension_errors(self, tmp_path):
        matrix = {"dim": 2, "entries": [[0.5, 0.0]] * 4}
        path = tmp_path / "table.json"
        for body, message in [
            ({"theta0": [0.0, 0.0], "states": []},
             "theta0 has dimension 2, declared theta_dim 1"),
            ({"theta0": [0.0], "states": [{"theta": [0.0, 1.0], "matrix": matrix}]},
             "grid point (0.0, 1.0) has wrong dimension"),
            ({"theta0": [0.0], "states": [{"theta": [0.0], "matrix": {
                "dim": 1, "entries": [[1.0, 0.0]]}}]},
             "state at (0.0,) has dimension 1, declared dim 2"),
        ]:
            path.write_text(json.dumps({"dim": 2, "theta_dim": 1, **body}))
            with pytest.raises(DimensionMismatchError, match=re.escape(message)):
                models.table_model(path)


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

    @pytest.mark.parametrize("mode", ["generic", "near_deficient"])
    def test_dimension_one(self, mode):
        rho, sigma = models.random_psd_pair(models.RandomPsdPairSpec(1, 1, 1, 5, mode=mode))
        assert rho.matrix.shape == sigma.matrix.shape == (1, 1)
        assert rho.rank == sigma.rank == 1
        with pytest.raises(InvalidRanksError, match=r"^dim must be >= 1, got 0$"):
            models.random_psd_pair(models.RandomPsdPairSpec(0, 1, 1, 5, mode=mode))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            models.random_psd_pair(
                models.RandomPsdPairSpec(3, 1, 1, 0, mode="twisted"))


class TestRotateToOverlap:
    @staticmethod
    def _count_rotations(monkeypatch):
        calls = []
        real = models._exp_anti_hermitian
        monkeypatch.setattr(models, "_exp_anti_hermitian", lambda a: calls.append(1) or real(a))
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
        # the start and at most 8 square-root updates
        assert len(calls) <= 1 + 8

    def test_every_near_singular_pair_lands_within_one_update(self, monkeypatch):
        # the overlap is p s sin^2 t, so the first square-root update lands
        calls = self._count_rotations(monkeypatch)
        for d in range(2, 7):
            for kr in range(1, d):
                for ks in range(1, d - kr + 1):
                    for seed in range(3):
                        del calls[:]
                        spec = models.RandomPsdPairSpec(d, kr, ks, seed, mode="near_singular")
                        rho, sigma = models.random_psd_pair(spec)
                        assert len(calls) <= 2, spec
                        tr = float(np.trace(rho.matrix @ sigma.matrix).real)
                        assert 0.8e-9 <= tr <= 1.25e-9, spec

    def test_reachable_target_is_hit(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        sigma = np.diag([0.0, 1.0]).astype(complex)
        gen = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        rotated = models._rotate_to_overlap(rho, sigma, gen, 0.5)
        assert 0.4 <= float(np.trace(rho @ rotated).real) <= 0.625


class TestPurePair:
    @staticmethod
    def pure_states(*vectors):
        return [np.outer(v, np.conj(v)) for v in map(np.asarray, vectors)]

    def test_projectors(self):
        psi = np.array([1.0, 0.0])
        xi = np.array([1.0, 1.0]) / np.sqrt(2)
        rho, sigma = map(linalg.positive, self.pure_states(psi, xi))
        assert rho.rank == 1 and sigma.rank == 1
        np.testing.assert_allclose(sigma.matrix, np.full((2, 2), 0.5), atol=1e-15)

    def test_dimension_validation(self):
        with pytest.raises(DimensionMismatchError):
            decomp.is_singular(*self.pure_states([1.0, 0.0], [1.0, 0.0, 0.0]))


def test_haar_unitary_is_unitary_and_deterministic():
    rng = np.random.default_rng(0)
    u = models.haar_unitary(5, rng)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-13)
    v = models.haar_unitary(5, np.random.default_rng(0))
    np.testing.assert_array_equal(u, v)
