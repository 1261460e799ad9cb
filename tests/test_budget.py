"""Eigensolver-call and validation budgets of the hot paths.

At the dimensions this package targets (d <= 6) a call to the eigensolver
costs less than the Python work around it, so the number of calls is the
figure that tracks repeated work. ``numpy.linalg.eigh`` and
``linalg.hermitize`` are wrapped with a counter inside each test only; the
library itself never counts.
"""

import dataclasses

import numpy as np
import pytest

from qleb import cli, decomp, linalg, models, qlan

#: budgets of spin-perturbed:quartic studies with the CLI defaults; the
#: reports evaluate each grid in stacked eigensolves (one stacked call counts
#: once), and the model's states are closed forms, which need none (each
#: state evaluation was one stacked exponential before: 3, 5, 8, 13, 11 and
#: 10 below). The probe's 9 are the remainder rule's grid (7), the QCF (1)
#: and N(0, J), which the first report that reads it validates once per base
#: (1; 26 when the rule ran once per n). ``qclt_report`` on a new model
#: builds the base: the validation of theta0's state, N(0, J) and the QCF,
#: one eigensolve each; ``sld_set`` validates theta0's state only. Counted
#: with the memo of ``positive`` and the q-LAN bases empty.
SLD_SET_BUDGET = 1
QCLT_BUDGET = 3
LECAM_BUDGET = 5
SANDWICH_BUDGET = 10
OH2_BUDGET = 9
PROBE_BUDGET = 9
QLLR_BUDGET = 8

#: one round of the five reports on one spin-perturbed:quartic model object
#: whose q-LAN base is built: theta0, the SLD stencil, N(0, J) and the two
#: theta grids the round reads (the local shifts and oh2's sphere) are not
#: evaluated again, nor are the grids' states, parts and L_n, nor the QCF
#: factor products of ``qclt_report``, ``lecam_report`` and
#: ``sandwich_report`` (one set) and of the probe, all of which the base
#: holds. What is left are the exponentials of the sandwiches and of oh2's
#: L_n, and the validation of lecam's limit law. 7 eigensolves while every
#: report exponentiated its own QCF factors, 30 and 4 stacked model
#: evaluations (one each for ``lecam_report``, ``sandwich_report``,
#: ``oh2_report`` and the probe's remainder rule) while every report built
#: its own grid, 34 while each of those calls ran a stacked exponential, 52
#: and 6 stacked evaluations when the rule ran once per n, 65, 7
#: ``state_at`` calls and 12 stacked evaluations when every report built its
#: own base. ``ROUND_STATES_AT`` is an exact count of ``state_at`` calls,
#: the one way the harness evaluates a model
ROUND_BUDGET = 3
ROUND_STATES_AT = 0

#: ``linalg._exp_anti_hermitian`` calls of ``qclt_report``, ``lecam_report``
#: and ``sandwich_report`` on a new model object, an exact count: the three
#: share one set of factor products (three while each built its own)
COLD_QCF_EXPONENTIALS = 1

#: ``linalg._clusters`` calls in that round, an exact count: the Hermitian
#: exponentials of the sandwiches and of oh2's L_n keep the solver's basis,
#: and the QCFs' stacks of ``linalg._STACKED`` slices or more send only the
#: slices with a degenerate cluster to it, of which they have none (4 while
#: the Hermitian exponentials canonicalized, 40 while every report built its
#: own grid, 363 when every slice of every stack went, 49 while the states
#: were exponentials)
ROUND_CLUSTERS = 0


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    real = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


@pytest.fixture
def cluster_calls(monkeypatch):
    """Counts ``linalg._clusters`` calls."""
    calls = []
    real = linalg._clusters

    def counting(vals):
        calls.append(1)
        return real(vals)

    monkeypatch.setattr(linalg, "_clusters", counting)
    return calls


def _cli_defaults(model):
    h = cli._default_h(model.theta_dim)
    queries = [q[None, :] for q in cli._default_queries(model.theta_dim)]
    n_grid = cli._parse_n_list(cli._build_parser().parse_args(["qlan", "--model", "x"]).n)
    return h, queries, n_grid


@pytest.mark.parametrize("seed", range(3))
def test_qllr_budget(eigh_calls, seed):
    rho, sigma = models.random_psd_pair(models.RandomPsdPairSpec(4, 2, 4, seed=seed))
    rho_m, sigma_m = rho.matrix, sigma.matrix
    assert decomp.is_absolutely_continuous(rho_m, sigma_m)
    eigh_calls.clear()
    decomp.qllr(sigma_m, rho_m)
    assert 0 < len(eigh_calls) <= QLLR_BUDGET


def test_sld_set_budget(eigh_calls, monkeypatch):
    model = models.get_model("spin-perturbed:quartic")
    # theta0's state is validated only where the memo of ``positive`` misses it
    monkeypatch.setattr(linalg._memo, "entries", {})
    eigh_calls.clear()
    qlan.sld_set(model)
    assert 0 < len(eigh_calls) <= SLD_SET_BUDGET


def test_lecam_report_budget(eigh_calls):
    model = models.get_model("spin-perturbed:quartic")
    h, queries, n_grid = _cli_defaults(model)
    eigh_calls.clear()
    rep = qlan.lecam_report(model, None, h, queries, n_grid)
    assert rep.passed()
    assert 0 < len(eigh_calls) <= LECAM_BUDGET


def test_sandwich_report_budget(eigh_calls):
    model = models.get_model("spin-perturbed:quartic")
    h, queries, n_grid = _cli_defaults(model)
    eigh_calls.clear()
    rep = qlan.sandwich_report(model, h, queries, n_grid)
    assert rep.passed()
    assert 0 < len(eigh_calls) <= SANDWICH_BUDGET


def test_oh2_report_budget(eigh_calls):
    model = models.get_model("spin-perturbed:quartic")
    eigh_calls.clear()
    rep = qlan.oh2_report(model, seed=0)
    assert rep.passed()
    assert 0 < len(eigh_calls) <= OH2_BUDGET


def test_qclt_report_budget(eigh_calls):
    model = models.get_model("spin-perturbed:quartic")
    _, queries, n_grid = _cli_defaults(model)
    eigh_calls.clear()
    rep = qlan.qclt_report(model, queries, n_grid)
    assert rep.passed()
    assert 0 < len(eigh_calls) <= QCLT_BUDGET


def test_infinitesimal_probe_budget(eigh_calls):
    model = models.get_model("spin-perturbed:quartic")
    h, queries, n_grid = _cli_defaults(model)
    rule = qlan.iid_remainder_rule(model, h)
    eigh_calls.clear()
    rep = qlan.infinitesimal_probe(rule, model, queries, (0.5, 1.0), n_grid)
    assert rep.passed()
    assert 0 < len(eigh_calls) <= PROBE_BUDGET


def test_round_of_reports_on_one_model_budget(eigh_calls, cluster_calls):
    quartic = models.get_model("spin-perturbed:quartic")
    evaluations = []

    def state_at(theta):
        evaluations.append(1)
        return quartic.state_at(theta)

    model = dataclasses.replace(quartic, state_at=state_at)
    h, queries, n_grid = _cli_defaults(model)

    def round_of_reports():
        # as the qlan-studies benchmark runs them: lecam_report after sld_set
        reports = [qlan.qclt_report(model, queries, n_grid),
                   qlan.lecam_report(model, qlan.sld_set(model).l_ops, h, queries, n_grid),
                   qlan.sandwich_report(model, h, queries, n_grid),
                   qlan.oh2_report(model, seed=0),
                   qlan.infinitesimal_probe(qlan.iid_remainder_rule(model, h), model, queries,
                                            (0.5, 1.0), n_grid)]
        assert all(rep.passed() for rep in reports)

    cluster_calls.clear()
    round_of_reports()
    # the cold round builds the base, whose validations the counter sees
    assert len(cluster_calls) > 0
    eigh_calls.clear()
    cluster_calls.clear()
    evaluations.clear()
    round_of_reports()
    assert 0 < len(eigh_calls) <= ROUND_BUDGET
    assert len(cluster_calls) == ROUND_CLUSTERS
    assert len(evaluations) == ROUND_STATES_AT


def test_qclt_lecam_and_sandwich_share_their_factor_exponentials(monkeypatch):
    calls = []
    real = linalg._exp_anti_hermitian

    def counting(m):
        calls.append(1)
        return real(m)

    for module in (linalg, models, qlan):
        monkeypatch.setattr(module, "_exp_anti_hermitian", counting)
    model = models.get_model("spin-perturbed:quartic")
    h, queries, n_grid = _cli_defaults(model)
    reports = [qlan.qclt_report(model, queries, n_grid),
               qlan.lecam_report(model, qlan.sld_set(model).l_ops, h, queries, n_grid),
               qlan.sandwich_report(model, h, queries, n_grid)]
    assert all(rep.passed() for rep in reports)
    assert len(calls) == COLD_QCF_EXPONENTIALS


#: the decomposition pipeline; each validates its two raw operands once
PIPELINE = ("is_singular", "is_absolutely_continuous", "is_mutually_ac",
            "lebesgue_decompose", "lebesgue_decompose_direct", "qllr")

#: eigensolver calls of the whole pipeline on one raw pair the memo of
#: ``linalg.positive`` has not seen (45 and 41 before that memo, 35 and 31
#: before the pair memo of ``decomp``)
PIPELINE_BUDGET = 28

#: eigensolver calls of ``is_mutually_ac`` right after
#: ``is_absolutely_continuous`` on the same raw pair: the forward check is
#: shared, so only the backward one is built (10 and 6 before the pair memo)
MUTUAL_AC_BUDGET = 5


@pytest.fixture
def hermitize_calls(monkeypatch):
    """Counts validations of raw operands; the memo of ``positive`` is the test's own."""
    calls = []
    real = linalg.hermitize

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg._memo, "entries", {})
    monkeypatch.setattr(linalg, "hermitize", counting)
    return calls


def _raw_pair(dim, rank_rho, rank_sigma):
    rho, sigma = models.random_psd_pair(
        models.RandomPsdPairSpec(dim, rank_rho, rank_sigma, seed=2))
    return rho.matrix, sigma.matrix


@pytest.mark.parametrize("name", PIPELINE)
@pytest.mark.parametrize("dim,rank_rho,rank_sigma", [(4, 4, 4), (6, 2, 4)])
def test_pipeline_validates_raw_operands_once(hermitize_calls, name, dim, rank_rho, rank_sigma):
    rho_m, sigma_m = _raw_pair(dim, rank_rho, rank_sigma)
    assert decomp.is_absolutely_continuous(rho_m, sigma_m)
    linalg._memo.entries.clear()
    hermitize_calls.clear()
    args = (rho_m, sigma_m) if name.startswith("is_") else (sigma_m, rho_m)
    getattr(decomp, name)(*args)
    assert len(hermitize_calls) == 2
    # a repeat call gets both operators from the memo
    hermitize_calls.clear()
    getattr(decomp, name)(*args)
    assert len(hermitize_calls) == 0


@pytest.mark.parametrize("dim,rank_rho,rank_sigma", [(4, 4, 4), (6, 2, 4)])
def test_pipeline_on_one_raw_pair_validates_twice(hermitize_calls, eigh_calls,
                                                   dim, rank_rho, rank_sigma):
    rho_m, sigma_m = _raw_pair(dim, rank_rho, rank_sigma)
    linalg._memo.entries.clear()
    hermitize_calls.clear()
    eigh_calls.clear()
    for name in PIPELINE:
        args = (rho_m, sigma_m) if name.startswith("is_") else (sigma_m, rho_m)
        getattr(decomp, name)(*args)
    assert len(hermitize_calls) == 2
    assert 0 < len(eigh_calls) <= PIPELINE_BUDGET


@pytest.mark.parametrize("dim,rank_rho,rank_sigma", [(4, 4, 4), (6, 2, 4)])
def test_mutual_ac_after_absolute_continuity_builds_the_backward_check_only(
        eigh_calls, dim, rank_rho, rank_sigma):
    rho_m, sigma_m = _raw_pair(dim, rank_rho, rank_sigma)
    decomp.is_absolutely_continuous(rho_m, sigma_m)
    eigh_calls.clear()
    decomp.is_mutually_ac(rho_m, sigma_m)
    assert 0 < len(eigh_calls) <= MUTUAL_AC_BUDGET
