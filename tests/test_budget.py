"""Eigensolver-call and validation budgets of the hot paths.

At the dimensions this package targets (d <= 6) a call to the eigensolver
costs less than the Python work around it, so the number of calls is the
figure that tracks repeated work. ``numpy.linalg.eigh`` and
``linalg.hermitize`` are wrapped with a counter inside each test only; the
library itself never counts.
"""

import numpy as np
import pytest

from qleb import cli, decomp, linalg, models, qlan

#: budgets of spin-perturbed:quartic studies with the CLI defaults
SANDWICH_BUDGET = 72
OH2_BUDGET = 290
QLLR_BUDGET = 8


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    real = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
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


#: the decomposition pipeline; each validates its two raw operands once
PIPELINE = ("is_singular", "is_absolutely_continuous", "is_mutually_ac",
            "lebesgue_decompose", "lebesgue_decompose_direct", "qllr")


@pytest.mark.parametrize("name", PIPELINE)
@pytest.mark.parametrize("dim,rank_rho,rank_sigma", [(4, 4, 4), (6, 2, 4)])
def test_pipeline_validates_raw_operands_once(monkeypatch, name, dim, rank_rho, rank_sigma):
    rho, sigma = models.random_psd_pair(
        models.RandomPsdPairSpec(dim, rank_rho, rank_sigma, seed=2))
    rho_m, sigma_m = rho.matrix, sigma.matrix
    assert decomp.is_absolutely_continuous(rho_m, sigma_m)
    calls = []
    real = linalg.hermitize

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "hermitize", counting)
    args = (rho_m, sigma_m) if name.startswith("is_") else (sigma_m, rho_m)
    getattr(decomp, name)(*args)
    assert len(calls) == 2
