"""The public API: the parameters of every callable ``qleb`` exports.

The q-LAN criteria (``RATE_THRESHOLD``, ``OH2_RADII``, ``OH2_DIRECTIONS``,
``OH2_SLOPE_THRESHOLD``, ``PROBE_CEILING``) and ``SINGULARITY_TOL`` are
constants, not arguments; pinning each signature here keeps a knob that was
removed from coming back unnoticed. Annotations are left out, so the pins do
not depend on how a Python version prints them.
"""

import inspect
import math

import pytest

import qleb
from qleb import decomp, qlan

SIGNATURES = {
    "ConvergenceReport": "(study, n_values, errors, fitted_rate, verdict, rate_threshold, "
                         "monotone)",
    "GaussianSpec": "(mean, j_matrix)",
    "LebesgueDecomposition": "(sigma_ac, sigma_sing, witness_r, route)",
    "Oh2Report": "(radii, g_values, slope, g_at_smallest_radius, slope_threshold, verdict)",
    "ParametricModel": "(name, dim, theta_dim, theta0, state_at, states_at=None)",
    "PositiveOperator": "(stack, values, vectors, tols, cutoff, pending)",
    "ProbeReport": "(n_values, deviation, excess, ceiling, verdict)",
    "QllrVersion": "(l_matrix, gamma_choice)",
    "RandomPsdPairSpec": "(dim, rank_rho, rank_sigma, seed, mode='generic')",
    "SldSet": "(l_ops, j_matrix)",
    "SpectralDecomposition": "(eigenvalues, eigenvectors)",
    "SupportSplit": "(basis_h1, basis_h2, basis_h3, rho2, rho1, rho0, sigma0, alpha, beta)",
    "ac_ball_radius": "(rho, cutoff=None)",
    "collective_qcf_brute": "(site_state, site_ops, query, n)",
    "collective_qcf_factorized": "(site_state, site_ops, query, n, guard=0.3)",
    "eig_hermitian": "(a)",
    "excision": "(sigma, rho, cutoff=None)",
    "expm": "(a)",
    "fisher_j": "(model, cutoff=None)",
    "geometric_mean": "(a, b, cutoff=None)",
    "get_model": "(name)",
    "hermitian_part": "(a)",
    "hermitize": "(a, tol=1e-12)",
    "iid_remainder_rule": "(model, h, cutoff=None)",
    "infinitesimal_probe": "(remainder_rule, model, query_grid, eta_grid, n_grid, cutoff=None)",
    "is_absolutely_continuous": "(rho, sigma, cutoff=None)",
    "is_mutually_ac": "(rho, sigma, cutoff=None)",
    "is_singular": "(rho, sigma, cutoff=None)",
    "lebesgue_decompose": "(sigma, rho, cutoff=None)",
    "lebesgue_decompose_direct": "(sigma, rho, cutoff=None)",
    "lecam_limit_spec": "(sigma_matrix, tau_matrix, h)",
    "lecam_report": "(model, b_ops, h, query_grid, n_grid, cutoff=None)",
    "log_pd": "(a, cutoff=None)",
    "oh2_report": "(model, seed=0, cutoff=None)",
    "positive": "(a, cutoff=None)",
    "pure_pair": "(psi, xi)",
    "qcf": "(spec, xis)",
    "qclt_report": "(model, query_grid, n_grid, cutoff=None)",
    "qllr": "(sigma, rho, cutoff=None)",
    "qubit_fullrank_model": "()",
    "random_psd_pair": "(spec)",
    "sandwich_qcf": "(model, h, query, n, cutoff=None)",
    "sandwich_report": "(model, h, query_grid, n_grid, cutoff=None)",
    "sld": "(model, direction, cutoff=None)",
    "sld_set": "(model, cutoff=None)",
    "spin_perturbed_model": "(f_rule='quartic')",
    "spin_perturbed_state": "(theta, f_rule='quartic')",
    "spin_pure_model": "()",
    "spin_pure_state": "(theta)",
    "support_projector": "(a, cutoff=None)",
    "support_split": "(rho, sigma, cutoff=None)",
}


def parameters(obj) -> str:
    """The signature of ``obj`` with names, kinds and defaults only."""
    sig = inspect.signature(obj)
    params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=inspect.Signature.empty))


def test_every_exported_callable_is_pinned():
    exported = {name for name in qleb.__all__ if callable(getattr(qleb, name))}
    assert exported == set(SIGNATURES)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature(name):
    assert parameters(getattr(qleb, name)) == SIGNATURES[name]


def test_reports_record_the_fixed_criteria():
    m = qleb.get_model("spin-perturbed:quartic")
    e1 = [[1.0, 0.0]]
    assert qlan.qclt_report(m, [e1], (10, 100)).rate_threshold == qlan.RATE_THRESHOLD
    oh2 = qlan.oh2_report(m)
    assert (oh2.radii, oh2.slope_threshold) == (qlan.OH2_RADII, qlan.OH2_SLOPE_THRESHOLD)
    # the report's g_at_smallest_radius and slope read the radii largest first
    assert list(qlan.OH2_RADII) == sorted(qlan.OH2_RADII, reverse=True)
    assert len(qlan.OH2_RADII) >= 2 and qlan.OH2_RADII[-1] > 0 and qlan.OH2_DIRECTIONS >= 1
    probe = qlan.infinitesimal_probe(lambda n: [[0.0, 0.0], [0.0, 0.0]], m, [e1], [0.5],
                                     (10, 100))
    assert probe.ceiling == qlan.PROBE_CEILING
    chk = decomp.is_singular([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]])
    assert chk.singular and chk.consistent
    assert chk.projector_bound == math.sqrt(decomp.SINGULARITY_TOL)
