"""The public API: the parameters of every callable ``qleb`` exports.

The q-LAN criteria (``RATE_THRESHOLD``, ``OH2_RADII``, ``OH2_DIRECTIONS``,
``OH2_SLOPE_THRESHOLD``, ``PROBE_CEILING``) and ``SINGULARITY_TOL`` are
constants, not arguments; pinning each signature here keeps a knob that was
removed from coming back unnoticed. Annotations are left out, so the pins do
not depend on how a Python version prints them. A name removed from the
public surface is pinned as absent, and every module-level name of the
package must have a reader.
"""

import ast
import inspect
import math
from collections import Counter
from pathlib import Path

import pytest

import qleb
from qleb import decomp, errors, linalg, models, qlan

SIGNATURES = {
    "ConvergenceReport": "(study, n_values, errors, fitted_rate, verdict, rate_threshold, "
                         "monotone)",
    "GaussianSpec": "(mean, j_matrix)",
    "LebesgueDecomposition": "(sigma_ac, sigma_sing, witness_r, route)",
    "Oh2Report": "(radii, g_values, slope, g_at_smallest_radius, slope_threshold, verdict)",
    "ParametricModel": "(name, dim, theta_dim, theta0, state_at)",
    "PositiveOperator": "(stack, values, vectors, tols, cutoff, pending)",
    "ProbeReport": "(n_values, deviation, excess, ceiling, verdict)",
    "QllrVersion": "(l_matrix, gamma_choice)",
    "RandomPsdPairSpec": "(dim, rank_rho, rank_sigma, seed, mode='generic')",
    "SldSet": "(l_ops, j_matrix)",
    "collective_qcf_brute": "(site_state, site_ops, query, n)",
    "collective_qcf_factorized": "(site_state, site_ops, query, n, guard=0.3)",
    "excision": "(sigma, rho, cutoff=None)",
    "expm": "(a)",
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
    "oh2_report": "(model, seed=0, cutoff=None)",
    "positive": "(a, cutoff=None)",
    "qcf": "(spec, xis)",
    "qclt_report": "(model, query_grid, n_grid, cutoff=None)",
    "qllr": "(sigma, rho, cutoff=None)",
    "qubit_fullrank_model": "()",
    "random_psd_pair": "(spec)",
    "sandwich_qcf": "(model, h, query, n, cutoff=None)",
    "sandwich_report": "(model, h, query_grid, n_grid, cutoff=None)",
    "sld_set": "(model, cutoff=None)",
    "spin_perturbed_model": "(f_rule='quartic')",
    "spin_pure_model": "()",
}

#: each name removed from the public surface, with the module that defined
#: it; README "Removed API" gives the replacement of each
REMOVED = {
    "NotUnitError": errors,
    "SpectralDecomposition": linalg,
    "SupportSplit": decomp,
    "ac_ball_radius": decomp,
    "eig_hermitian": linalg,
    "fisher_j": qlan,
    "log_pd": linalg,
    "pure_pair": models,
    "sld": qlan,
    "spin_perturbed_state": models,
    "spin_perturbed_states": models,
    "spin_pure_state": models,
    "spin_pure_states": models,
    "support_projector": linalg,
    "support_split": decomp,
}

#: module-level names whose only readers live outside the package: the
#: console script of pyproject.toml and the benchmark's fixture writer
OUTSIDE_READERS = {"cli.entrypoint", "matio.dump_matrix"}


def parameters(obj) -> str:
    """The signature of ``obj`` with names, kinds and defaults only."""
    sig = inspect.signature(obj)
    params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=inspect.Signature.empty))


def test_every_exported_callable_is_pinned():
    exported = {name for name in qleb.__all__ if callable(getattr(qleb, name))}
    assert exported == set(SIGNATURES)


def test_every_export_resolves():
    assert len(set(qleb.__all__)) == len(qleb.__all__)
    missing = [name for name in qleb.__all__ if not hasattr(qleb, name)]
    assert missing == []
    values = {name for name in qleb.__all__ if not callable(getattr(qleb, name))}
    assert values == {"DEFAULT_CUTOFF", "__version__"}
    assert qleb.DEFAULT_CUTOFF == linalg.DEFAULT_CUTOFF


@pytest.mark.parametrize("name", sorted(SIGNATURES.keys() | REMOVED.keys()))
def test_signature(name):
    """An exported callable keeps its parameters; a removed name is gone from both places."""
    if name in REMOVED:
        assert not hasattr(qleb, name)
        assert not hasattr(REMOVED[name], name)
    else:
        assert parameters(getattr(qleb, name)) == SIGNATURES[name]


def unread_names() -> list[str]:
    """``module.name`` of each module-level name of the package that nothing reads.

    A name is read where it is loaded, or looked up as an attribute, anywhere
    in the package outside its own definition. ``__all__`` entries and
    ``OUTSIDE_READERS`` count as read; importing a name does not.
    """
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(qleb.__file__).parent.glob("*.py"))}

    def reads(node) -> list[str]:
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                or isinstance(n, ast.Attribute)]

    every_read = Counter(name for tree in trees.values() for name in reads(tree))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in defined:
                own = reads(node).count(name) if len(defined) == 1 else 0
                if (every_read[name] == own and name not in qleb.__all__
                        and name != "__all__" and f"{module}.{name}" not in OUTSIDE_READERS):
                    unread.append(f"{module}.{name}")
    return unread


def test_every_module_level_name_has_a_reader():
    assert unread_names() == []


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
