"""``PositiveOperator`` stacks against single operators, on generated spectra.

One type holds every validated PSD operand: a single operator is a stack of
one. The stacked kernel ``linalg._positive`` must give each slice exactly
what ``positive`` gives that slice alone, and the lazily canonicalized
eigenbasis must not depend on which accessor is read first. Spectra are
drawn from a few levels, so slices have degenerate clusters and numerical
kernels; rotated slices put rounding noise around the zero eigenvalues.
``positive`` hands out the operator it built for equal input before, and
that operator must read as one built without the memo.
"""

import numpy as np
import pytest

from qleb import linalg

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LEVELS = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.5, 1.0, 3.0])


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def psd_stacks(draw):
    """A stack (N, d, d) of exactly Hermitian PSD matrices, d = 1-6 and N = 1-4."""
    d = draw(st.integers(1, 6))
    slices = draw(st.lists(st.lists(LEVELS, min_size=d, max_size=d), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = []
    for eigs in slices:
        u = random_unitary(rng, d) if draw(st.booleans()) else np.eye(d)
        stack.append(linalg.hermitian_part((u * np.array(eigs)) @ u.conj().T))
    return np.array(stack)


def unmemoized(a):
    """``positive(a)`` built without the memo."""
    return linalg._positive(linalg.hermitize(a)[None], linalg.DEFAULT_CUTOFF)


def public_view(p, support_first):
    """Every public accessor of ``p``, arrays as (shape, bytes, writeable).

    The lazily canonicalized basis is read through ``support_basis()``
    first, or through ``eigenvectors`` first.
    """
    if support_first:
        support, vectors = p.support_basis(), p.eigenvectors
    else:
        vectors, support = p.eigenvectors, p.support_basis()
    arrays = (p.matrix, p.eigenvalues, vectors, support, p.kernel_basis())
    scalars = (p.cutoff, p.rank_tol, p.rank, p.dim, p.norm2, p.trace())
    return ([(a.shape, a.tobytes(), a.flags.writeable) for a in arrays]
            + [repr(x) for x in scalars])


SETTINGS = hypothesis.settings(derandomize=True, database=None, deadline=None)


@SETTINGS
@hypothesis.given(psd_stacks())
def test_stack_slices_are_the_single_operators(stack):
    p = linalg._positive(stack.copy(), linalg.DEFAULT_CUTOFF)
    bases = p.bases()
    ranks = p.ranks()
    norms = p.norms()
    assert len(ranks) == len(norms) == len(stack)
    for j, m in enumerate(stack):
        q = linalg.positive(m)
        np.testing.assert_array_equal(p.stack[j], q.matrix)
        np.testing.assert_array_equal(p.values[j], q.eigenvalues)
        np.testing.assert_array_equal(bases[j], q.eigenvectors)
        assert p.tols[j] == q.rank_tol
        assert ranks[j] == q.rank
        assert norms[j] == q.norm2
        np.testing.assert_array_equal(bases[j][:, :ranks[j]], q.support_basis())
        np.testing.assert_array_equal(bases[j][:, ranks[j]:], q.kernel_basis())


@SETTINGS
@hypothesis.given(psd_stacks())
def test_canonical_basis_does_not_depend_on_the_read_order(stack):
    eager = linalg._positive(stack.copy(), linalg.DEFAULT_CUTOFF).bases()
    lazy = linalg._positive(stack.copy(), linalg.DEFAULT_CUTOFF)
    support = lazy.support_basis()
    np.testing.assert_array_equal(lazy.bases(), eager)
    np.testing.assert_array_equal(support, eager[0][:, :lazy.rank])
    for m in stack:
        first = linalg.positive(m)
        support = first.support_basis()
        vectors = first.eigenvectors
        alone = unmemoized(m).eigenvectors
        np.testing.assert_array_equal(vectors, alone)
        np.testing.assert_array_equal(support, alone[:, :first.rank])
        assert not (support.flags.writeable or vectors.flags.writeable or alone.flags.writeable)


@SETTINGS
@hypothesis.given(psd_stacks(), st.booleans())
def test_a_memo_hit_reads_as_the_operator_built_without_it(stack, support_first):
    for m in stack:
        # an earlier caller read the support or the whole basis; the caller
        # that hits reads the other one first
        first = linalg.positive(m)
        first.support_basis() if support_first else first.eigenvectors
        hit = linalg.positive(m.copy())
        assert hit is first
        assert public_view(hit, not support_first) == public_view(unmemoized(m), not support_first)
