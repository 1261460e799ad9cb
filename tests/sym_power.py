"""Symmetric powers Sym^m(A): A^{(x)m} on the symmetric subspace, in the Dicke basis.

Both operators of an n-fold pair (rho^{(x)n}, sigma^{(x)n}) commute with the
permutations of the sites, so by Schur-Weyl duality each is a direct sum of
small blocks, and the Lebesgue decomposition splits along them. For a qubit

    rho^{(x)n} = (+)_j (det rho)^j Sym^{n-2j}(rho) (x) I_{m_j},   m_j = C(n, j) - C(n, j-1),

and the largest block, Sym^n(rho), is (n+1) x (n+1), so n-fold statements up
to n = 63 fit in 64 dimensions instead of 2^63.

The Dicke basis |k> of Sym^m(C^d) is indexed by the occupation vectors k of
m quanta in d modes, in the order of ``occupations``. Splitting off the last
site, |k> = sum_i sqrt(k_i / m) |k - e_i> (x) |i>, an isometry J, and
Sym^m(A) = J* (Sym^{m-1}(A) (x) A) J. ``sym_power`` applies that recursion,
entry by entry. The helpers need only numpy and the standard library.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


def occupations(d: int, m: int) -> list[tuple[int, ...]]:
    """The occupation vectors of m quanta in d modes, lexicographically descending."""
    if d == 1:
        return [(m,)]
    return [(first, *rest) for first in range(m, -1, -1) for rest in occupations(d - 1, m - first)]


@functools.lru_cache(maxsize=None)
def _lowering(d: int, t: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """J's entries between Sym^t and Sym^{t-1} (x) C^d, per pair of modes (i, j).

    For each (i, j), in ``np.ndindex(d, d)`` order: the flat positions of
    (k - e_i, l - e_j) in a Sym^{t-1} block, and the weights
    sqrt(k_i l_j) / t, which are 0 where k_i = 0 or l_j = 0 and the position
    is a placeholder.
    """
    index = {k: n for n, k in enumerate(occupations(d, t - 1))}
    occ = occupations(d, t)
    rows = [(np.array([index.get(k[:i] + (k[i] - 1,) + k[i + 1:], 0) for k in occ]),
             np.sqrt(np.array([k[i] for k in occ]) / t)) for i in range(d)]
    return [(ii[:, None] * len(index) + ij, np.outer(wi, wj))
            for ii, wi in rows for ij, wj in rows]


def sym_power(a, m: int) -> np.ndarray:
    """Sym^m(a) for a square matrix ``a``, in the Dicke basis of ``occupations``."""
    a = np.asarray(a, dtype=complex)
    block = np.ones((1, 1), dtype=complex)
    for t in range(1, m + 1):
        flat = block.ravel()
        block = sum(aij * w * flat.take(pos)
                    for aij, (pos, w) in zip(a.ravel().tolist(), _lowering(a.shape[0], t)))
    return block


def sym_vector(psi, m: int) -> np.ndarray:
    """psi^{(x)m} in the Dicke basis: sqrt(m! / prod k_i!) prod psi_i^{k_i} at each k."""
    psi = np.asarray(psi, dtype=complex)
    return np.array([math.sqrt(math.factorial(m) / math.prod(map(math.factorial, k)))
                     * np.prod(psi ** np.array(k)) for k in occupations(len(psi), m)])


def dicke_isometry(d: int, m: int) -> np.ndarray:
    """The (d^m, dim Sym^m) isometry onto the symmetric subspace, in np.kron's order."""
    index = {k: n for n, k in enumerate(occupations(d, m))}
    v = np.zeros((d ** m, len(index)))
    for pos, sites in enumerate(itertools.product(range(d), repeat=m)):
        v[pos, index[tuple(np.bincount(sites, minlength=d).tolist())]] = 1.0
    return v / np.sqrt(v.sum(axis=0))


def dense_power(a, m: int) -> np.ndarray:
    """a^{(x)m}, the dense tensor power."""
    out = np.ones((1, 1), dtype=complex)
    for _ in range(m):
        out = np.kron(out, a)
    return out
