"""Symmetric-power oracles for the n-fold statements, up to n = 63.

The builder of ``tests/sym_power.py`` is checked against the dense tensor
power wherever d^n <= 64. Its blocks then carry exact answers past that
size: for rho = |psi><psi| and a local sigma, the Lebesgue decomposition of
s0 = Sym^n(sigma) along r0 = Sym^n(rho) = |psi^n><psi^n| has the closed form

    sigma_ac = s0 |psi^n><psi^n| s0 / <psi^n|s0|psi^n>,

whose denominator <psi|sigma|psi>^n stays near 1, so the answer is well
conditioned even where s0 is numerically singular. Every bound was fixed
before the first run: 1e-13 ||a||^n for the builder, 8 (n+1) eps ||s0|| for
the exact blocks and 1e-9 ||s0|| for Sym^n(sigma)_ac = Sym^n(sigma_ac).
"""

import functools
import math

import numpy as np
import pytest

from qleb import decomp, models
from sym_power import dense_power, dicke_isometry, sym_power, sym_vector

EPS = np.finfo(float).eps

ROUTES = ("lebesgue_decompose", "lebesgue_decompose_direct")


def max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def random_density(rng, d) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = z @ z.conj().T
    return m / np.trace(m).real


@pytest.mark.parametrize("d,n", [(d, n) for d in (2, 3, 4, 8) for n in range(1, 7)
                                 if d ** n <= 64])
def test_sym_power_is_the_dense_power_on_the_symmetric_subspace(d, n):
    rng = np.random.default_rng(10 * d + n)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v = dicke_isometry(d, n)
    np.testing.assert_allclose(v.T @ v, np.eye(v.shape[1]), rtol=0, atol=1e-15)
    bound = 1e-13 * np.linalg.norm(a, 2) ** n
    assert max_abs(v.T @ dense_power(a, n) @ v - sym_power(a, n)) <= bound
    assert max_abs(v.T @ dense_power(psi[:, None], n)[:, 0] - sym_vector(psi, n)) <= (
        1e-13 * np.linalg.norm(psi) ** n)


@pytest.mark.parametrize("n", range(2, 7))
def test_qubit_blocks_carry_the_dense_spectrum(n):
    # rho^(x)n = (+)_j (det rho)^j Sym^{n-2j}(rho) (x) I_{m_j}, m_j = C(n, j) - C(n, j-1)
    a = random_density(np.random.default_rng(n), 2)
    det = float(np.linalg.det(a).real)
    spectrum = []
    for j in range(n // 2 + 1):
        mult = math.comb(n, j) - (math.comb(n, j - 1) if j else 0)
        spectrum += np.linalg.eigvalsh(det ** j * sym_power(a, n - 2 * j)).tolist() * mult
    assert len(spectrum) == 2 ** n
    dense = np.linalg.eigvalsh(dense_power(a, n))
    assert max_abs(np.sort(spectrum) - dense) <= 1e-13 * np.linalg.norm(a, 2) ** n


#: (k, n, seed) of the local pairs below
LOCAL = [(k, n, seed) for k in (0.3, 1.0, 3.0) for n in (8, 16, 32, 63) for seed in range(2)]

#: the local pairs on which the block route's sigma_ac is off the closed form
#: by more than the bound, up to 0.42 ||s0||, with no error raised: sigma0^-1
#: and the geometric mean invert a compression whose smallest eigenvalue is
#: below rounding. qllr's R+ is the block route's witness there (rho << sigma),
#: so its sandwich identity fails on the same pairs
BLOCK_ROUTE_OFF = {
    (0.3, 8, 1), (0.3, 32, 0), (0.3, 63, 0),
    (1.0, 16, 0), (1.0, 32, 1), (1.0, 63, 0), (1.0, 63, 1),
    (3.0, 16, 0), (3.0, 32, 0), (3.0, 32, 1),
}


@functools.lru_cache(maxsize=None)
def local_block(k, n, seed):
    """r0, s0, the exact sigma_ac and the bound for a local rank-1 qubit pair.

    rho = |psi><psi| and sigma = (1 - k/n) rho + (k/n) tau, with psi a random
    unit vector and tau a random full-rank state.
    """
    rng = np.random.default_rng([seed, n, int(10 * k)])
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    sigma = (1 - k / n) * rho + (k / n) * random_density(rng, 2)
    r0, s0 = sym_power(rho, n), sym_power(sigma, n)
    col = s0 @ sym_vector(psi, n)
    exact = np.outer(col, col.conj()) / (sym_vector(psi, n).conj() @ col).real
    return r0, s0, exact, 8 * (n + 1) * EPS * np.linalg.norm(s0, 2)


def _local_cases(off=frozenset()):
    xfail = pytest.mark.xfail(strict=True, reason="the block route's witness is off")
    return [pytest.param(*case, marks=xfail) if case in off else case for case in LOCAL]


@pytest.mark.parametrize("k,n,seed", _local_cases(BLOCK_ROUTE_OFF))
def test_block_route_on_local_rank_one_blocks(k, n, seed):
    r0, s0, exact, bound = local_block(k, n, seed)
    assert max_abs(decomp.lebesgue_decompose(s0, r0).sigma_ac.matrix - exact) <= bound


@pytest.mark.parametrize("k,n,seed", _local_cases())
def test_direct_route_on_local_rank_one_blocks(k, n, seed):
    r0, s0, exact, bound = local_block(k, n, seed)
    assert max_abs(decomp.lebesgue_decompose_direct(s0, r0).sigma_ac.matrix - exact) <= bound


@pytest.mark.parametrize("k,n,seed", _local_cases(BLOCK_ROUTE_OFF))
def test_qllr_sandwich_on_local_rank_one_blocks(k, n, seed):
    # r0 << s0, which qllr checks: <psi^n|s0|psi^n> = <psi|sigma|psi>^n > 0
    r0, s0, exact, bound = local_block(k, n, seed)
    w, v = np.linalg.eigh(decomp.qllr(s0, r0).l_matrix)
    half = (v * np.exp(w / 2)) @ v.conj().T
    assert max_abs(half @ r0 @ half - exact) <= bound


@pytest.mark.parametrize("route", ROUTES)
def test_sym_power_of_the_ac_part_at_d3(route):
    # (sigma^(x)n)_ac = (sigma_ac)^(x)n, and both sides keep Sym^n: at n = 4 a
    # rank-2 rho has a rank-5 Sym^4(rho) in 15 dimensions
    decompose = getattr(decomp, route)
    n = 4
    for seed in range(5):
        for ks in (2, 3):
            rho, sigma = (p.matrix for p in models.random_psd_pair(
                models.RandomPsdPairSpec(3, 2, ks, seed=seed)))
            ac = decompose(sigma, rho).sigma_ac.matrix
            s0 = sym_power(sigma, n)
            got = decompose(s0, sym_power(rho, n)).sigma_ac.matrix
            assert max_abs(got - sym_power(ac, n)) <= 1e-9 * np.linalg.norm(s0, 2), (seed, ks)
