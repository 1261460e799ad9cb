"""Quasi-characteristic functions of Gaussian limit laws.

A limit law N(h, J) is described by a real mean vector h and a Hermitian PSD
matrix J = V + iS (V real symmetric, S real skew). The quasi-characteristic
function of an ordered tuple of real test vectors xi_1..xi_s is

    exp( sum_t ( i xi_t . h - 1/2 xi_t^i xi_t^j J_ji )
         - sum_{t<u} xi_t^i xi_u^j J_ji )

where repeated indices are summed and the later factor's index sits on J's
first slot: xi_t^i xi_u^j J_ji = xi_u^T J xi_t. Transposing J changes the
value whenever S is nonzero, so the contraction order is load-bearing.

Test vectors are real, as in the q-LAN of Yamagata, Fujiwara and Gill (Ann.
Statist. 41, 2013): only then is each factor exp(i xi . X) of the finite-n
quasi-characteristic function unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotPositiveError
from .linalg import _eigh_raw, hermitize

#: tolerance for the PSD validation of J
_PSD_TOL = 1e-12


@dataclass(frozen=True)
class GaussianSpec:
    """Mean vector and covariance-like matrix J of a Gaussian limit law."""

    mean: np.ndarray
    j_matrix: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float, copy=True).reshape(-1)
        j = hermitize(self.j_matrix)
        if j.shape[0] != mean.shape[0]:
            raise DimensionMismatchError(
                f"mean has dimension {mean.shape[0]} but J is {j.shape[0]} x {j.shape[1]}"
            )
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean has non-finite entries")
        w = _eigh_raw(j).eigenvalues
        if len(w) and w[-1] < -_PSD_TOL * max(1.0, float(w[0]), abs(float(w[-1]))):
            raise NotPositiveError(f"J has eigenvalue {w[-1]:.3e} below the PSD tolerance")
        mean.flags.writeable = False
        j.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "j_matrix", j)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def v_matrix(self) -> np.ndarray:
        """Real part of J (the classical covariance)."""
        return self.j_matrix.real

    @property
    def s_matrix(self) -> np.ndarray:
        """Imaginary part of J (the commutator form)."""
        return self.j_matrix.imag


def as_query(xis, dim: int | None = None) -> np.ndarray:
    """Normalize a query of real test vectors to a complex (s, d) array."""
    q = np.asarray(xis, dtype=complex)
    if q.ndim == 1:
        q = q[None, :]
    if q.ndim != 2 or q.shape[0] == 0:
        raise DimensionMismatchError(
            f"a query is a nonempty sequence of test vectors, got shape {q.shape}"
        )
    if dim is not None and q.shape[1] != dim:
        raise DimensionMismatchError(
            f"query vectors have dimension {q.shape[1]}, expected {dim}"
        )
    if not np.all(np.isfinite(q)):
        raise ValueError("query has non-finite entries")
    if np.any(q.imag):
        raise ValueError("query has entries with a nonzero imaginary part; test vectors are real")
    return q


def qcf(spec: GaussianSpec, xis) -> complex:
    """Quasi-characteristic function of N(mean, J) at an ordered query.

    The per-factor quadratic xi^T J xi equals xi^T V xi, since xi^T S xi
    vanishes for the skew S, so only the cross terms see Im J.
    """
    q = as_query(xis, spec.dim)
    h = spec.mean
    v = spec.v_matrix
    j = spec.j_matrix
    total = 0.0 + 0.0j
    running = np.zeros(spec.dim, dtype=complex)
    for t in range(q.shape[0]):
        xi = q[t]
        total += 1j * (xi @ h) - 0.5 * (xi @ (v @ xi))
        total -= xi @ (j @ running)
        running = running + xi
    return complex(np.exp(total))


def lecam_limit_spec(sigma_matrix, tau_matrix, h) -> GaussianSpec:
    """Gaussian limit N((Re tau) h, Sigma) of a shifted collective family."""
    sig = hermitize(sigma_matrix)
    tau = np.asarray(tau_matrix, dtype=complex)
    hv = np.asarray(h, dtype=float).reshape(-1)
    if tau.ndim != 2 or tau.shape[0] != sig.shape[0] or tau.shape[1] != hv.shape[0]:
        raise DimensionMismatchError(
            f"tau must be {sig.shape[0]} x {hv.shape[0]}, got {tau.shape}"
        )
    mean = tau.real @ hv
    return GaussianSpec(mean=mean, j_matrix=sig)
