"""Transverse-field Ising chain with site-resolved imaginary longitudinal fields.

The chain has an even number N of spins-1/2 with open ends,

    H = sum_n [ delta * sx_n + i g_n * sz_n ] - j * sum_n sz_n sz_{n+1},

where the per-site gains g_n are mirror-antisymmetric (g_n = -g_{N+1-n}) so
that H is pseudo-Hermitian with respect to the mirror parity P of the chain:
P H = H^+ P. The staggered profile g_n = (-1)^(n-1) * g is the default choice.

Basis conventions: site 1 maps to the most significant factor of the 2^N
product basis and |0> is the +1 eigenstate of sz. Mirror parity is then the
bit-reversal permutation of basis indices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import as_complex_matrix

_PROFILE_TOL = 1e-12


@dataclass(frozen=True)
class ChainSpec:
    """Physical parameters of one chain instance.

    ``gamma_profile`` lists the imaginary longitudinal field strength per
    site (1-based site n is entry n-1) and must be mirror-antisymmetric.
    """

    n: int
    delta: float
    j: float
    gamma_profile: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n <= 0 or self.n % 2:
            raise ValueError(f"chain length must be a positive even integer, got {self.n}")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"transverse field must be finite and >= 0, got {self.delta}")
        if not math.isfinite(self.j):
            raise ValueError("coupling must be finite")
        profile = tuple(float(g) for g in self.gamma_profile)
        if len(profile) != self.n:
            raise ValueError(
                f"gamma_profile has {len(profile)} entries for {self.n} sites"
            )
        if not all(math.isfinite(g) for g in profile):
            raise ValueError("gamma_profile entries must be finite")
        tol = _PROFILE_TOL * max(1.0, max(abs(g) for g in profile))
        for i in range(self.n):
            if abs(profile[i] + profile[self.n - 1 - i]) > tol:
                raise ValueError(
                    "gamma_profile must be mirror-antisymmetric: "
                    f"profile[{i}] + profile[{self.n - 1 - i}] != 0"
                )
        object.__setattr__(self, "gamma_profile", profile)

    @classmethod
    def staggered(cls, n: int, delta: float, j: float, gamma: float) -> "ChainSpec":
        """Chain with the alternating profile g_n = (-1)^(n-1) * gamma."""
        profile = tuple(gamma * (-1.0) ** i for i in range(n))
        return cls(n=n, delta=delta, j=j, gamma_profile=profile)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def staggered_gamma(self) -> float | None:
        """Return gamma if the profile is alternating, else None."""
        g0 = self.gamma_profile[0]
        tol = _PROFILE_TOL * max(1.0, abs(g0))
        for i, g in enumerate(self.gamma_profile):
            if abs(g - (-1.0) ** i * g0) > tol:
                return None
        return g0


@dataclass(frozen=True)
class NormalizedPoint:
    """Point on the unit coupling circle j^2 + delta^2 = 1.

    ``j_tilde`` in [-1, 1] fixes the coupling, delta = sqrt(1 - j_tilde^2),
    and ``gamma_tilde`` >= 0 is the staggered gain in the same units.
    """

    j_tilde: float
    gamma_tilde: float

    def __post_init__(self):
        if not (math.isfinite(self.j_tilde) and abs(self.j_tilde) <= 1.0):
            raise ValueError(f"j_tilde must lie in [-1, 1], got {self.j_tilde}")
        if not (math.isfinite(self.gamma_tilde) and self.gamma_tilde >= 0.0):
            raise ValueError(f"gamma_tilde must be >= 0, got {self.gamma_tilde}")

    @property
    def delta(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.j_tilde * self.j_tilde))

    def chain(self, n: int) -> ChainSpec:
        return ChainSpec.staggered(n, self.delta, self.j_tilde, self.gamma_tilde)


class _Operators(NamedTuple):
    """Basis-index tables of an n-site chain; arrays are read-only."""

    flips: np.ndarray    # sum_n sx_n, real 2^n x 2^n
    z: np.ndarray        # z[k, b] = eigenvalue (+-1.0) of sz on site k+1 in state b
    reverse: np.ndarray  # bit-reversal permutation of basis indices


@functools.cache
def _operators(n: int) -> _Operators:
    basis = np.arange(1 << n)
    shifts = np.arange(n - 1, -1, -1)[:, None]  # site 1 is the most significant bit
    bits = (basis >> shifts) & 1
    flips = np.zeros((basis.size, basis.size))
    for mask in 1 << shifts[:, 0]:
        flips[basis ^ mask, basis] = 1.0
    z = 1.0 - 2.0 * bits
    reverse = (bits << np.arange(n)[:, None]).sum(axis=0)
    for a in (flips, z, reverse):
        a.flags.writeable = False
    return _Operators(flips, z, reverse)


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense 2^N x 2^N matrix of the chain Hamiltonian (open boundary)."""
    return _hamiltonians(spec.n, [spec.delta], [spec.j], [spec.gamma_profile])[0]


def build_hamiltonians(points, n: int) -> np.ndarray:
    """Stack of :func:`build_hamiltonian` of ``p.chain(n)`` for each :class:`NormalizedPoint`."""
    j, gamma, delta = np.array([(p.j_tilde, p.gamma_tilde, p.delta) for p in points]).T
    return _hamiltonians(n, delta, j, gamma[:, None] * (-1.0) ** np.arange(n))


def _hamiltonians(n: int, delta, j, gains) -> np.ndarray:
    """Hamiltonians for per-matrix ``delta``, ``j`` and site ``gains``, in one broadcast.

    The diagonal adds i g_n sz_n site by site, then -j sz_n sz_{n+1} bond by
    bond: the order of a term-by-term sum of tensor products, which the
    result therefore matches to the last bit.
    """
    ops = _operators(n)
    h = np.zeros((len(delta), 1 << n, 1 << n), dtype=np.complex128)
    np.multiply(np.asarray(delta)[:, None, None], ops.flips, out=h.real)
    diag = h.reshape(len(h), -1)[:, ::(1 << n) + 1]  # a view of each diagonal
    gain, bond = np.zeros(diag.shape), np.zeros(diag.shape)
    for g, z in zip(np.asarray(gains).T, ops.z):
        gain += g[:, None] * z
    for za, zb in zip(ops.z, ops.z[1:]):
        bond -= np.asarray(j)[:, None] * (za * zb)
    diag.real, diag.imag = bond, gain
    return h


def build_parity(n: int) -> np.ndarray:
    """Permutation matrix of the chain mirror (site n <-> N+1-n).

    Self-inverse and Hermitian; serves as the pseudo-metric of the model.
    The matrix is built once per chain length and returned read-only.
    """
    if not isinstance(n, int) or n <= 0 or n % 2:
        raise ValueError(f"chain length must be a positive even integer, got {n}")
    return _parity(n)


@functools.cache
def _parity(n: int) -> np.ndarray:
    reverse = _operators(n).reverse
    p = np.zeros((reverse.size, reverse.size), dtype=np.complex128)
    p[reverse, np.arange(reverse.size)] = 1.0
    p.flags.writeable = False
    return p


def psh_residual(h, zeta) -> float:
    """Frobenius norm of zeta H - H^+ zeta; zero iff H is zeta-pseudo-Hermitian."""
    a = as_complex_matrix(h)
    z = as_complex_matrix(zeta)
    if a.shape != z.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {z.shape}")
    return float(np.linalg.norm(z @ a - a.conj().T @ z))


def gain_generator(spec: ChainSpec) -> np.ndarray:
    """Derivative of H with respect to the staggered gain strength.

    V = i * sum_n (-1)^(n-1) sz_n, an anti-Hermitian diagonal matrix. Only
    defined for chains whose profile is (a multiple of) the staggered one.
    """
    if spec.staggered_gamma() is None:
        raise ValueError("gain generator is defined for staggered profiles only")
    v = np.zeros((spec.dim, spec.dim), dtype=np.complex128)
    np.fill_diagonal(v.imag, (-1.0) ** np.arange(spec.n) @ _operators(spec.n).z)
    return v
