"""Transverse-field Ising chain with site-resolved imaginary longitudinal fields.

The chain has an even number N of spins-1/2 with open ends,

    H = sum_n [ delta * sx_n + i g_n * sz_n ] - j * sum_n sz_n sz_{n+1},

where the per-site gains g_n are mirror-antisymmetric (g_n = -g_{N+1-n}) so
that H is pseudo-Hermitian with respect to the mirror parity P of the chain:
P H = H^+ P. The staggered profile g_n = (-1)^(n-1) * g is the default choice.

Basis conventions: site 1 maps to the most significant factor of the 2^N
product basis and |0> is the +1 eigenstate of sz. Mirror parity is then the
bit-reversal permutation of basis indices.

The solve engine never forms the dense 2^N matrix. Q = P X (mirror times
global spin flip) commutes with H, and PT = P K (K: complex conjugation)
is antiunitary and commutes with H and Q. In P's eigenbasis of a Q sector,
with the P = -1 vectors multiplied by i, H is a real matrix A and P is a
diagonal signature eta with eta A symmetric (:class:`SectorBasis`). The two
blocks, Q = +1 and Q = -1, are built in real arithmetic from orbit tables
cached per N (:func:`sector_bases`, :func:`normalized_blocks`).
:func:`build_hamiltonian` and :func:`build_parity` give the dense matrices
for general-purpose use and as the tests' reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import as_complex_matrix

_PROFILE_TOL = 1e-12


def check_chain_length(n) -> int:
    """``n``; a ValueError unless it is a positive even integer, the lengths
    whose staggered gain profile is mirror-antisymmetric."""
    if not isinstance(n, int) or n <= 0 or n % 2:
        raise ValueError(f"chain length must be a positive even integer, got {n!r}")
    return n


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
        check_chain_length(self.n)
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


class _Sites(NamedTuple):
    """Basis-index tables of an n-site chain; arrays are read-only."""

    z: np.ndarray        # z[k, b] = eigenvalue (+-1.0) of sz on site k+1 in state b
    reverse: np.ndarray  # bit-reversal permutation of basis indices


@functools.cache
def _sites(n: int) -> _Sites:
    basis = np.arange(1 << n)
    shifts = np.arange(n - 1, -1, -1)[:, None]  # site 1 is the most significant bit
    bits = (basis >> shifts) & 1
    z = 1.0 - 2.0 * bits
    reverse = (bits << np.arange(n)[:, None]).sum(axis=0)
    for a in (z, reverse):
        a.flags.writeable = False
    return _Sites(z, reverse)


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense 2^N x 2^N matrix of the chain Hamiltonian (open boundary).

    The transverse field delta sx_n flips site n's bit of a basis state, so
    delta is scattered to (state ^ mask, state). The diagonal adds i g_n sz_n
    site by site, then -j sz_n sz_{n+1} bond by bond: the order of a
    term-by-term sum of tensor products, which the result therefore matches
    to the last bit.
    """
    z = _sites(spec.n).z
    h = np.zeros((spec.dim, spec.dim), dtype=np.complex128)
    states = np.arange(spec.dim)
    for mask in 1 << np.arange(spec.n):
        h[states ^ mask, states] = spec.delta
    gain, bond = np.zeros(spec.dim), np.zeros(spec.dim)
    for g, z_site in zip(spec.gamma_profile, z):
        gain += g * z_site
    for za, zb in zip(z, z[1:]):
        bond -= spec.j * (za * zb)
    diag = h.reshape(-1)[::spec.dim + 1]  # a view of the diagonal
    diag.real, diag.imag = bond, gain
    return h


class SectorBasis(NamedTuple):
    """One Q block of an n-site chain in its real basis; arrays are read-only.

    Q = P X (mirror times global spin flip) commutes with H, and the block
    holds its eigenvalue ``q``. Each column is one orbit of basis states under
    {1, P, X, Q}, projected onto a character (p, x) with p x = q: the state
    g(r) of the orbit of r enters with chi(g) / sqrt(orbit length). The
    p = -1 columns carry a factor i and come after the p = +1 columns. In
    this basis H is a real matrix A, P is the diagonal ``eta``, and eta A is
    symmetric.
    """

    q: int
    eta: np.ndarray         # P on the block: the mirror parity (+-1.0) of each column
    flips: np.ndarray       # sum_n sx_n on the block, real symmetric (d, d)
    bonds: np.ndarray       # sum_n sz_n sz_{n+1} of each column's orbit
    gain_pairs: np.ndarray  # (2, m): the p = +1 and p = -1 column of one orbit
    z: np.ndarray           # (n, m): sz of each site in the representative of pair m
    cols: np.ndarray        # (2, 2^n): each basis state's p = +1 and p = -1 column
    weights: np.ndarray     # (2, 2^n): its coefficient there, 0.0 where it has none

    def to_states(self, r: np.ndarray) -> np.ndarray:
        """Block vectors, the columns of each (d, k) matrix of ``r``, in the 2^n basis states."""
        out = np.multiply(r[..., self.cols[0], :], self.weights[0][:, None],
                          dtype=np.complex128)
        out += r[..., self.cols[1], :] * (1j * self.weights[1])[:, None]
        return out


@functools.lru_cache(maxsize=None, typed=True)  # typed: n=4.0 is checked, not n=4's entry
def sector_bases(n: int) -> tuple[SectorBasis, SectorBasis]:
    """The Q = +1 and Q = -1 blocks of an n-site chain, built once per length.

    The transverse field couples orbits by single flips, so ``flips`` is a
    scatter over (state, site) pairs, made exactly symmetric. The -j sz sz
    term is constant on an orbit. The gain i sum_n g_n sz_n is odd under P
    and under X, so it couples only the p = +1 and p = -1 columns of one
    orbit, by -G and +G with G = sum_n g_n sz_n of the representative.
    """
    sites = _sites(check_chain_length(n))
    states = np.arange(1 << n)
    full = (1 << n) - 1
    images = np.stack([states, sites.reverse, states ^ full, sites.reverse ^ full])  # 1, P, X, Q
    rep = images.min(axis=0)  # the smallest state of each orbit represents it
    element = np.argmax(images[:, rep] == states, axis=0)  # g with g(rep) = state
    fixed = images == states  # the stabilizer of each state
    length = 4 // fixed.sum(axis=0)
    reps = np.flatnonzero(rep == states)  # (np.unique would import numpy.ma)
    bonds = np.sum(sites.z[:-1] * sites.z[1:], axis=0)
    bases = []
    for q in (1, -1):
        cols = np.zeros((2, states.size), dtype=np.int64)
        weights = np.zeros((2, states.size))
        orbit_cols = []
        start = 0
        for side, p in enumerate((1, -1)):
            chi = np.array([1.0, p, p * q, q])  # at 1, P, X, Q
            # a character lives on an orbit when it is trivial on its stabilizer
            alive = np.all(np.where(fixed[:, reps], chi[:, None], 1.0) == 1.0, axis=0)
            col = np.full(states.size, -1)
            col[reps[alive]] = start + np.arange(np.count_nonzero(alive))
            start += np.count_nonzero(alive)
            has = col[rep] >= 0
            cols[side, has] = col[rep[has]]
            weights[side, has] = chi[element[has]] / np.sqrt(length[has])
            orbit_cols.append(col[reps])
        eta = np.where(np.arange(start) < np.count_nonzero(orbit_cols[0] >= 0), 1.0, -1.0)
        flips = np.zeros((start, start))
        for mask in 1 << np.arange(n):
            for side in (0, 1):
                c = states[(weights[side] != 0.0) & (weights[side][states ^ mask] != 0.0)]
                np.add.at(flips, (cols[side, c], cols[side, c ^ mask]),
                          weights[side, c] * weights[side, c ^ mask])
        flips = 0.5 * (flips + flips.T)
        col_bonds = np.zeros(start)
        for col in orbit_cols:
            col_bonds[col[col >= 0]] = bonds[reps[col >= 0]]
        both = (orbit_cols[0] >= 0) & (orbit_cols[1] >= 0)
        basis = SectorBasis(q, eta, flips, col_bonds,
                            np.stack([orbit_cols[0][both], orbit_cols[1][both]]),
                            sites.z[:, reps[both]], cols, weights)
        for a in basis[1:]:
            a.flags.writeable = False
        bases.append(basis)
    return tuple(bases)


def check_normalized(j_tilde, gamma_tilde) -> tuple[np.ndarray, np.ndarray]:
    """The points (``j_tilde[k]``, ``gamma_tilde[k]``) as two float arrays,
    broadcast together, checked together with :class:`NormalizedPoint`'s
    checks: the first point that fails raises its ValueError. Coordinates
    that are not real numbers raise TypeError."""
    j, gamma = np.asarray(j_tilde), np.asarray(gamma_tilde)
    for a in (j, gamma):
        if a.dtype.kind not in "iuf":
            raise TypeError(f"normalized coordinates must be real numbers, got {a!r}")
    j, gamma = np.broadcast_arrays(j.astype(np.float64, copy=False),
                                   gamma.astype(np.float64, copy=False))
    valid = (np.abs(j) <= 1.0) & (gamma >= 0.0) & (gamma < math.inf)  # false for NaN
    if not valid.all():
        bad = int(np.argmin(valid))
        NormalizedPoint(float(j.flat[bad]), float(gamma.flat[bad]))  # raises its ValueError
    return j, gamma


def normalized_blocks(n: int, j_tilde, gamma_tilde) -> tuple[np.ndarray, np.ndarray]:
    """The Q = +1 and Q = -1 blocks at the normalized points (``j_tilde[k]``,
    ``gamma_tilde[k]``), 1-D arrays or scalars that broadcast together, as two
    real stacks (see :class:`SectorBasis`).

    The points are checked by :func:`check_normalized`. delta = sqrt(1 -
    j_tilde^2) is computed as :attr:`NormalizedPoint.delta` computes it, so
    block ``k`` is that of ``NormalizedPoint(j_tilde[k],
    gamma_tilde[k]).chain(n)`` (:func:`sector_blocks`), bit for bit.
    """
    j, gamma = check_normalized(j_tilde, gamma_tilde)
    delta = np.sqrt(np.maximum(0.0, 1.0 - j * j))
    return _sector_blocks(n, delta, j, gamma[:, None] * (-1.0) ** np.arange(n))


def sector_blocks(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """The Q = +1 and Q = -1 blocks of ``spec``, each a stack of one real matrix."""
    return _sector_blocks(spec.n, [spec.delta], [spec.j], [spec.gamma_profile])


def _sector_blocks(n: int, delta, j, gains) -> tuple[np.ndarray, np.ndarray]:
    """Both real blocks for per-matrix ``delta``, ``j`` and site ``gains``, in real arithmetic."""
    delta, j, gains = np.asarray(delta), np.asarray(j), np.asarray(gains)
    blocks = []
    for basis in sector_bases(n):
        d = basis.eta.size
        a = np.multiply(delta[:, None, None], basis.flips)
        a.reshape(len(a), -1)[:, ::d + 1] -= j[:, None] * basis.bonds
        g = np.zeros((len(a), basis.z.shape[1]))
        for g_site, z in zip(gains.T, basis.z):
            g += g_site[:, None] * z
        plus, minus = basis.gain_pairs
        a[:, plus, minus] = -g
        a[:, minus, plus] = g
        blocks.append(a)
    return tuple(blocks)


def build_parity(n: int) -> np.ndarray:
    """Permutation matrix of the chain mirror (site n <-> N+1-n).

    Self-inverse and Hermitian; serves as the pseudo-metric of the model.
    The matrix is built once per chain length and returned read-only.
    """
    return _parity(check_chain_length(n))


@functools.cache
def _parity(n: int) -> np.ndarray:
    reverse = _sites(n).reverse
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


def gain_diagonal(spec: ChainSpec) -> np.ndarray:
    """The diagonal of :func:`gain_generator`, i * sum_n (-1)^(n-1) sz_n per
    basis state, without the dense 2^N x 2^N matrix."""
    if spec.staggered_gamma() is None:
        raise ValueError("gain generator is defined for staggered profiles only")
    v = np.zeros(spec.dim, dtype=np.complex128)
    v.imag = (-1.0) ** np.arange(spec.n) @ _sites(spec.n).z
    return v


def gain_generator(spec: ChainSpec) -> np.ndarray:
    """Derivative of H with respect to the staggered gain strength.

    V = i * sum_n (-1)^(n-1) sz_n, an anti-Hermitian diagonal matrix
    (:func:`gain_diagonal`). Only defined for chains whose profile is (a
    multiple of) the staggered one.
    """
    return np.diag(gain_diagonal(spec))
