"""Shared helpers for the test suite."""

from functools import reduce

import numpy as np
from hypothesis import strategies as st

from pshchain import ChainSpec, build_hamiltonian, build_parity
from pshchain.biortho import sector_spectra
from pshchain.model import sector_blocks

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
ID2 = np.eye(2, dtype=np.complex128)


def psym_2x2(a, w, c=0.0):
    """Complex-symmetric pseudo-Hermitian block for diag(1, -1): c +- sqrt(a^2 - w^2)."""
    return np.array([[c + a, 1j * w], [1j * w, c - a]], dtype=complex)


def kron_chain(factors):
    """Ordered tensor product; the first factor acts on site 1, the most significant."""
    return reduce(np.kron, factors)


def site_operator(op, site, n):
    """Single-site operator ``op`` at 1-based ``site`` of an n-site chain."""
    factors = [ID2] * n
    factors[site - 1] = op
    return kron_chain(factors)


def reference_hamiltonian(spec):
    """Chain Hamiltonian summed term by term from Kronecker products.

    Terms are added in the order the package documents (transverse field and
    gain per site, then the bonds), so the result must agree to the last bit.
    """
    n = spec.n
    h = np.zeros((spec.dim, spec.dim), dtype=np.complex128)
    for site in range(1, n + 1):
        if spec.delta != 0.0:
            h += spec.delta * site_operator(PAULI_X, site, n)
        g = spec.gamma_profile[site - 1]
        if g != 0.0:
            h += 1j * g * site_operator(PAULI_Z, site, n)
    if spec.j != 0.0:
        for site in range(1, n):
            factors = [ID2] * n
            factors[site - 1] = factors[site] = PAULI_Z
            h -= spec.j * kron_chain(factors)
    return h


def reference_gain_generator(n):
    """i * sum_n (-1)^(n-1) sz_n from Kronecker products."""
    v = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for site in range(1, n + 1):
        v += 1j * (-1.0) ** (site - 1) * site_operator(PAULI_Z, site, n)
    return v


def reference_mirror(n):
    """Bit-reversal permutation of basis indices, read off the bit strings."""
    return np.array([int(format(b, f"0{n}b")[::-1], 2) for b in range(1 << n)])


def reference_parity(n):
    """Mirror-parity permutation matrix with P[mirror(b), b] = 1."""
    p = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    p[reference_mirror(n), np.arange(1 << n)] = 1.0
    return p


def hermitian_reference_indices(spec):
    """Independent gain-free reference: eigh spectrum plus parity expectation.

    Uses the Hermitian solver (a different code path from the package's
    general eigensolver) and reads each level's mirror parity directly from
    the eigenvector, resolving degenerate clusters by diagonalizing the
    parity inside the cluster.
    """
    h = build_hamiltonian(spec)
    assert np.allclose(h, h.conj().T)
    p = build_parity(spec.n)
    evals, vecs = np.linalg.eigh(h.real)
    out = []
    i = 0
    while i < len(evals):
        k = i
        while k + 1 < len(evals) and abs(evals[k + 1] - evals[i]) < 1e-10:
            k += 1
        block = vecs[:, i:k + 1]
        pb = block.conj().T @ p.real @ block
        signs = np.linalg.eigvalsh(0.5 * (pb + pb.T))
        for e, s in zip(evals[i:k + 1], np.sort(signs)):
            out.append((float(e), int(np.sign(s))))
        i = k + 1
    return out


def match_level_sets(reference, computed, energy_tol=1e-8):
    """Compare (energy, index) lists cluster-wise; returns mismatch count.

    Levels closer than ``energy_tol`` on either side are grouped and their
    index multisets compared, so exact and near degeneracies cannot produce
    spurious ordering mismatches.
    """
    ref = sorted(reference)
    got = sorted(computed)
    assert len(ref) == len(got)
    mismatches = 0
    i = 0
    while i < len(ref):
        k = i
        while (k + 1 < len(ref)
               and (ref[k + 1][0] - ref[k][0] < energy_tol
                    or got[k + 1][0] - got[k][0] < energy_tol)):
            k += 1
        for er, eg in zip(ref[i:k + 1], got[i:k + 1]):
            if abs(er[0] - eg[0]) > energy_tol:
                mismatches += 1
        if sorted(x[1] for x in ref[i:k + 1]) != sorted(x[1] for x in got[i:k + 1]):
            mismatches += 1
        i = k + 1
    return mismatches


def assert_same_spectrum(x, y):
    """Two biorthogonal spectra agree bit for bit."""
    assert np.array_equal(x.eigenvalues, y.eigenvalues)
    assert np.array_equal(x.eigensystem.right, y.eigensystem.right)
    assert np.array_equal(x.eigensystem.left, y.eigensystem.left)
    assert np.array_equal(x.z2, y.z2)
    assert np.array_equal(x.indicator, y.indicator)
    assert np.array_equal(x.partner, y.partner)
    assert np.array_equal(x.sector, y.sector)


def solve_chain(spec, **kw):
    """Sector-engine spectrum of one chain, solved alone; raises what the solve returns."""
    sp = sector_spectra(sector_blocks(spec), spec.n, **kw)[0]
    if isinstance(sp, Exception):
        raise sp
    return sp


def build_sector_blocks(points, n):
    """Both sector stacks of ``NormalizedPoint``s, built one point at a time."""
    return tuple(np.concatenate(b) for b in zip(*(sector_blocks(p.chain(n)) for p in points)))


def same_blocks(x, y) -> bool:
    """Two single-point sector stacks (one matrix per Q block) agree bit for bit."""
    return all(np.array_equal(a, b) for a, b in zip(x, y))


@st.composite
def mirror_chains(draw, allow_subnormal=True):
    """Chains of N in {2, 4, 6} with a random mirror-antisymmetric gain profile."""
    def floats(lo, hi):
        return st.floats(lo, hi, allow_subnormal=allow_subnormal)

    n = draw(st.sampled_from([2, 4, 6]))
    half = draw(st.lists(floats(-1.0, 1.0), min_size=n // 2, max_size=n // 2))
    return ChainSpec(n=n, delta=draw(floats(0.0, 1.5)), j=draw(floats(-1.5, 1.5)),
                     gamma_profile=(*half, *(-g for g in reversed(half))))
