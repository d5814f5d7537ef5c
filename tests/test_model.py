from dataclasses import replace

import numpy as np
import pytest

from conftest import (ID2, PAULI_Z, kron_chain, reference_gain_generator,
                      reference_hamiltonian, reference_mirror, reference_parity,
                      site_operator)
from pshchain import (ChainSpec, NormalizedPoint, build_hamiltonian, build_parity,
                      eig_general, gain_generator, psh_residual)

RT5 = np.sqrt(5.0)


def random_valid_spec(rng, n=None):
    """Random chain with a mirror-antisymmetric (not necessarily staggered) profile."""
    if n is None:
        n = int(rng.choice([2, 4, 6]))
    half = rng.uniform(-1.0, 1.0, size=n // 2)
    profile = np.concatenate([half, -half[::-1]])
    return ChainSpec(n=n, delta=float(rng.uniform(0.0, 2.0)),
                     j=float(rng.uniform(-2.0, 2.0)), gamma_profile=tuple(profile))


class TestChainSpec:
    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(n=3, delta=1.0, j=1.0, gamma_profile=(0.1, 0.0, -0.1))

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec.staggered(2, -1.0, 1.0, 0.0)

    def test_symmetric_profile_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(n=2, delta=1.0, j=1.0, gamma_profile=(0.3, 0.3))

    def test_staggered_profile(self):
        spec = ChainSpec.staggered(4, 1.0, 1.0, 0.2)
        assert spec.gamma_profile == (0.2, -0.2, 0.2, -0.2)
        assert spec.staggered_gamma() == 0.2

    def test_general_antisymmetric_profile_accepted(self):
        spec = ChainSpec(n=4, delta=1.0, j=0.5, gamma_profile=(0.3, -0.1, 0.1, -0.3))
        assert spec.staggered_gamma() is None

    def test_normalized_point(self):
        pt = NormalizedPoint(0.6, 0.2)
        spec = pt.chain(4)
        assert spec.j == 0.6
        assert np.isclose(spec.j ** 2 + spec.delta ** 2, 1.0)
        with pytest.raises(ValueError):
            NormalizedPoint(1.5, 0.0)
        with pytest.raises(ValueError):
            NormalizedPoint(0.5, -0.1)


class TestBuildHamiltonian:
    def test_two_site_hermitian_spectrum(self):
        h = build_hamiltonian(ChainSpec.staggered(2, 1.0, 1.0, 0.0))
        evals = np.sort(np.linalg.eigvalsh(h))
        assert np.allclose(evals, [-RT5, -1.0, 1.0, RT5], atol=1e-12)

    def test_classical_limit(self):
        h = build_hamiltonian(ChainSpec.staggered(2, 0.0, 1.0, 0.0))
        assert np.allclose(np.sort(np.diag(h).real), [-1, -1, 1, 1])
        assert np.allclose(h, np.diag(np.diag(h)))

    def test_hermitian_iff_gain_free(self):
        spec = ChainSpec.staggered(4, 0.7, -0.4, 0.0)
        h = build_hamiltonian(spec)
        assert np.linalg.norm(h - h.conj().T) == 0.0
        hg = build_hamiltonian(ChainSpec.staggered(4, 0.7, -0.4, 0.3))
        assert np.linalg.norm(hg - hg.conj().T) > 0.1

    def test_spectrum_closed_under_conjugation(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            spec = random_valid_spec(rng)
            w = eig_general(build_hamiltonian(spec)).eigenvalues
            # every eigenvalue must have a conjugate partner in the multiset
            dist = np.abs(w[:, None] - np.conj(w)[None, :])
            assert float(np.max(np.min(dist, axis=1))) <= 1e-10


class TestBuildParity:
    def test_two_site_action(self):
        p = build_parity(2)
        # basis order |00>, |01>, |10>, |11>: the mirror swaps |01> and |10>
        expected = np.eye(4)[:, [0, 2, 1, 3]]
        assert np.array_equal(p.real, expected)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_self_inverse(self, n):
        p = build_parity(n)
        assert np.array_equal(p @ p, np.eye(1 << n))
        assert np.array_equal(p, p.conj().T)

    def test_eigenvalues_are_signs(self):
        for n in (2, 4):
            vals = np.linalg.eigvalsh(build_parity(n).real)
            assert np.allclose(np.abs(vals), 1.0, atol=1e-12)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            build_parity(3)

    def test_non_integer_length_rejected(self):
        with pytest.raises(ValueError):
            build_parity(4.0)

    def test_cached_matrix_is_read_only(self):
        p = build_parity(4)
        assert build_parity(4) is p
        assert not p.flags.writeable
        with pytest.raises(ValueError):
            p[0, 0] = 0.0

    def test_commutes_with_gain_free_hamiltonian(self):
        for n in (2, 4, 6):
            spec = ChainSpec.staggered(n, 0.8, -0.6, 0.0)
            h = build_hamiltonian(spec)
            p = build_parity(n)
            assert np.linalg.norm(h @ p - p @ h) <= 1e-12


class TestPshResidual:
    def test_staggered_chain_is_pseudo_hermitian(self):
        for n in (2, 4):
            for gamma in (0.0, 0.3, 1.1):
                spec = ChainSpec.staggered(n, 0.9, 0.5, gamma)
                assert psh_residual(build_hamiltonian(spec), build_parity(n)) <= 1e-13

    def test_random_antisymmetric_profiles(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            spec = random_valid_spec(rng)
            assert psh_residual(build_hamiltonian(spec), build_parity(spec.n)) <= 1e-12

    def test_uniform_profile_breaks_it(self):
        # uniform imaginary field cannot come from ChainSpec; assemble by hand
        n = 2
        h = build_hamiltonian(ChainSpec.staggered(n, 1.0, 1.0, 0.0))
        for site in (1, 2):
            h = h + 0.4j * site_operator(PAULI_Z, site, n)
        assert psh_residual(h, build_parity(n)) > 0.1

    def test_hermitian_with_identity_metric(self):
        h = build_hamiltonian(ChainSpec.staggered(4, 1.0, 0.3, 0.0))
        assert psh_residual(h, np.eye(16)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psh_residual(np.eye(4), np.eye(2))


class TestGainGenerator:
    def test_anti_hermitian(self):
        v = gain_generator(ChainSpec.staggered(4, 1.0, 1.0, 0.2))
        assert np.linalg.norm(v + v.conj().T) == 0.0

    def test_diagonal_staggered_magnetization(self):
        n = 2
        v = gain_generator(ChainSpec.staggered(n, 1.0, 1.0, 0.0))
        expected = 1j * (kron_chain([PAULI_Z, ID2]) - kron_chain([ID2, PAULI_Z]))
        assert np.array_equal(v, expected)
        assert np.allclose(v, np.diag(np.diag(v)))
        assert np.max(np.abs(np.diag(v).real)) == 0.0

    def test_matches_finite_difference_of_hamiltonian(self):
        spec0 = ChainSpec.staggered(4, 0.8, -0.5, 0.0)
        spec1 = ChainSpec.staggered(4, 0.8, -0.5, 1.0)
        dh = build_hamiltonian(spec1) - build_hamiltonian(spec0)
        assert np.allclose(gain_generator(spec0), dh)

    def test_requires_staggered_profile(self):
        spec = ChainSpec(n=4, delta=1.0, j=0.5, gamma_profile=(0.3, -0.1, 0.1, -0.3))
        with pytest.raises(ValueError):
            gain_generator(spec)


class TestExactReference:
    """The bit-operation builders against term-by-term Kronecker products."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_hamiltonian_bit_identical(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(4):
            spec = random_valid_spec(rng, n)
            for variant in (spec, replace(spec, delta=0.0), replace(spec, j=0.0),
                            replace(spec, gamma_profile=(0.0,) * n)):
                assert np.array_equal(build_hamiltonian(variant),
                                      reference_hamiltonian(variant))

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_gain_generator_and_parity_identical(self, n):
        spec = ChainSpec.staggered(n, 0.7, -0.3, 0.2)
        assert np.array_equal(gain_generator(spec), reference_gain_generator(n))
        assert np.array_equal(build_parity(n), reference_parity(n))


class TestSymmetryInvariants:
    """H^T = H, and Q = P X (mirror times global spin flip) commutes with H, V and P."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_exact_symmetries(self, n):
        dim = 1 << n
        q = reference_mirror(n)[np.arange(dim) ^ (dim - 1)]
        assert np.array_equal(q[q], np.arange(dim))  # Q^2 = I
        p = build_parity(n)
        assert np.array_equal(p[q][:, q], p)
        rng = np.random.default_rng(60 + n)
        for _ in range(3):
            spec = NormalizedPoint(float(rng.uniform(-1.0, 1.0)),
                                   float(rng.uniform(0.0, 1.0))).chain(n)
            h = build_hamiltonian(spec)
            assert np.array_equal(h, h.T)
            tol = 1e-14 * np.linalg.norm(h)
            assert np.max(np.abs(h[q][:, q] - h)) <= tol
            v = gain_generator(spec)
            assert np.max(np.abs(v[q][:, q] - v)) <= 1e-14 * np.linalg.norm(v)
