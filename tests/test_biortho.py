import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings

from conftest import (hermitian_reference_indices, match_level_sets, mirror_chains,
                      psym_2x2, solve_chain)
from pshchain import (AtExceptionalPoint, ChainSpec, IndexIllDefined,
                      NormalizedPoint, build_hamiltonian, build_parity,
                      ep_indicator, full_spectrum, spectrum_with_indices, z2_index)
from pshchain import biortho, numerics
from pshchain.model import sector_bases

ZETA2 = np.diag([1.0, -1.0]).astype(complex)


def chain_spectrum(n, j_tilde, gamma_tilde, **kw):
    spec = NormalizedPoint(j_tilde, gamma_tilde).chain(n)
    return spectrum_with_indices(build_hamiltonian(spec), build_parity(n), **kw)


class TestZ2Index:
    def test_basis_vectors(self):
        assert z2_index(np.array([1.0, 0.0]), ZETA2) == 1
        assert z2_index(np.array([0.0, 1.0]), ZETA2) == -1

    def test_scale_invariant(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        zeta = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
        base = z2_index(v, zeta)
        for c in (2.0, -3.5, 0.1 + 0.9j):
            assert z2_index(c * v, zeta) == base

    def test_floor(self):
        v = np.array([1.0, 1.0])  # <v|zeta|v> = 0 for zeta = diag(1,-1)
        with pytest.raises(IndexIllDefined):
            z2_index(v, ZETA2)
        with pytest.raises(ValueError):
            z2_index(np.zeros(2), ZETA2)


class TestEpIndicator:
    def test_hermitian_identity_metric(self):
        h = build_hamiltonian(ChainSpec.staggered(2, 1.0, 0.7, 0.0))
        vals, vecs = np.linalg.eigh(h.real)
        for k in range(4):
            assert np.isclose(ep_indicator(vecs[:, k], np.eye(4)), 1.0)

    def test_zero_at_defective_point(self):
        # eigenvector of psym_2x2(1, 1) at its exceptional point: (1, i)
        assert ep_indicator(np.array([1.0, 1j]), ZETA2) < 1e-15

    def test_decreases_toward_coalescence(self):
        vals = []
        for a in (1.5, 1.1, 1.01, 1.001):
            sp = spectrum_with_indices(psym_2x2(a, 1.0), ZETA2)
            vals.append(sp.levels[1].ep_indicator)
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert vals[-1] < 0.05

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            ep_indicator(np.zeros(3), np.eye(3))

    @pytest.mark.parametrize("read", [ep_indicator, z2_index])
    def test_vector_mapped_to_zero_rejected_without_warning(self, read):
        # warnings are errors here: the check must come before any division
        with pytest.raises(ValueError, match="maps the vector to zero"):
            read([1.0, 0.0], [[0.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("read", [ep_indicator, z2_index])
    def test_dimension_mismatch_rejected(self, read):
        with pytest.raises(ValueError, match="dimension mismatch"):
            read([1.0, 0.0, 1.0], ZETA2)


class TestSpectrumWithIndices:
    def test_two_level_toy(self):
        sp = spectrum_with_indices(psym_2x2(2.0, 1.0), ZETA2)
        assert np.allclose(sp.eigenvalues, [-np.sqrt(3), np.sqrt(3)], atol=1e-13)
        assert sp.levels[0].z2_index == -1
        assert sp.levels[1].z2_index == 1

    def test_rescaled_vectors_satisfy_metric_relation(self):
        sp = chain_spectrum(4, 0.45, 0.1)
        zeta = build_parity(4)
        for lv in sp.levels:
            if lv.z2_index is None:
                continue
            assert np.allclose(lv.left, lv.z2_index * (zeta @ lv.right), atol=1e-10)
            q = np.vdot(lv.right, zeta @ lv.right)
            assert abs(q.imag) <= 1e-10
            assert np.sign(q.real) == lv.z2_index

    def test_biorthonormal_after_rescaling(self):
        sp = chain_spectrum(4, -0.3, 0.25)
        assert sp.eigensystem.biortho_residual < 1e-9

    def test_two_site_chain_indices(self):
        sp = chain_spectrum(2, 1 / np.sqrt(2), 0.0)
        assert [lv.z2_index for lv in sp.levels] == [1, 1, -1, 1]

    def test_gain_free_indices_equal_parities(self):
        for n in (2, 4, 6):
            for jt in (-0.8, -0.2, 0.5, 0.9):
                spec = NormalizedPoint(jt, 0.0).chain(n)
                sp = spectrum_with_indices(build_hamiltonian(spec), build_parity(n))
                ref = hermitian_reference_indices(spec)
                got = [(lv.eigenvalue.real, lv.z2_index) for lv in sp.levels]
                assert match_level_sets(ref, got) == 0

    def test_conjugate_pairing(self):
        sp = chain_spectrum(4, -0.9, 0.3)
        undefined = [lv for lv in sp.levels if lv.z2_index is None]
        assert undefined and len(undefined) % 2 == 0
        for lv in sp.levels:
            if lv.conjugate_partner is not None:
                partner = sp.levels[lv.conjugate_partner]
                assert partner.conjugate_partner == lv.label
                assert abs(lv.eigenvalue - np.conj(partner.eigenvalue)) < 1e-9
                assert lv.z2_index is None
                assert lv.ep_indicator < 1e-6

    def test_conjugate_pairing_of_clustered_pairs(self):
        # three conjugate pairs c_k +- i y_k; every member lies within pair_tol
        # (1e-6 of the spectral radius) of the conjugate of every other pair
        pairs = [(1.0, 0.5), (1.0 + 2e-7, 0.5 + 3e-7), (1.0 + 4e-7, 0.5 + 6e-7)]
        blocks = [psym_2x2(0.2, np.hypot(0.2, y), c) for c, y in pairs]
        h = np.zeros((6, 6), dtype=complex)
        zeta = np.zeros((6, 6), dtype=complex)
        for k, blk in enumerate(blocks):
            h[2 * k:2 * k + 2, 2 * k:2 * k + 2] = blk
            zeta[2 * k:2 * k + 2, 2 * k:2 * k + 2] = ZETA2
        sp = spectrum_with_indices(h, zeta)
        values = sp.eigenvalues
        upper, lower = values[values.imag > 0], values[values.imag < 0]
        assert np.all(np.abs(upper[:, None] - lower.conj()[None, :]) < 1e-6)
        for i, lv in enumerate(sp.levels):
            partner = lv.conjugate_partner
            assert partner is not None and sp.levels[partner].conjugate_partner == i
            assert abs(lv.eigenvalue - np.conj(sp.eigenvalues[partner])) < 1e-12

    def test_nearly_degenerate_same_index_levels_resolved(self):
        # at N=8, |jt| = 0.99 the almost-zero-mode splitting (3.3e-7) lies
        # below the cluster tolerance; clustered levels of one index must
        # still come out with their own energies
        for jt in (-0.99, 0.99):
            sp = chain_spectrum(8, jt, 0.0)
            ref = sorted(s.energy for s in full_spectrum(8, jt, np.sqrt(1 - jt * jt)))
            got = np.sort(sp.eigenvalues.real)
            assert np.max(np.abs(got - ref)) <= 1e-9
            assert np.max(np.abs(sp.eigenvalues.imag)) <= 1e-9

    @pytest.mark.parametrize("delta, j", [(0.2890625, 0.0), (0.920735393360631, -1e-97)])
    def test_nearly_parallel_cluster_vectors(self, delta, j):
        # decoupled spins: the doubly degenerate level at 0 can come out of the
        # eigensolver as two nearly parallel vectors; the cluster's eigenspace
        # is then found again, so the rescaling neither fails nor flips signs
        h = build_hamiltonian(ChainSpec(n=2, delta=delta, j=j, gamma_profile=(0.0, 0.0)))
        zeta = build_parity(2)
        sp = spectrum_with_indices(h, zeta)
        es = sp.eigensystem
        assert sorted(sp.z2.tolist()) == [-1, 1, 1, 1]
        assert es.biortho_residual < 1e-12
        assert np.allclose(h @ es.right, es.right * es.eigenvalues, atol=1e-12)
        q = np.sum(es.right.conj() * (zeta @ es.right), axis=0)
        assert np.allclose(q, sp.z2, atol=1e-12)

    def test_at_exceptional_point_raises(self):
        # decoupled spins at gt = 1: every site sits at its own EP2
        with pytest.raises(AtExceptionalPoint):
            chain_spectrum(4, 0.0, 1.0)

    def test_complex_symmetric_exceptional_point_raises(self):
        with pytest.raises(AtExceptionalPoint):
            spectrum_with_indices(psym_2x2(1.0, 1.0), ZETA2)

    def test_levels_agree_with_arrays(self):
        sp = chain_spectrum(4, -0.9, 0.3)
        es = sp.eigensystem
        assert any(lv.conjugate_partner is not None for lv in sp.levels)
        for i, lv in enumerate(sp.levels):
            assert lv.label == i
            assert lv.eigenvalue == es.eigenvalues[i]
            assert lv.z2_index == (int(sp.z2[i]) or None)
            assert lv.ep_indicator == sp.indicator[i]
            assert lv.conjugate_partner == (int(sp.partner[i]) if sp.partner[i] >= 0 else None)
            assert np.array_equal(lv.right, es.right[:, i])
            assert np.array_equal(lv.left, es.left[:, i])

    def test_degenerate_cluster_resolved(self):
        # Ising limit: the mirror-related product states are exactly degenerate
        sp = chain_spectrum(4, 1.0, 0.0)
        assert all(lv.z2_index in (-1, 1) for lv in sp.levels)
        ref = hermitian_reference_indices(NormalizedPoint(1.0, 0.0).chain(4))
        got = [(lv.eigenvalue.real, lv.z2_index) for lv in sp.levels]
        assert match_level_sets(ref, got) == 0

    def test_degenerate_cluster_with_gain(self):
        # at the Ising point the diagonal gains pair mirror-degenerate states;
        # real levels keep resolvable indices, complex ones pair up
        sp = chain_spectrum(4, 1.0, 0.3)
        for lv in sp.levels:
            if abs(lv.eigenvalue.imag) <= sp.reality_tol:
                assert lv.z2_index in (-1, 1)
            else:
                assert lv.conjugate_partner is not None

    def test_levels_sorted(self):
        sp = chain_spectrum(4, 0.2, 0.4)
        keys = [(lv.eigenvalue.real, lv.eigenvalue.imag) for lv in sp.levels]
        assert keys == sorted(keys)

    def test_index_conserved_while_real(self):
        # follow the spectrum from zero gain to just below the first merge
        n, jt = 4, -0.6
        gammas = np.linspace(0.0, 0.12, 25)
        reference = None
        for g in gammas:
            sp = chain_spectrum(n, jt, float(g))
            if any(lv.z2_index is None for lv in sp.levels):
                break
            signs = tuple(lv.z2_index for lv in sp.levels)
            if reference is None:
                reference = signs
            assert signs == reference
        assert reference is not None


def check_pencil(q, gram):
    """``_pencil_eigh(q, gram)`` against scipy's generalized ``eigh``."""
    values, y = biortho._pencil_eigh(q, gram)
    ref = scipy.linalg.eigh(q, gram, eigvals_only=True)
    bound = 1e-12 * np.linalg.norm(q)
    assert np.max(np.abs(values - ref)) <= bound
    assert np.array_equal(np.where(values > 0, 1, -1), np.where(ref > 0, 1, -1))
    assert np.max(np.abs(q @ y - (gram @ y) * values)) <= bound * np.max(np.abs(y))
    assert np.allclose(y.conj().T @ gram @ y, np.eye(values.size), rtol=0, atol=1e-12)


class TestClusterPencil:
    """The Hermitian-definite pencil of a real cluster, solved by Cholesky reduction."""

    def test_matches_scipy_on_chain_clusters(self, monkeypatch):
        seen = []
        solve = biortho._pencil_eigh
        monkeypatch.setattr(biortho, "_pencil_eigh",
                            lambda q, gram: seen.append((q, gram)) or solve(q, gram))
        chain_spectrum(4, 1.0, 0.0)   # the Ising limit's mirror-degenerate states
        chain_spectrum(4, 1.0, 0.3)
        solve_chain(NormalizedPoint(0.0, 0.0).chain(4))   # decoupled spins
        for delta, j in [(0.2890625, 0.0), (0.920735393360631, -1e-97)]:
            spectrum_with_indices(build_hamiltonian(
                ChainSpec(n=2, delta=delta, j=j, gamma_profile=(0.0, 0.0))), build_parity(2))
        monkeypatch.undo()
        assert len(seen) >= 10 and max(q.shape[0] for q, _ in seen) >= 4
        for q, gram in seen:
            check_pencil(q, gram)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_scipy_on_random_pencils(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, d + 1))
        basis = np.linalg.qr(rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k)))[0]
        rc = basis + 0.3 * (rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k)))
        z = rng.choice([-1.0, 1.0], size=d)
        q = rc.conj().T @ (z[:, None] * rc)
        gram = rc.conj().T @ rc
        check_pencil(0.5 * (q + q.conj().T), 0.5 * (gram + gram.conj().T))



class TestClusterDefects:
    """A degenerate cluster checks its own eigenspace for a defect."""

    def test_defective_real_cluster_raises(self):
        # one Jordan block of ten levels: LAPACK returns ten nearly parallel vectors
        a = np.eye(10) + np.eye(10, k=1)
        rc = np.linalg.eig(a)[1].astype(complex)
        eta = sector_bases(4)[0].eta
        with pytest.raises(AtExceptionalPoint) as exc:
            biortho._real_cluster(a, eta, rc, biortho.INDICATOR_FLOOR, 1e-14)
        assert exc.value.cond > numerics.DEFECT_THRESHOLD

    def test_ill_conditioned_block_cluster_raises(self):
        # L^+ R = diag(1, 1e-14): invertible, and of condition 1e14
        lc = np.diag([1.0, 1e-14]).astype(complex)
        with pytest.raises(AtExceptionalPoint) as exc:
            biortho._block_cluster(np.array([1.0, -1.0]), np.eye(2, dtype=complex), lc)
        assert exc.value.cond == pytest.approx(1e14)


class TestSpectrumInvariants:
    """Partner links and index rescaling on random mirror-antisymmetric chains."""

    @staticmethod
    def check_links(sp, pair_tol):
        # every partner link is mutual and joins a level that is not real to its conjugate
        values = sp.eigenvalues
        for i, q in enumerate(sp.partner):
            if q >= 0:
                assert q != i and sp.partner[q] == i
                assert abs(values[i].imag) > sp.reality_tol
                assert abs(values[q] - np.conj(values[i])) <= pair_tol

    @settings(max_examples=50, deadline=None)
    @given(spec=mirror_chains())
    def test_partners_and_indexed_levels(self, spec):
        zeta = build_parity(spec.n)
        try:
            sp = spectrum_with_indices(build_hamiltonian(spec), zeta)
        except AtExceptionalPoint:
            assume(False)
        radius = np.max(np.abs(sp.eigenvalues))
        self.check_links(sp, max(1e-6 * max(radius, 1.0), 10 * sp.reality_tol))
        # every indexed level has z2 = sign Re<R|P|R> and |L> = z2 P|R>
        for i in np.flatnonzero(sp.z2):
            right, left = sp.eigensystem.right[:, i], sp.eigensystem.left[:, i]
            pr = zeta @ right
            assert sp.z2[i] == np.sign(np.vdot(right, pr).real)
            assert np.linalg.norm(left - sp.z2[i] * pr) <= 1e-12 * np.linalg.norm(left)

    @settings(max_examples=50, deadline=None)
    @given(spec=mirror_chains())
    def test_sector_engine_partners(self, spec):
        # LAPACK's pairs: exact conjugates, and every level that is not real has one
        try:
            sp = solve_chain(spec)
        except AtExceptionalPoint:
            assume(False)
        self.check_links(sp, 0.0)
        assert np.array_equal(sp.partner >= 0, np.abs(sp.eigenvalues.imag) > sp.reality_tol)
