import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import ID2, PAULI_X, PAULI_Z, kron_chain, psym_2x2
from pshchain import (DEFAULT_TOL, AtExceptionalPoint, ChainSpec, NormalizedPoint,
                      build_hamiltonian, build_parity, eig_general, spectrum_with_indices)
from pshchain.model import normalized_blocks, sector_bases, sector_blocks
from pshchain.numerics import (DEFECT_THRESHOLD, connected_sets, eig_blocks,
                               linear_sum_assignment)

ROOT = Path(__file__).resolve().parents[1]
RT3 = np.sqrt(3.0)
METRIC_2X2 = np.diag([1.0, -1.0])


def overlaps(es):
    """<L_n|R_m> for all n, m."""
    return es.left.conj().T @ es.right


class TestKronChain:
    """Basis convention of the test-side Kronecker reference."""

    def test_identity_factors(self):
        assert np.array_equal(kron_chain([ID2, ID2]), np.eye(4))

    def test_diagonal_pauli_product(self):
        assert np.array_equal(kron_chain([PAULI_Z, PAULI_Z]), np.diag([1, -1, -1, 1.0]))

    def test_first_factor_is_most_significant(self):
        e0 = np.zeros(4)
        e0[0] = 1.0
        assert np.allclose(kron_chain([PAULI_X, ID2]) @ e0, np.eye(4)[2])


class TestEigGeneral:
    def test_diagonal_matrix(self):
        sys = eig_general(np.diag([1.0, 2.0]))
        assert np.allclose(sys.eigenvalues, [1.0, 2.0])
        assert np.allclose(np.abs(sys.right), np.eye(2))

    def test_jordan_block_raises(self):
        with pytest.raises(AtExceptionalPoint):
            eig_general(JORDAN)

    def test_near_defective_carries_condition(self):
        # the refusal reports a condition estimate above the fixed threshold;
        # close to (but not at) the defective point the solve still succeeds
        with pytest.raises(AtExceptionalPoint) as exc:
            eig_general(JORDAN)
        assert exc.value.cond > DEFECT_THRESHOLD
        eig_general(psym_2x2(a=1.0 + 1e-12, w=1.0))

    def test_psh_2x2_eigenvalues(self):
        sys = eig_general(psym_2x2(2.0, 1.0))
        assert np.allclose(sys.eigenvalues, [-RT3, RT3], atol=1e-14)

    def test_sorted_by_real_then_imag(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        w = eig_general(m + m.T).eigenvalues
        assert np.array_equal(np.lexsort((w.imag, w.real)), np.arange(8))

    def test_hermitian_eigenvalues_real(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(16, 16))
        sys = eig_general(a + a.T)  # real symmetric: Hermitian and complex symmetric
        assert np.max(np.abs(sys.eigenvalues.imag)) <= DEFAULT_TOL * sys.scale

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            eig_general(np.array([[np.inf, 0], [0, 1.0]]))

    @pytest.mark.parametrize("size", [1e-200, 1e200])
    def test_scale_neither_underflows_nor_overflows(self, size):
        # squared entries of these sizes leave the float range
        sys = eig_general(np.diag([3.0 * size, 4j * size]))
        assert sys.scale == pytest.approx(5.0 * size, rel=1e-15)

    @pytest.mark.parametrize("solve", [eig_general, lambda m: spectrum_with_indices(m, np.eye(2))],
                             ids=["eig_general", "spectrum_with_indices"])
    def test_rejects_a_non_symmetric_matrix(self, solve, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved")

        monkeypatch.setattr(np.linalg, "eig", no_solve)
        with pytest.raises(ValueError, match="complex-symmetric"):
            solve(np.array([[1.0, 2.0], [0.5, -1.0]]))

    def test_without_scipy_only_a_non_symmetric_matrix_fails(self):
        # the package needs numpy alone: a complex-symmetric matrix solves, any
        # other raises ValueError
        proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY],
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["symmetric: 2 levels",
                                                "ValueError: complex-symmetric"]


#: A 2x2 Jordan block that is complex symmetric: both eigenvalues 0, one eigenvector.
JORDAN = np.array([[1.0, 1j], [1j, -1.0]])

#: eig_general in a fresh interpreter that cannot import scipy.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import numpy as np
from pshchain import eig_general

print("symmetric:", len(eig_general(np.array([[1.0, 2j], [2j, -1.0]])).eigenvalues), "levels")
try:
    eig_general(np.array([[1.0, 2.0], [0.5, -1.0]]))
except ValueError as exc:
    print("ValueError:", "complex-symmetric" if "complex-symmetric" in str(exc) else exc)
"""


#: A chain whose full complex matrix LAPACK's zgeev fails to converge on (the
#: sector engine solves it).
UNCONVERGED = ChainSpec(n=6, delta=3.0370029471456205e-128, j=0.0,
                        gamma_profile=(-0.3135009601267712, 0.0, -0.5120604661978797,
                                       0.5120604661978797, -0.0, 0.3135009601267712))


class TestNonConvergingStack:
    """A matrix whose eigenvalues do not converge raises ArithmeticError after
    one LAPACK call, and in a block stack fails alone, not its stack."""

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = []
        lapack_eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(1) or lapack_eig(a))
        return calls

    def test_eig_general(self, eig_calls):
        with pytest.raises(ArithmeticError) as exc:
            eig_general(build_hamiltonian(UNCONVERGED))
        assert type(exc.value) is ArithmeticError
        assert str(exc.value) == "eigenvalues did not converge"
        assert eig_calls == [1]

    def test_spectrum_with_indices(self, eig_calls):
        with pytest.raises(ArithmeticError) as exc:
            spectrum_with_indices(build_hamiltonian(UNCONVERGED), build_parity(6))
        assert type(exc.value) is ArithmeticError
        assert eig_calls == [1]

    def test_eig_blocks(self, monkeypatch):
        # the matrices listed in ``symmetric`` take eigh, the others eig; the
        # solver of matrix 1 fails on it
        for symmetric in [(), (0, 1, 2), (1,), (0, 2)]:
            with monkeypatch.context() as mp:
                self._fails_alone(mp, symmetric)

    @staticmethod
    def _fails_alone(monkeypatch, symmetric):
        rng = np.random.default_rng(5)
        blocks = [rng.normal(size=(3, 5, 5)), rng.normal(size=(3, 4, 4))]
        for a in blocks:
            a[list(symmetric)] += a[list(symmetric)].swapaxes(1, 2)
        bad = blocks[1][1].copy()
        name = "eigh" if 1 in symmetric else "eig"
        lapack_solve = getattr(np.linalg, name)

        def solve(a):
            if a.shape[-1] == bad.shape[-1] and np.all(a == bad, axis=(-2, -1)).any():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return lapack_solve(a)

        monkeypatch.setattr(np.linalg, name, solve)
        st = eig_blocks(blocks)
        assert type(st.errors[1]) is ArithmeticError
        assert str(st.errors[1]) == "eigenvalues did not converge"
        for b in (0, 2):
            solo = eig_blocks([a[b:b + 1] for a in blocks])
            assert st.errors[b] is None
            assert st.scale[b] == solo.scale[0]
            for k in range(2):
                assert np.array_equal(st.eigenvalues[k][b], solo.eigenvalues[k][0])
                assert np.array_equal(st.right[k][b], solo.right[k][0])
                assert np.array_equal(st.partner[k][b], solo.partner[k][0])
                if b in symmetric:
                    assert np.all(st.eigenvalues[k][b].imag == 0)
                    assert np.all(st.partner[k][b] == -1)


#: A chain whose Q = -1 block LAPACK's real solve fails to converge on whole:
#: at delta = 0 it is a permuted direct sum of 2 x 2 gain pairs and 1 x 1
#: entries of order 1e-91.
REDUCIBLE = ChainSpec(n=6, delta=0.0, j=2.9474291815676314e-92,
                      gamma_profile=(0.0, 0.5455419868031871, 0.5455419868031871,
                                     -0.5455419868031871, -0.5455419868031871, -0.0))


class TestIrreducibleBlocks:
    """A matrix that LAPACK's real solve fails on whole is solved again on each
    of its irreducible diagonal blocks."""

    def test_reducible_chain_block_solves(self):
        blocks = sector_blocks(REDUCIBLE)
        st = eig_blocks(blocks)
        assert st.errors == [None]
        values = np.concatenate([w[0] for w in st.eigenvalues])
        # at delta = 0 the chain is diagonal in the spin basis
        exact = np.diagonal(build_hamiltonian(REDUCIBLE))
        dist = np.abs(values[:, None] - exact[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert dist[rows, cols].max() <= 1e-14
        for w, p in zip(st.eigenvalues, st.partner):
            q = p[0][p[0] >= 0]
            assert np.array_equal(w[0][q], w[0][p[0] >= 0].conj())

    def test_failed_matrix_is_solved_on_its_blocks(self, monkeypatch):
        # a 5 x 5 matrix linking columns {0, 2, 4} and {1, 3}, on which the
        # whole solve is made to fail
        m = np.zeros((5, 5))
        m[np.ix_([0, 2, 4], [0, 2, 4])] = [[1.0, 2.0, 0.0], [-2.0, 1.0, 3.0], [0.0, 1.0, -1.0]]
        m[np.ix_([1, 3], [1, 3])] = [[0.5, -4.0], [1.0, 0.5]]
        lapack_eig = np.linalg.eig

        def eig(a):
            if a.shape[-1] == 5:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return lapack_eig(a)

        monkeypatch.setattr(np.linalg, "eig", eig)
        st = eig_blocks([m[None]])
        assert st.errors == [None]
        w, v, p = st.eigenvalues[0][0], st.right[0][0], st.partner[0][0]
        for cols, span in (([0, 2, 4], slice(0, 3)), ([1, 3], slice(3, 5))):
            wc, vc = lapack_eig(m[np.ix_(cols, cols)])
            assert np.array_equal(w[span], wc.astype(complex))
            assert np.array_equal(v[np.ix_(cols, range(5)[span])], vc.astype(complex))
            assert not np.any(np.delete(v[:, span], cols, axis=0))
        assert np.all(w[p[p >= 0]] == w[p >= 0].conj())


@st.composite
def symmetric_links(draw):
    """A symmetric boolean matrix of size 0 to 12, its diagonal drawn too
    (``connected_sets`` does not depend on it)."""
    d = draw(st.integers(0, 12))
    m = draw(arrays(np.bool_, (d, d)))
    return m | m.T


class TestConnectedSets:
    """``connected_sets`` partitions the indices by a symmetric boolean matrix."""

    @settings(max_examples=300, deadline=None)
    @given(link=symmetric_links())
    def test_equals_transitive_closure(self, link):
        d = len(link)
        reach = link | np.eye(d, dtype=bool)
        for _ in range(d):  # paths of up to 2^d steps
            reach = reach | (reach @ reach)
        sets = connected_sets(link)
        assert sorted(i for s in sets for i in s.tolist()) == list(range(d))
        for s in sets:
            assert s.tolist() == sorted(s.tolist())
            assert np.flatnonzero(reach[s[0]]).tolist() == s.tolist()
        assert [s[0] for s in sets] == sorted(s[0] for s in sets)


class TestSymmetricBlocks:
    """A matrix equal to its transpose is solved by ``eigh`` on each of its
    irreducible diagonal blocks, values ascending over all blocks."""

    @staticmethod
    def _check_blocks(w, v, m, sets):
        assert np.all(w.imag == 0) and np.all(np.diff(w.real) >= 0)
        for cols in sets:
            wc, vc = np.linalg.eigh(m[np.ix_(cols, cols)])
            span = np.flatnonzero(np.any(v[cols] != 0, axis=0))
            assert len(span) == len(cols)
            assert np.array_equal(w[span], wc.astype(complex))
            assert np.array_equal(v[np.ix_(cols, span)], vc.astype(complex))
            assert not np.any(np.delete(v[:, span], cols, axis=0))

    def test_interleaved_blocks_are_solved_apart(self, monkeypatch):
        # the pattern of TestIrreducibleBlocks's 5 x 5 matrix, symmetrized:
        # columns {0, 2, 4} and {1, 3} are linked, no two of them consecutive
        m = np.zeros((5, 5))
        m[np.ix_([0, 2, 4], [0, 2, 4])] = [[1.0, 2.0, 0.0], [2.0, 1.0, 3.0], [0.0, 3.0, -1.0]]
        m[np.ix_([1, 3], [1, 3])] = [[0.5, -4.0], [-4.0, 0.5]]
        lapack_eigh, shapes = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or lapack_eigh(a))
        st = eig_blocks([m[None]])
        assert st.errors == [None]
        assert shapes == [(1, 3, 3), (1, 2, 2)]
        monkeypatch.undo()
        self._check_blocks(st.eigenvalues[0][0], st.right[0][0], m, [[0, 2, 4], [1, 3]])

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_gain_free_blocks_are_their_p_blocks(self, n):
        # a gain-free Q block is solved on its two P blocks, eta's +1 columns
        # and its -1 columns; at |j_tilde| = 1 (delta = 0) it is diagonal, and
        # each column is a block of its own
        jt = np.array([-1.0, -0.99, -0.5, 0.0, 0.3, 1.0])
        blocks = normalized_blocks(n, jt, np.zeros(jt.size))
        st = eig_blocks(blocks)
        assert st.errors == [None] * jt.size
        for basis, a, w, v in zip(sector_bases(n), blocks, st.eigenvalues, st.right):
            p_blocks = [np.flatnonzero(basis.eta == p) for p in (1, -1)]
            for b in range(jt.size):
                sets = ([[k] for k in range(len(a[b]))] if abs(jt[b]) == 1.0
                        else [cols for cols in p_blocks if cols.size])
                self._check_blocks(w[b], v[b], a[b], sets)

    @pytest.mark.parametrize("n", [2, 6])
    def test_residuals_of_symmetric_matrices_are_real(self, n, monkeypatch):
        # a symmetric matrix's residual is taken in real arithmetic on each
        # block it was solved on; the general solve gets only the other
        # matrices, and is not called where there are none
        from pshchain import numerics
        residuals, stacks = [], []
        lapack_eig, residual = np.linalg.eig, numerics._residual
        monkeypatch.setattr(np.linalg, "eig", lambda a: stacks.append(len(a)) or lapack_eig(a))
        monkeypatch.setattr(numerics, "_residual", lambda a, w, v: residuals.append(
            (a.shape, v.dtype)) or residual(a, w, v))
        jt = np.array([-1.0, -0.5, 0.3])
        blocks = normalized_blocks(n, jt, np.zeros(jt.size))
        eig_blocks(blocks)
        assert stacks == []
        assert [shape for shape, _ in residuals] == [
            (1, c.size, c.size) for a in blocks for m in a for c in connected_sets(m != 0)]
        assert {dtype for _, dtype in residuals} == {np.dtype(np.float64)}
        # with gain at the second point: one general solve of it per Q block
        # it makes non-symmetric (not N = 2's one-column Q = -1 block), with
        # its residual in complex arithmetic, beside the others' real ones
        residuals.clear()
        blocks = normalized_blocks(n, jt, np.array([0.0, 0.3, 0.0]))
        general = sum(not np.array_equal(a[1], a[1].T) for a in blocks)
        eig_blocks(blocks)
        assert general and stacks == [1] * general
        assert [dtype for _, dtype in residuals].count(np.complex128) == general


class TestBiorthonormalize:
    """Biorthonormal sets returned by ``spectrum_with_indices``."""

    def test_psh_2x2_cross_overlap(self):
        es = spectrum_with_indices(psym_2x2(2.0, 1.0), METRIC_2X2).eigensystem
        overlap = overlaps(es)
        assert abs(overlap[0, 1]) < 1e-12
        assert abs(overlap[1, 0]) < 1e-12
        assert np.allclose(np.diag(overlap), 1.0, atol=1e-12)
        # analytic right eigenvector of +sqrt(3): (1, i (2 - sqrt(3)))
        v = np.array([1.0, 1j * (2.0 - RT3)])
        col = es.right[:, 1]
        assert np.allclose(col / col[0], v / v[0], atol=1e-12)

    def test_hermitian_left_equals_right(self):
        # gain-free chains are Hermitian and mirror-symmetric: every rescaled
        # right vector is a parity eigenvector, so |L> = s P|R> = |R>
        for n in (2, 4, 6):
            h = build_hamiltonian(NormalizedPoint(0.37, 0.0).chain(n))
            es = spectrum_with_indices(h, build_parity(n)).eigensystem
            assert np.allclose(es.left, es.right, atol=1e-10)

    def test_gauge_rescaling_preserves_overlaps(self):
        es = spectrum_with_indices(psym_2x2(2.0, 1.0), METRIC_2X2).eigensystem
        w = 0.3 - 1.7j
        rescaled = (es.left / np.conj(w)).conj().T @ (es.right * w)
        assert np.allclose(rescaled, overlaps(es), atol=1e-13)

    def test_reconstruction(self):
        rng = np.random.default_rng(19)
        for n in (2, 4, 4, 6, 6):
            point = NormalizedPoint(float(rng.uniform(-0.95, 0.95)),
                                    float(rng.uniform(0.0, 0.6)))
            h = build_hamiltonian(point.chain(n))
            es = spectrum_with_indices(h, build_parity(n)).eigensystem
            err = np.linalg.norm(h - (es.right * es.eigenvalues) @ es.left.conj().T)
            assert err <= 10 * DEFAULT_TOL * es.scale

    def test_eigenvalue_order_preserved(self):
        raw = eig_general(psym_2x2(2.0, 1.0))
        es = spectrum_with_indices(psym_2x2(2.0, 1.0), METRIC_2X2).eigensystem
        assert np.array_equal(raw.eigenvalues, es.eigenvalues)


@st.composite
def cost_matrices(draw):
    """Wide, square and tall integer matrices, rich in ties: entries in {0, 1, 2},
    all zero, or zero but for a few negative entries."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    elements = draw(st.sampled_from([st.integers(0, 2), st.just(0),
                                     st.sampled_from([0, 0, 0, 0, 0, -1, -2, -7])]))
    return draw(arrays(np.int64, shape, elements=elements))


class TestLinearSumAssignment:
    """The in-package solver returns scipy's arrays, ties broken alike."""

    @settings(max_examples=1000, deadline=None)
    @given(cost=cost_matrices())
    @example(cost=np.zeros((5, 5), dtype=np.int64))
    @example(cost=np.zeros((3, 7), dtype=np.int64))
    @example(cost=np.zeros((7, 3), dtype=np.int64))
    def test_equals_scipy(self, cost):
        rows, cols = linear_sum_assignment(cost)
        ref_rows, ref_cols = scipy.optimize.linear_sum_assignment(cost)
        assert rows.dtype == ref_rows.dtype and cols.dtype == ref_cols.dtype
        assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_scipy_on_real_costs(self, seed):
        rng = np.random.default_rng(seed)
        cost = rng.normal(size=tuple(rng.integers(1, 17, size=2)))
        for got, ref in zip(linear_sum_assignment(cost),
                            scipy.optimize.linear_sum_assignment(cost)):
            assert np.array_equal(got, ref)

    def test_forbidden_entries_avoided(self):
        cost = np.array([[np.inf, 1.0, 5.0], [2.0, np.inf, 0.0]])
        rows, cols = linear_sum_assignment(cost)
        assert rows.tolist() == [0, 1] and cols.tolist() == [1, 2]
        assert rows.tolist() == scipy.optimize.linear_sum_assignment(cost)[0].tolist()

    @pytest.mark.parametrize("cost", [[[np.inf, 1.0], [np.inf, 2.0]],
                                      [[1.0, 2.0], [np.inf, np.inf], [np.inf, np.inf]]])
    def test_infeasible_matrix_raises(self, cost):
        with pytest.raises(ValueError, match="infeasible"):
            linear_sum_assignment(cost)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_invalid_entries_raise(self, bad):
        with pytest.raises(ValueError, match="invalid numeric entries"):
            linear_sum_assignment([[0.0, bad], [1.0, 2.0]])

    def test_empty_and_non_matrix_input(self):
        for shape in ((0, 3), (3, 0)):
            rows, cols = linear_sum_assignment(np.zeros(shape))
            assert rows.size == cols.size == 0
        with pytest.raises(ValueError, match="2-D"):
            linear_sum_assignment([1.0, 2.0])
