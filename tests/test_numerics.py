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
from pshchain.numerics import DEFECT_THRESHOLD, eig_blocks, linear_sum_assignment

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
