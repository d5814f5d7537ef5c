import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import match_level_sets, solve_chain
from pshchain import (ChainSpec, almost_zero_energy, build_hamiltonian,
                      full_spectrum, oracle, pair_relative_parity, solve_modes)

ROOT = Path(__file__).resolve().parents[1]

RATIO_GRID = [-5.0, -1.0, -0.2, 0.2, 1.0, 5.0]


def normalized_couplings(ratio):
    """(j, delta) with j/delta = ratio on the unit circle."""
    j = ratio / math.hypot(1.0, ratio)
    return j, abs(j / ratio)


class TestSolveModes:
    def test_two_site_closed_form(self):
        # sin(3k) = sin(2k) on (0, pi) gives k = pi/5 and 3pi/5
        modes = solve_modes(2, 1.0, 1.0)
        assert np.allclose([m.k.real for m in modes],
                           [math.pi / 5, 3 * math.pi / 5], atol=1e-12)
        assert np.allclose([m.energy for m in modes],
                           [4 * math.sin(math.pi / 10), 4 * math.sin(3 * math.pi / 10)],
                           atol=1e-12)
        assert [m.delta for m in modes] == [1, -1]

    def test_complex_branch_above_threshold(self):
        modes = solve_modes(2, 3.0, 1.0)
        assert modes[0].k.imag
        assert modes[0].k.real == 0.0  # ferromagnet: k0 = i*kappa
        # kappa solves sinh(3x) = 3 sinh(2x)
        kappa = modes[0].k.imag
        assert abs(math.sinh(3 * kappa) - 3.0 * math.sinh(2 * kappa)) < 1e-10
        anti = solve_modes(2, -3.0, 1.0)
        assert anti[0].k.imag
        assert np.isclose(anti[0].k.real, math.pi)
        assert np.isclose(anti[0].energy, modes[0].energy)

    @pytest.mark.parametrize("ratio", RATIO_GRID)
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_mode_count_and_positive_energies(self, n, ratio):
        j, delta = normalized_couplings(ratio)
        modes = solve_modes(n, j, delta)
        assert len(modes) == n
        assert all(m.energy > 0 for m in modes)
        assert [m.i for m in modes] == list(range(n))
        assert all(a.energy <= b.energy for a, b in zip(modes, modes[1:]))

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_real_mode_interval_ranges(self, n):
        # ferromagnet: k_i in [pi i/N, pi(i+1)/N]; antiferromagnet reversed
        for ratio in (0.5, 1.0):
            modes = solve_modes(n, *normalized_couplings(ratio))
            for m in modes:
                assert math.pi * m.i / n <= m.k.real <= math.pi * (m.i + 1) / n
        for ratio in (-0.5, -1.0):
            modes = solve_modes(n, *normalized_couplings(ratio))
            for m in modes:
                lo = math.pi * (n - m.i - 1) / n
                assert lo <= m.k.real <= lo + math.pi / n

    @pytest.mark.parametrize("ratio", RATIO_GRID)
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_parity_factor_sign_definition(self, n, ratio):
        # delta_k = sign[sin k / sin Nk], continued as sinh ratios off axis,
        # must agree with the closed form (sign J)^(N-1) (-1)^i
        j, delta = normalized_couplings(ratio)
        for m in solve_modes(n, j, delta):
            k = m.k
            if m.k.imag:
                val = (np.sin(k) / np.sin(n * k)).real
            else:
                val = math.sin(k.real) / math.sin(n * k.real)
            assert m.delta == (1 if val > 0 else -1)

    def test_ferro_antiferro_energy_symmetry(self):
        for n in (2, 4, 6):
            ef = sorted(m.energy for m in solve_modes(n, 0.8, 0.6))
            ea = sorted(m.energy for m in solve_modes(n, -0.8, 0.6))
            assert np.allclose(ef, ea, atol=1e-11)

    def test_threshold_crossing_is_continuous(self):
        # energies just below and above |J|/Delta = (N+1)/N stay close
        n = 4
        lo = solve_modes(n, 1.25 - 1e-7, 1.0)
        hi = solve_modes(n, 1.25 + 1e-7, 1.0)
        assert not lo[0].k.imag and hi[0].k.imag
        assert abs(lo[0].energy - hi[0].energy) < 1e-5

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_modes(3, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_modes(4, 1.0, 0.0)
        with pytest.raises(ValueError):
            solve_modes(4, 0.0, 1.0)


class TestFullSpectrum:
    def test_two_site_levels_and_parities(self):
        states = full_spectrum(2, 1.0, 1.0)
        assert np.allclose([s.energy for s in states],
                           [-np.sqrt(5), -1.0, 1.0, np.sqrt(5)], atol=1e-12)
        assert [s.parity for s in states] == [1, 1, -1, 1]
        assert [s.r for s in states] == [0, 1, 1, 2]

    def test_matches_dense_diagonalization(self):
        for n in (2, 4, 6):
            for ratio in (-1.0, 0.4, 2.0):
                j, delta = normalized_couplings(ratio)
                states = full_spectrum(n, j, delta)
                h = build_hamiltonian(ChainSpec.staggered(n, delta, j, 0.0))
                dense = np.sort(np.linalg.eigvalsh(h))
                assert np.allclose([s.energy for s in states], dense, atol=1e-9)

    def test_ground_state_even(self):
        for ratio in RATIO_GRID:
            j, delta = normalized_couplings(ratio)
            for n in (2, 4, 6, 8):
                states = full_spectrum(n, j, delta)
                assert states[0].occupation == 0
                assert states[0].parity == 1

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("ratio", RATIO_GRID)
    def test_edge_pair_parities(self, n, ratio):
        j, delta = normalized_couplings(ratio)
        states = full_spectrum(n, j, delta)
        sign_j = 1 if j > 0 else -1
        assert states[0].parity * states[1].parity == sign_j
        assert states[-2].parity * states[-1].parity == -sign_j

    def test_parity_recursion(self):
        # independent check: adding mode k to a state with r modes multiplies
        # the parity by (-1)^(r-1) delta_k, starting from an even vacuum
        for n, ratio in ((4, 1.0), (6, -0.7), (6, 3.0)):
            j, delta = normalized_couplings(ratio)
            modes = solve_modes(n, j, delta)
            states = full_spectrum(n, j, delta)
            by_mask = {s.occupation: s for s in states}
            for s in states:
                for i in range(n):
                    if s.occupation >> i & 1:
                        continue
                    bigger = by_mask[s.occupation | (1 << i)]
                    expected = (-1) ** ((s.r + 1) - 1) * modes[i].delta * s.parity
                    assert bigger.parity == expected

    def test_enumeration_limit(self):
        with pytest.raises(ValueError):
            full_spectrum(16, 1.0, 1.0)


class TestAlmostZeroEnergy:
    def test_formula_value(self):
        assert np.isclose(almost_zero_energy(8, 1.0, 0.1), 2 * 0.99 * 1e-8)

    def test_against_bisection(self):
        exact = solve_modes(8, 1.0, 0.1)[0].energy
        approx = almost_zero_energy(8, 1.0, 0.1)
        assert abs(approx - exact) / exact < 0.05

    def test_sign_symmetric(self):
        assert almost_zero_energy(6, -2.0, 0.5) == almost_zero_energy(6, 2.0, 0.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            almost_zero_energy(4, 0.5, 0.6)


class TestPairRelativeParity:
    def test_table(self):
        assert pair_relative_parity(0, 1.0) == 1
        assert pair_relative_parity(0, -1.0) == -1
        assert pair_relative_parity(1, 1.0) == -1
        assert pair_relative_parity(1, -1.0) == 1
        assert pair_relative_parity(2, 1.0) == 1

    def test_agrees_with_full_spectrum_in_ordered_regime(self):
        # pairs split only by the almost-zero mode: parities differ by
        # sign(J) (-1)^r where r counts the other excited modes
        for j in (0.97, -0.97):
            n, delta = 6, math.sqrt(1 - 0.97 ** 2)
            modes = solve_modes(n, j, delta)
            states = {s.occupation: s for s in full_spectrum(n, j, delta)}
            for mask in range(1 << n):
                if mask & 1:
                    continue
                partner = states[mask | 1]
                r = bin(mask).count("1")
                assert states[mask].parity * partner.parity == pair_relative_parity(r, j)
            assert modes[0].energy < 1e-3  # the pair splitting really is tiny

    def test_invalid(self):
        with pytest.raises(ValueError):
            pair_relative_parity(-1, 1.0)
        with pytest.raises(ValueError):
            pair_relative_parity(0, 0.0)


class TestEngineAgainstOracle:
    """The sector engine's spectrum and indices against the closed form at zero gain."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([2, 4, 6]),
           j=st.floats(0.05, 2.0).flatmap(lambda a: st.sampled_from([a, -a])),
           delta=st.floats(0.05, 2.0))
    @example(n=6, j=0.97, delta=0.2431)
    @example(n=4, j=-0.6, delta=0.8)
    def test_energies_indices_and_pair_parities(self, n, j, delta):
        states = full_spectrum(n, j, delta)
        sp = solve_chain(ChainSpec.staggered(n, delta, j, 0.0))
        energies = sp.eigenvalues.real
        oracle = np.array([s.energy for s in states])
        tol = 1e-9 * max(1.0, abs(j) + delta)
        assert np.max(np.abs(sp.eigenvalues.imag)) <= tol
        assert np.max(np.abs(np.sort(energies) - oracle)) <= tol
        assert match_level_sets([(s.energy, s.parity) for s in states],
                                list(zip(energies, sp.z2)), energy_tol=1e-8) == 0
        # two levels that differ by the lowest mode's filling, each alone at
        # its energy, carry the indices pair_relative_parity relates
        by_mask = {s.occupation: s for s in states}
        for mask in range(0, 1 << n, 2):
            pair = (by_mask[mask].energy, by_mask[mask | 1].energy)
            if any(np.sum(np.abs(oracle - e) < 1e-6) > 1 for e in pair):
                continue
            a, b = (int(np.argmin(np.abs(energies - e))) for e in pair)
            assert sp.z2[a] * sp.z2[b] == pair_relative_parity(bin(mask).count("1"), j)


class TestBisect:
    """``oracle._bisect`` is the loop of ``scipy.optimize.bisect``, to the bit."""

    def test_equals_scipy_on_every_oracle_bracket(self, monkeypatch):
        brackets = []
        port = oracle._bisect

        def recording(f, a, b, args=()):
            brackets.append((f, a, b, args))
            return port(f, a, b, args)

        monkeypatch.setattr(oracle, "_bisect", recording)
        for n in range(2, 13, 2):
            for ratio in RATIO_GRID:
                solve_modes(n, *normalized_couplings(ratio))
        # the band roots of solve_modes, and the complex mode's of _solve_kappa
        assert {f.__name__ for f, *_ in brackets} == {"_mode_func", "h"}
        for f, a, b, args in brackets:
            ref = scipy.optimize.bisect(f, a, b, args=args, **oracle._BISECT_KW)
            assert port(f, a, b, args).hex() == float(ref).hex()

    def test_ends(self):
        assert oracle._bisect(lambda x: x, 0.0, 1.0) == 0.0
        assert oracle._bisect(lambda x: x - 1.0, 0.0, 1.0) == 1.0
        with pytest.raises(ValueError, match="different signs"):
            oracle._bisect(lambda x: 1.0 + x * x, -1.0, 1.0)


def test_full_spectrum_runs_without_scipy():
    code = ("import json, sys; from pshchain import full_spectrum; "
            "states = full_spectrum(6, 0.8, 0.6); "
            "print(json.dumps([len(states), sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy')]))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [64, []]
