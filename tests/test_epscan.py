import gc
import json
import math
import multiprocessing.pool
import os
import pickle
import re
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import assert_same_spectrum, build_sector_blocks, same_blocks, solve_chain
from pshchain import epscan
from pshchain import (AXIS_COUPLING, AXIS_GAIN, AccidentallyZeroElement, AtExceptionalPoint,
                      ChainSpec, EPRecord, IndexIllDefined, NoEP3InBox,
                      NoEPInBracket, NormalizedPoint, SweepGrid, build_hamiltonian,
                      build_parity, classify_crossings, find_ep3,
                      find_ep3_candidates, gain_generator, locate_ep2_records,
                      predict_gamma_cr, project_two_level, reality_transitions,
                      solve_modes, spectrum_with_indices, sweep, triple_pairing,
                      verify_selection_rule)
from pshchain.biortho import INDICATOR_FLOOR, SectorStack, sector_spectra
from pshchain.cli import UsageError, main
from pshchain.epscan import (_NUDGES, _SIGN_TIE, AXIS_RANGE, BISECT_TOL, CROSSING_TOL,
                             OVERLAP_MIN, _assign, _bisect, _follow, _Line, _location,
                             _lockstep, _match_levels, _Pool, _refine_crossing, _solve_values)
from pshchain.model import normalized_blocks, sector_blocks
from pshchain.numerics import eig_blocks

ROOT = Path(__file__).resolve().parents[1]

ZETA2 = np.diag([1.0, -1.0]).astype(complex)


def _point(line, value: float) -> NormalizedPoint:
    """The point a solve on ``line`` takes for ``value``, built alone: the value
    clamped to its axis range. The per-point reference of ``_solve_values``."""
    lo, hi = AXIS_RANGE[line.axis]
    return NormalizedPoint(**_location(line, min(hi, max(lo, value))))


def toy_solver(gap, w, zeta=ZETA2):
    """Two-level family [[gap/2, i p |w|], [i p |w|, -gap/2]], complex symmetric and
    pseudo-Hermitian for diag(1, -1); boundary at p = gap/(2|w|)."""

    def solve(p):
        h = np.array([[gap / 2, 1j * p * abs(w)], [1j * p * abs(w), -gap / 2]], dtype=complex)
        return spectrum_with_indices(h, zeta)

    return solve


def one_at_a_time(refinement, solve):
    """The result of ``refinement`` run by ``_lockstep``, each probe solved alone
    by ``solve`` (``value -> answer``)."""
    return _lockstep(partial(map, solve), [refinement])[0]


def refine_alone(tracks, event, tol=BISECT_TOL):
    """One transition ``(a, b, p, side)`` of :func:`reality_transitions`, refined
    alone from its real end to its complex end, one probe at a time: its
    record, or the NoEPInBracket or IndexIllDefined it raised."""
    a, b, p, side = event
    ends = (p + 1, p) if side == "lo" else (p, p + 1)
    return one_at_a_time(epscan._ep2(tracks[a], tracks[b], *ends, tol), tracks[0].grid.solver())


def reality_boundary(solve, p_real, p_complex, pair, tol=BISECT_TOL):
    """The EP2 refinement of ``pair`` from ``p_real`` to ``p_complex``, each probe
    solved alone by ``solve``: its result, or the NoEPInBracket it raised."""
    return one_at_a_time(epscan._reality_boundary(p_real, p_complex, pair, tol), solve)


def swap_metric(dim, a, b):
    """The metric that swaps basis states ``a`` and ``b``, making their diagonal
    entries of a diagonal H a conjugate pair."""
    zeta = np.eye(dim, dtype=complex)
    zeta[[a, b]] = zeta[[b, a]]
    return zeta


def gain_grid(n, j_tilde, stop, points):
    return SweepGrid(axis=AXIS_GAIN, fixed_value=j_tilde,
                     points=tuple(np.linspace(0.0, stop, points)), n=n)


def coupling_grid(n, gamma_tilde, points=401, start=-1.0, stop=1.0):
    return SweepGrid(axis=AXIS_COUPLING, fixed_value=gamma_tilde,
                     points=tuple(np.linspace(start, stop, points)), n=n)


class TestBisect:
    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(-1e3, 1e3), hi=st.floats(-1e3, 1e3), frac=st.floats(0.0, 1.0),
           tol=st.sampled_from([0.0, 1e-12, 1e-3]), max_iter=st.integers(1, 200),
           upper_inside=st.booleans())
    def test_brackets_the_switch(self, lo, hi, frac, tol, max_iter, upper_inside):
        t = lo + frac * (hi - lo)
        assume(lo < t <= hi)
        probes = []

        def inside(p):
            probes.append(p)
            return p >= t if upper_inside else p < t

        p_in, p_out = (hi, lo) if upper_inside else (lo, hi)
        # each probe is answered with itself, so ``inside`` sees the midpoint
        p_in, p_out = one_at_a_time(_bisect(inside, p_in, p_out, tol, max_iter), lambda p: p)
        a, b = sorted((p_in, p_out))
        assert a < t <= b
        assert len(probes) <= max_iter
        # every probe is a new point strictly inside the bracket
        assert all(lo < p < hi for p in probes) and len(set(probes)) == len(probes)
        if len(probes) < max_iter:
            assert b - a <= tol or np.nextafter(a, b) == b

    def test_zero_tolerance_ends_at_adjacent_floats(self):
        lo, hi = one_at_a_time(_bisect(lambda p: p < 0.3, 0.0, 1.0, 0.0), lambda p: p)
        assert lo < 0.3 <= hi and np.nextafter(lo, hi) == hi


def plain_bisect(inside, p_in, p_out, tol, max_iter=200):
    """Bisection by a predicate alone: the loop ``_bisect`` must equal on answers
    without magnitude."""
    for _ in range(max_iter):
        pm = 0.5 * (p_in + p_out)
        if not abs(p_out - p_in) > tol or pm in (p_in, p_out):
            break
        if inside((yield pm)):
            p_in = pm
        else:
            p_out = pm
    return p_in, p_out


def probed(loop, answer, *args, **kw):
    """The probes of ``loop(side, *args, **kw)`` whose ``side`` answers
    ``answer(p)`` at probe p, and its result."""
    probes = []
    ends = one_at_a_time(loop(lambda p: probes.append(p) or answer(p), *args, **kw), lambda p: p)
    return probes, ends


class TestRootFinder:
    """``_bisect`` on signed values: magnitudes steer the probes, signs decide."""

    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(-1e3, 1e3), hi=st.floats(-1e3, 1e3), frac=st.floats(0.0, 1.0),
           tol=st.sampled_from([0.0, 1e-12, 1e-3]), max_iter=st.integers(1, 200),
           upper_inside=st.booleans(), as_bool=st.booleans())
    def test_signs_alone_bisect_bit_for_bit(self, lo, hi, frac, tol, max_iter, upper_inside,
                                            as_bool):
        t = lo + frac * (hi - lo)
        assume(lo < t <= hi)

        def inside(p):
            return (p >= t) == upper_inside

        def answer(p):
            return inside(p) if as_bool else (1.0 if inside(p) else -1.0)

        p_in, p_out = (hi, lo) if upper_inside else (lo, hi)
        args = p_in, p_out, tol, max_iter
        new, old = probed(_bisect, answer, *args), probed(plain_bisect, inside, *args)
        assert [p.hex() for p in new[0]] == [p.hex() for p in old[0]]
        assert [p.hex() for p in new[1]] == [p.hex() for p in old[1]]

    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(-1.0, 1.0), hi=st.floats(-1.0, 1.0), frac=st.floats(0.0, 1.0),
           tol=st.sampled_from([1e-12, 1e-8, 1e-3]), upper_inside=st.booleans(),
           shape=st.sampled_from(["linear root", "double root at an end", "random", "falling"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_signed_values_end_in_a_verified_bracket(self, lo, hi, frac, tol, upper_inside,
                                                     shape, seed):
        t = lo + frac * (hi - lo)
        assume(lo < t <= hi)
        p_in, p_out = (hi, lo) if upper_inside else (lo, hi)
        rng = np.random.default_rng(seed)
        falling = iter(0.1 ** np.arange(1, 1000))

        def inside(p):
            return (p >= t) == upper_inside

        magnitude = {"linear root": lambda p: 3.0 * abs(p - t),
                     # zero at p_in, where it touches zero without a sign change
                     "double root at an end": lambda p: (p - p_in) ** 2 * abs(p - t),
                     # magnitudes that say nothing of the root
                     "random": lambda p: 10.0 ** rng.uniform(-300, 300),
                     # each answer inside smaller than the last: the inverse
                     # quadratic steps creep away from that end
                     "falling": lambda p: float(next(falling)) if inside(p) else 1.0}[shape]

        def answer(p):
            return math.copysign(magnitude(p), 1.0 if inside(p) else -1.0)

        bracket = {True: p_in, False: p_out}
        widths = [abs(p_out - p_in)]

        def side(p):
            bracket[inside(p)] = p
            widths.append(abs(bracket[True] - bracket[False]))
            return answer(p)

        probes, ends = probed(_bisect, side, p_in, p_out, tol, ends=(answer(p_in), answer(p_out)))
        # the final ends are the last probes on each side, around the root
        assert ends == (bracket[True], bracket[False])
        a, b = sorted(ends)
        assert a < t <= b and b - a <= tol and len(probes) <= 200
        # every probe is a new point strictly inside the starting bracket
        assert all(lo < p < hi for p in probes) and len(set(probes)) == len(probes)
        # and every four probes at least halve the bracket
        assert all(w <= 0.5 * v for v, w in zip(widths, widths[4:]))

    def test_zero_at_an_end_steps_half_a_tolerance_off_it(self):
        probes, _ = probed(_bisect, lambda p: 1.0 if p < 0.3 else -1.0, 0.0, 1.0, 1e-3,
                           ends=(0.0, -1.0))
        assert probes[0] == 5e-4


#: verify on two workers, four gain lines whose every solve fails at an exact EP.
RAISING_VERIFY = """
import sys
from pshchain import AtExceptionalPoint, cli, epscan

def at_ep(blocks, n, **kw):
    return [AtExceptionalPoint(1e20) for _ in blocks[0]]

epscan.sector_spectra = at_ep
sys.exit(cli.main(["verify", "--n", "4", "--workers", "2"]))
"""


@st.composite
def overlap_matrices(draw):
    """A (d, d) matrix whose first ``rows`` rows are the overlaps of ``rows``
    tracks with d levels, and the signs of the d levels on either side: small
    integers, with tied maxima and argmax collisions, or a partial permutation
    plus noise, where the argmax is the assignment. The signs are all 0 (no
    tie-break) or drawn from -1, 0 and +1."""
    d = draw(st.integers(1, 10))
    rows = draw(st.integers(1, d))
    if draw(st.booleans()):
        m = draw(arrays(np.int64, (d, d), elements=st.integers(0, 2))).astype(float)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        m = 0.3 * rng.random((d, d))
        m[np.arange(d), rng.permutation(d)] += 1.0
    signs = arrays(np.int8, d, elements=st.integers(-1, 1))
    ref_sign, new_sign = (draw(signs), draw(signs)) if draw(st.booleans()) else (
        np.zeros(d, np.int8), np.zeros(d, np.int8))
    return m, rows, ref_sign, new_sign


def assign(m, ref_sign, new_sign):
    """:func:`_assign` of one matrix: its columns and overlaps."""
    cols, best = _assign(m[None], ref_sign[None], new_sign[None])
    return cols[0], best[0]


class TestMatch:
    @settings(max_examples=500, deadline=None)
    @given(case=overlap_matrices())
    def test_equals_the_full_assignment(self, case):
        m, rows, ref_sign, new_sign = case
        cols, best = assign(m[:rows], ref_sign[:rows], new_sign)
        score = m[:rows] + _SIGN_TIE * (np.outer(ref_sign[:rows], new_sign) > 0)
        ref_rows, ref_cols = scipy.optimize.linear_sum_assignment(-score)
        assert len(set(cols.tolist())) == rows
        assert np.array_equal(best, m[np.arange(rows), cols])
        # a best assignment of the scores, whose tie-breaks are larger than rounding
        assert math.isclose(score[np.arange(rows), cols].sum(), score[ref_rows, ref_cols].sum(),
                            rel_tol=0.0, abs_tol=1e-14)
        if np.unique(score).size == score.size:  # no exact ties: the one best
            assert np.array_equal(cols, ref_cols[np.argsort(ref_rows)])

    def test_solves_the_assignment_only_where_two_rows_share_a_column(self, monkeypatch):
        calls = []
        solve = epscan.linear_sum_assignment
        monkeypatch.setattr(epscan, "linear_sum_assignment",
                            lambda cost: calls.append(1) or solve(cost))
        none = np.zeros(3)
        # unique row maxima in distinct columns
        cols, _ = assign(np.array([[0.1, 0.9, 0.0], [0.8, 0.2, 0.1], [0.0, 0.3, 0.7]]), none, none)
        assert cols.tolist() == [1, 0, 2] and calls == []
        # two rows' maxima in column 0
        cols, _ = assign(np.array([[0.9, 0.8, 0.0], [0.95, 0.1, 0.0], [0.0, 0.0, 1.0]]), none, none)
        assert cols.tolist() == [1, 0, 2] and calls == [1]
        # a tied maximum in row 0, whose first maxima are distinct: no solve
        cols, _ = assign(np.array([[0.5, 0.5, 0.0], [0.0, 0.1, 1.0], [0.0, 0.9, 0.2]]), none, none)
        assert cols.tolist() == [0, 2, 1] and calls == [1]
        # a stack of two matrices, of which only the second has a collision
        m = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.5], [1.0, 0.1]]])
        cols, best = _assign(m, np.zeros((2, 2)), np.zeros((2, 2)))
        assert cols.tolist() == [[0, 1], [1, 0]] and best.tolist() == [[1.0, 1.0], [0.5, 1.0]]
        assert calls == [1, 1]

    def test_a_tie_gives_index_plus_one_the_upper_member(self):
        # real levels of index +1 and -1 meet and go on as a conjugate pair,
        # whose members, Im E < 0 first, they overlap exactly equally
        tie = np.full((2, 2), 0.5)
        cols, _ = assign(tie, np.array([1, -1]), np.array([-1.0, 1.0]))
        assert cols.tolist() == [1, 0]
        cols, _ = assign(tie, np.array([-1, 1]), np.array([-1.0, 1.0]))
        assert cols.tolist() == [0, 1]

    def test_a_tie_gives_the_upper_member_index_plus_one(self):
        # the way back: the pair, Im E > 0 first, splits into indices -1 and +1
        tie = np.full((2, 2), 0.5)
        cols, _ = assign(tie, np.array([1.0, -1.0]), np.array([-1, 1]))
        assert cols.tolist() == [1, 0]

    def test_the_sign_decides_no_overlap_that_differs(self):
        m = np.array([[0.5, 0.5 + 1e-9], [0.5 + 1e-9, 0.5]])
        cols, _ = assign(m, np.array([1, -1]), np.array([1, -1]))
        assert cols.tolist() == [1, 0]


#: Values on the coupling axis and on the gain axis where matches are least
#: clear: the delta = 0 ends, the decoupled spins at j = 0 and the EP3s near
#: (-/+0.75, 0.41).
COUPLINGS = st.sampled_from([-1.0, 0.0, -0.75, 0.75]) | st.floats(-1.0, 1.0)
GAINS = st.sampled_from([0.0, 0.41]) | st.floats(0.0, 0.6)


@st.composite
def neighbour_points(draw):
    """Two nearby points of one line at N in {2, 4, 6}, solved in one stack, and
    tracked levels of the first: all of them, or some, in a drawn order."""
    n = draw(st.sampled_from([2, 4, 6]))
    axis = draw(st.sampled_from([AXIS_COUPLING, AXIS_GAIN]))
    fixed, start = (draw(GAINS), draw(COUPLINGS)) if axis == AXIS_COUPLING else (
        draw(COUPLINGS), draw(GAINS))
    step = draw(st.sampled_from([1e-6, 2.5e-3, 0.03]))
    start = min(start, AXIS_RANGE[axis][1] - step)
    cols = draw(st.permutations(range(1 << n)))
    cols = cols[:draw(st.integers(1, len(cols)))]
    return _Line(axis, fixed, n, None, INDICATOR_FLOOR), (start, start + step), np.array(cols)


class TestSectorMatch:
    """The match in the Q blocks is a best assignment of the 2^N-state overlaps,
    each level matched inside its own Q sector."""

    @settings(max_examples=150, deadline=None)
    @given(case=neighbour_points())
    # the delta = 0 start of verify's lines, the decoupled spins, and both EP3s
    @example(case=(_Line(AXIS_COUPLING, 0.21, 4, None, INDICATOR_FLOOR), (-1.0, -0.9975),
                   np.arange(16)))
    @example(case=(_Line(AXIS_GAIN, 0.0, 4, None, INDICATOR_FLOOR), (0.41, 0.4125),
                   np.arange(16)))
    @example(case=(_Line(AXIS_COUPLING, 0.41374, 4, None, INDICATOR_FLOOR),
                   (-0.7505, -0.748), np.array([3, 4, 7])))
    @example(case=(_Line(AXIS_GAIN, 0.74785, 4, None, INDICATOR_FLOOR), (0.41, 0.4125),
                   np.arange(16)))
    def test_is_a_best_assignment_in_the_q_sectors(self, case):
        line, values, cols = case
        try:
            first, second = _solve_values(line, values)
        except AtExceptionalPoint:
            assume(False)
        matched, overlaps = _match_levels(first, cols, second)
        assert len(set(matched.tolist())) == len(cols)
        assert np.array_equal(second.sector[matched], first.sector[cols])
        left, right = first.eigensystem.left[:, cols], second.eigensystem.right
        dense = np.abs(left.conj().T @ right)
        assert np.allclose(overlaps, dense[np.arange(len(cols)), matched], rtol=1e-12, atol=1e-12)
        rows, best = scipy.optimize.linear_sum_assignment(-dense)
        scale = np.linalg.norm(left, axis=0).max() * np.linalg.norm(right, axis=0).max()
        assert abs(overlaps.sum() - dense[rows, best].sum()) <= 1e-10 * scale
        # a sweep's stacked match of every level is the match of the pair alone
        followed = [c for _, c, _ in _follow([first, second])][1]
        assert np.array_equal(followed, _match_levels(first, np.arange(first.dim), second)[0])

    def test_tied_levels_at_the_delta_zero_end_take_distinct_columns(self):
        # levels 10 and 11 are degenerate at j = -1: both overlap column 13
        # best, and the assignment gives them 12 and 13
        line = _Line(AXIS_COUPLING, 0.21, 4, None, INDICATOR_FLOOR)
        first, second = _solve_values(line, [-1.0, -0.9975])
        assert _match_levels(first, np.arange(16), second)[0][10:12].tolist() == [12, 13]


def complex_overlaps(left, right):
    """|<L|R>| of every pair of points by one complex product, whether or not
    its vectors are real arrays: the reference of ``epscan._overlaps``."""
    return np.abs(left.astype(complex).conj().swapaxes(1, 2) @ right.astype(complex))


def stack_matches(spectra):
    """``_block_match`` of every level of each point of one stack into the next."""
    es = spectra[0].eigensystem
    refs = slice(es.point, es.point + len(spectra) - 1)
    return epscan._block_match(es.stack, refs, np.arange(es.dim), es.stack,
                               slice(refs.start + 1, refs.stop + 1))


def vector_dtypes(blocks, n) -> tuple[set, set, list]:
    """The dtypes of ``eig_blocks``' right vectors of the Q blocks ``blocks``,
    those of the rescaled right and left vectors in their spectra's
    ``SectorStack``, and the spectra."""
    spectra = sector_spectra(blocks, n)
    stack = spectra[0].eigensystem.stack
    return ({v.dtype for v in eig_blocks(blocks).right},
            {x.dtype for x in (*stack.right, *stack.left)}, spectra)


class TestOverlapKinds:
    """A stack's vectors keep LAPACK's dtype: real arrays in a Q block whose
    points are all gain-free (each matrix its own transpose), complex ones
    where a point has gain. The overlaps of two real arrays are one real
    product; the matches are those of one complex product, the overlaps
    within a few ulps."""

    @staticmethod
    def assert_matches_as_complex(spectra, monkeypatch):
        found, best = stack_matches(spectra)
        with monkeypatch.context() as mp:
            mp.setattr(epscan, "_overlaps", complex_overlaps)
            want_found, want_best = stack_matches(spectra)
        assert np.array_equal(found, want_found)
        assert np.max(np.abs(best - want_best)) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [2, 6, 8])
    def test_gain_free_pairs_take_the_real_product(self, n, monkeypatch):
        # at N = 2 the Q = -1 block is one column of p = +1
        points = [NormalizedPoint(jt, 0.0) for jt in (-1.0, -0.4, -0.35, 0.0, 0.2)]
        solved, rescaled, spectra = vector_dtypes(build_sector_blocks(points, n), n)
        assert solved == rescaled == {np.dtype(np.float64)}
        self.assert_matches_as_complex(spectra, monkeypatch)

    def test_real_gain_point_stays_complex(self, monkeypatch):
        # on verify's gamma_tilde = 0.05 line every level is real here, but the
        # gain makes both Q blocks non-symmetric: LAPACK's vectors are complex
        points = [NormalizedPoint(jt, 0.05) for jt in (0.3, 0.3025)]
        solved, rescaled, spectra = vector_dtypes(build_sector_blocks(points, 4), 4)
        assert all(not np.any(sp.eigenvalues.imag) for sp in spectra)
        assert solved == rescaled == {np.dtype(np.complex128)}
        self.assert_matches_as_complex(spectra, monkeypatch)

    @pytest.mark.parametrize("n", [4, 6])
    def test_mixed_stack(self, n, monkeypatch):
        # a gain-free point, then the gain ladder at j_tilde = 0.3 from gamma_tilde = 0,
        # into complex levels: one point with gain makes its stack complex
        points = [NormalizedPoint(0.29, 0.0),
                  *(NormalizedPoint(0.3, gt) for gt in (0.0, 0.05, 0.1, 0.3, 0.45))]
        solved, rescaled, spectra = vector_dtypes(build_sector_blocks(points, n), n)
        assert solved == rescaled == {np.dtype(np.complex128)}
        self.assert_matches_as_complex(spectra, monkeypatch)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_public_vectors_are_those_of_a_mixed_stack(self, n):
        # a gain-free point solved alone (real block vectors) and beside a gain
        # point (complex ones) has the same complex 2^N-state vectors, to the bit
        point = NormalizedPoint(-0.35, 0.0)
        alone, = sector_spectra(build_sector_blocks([point], n), n)
        mixed = sector_spectra(build_sector_blocks([NormalizedPoint(0.3, 0.3), point], n), n)[1]
        assert alone.eigensystem.stack.right[0].dtype == np.float64
        assert mixed.eigensystem.stack.right[0].dtype == np.complex128
        assert_same_spectrum(alone, mixed)
        records = list(zip(alone.levels, mixed.levels))
        for name in ("right", "left"):
            for x, y in [(getattr(alone.eigensystem, name), getattr(mixed.eigensystem, name)),
                         *((getattr(a, name), getattr(b, name)) for a, b in records)]:
                assert x.dtype == y.dtype == np.complex128
                assert x.tobytes() == y.tobytes()

    def test_gain_free_sweep_makes_no_complex_product(self, monkeypatch):
        kinds, overlaps = Counter(), epscan._overlaps

        def counted(left, right):
            kinds[left.dtype, right.dtype] += len(left)
            return overlaps(left, right)

        monkeypatch.setattr(epscan, "_overlaps", counted)
        tracks = sweep(coupling_grid(6, 0.0, points=11))
        assert kinds == {(np.dtype(np.float64),) * 2: 2 * 10}
        assert all(np.all(tr.z2 == tr.z2[0]) and tr.z2[0] != 0 for tr in tracks)

    def test_one_point_stacks_take_one_match_each(self, monkeypatch):
        # at N = 8 each point is a stack of its own: every pair of points is
        # matched once, by _match_levels, and no run of one point is matched
        calls = Counter()

        def counted(name):
            fn = getattr(epscan, name)
            return lambda *args: calls.update([name]) or fn(*args)

        for name in ("_block_match", "_match_levels"):
            monkeypatch.setattr(epscan, name, counted(name))
        sweep(coupling_grid(8, 0.0, points=40, start=-0.99, stop=0.99))
        assert calls == {"_block_match": 39, "_match_levels": 39}

    @pytest.mark.parametrize("argv", [
        ["--axis", "jt", "--fixed", "0", "--start", "-1", "--stop", "1", "--points", "9"],
        # a gain sweep whose gamma_tilde = 1 point is an exact EP, solved nudged
        ["--axis", "gt", "--fixed", "0", "--start", "0", "--stop", "2", "--points", "5"],
    ])
    def test_n2_sweeps_write_what_complex_products_write(self, argv, tmp_path, monkeypatch):
        outputs = []
        for overlaps in (epscan._overlaps, complex_overlaps):
            monkeypatch.setattr(epscan, "_overlaps", overlaps)
            out = tmp_path / f"{len(outputs)}.csv"
            assert main(["sweep", "--n", "2", *argv, "--output", str(out)]) == 0
            outputs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
        assert outputs[0] == outputs[1]


class TestPool:
    @pytest.mark.parametrize("exc", [
        AtExceptionalPoint(1e20), AtExceptionalPoint(np.inf, "defective degenerate cluster"),
        AccidentallyZeroElement(1e-20, 1e-12), IndexIllDefined("zeta"),
        NoEPInBracket("no boundary"), NoEP3InBox("no wedge"), UsageError("bad flag"),
    ], ids=lambda exc: type(exc).__name__)
    def test_exceptions_survive_pickle(self, exc):
        # a worker's exception reaches the parent pickled
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)

    def test_worker_exception_reaches_the_parent(self):
        # an exception the pool cannot rebuild kills its result handler and
        # the parent waits forever, so this runs under a timeout
        proc = subprocess.run([sys.executable, "-c", RAISING_VERIFY],
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "numeric failure: defective eigensystem (condition 1.000e+20)\n"

    def test_one_task_runs_in_this_process(self):
        # a lambda cannot be pickled, so it runs here or not at all
        with _Pool(4, 1) as pool:
            assert pool.map(lambda _: os.getpid(), [0]) == [os.getpid()]


class TestRealityBoundary:
    def test_two_level_critical_gain(self):
        res = reality_boundary(toy_solver(0.2, 1.0), 0.05, 0.2, (0, 1), tol=1e-10)
        assert abs(res["location"] - 0.1) <= 1e-10
        assert res["width"] <= 1e-10
        assert set(res["real_side_z2"]) == {-1, 1}

    def test_same_index_pair_has_no_boundary(self):
        # Hermitian two-level family: indices (+1, +1) with the identity
        # metric, eigenvalues stay real for every parameter value
        def solve(p):
            h = np.array([[0.1, p], [p, -0.1]], dtype=complex)
            return spectrum_with_indices(h, np.eye(2, dtype=complex))

        res = reality_boundary(solve, 0.05, 0.4, (0, 1), tol=1e-10)
        assert isinstance(res, NoEPInBracket)
        assert str(res) == "pair is not complex-conjugate on the complex side"

    def test_zero_tolerance_ends(self):
        # with tol=0 the probes close in on the exceptional point itself; the
        # last one lands on it (p = 0.1), where the eigenbasis is defective
        probes = []
        solve = toy_solver(0.2, 1.0)

        def counted(p):
            probes.append(p)
            return solve(p)

        with pytest.raises(AtExceptionalPoint):
            reality_boundary(counted, 0.05, 0.2, (0, 1), tol=0)
        assert probes[-1] == 0.1
        assert len(probes) < 200

    def test_wrong_orientation_detected(self):
        res = reality_boundary(toy_solver(0.2, 1.0), 0.2, 0.3, (0, 1))
        assert isinstance(res, NoEPInBracket)
        assert str(res) == "pair is already complex on the declared real side"

    def test_partner_exchange_raises(self):
        # column 2 (1+1j) is complex throughout; at p = 0.5 its conjugate partner
        # moves onto the tracked column 0, so the pair turns mutual without
        # having been real: the bisection ends at a change of partners
        def solve(p):
            if p < 0.5:
                return spectrum_with_indices(np.diag([1 + 1j, 0.5, 1 - 1j]), swap_metric(3, 0, 2))
            return spectrum_with_indices(np.diag([1 + 1j, 1 - 1j, 0.5]), swap_metric(3, 0, 1))

        res = reality_boundary(solve, 0.1, 0.9, (2, 0), tol=1e-6)
        assert isinstance(res, NoEPInBracket)
        assert str(res) == "pairing changes without a reality boundary (partner exchange)"


class TestEp2RootFinder:
    """EP2s found as roots of the pair's squared gap, on chain data."""

    def test_c05_ground_pair_in_a_third_of_the_solves(self, monkeypatch):
        # c05's grid: bisection took 62 solves to 1e-12 here
        spec = NormalizedPoint(-0.95, 0.0).chain(4)
        stop = 4 * predict_gamma_cr(spec, (0, 1))
        tracks = sweep(SweepGrid(axis=AXIS_GAIN, fixed_value=-0.95,
                                 points=tuple(np.linspace(0.0, stop, 41)), n=4))
        solves = []
        solve_values = epscan._solve_values

        def count(line, values, nudges=_NUDGES):
            solves.extend(values)
            return solve_values(line, values, nudges)

        monkeypatch.setattr(epscan, "_solve_values", count)
        records, skipped = locate_ep2_records(tracks, tol=1e-12)
        assert (0, 1) in [r.levels for r in records] and skipped == []
        assert all(r.bracket_width <= 1e-12 for r in records)
        assert len(solves) <= 21

    def test_double_root_at_the_grid_end(self):
        # verify's (10, 11) transition next to jt = -1 at gt = 0.48375: the pair
        # is degenerate at the end (delta = 0), and its squared gap stays zero
        # to rounding up to the record, 1.4e-8 away, so the refinement bisects
        grid = coupling_grid(4, 0.48375, points=801)
        tracks = sweep(grid)
        assert tracks[10].eigenvalues[0] == tracks[11].eigenvalues[0]
        event, = (e for e in reality_transitions(tracks) if e[:3] == (10, 11, 0))
        rec = refine_alone(tracks, event)
        assert abs(rec.location[AXIS_COUPLING] - -0.9999999864816468) <= 1e-8
        assert rec.bracket_width <= 1e-8 and rec.indices == (-1, 1)


NUDGE_GRID = coupling_grid(4, 0.21, points=70, start=-0.9, stop=0.9)


def nudge_blocks(value):
    return sector_blocks(_point(NUDGE_GRID, value).chain(NUDGE_GRID.n))


def fake_stacks(monkeypatch, error, matrices):
    """Let ``error`` stand for the stacked solve of each of ``matrices`` (sector
    blocks of one point); record the stacks, as one tuple of blocks per point."""
    original = epscan.sector_spectra
    stacks = []

    def fake(blocks, n, **kw):
        points = [tuple(b[k:k + 1] for b in blocks) for k in range(len(blocks[0]))]
        stacks.append(points)
        return [error if any(same_blocks(p, m) for m in matrices) else sp
                for p, sp in zip(points, original(blocks, n, **kw))]

    def single(*args, **kw):
        raise AssertionError("a matrix was solved outside the stacked routine")

    monkeypatch.setattr(epscan, "sector_spectra", fake)
    monkeypatch.setattr(epscan, "spectrum_with_indices", single)
    return stacks


class TestSweep:
    def test_gain_free_line_is_real(self):
        tracks = sweep(coupling_grid(4, 0.0, points=81))
        assert len(tracks) == 16
        for tr in tracks:
            assert np.max(np.abs(tr.eigenvalues.imag)) < 1e-9
            assert np.all(tr.partner == -1)
            assert np.all(tr.z2 != 0)

    def test_conjugate_ribbons_appear(self):
        tracks = sweep(coupling_grid(4, 0.21, points=161))
        paired = sum(int(np.any(tr.partner >= 0)) for tr in tracks)
        assert paired >= 4
        for tr in tracks:
            for p in np.flatnonzero(tr.partner >= 0):
                q = tracks[tr.partner[p]]
                assert q.partner[p] == tr.level_id
                assert abs(tr.eigenvalues[p] - np.conj(q.eigenvalues[p])) < 1e-8

    def test_partner_links_are_mutual_through_ep2s(self):
        # the EP2 path reads each link in one direction; a gain line with six EP2s
        tracks = sweep(gain_grid(4, -0.84184, 0.5, 201))
        assert len(reality_transitions(tracks)) == 6
        for t, track in enumerate(tracks):
            for p, q in enumerate(track.partner.tolist()):
                if q >= 0:
                    assert q != t and tracks[q].partner[p] == t

    @pytest.mark.parametrize("grid", [
        *(coupling_grid(4, g, points=801) for g in (0.05, 0.21, 0.40125, 0.48375)),
        gain_grid(6, 0.3, 0.5, 301)], ids=["verify 0.05", "verify 0.21", "verify 0.40125",
                                           "verify 0.48375", "n6 gain"])
    def test_index_plus_one_goes_on_as_the_upper_member(self, grid):
        # where levels of opposite index meet in an EP2, the track of index +1
        # holds the pair's member with Im E > 0, on either side of the line
        tracks = sweep(grid)
        checked = 0
        for a, b, p, side in reality_transitions(tracks):
            real, cplx = (p + 1, p) if side == "lo" else (p, p + 1)
            za, zb = tracks[a].z2[real], tracks[b].z2[real]
            if za * zb < 0:
                plus = tracks[a if za > 0 else b]
                assert plus.eigenvalues[cplx].imag > 0, (a, b, p, side)
                checked += 1
        assert checked > 0

    def test_tracking_builds_no_basis_state_vectors(self, monkeypatch):
        # the coarse N=6 line with gain, whose pairs form and split between points
        def states(*args):
            raise AssertionError("a 2^N-state vector was built")

        monkeypatch.setattr(SectorStack, "states", states)
        records, _ = locate_ep2_records(sweep(coupling_grid(6, 0.3, 40, -0.99, 0.99)))
        assert len(records) == 87

    def test_track_count_conserved_and_columns_partition(self):
        tracks = sweep(gain_grid(2, 1 / np.sqrt(2), 1.2, 61))
        cols = np.array([tr.columns for tr in tracks])
        for p in range(cols.shape[1]):
            assert sorted(cols[:, p]) == [0, 1, 2, 3]

    def test_two_level_square_root_shape_near_closure(self):
        # the merging pair follows eps ~ sqrt(g_cr - g) just below the boundary
        n, jt = 2, 1 / np.sqrt(2)
        tracks = sweep(gain_grid(n, jt, 0.4, 81))
        recs, _ = locate_ep2_records(tracks, tol=1e-12)
        (rec,) = recs
        g_cr = rec.location[AXIS_GAIN]
        a, b = rec.levels
        grid = gain_grid(n, jt, 0.4, 81)
        solve = grid.solver()

        def splitting(g):
            sp = solve(g)
            vals = sorted(lv.eigenvalue.real for lv in sp.levels)
            return vals[3] - vals[2] if {a, b} == {2, 3} else vals[1] - vals[0]

        d1, d2 = 1e-4, 5e-5
        s1, s2 = splitting(g_cr - d1), splitting(g_cr - d2)
        assert np.isclose(s1 / s2, np.sqrt(d1 / d2), rtol=0.02)

    @pytest.mark.parametrize("grid", [coupling_grid(4, 0.21, points=101, start=-0.8, stop=0.8),
                                      gain_grid(4, 0.3, 0.5, 101), gain_grid(2, 0.6, 0.9, 31)])
    def test_tracks_match_the_point_by_point_reading(self, grid):
        # the reference reads each point along the tracks as it arrives
        dim = 1 << grid.n
        want = {name: np.zeros((dim, len(grid.points)), dtype=dtype) for name, dtype in (
            ("eigenvalues", np.complex128), ("z2", np.int8), ("indicator", float),
            ("partner", np.int64), ("columns", np.int64), ("overlaps", float))}
        for p, (sp, cols, matched) in enumerate(epscan._follow(_solve_values(grid, grid.points))):
            col_to_track = np.empty(dim, dtype=np.int64)
            col_to_track[cols] = np.arange(dim)
            pc = sp.partner[cols]
            for name, column in (("eigenvalues", sp.eigenvalues[cols]), ("z2", sp.z2[cols]),
                                 ("indicator", sp.indicator[cols]), ("columns", cols),
                                 ("partner", np.where(pc >= 0, col_to_track[pc], -1)),
                                 ("overlaps", matched)):
                want[name][:, p] = column
        assert any((want["partner"] >= 0).ravel())
        for t, track in enumerate(sweep(grid)):
            for name, rows in want.items():
                got = getattr(track, name)
                assert got.dtype == rows.dtype and np.array_equal(got, rows[t]), name
            assert track.breaks == np.flatnonzero(want["overlaps"][t] < OVERLAP_MIN).tolist()

    def test_grid_points_resolve_identically_alone(self):
        # refinement re-solves grid points one at a time and reads them at
        # the columns the stacked sweep recorded
        grid = coupling_grid(4, 0.40125, points=150)
        tracks = sweep(grid)
        solve = grid.solver()
        for p in (0, 1, 63, 64, 100, 149):
            sp = solve(grid.points[p])
            for tr in tracks:
                c = tr.columns[p]
                assert sp.eigenvalues[c] == tr.eigenvalues[p]
                assert sp.z2[c] == tr.z2[p] and sp.indicator[c] == tr.indicator[p]

    # a point at an exact EP is solved again through the same stacked routine,
    # at the next offset of _NUDGES

    def test_failed_stack_point_is_solved_alone(self, monkeypatch):
        pts = NUDGE_GRID.points
        reference = list(_solve_values(NUDGE_GRID, pts))
        nudged = solve_chain(_point(NUDGE_GRID, pts[2] + 1e-11).chain(4))
        stacks = fake_stacks(monkeypatch, AtExceptionalPoint(np.inf),
                             [nudge_blocks(pts[2])])
        patched = list(_solve_values(NUDGE_GRID, pts))
        assert [len(hs) for hs in stacks] == [64, 1, 6]
        assert same_blocks(stacks[1][0], nudge_blocks(pts[2] + 1e-11))
        for p, (a, b) in enumerate(zip(reference, patched)):
            assert_same_spectrum(b, nudged if p == 2 else a)

    def test_failure_at_every_offset_raises_after_three_retries(self, monkeypatch):
        v = NUDGE_GRID.points[5]
        stacks = fake_stacks(monkeypatch, AtExceptionalPoint(np.inf),
                             [nudge_blocks(v + dv) for dv in _NUDGES])
        spectra = _solve_values(NUDGE_GRID, NUDGE_GRID.points)
        for _ in range(5):
            next(spectra)
        with pytest.raises(AtExceptionalPoint):
            next(spectra)
        assert [len(hs) for hs in stacks] == [64, 1, 1, 1]
        for hs, dv in zip(stacks[1:], _NUDGES[1:]):
            assert same_blocks(hs[0], nudge_blocks(v + dv))

    def test_other_errors_raise_without_retry(self, monkeypatch):
        stacks = fake_stacks(monkeypatch, ArithmeticError("residuals"),
                             [nudge_blocks(NUDGE_GRID.points[5])])
        with pytest.raises(ArithmeticError, match="residuals"):
            sweep(NUDGE_GRID)
        assert [len(hs) for hs in stacks] == [64]


class TestSolveValues:
    @settings(max_examples=50, deadline=None)
    @given(n=st.sampled_from([2, 4]), axis=st.sampled_from([AXIS_COUPLING, AXIS_GAIN]),
           fixed=st.floats(-1.0, 1.0),
           values=st.lists(st.one_of(
               st.floats(-1.0, 1.0),
               st.sampled_from([-1.0, 1.0, -1.0 - 1e-11, -1.0 + 1e-11, 1.0 - 1e-11,
                                1.0 + 1e-11, 0.0, -1e-11])), min_size=1, max_size=4))
    def test_matches_single_solves_at_every_offset(self, n, axis, fixed, values):
        # the reference is each offset solved alone in turn
        line = _Line(axis, abs(fixed) if axis == AXIS_COUPLING else fixed, n, None,
                     INDICATOR_FLOOR)

        def solve_alone(v, nudges):
            for dv in nudges:
                try:
                    return solve_chain(_point(line, v + dv).chain(n))
                except AtExceptionalPoint as exc:
                    last = exc
            raise last

        for k in range(len(_NUDGES)):
            spectra = _solve_values(line, values, _NUDGES[k:])
            for v in values:
                try:
                    want = solve_alone(v, _NUDGES[k:])
                except AtExceptionalPoint:
                    with pytest.raises(AtExceptionalPoint):
                        next(spectra)
                    break
                assert_same_spectrum(next(spectra), want)


class TestSweepGrid:
    @pytest.mark.parametrize("kw", [
        {"n": 3}, {"n": 0}, {"n": -2}, {"n": 4.0}, {"n": True},
        {"reality_tol": -1e-8}, {"reality_tol": float("nan")}, {"reality_tol": float("inf")},
        {"indicator_floor": None}, {"indicator_floor": -1e-6},
        {"indicator_floor": float("nan")}, {"indicator_floor": float("inf")},
        {"reality_tol": True}, {"indicator_floor": False},
        {"fixed_value": True}, {"points": (False, 0.1)},
    ])
    def test_bad_fields_rejected_at_construction(self, kw):
        # an odd n used to construct and fail only at the first solve
        with pytest.raises(ValueError, match=next(iter(kw))):
            SweepGrid(**{"axis": AXIS_GAIN, "fixed_value": 0.5, "points": (0.0, 0.1),
                         "n": 4, **kw})

    def test_fixed_value_checked_before_it_is_stored_as_float(self):
        with pytest.raises(TypeError):
            SweepGrid(AXIS_GAIN, "0.5", (0.0, 0.1), 2)
        grid = SweepGrid(AXIS_GAIN, np.float64(0.5), (0, 0.1), 2)
        assert type(grid.fixed_value) is float and type(grid.points[0]) is float

    def test_zero_tolerances_accepted(self):
        grid = SweepGrid(AXIS_GAIN, 0.5, (0.0, 0.1), 2, reality_tol=0.0, indicator_floor=0)
        assert (grid.reality_tol, grid.indicator_floor) == (0.0, 0)


# the N=2 gain line of the CLI tests: one EP2 between levels 2 and 3
TOLS = {"reality_tol": 2e-8, "indicator_floor": 2e-6}


def tolerance_grid(**tols):
    return SweepGrid(axis=AXIS_GAIN, fixed_value=0.707106781,
                     points=tuple(np.linspace(0.0, 0.4, 41)), n=2, **tols)


class TestGridTolerances:
    """Every solve of a sweep and of its refinements takes the grid's tolerances."""

    @pytest.fixture
    def seen(self, monkeypatch):
        calls = []

        def recording(original):
            def solve(h, zeta, **kw):
                calls.append((kw.get("reality_tol"), kw.get("indicator_floor")))
                return original(h, zeta, **kw)
            return solve

        monkeypatch.setattr(epscan, "sector_spectra", recording(epscan.sector_spectra))
        return calls

    @pytest.mark.parametrize("refine", [
        lambda tracks: refine_alone(tracks, reality_transitions(tracks)[0], tol=1e-10),
        lambda tracks: locate_ep2_records(tracks, tol=1e-10),
    ], ids=["one_transition", "locate_ep2_records"])
    def test_ep2_refinement(self, refine, seen):
        tracks = sweep(tolerance_grid(**TOLS))
        del seen[:]
        refine(tracks)
        assert seen and set(seen) == {tuple(TOLS.values())}

    def test_crossing_refinement(self, seen):
        grid = coupling_grid(4, 0.0, points=101)
        tracks = sweep(SweepGrid(grid.axis, grid.fixed_value, grid.points, grid.n, **TOLS))
        del seen[:]
        assert classify_crossings(tracks)
        assert seen and set(seen) == {tuple(TOLS.values())}

    def test_tolerances_survive_the_worker_pool(self, tmp_path):
        # two gain lines on two workers; these tolerances change the records
        tols = ["--tol", "reality_tol=1e-3", "--tol", "indicator_floor=0.3"]
        outs = []
        for name, args in (("w1", [*tols, "--workers", "1"]), ("w2", [*tols, "--workers", "2"]),
                           ("default", ["--workers", "2"])):
            out = tmp_path / f"{name}.json"
            assert main(["verify", "--n", "4", "--points", "101", "--gammas", "0.21,0.40125",
                         *args, "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] != outs[2]


class TestFindEp2:
    def test_matches_prediction_on_small_chain(self):
        n, jt = 2, 1 / np.sqrt(2)
        tracks = sweep(gain_grid(n, jt, 0.4, 41))
        recs, skipped = locate_ep2_records(tracks, tol=1e-10)
        assert not skipped
        (rec,) = recs
        assert rec.order == 2
        assert set(rec.indices) == {-1, 1}
        pred = predict_gamma_cr(NormalizedPoint(jt, 0.0).chain(n), rec.levels)
        assert abs(rec.location[AXIS_GAIN] - pred) / pred < 0.25  # pair not isolated

    def test_indicators_positive_then_vanish_at_the_boundary(self):
        # on the real side both indicators stay positive, and they sink to
        # zero as the bracket around the boundary tightens
        solve = toy_solver(0.2, 1.0)
        inds = []
        for tol in (1e-2, 1e-4, 1e-6, 1e-8):
            res = reality_boundary(solve, 0.05, 0.2, (0, 1), tol=tol)
            assert all(i > 0 for i in res["real_side_indicator"])
            inds.append(max(res["real_side_indicator"]))
        assert all(a >= b for a, b in zip(inds, inds[1:]))
        assert inds[-1] < 1e-3

    def test_indicator_vanishes_on_chain_pair(self):
        n, jt = 2, 1 / np.sqrt(2)
        tracks = sweep(gain_grid(n, jt, 0.4, 41))
        (rec,), _ = locate_ep2_records(tracks, tol=1e-10)
        grid = gain_grid(n, jt, 0.4, 41)
        i_real = int(np.searchsorted(grid.points, rec.location[AXIS_GAIN])) - 1
        a, b = rec.levels
        near = [tracks[a].indicator[i_real], tracks[b].indicator[i_real]]
        far = [tracks[a].indicator[0], tracks[b].indicator[0]]
        assert min(far) > max(near) > 0


@pytest.fixture(scope="module")
def gain_free_tracks():
    return sweep(coupling_grid(4, 0.0, points=801))


@pytest.fixture(scope="module")
def crossings(gain_free_tracks):
    return classify_crossings(gain_free_tracks)


class TestClassifyCrossings:
    def test_locations_match_free_fermion_crossings(self, crossings):
        # independent check: at each reported coupling the closed-form
        # spectrum must contain an (almost) exactly degenerate pair
        from pshchain import full_spectrum

        interior = [c for c in crossings
                    if c.kind in ("same", "opposite") and 0.05 < abs(c.location) < 0.99]
        assert len(interior) >= 6
        for c in interior:
            jt = c.location
            states = full_spectrum(4, jt, float(np.sqrt(1 - jt ** 2)))
            min_gap = np.min(np.diff([s.energy for s in states]))
            assert min_gap < 1e-7
            assert c.gap < 1e-8

    def test_mirror_symmetry(self, crossings):
        interior = sorted(c.location for c in crossings
                          if c.kind in ("same", "opposite") and 0.05 < abs(c.location) < 0.99)
        assert np.allclose(interior, sorted(-x for x in interior), atol=1e-6)

    def test_kinds_present(self, crossings):
        kinds = {c.kind for c in crossings}
        assert "same" in kinds and "opposite" in kinds

    def test_track_jumps_are_not_crossings(self):
        # on 5 points some tracked gaps change sign by a jump of the tracks, and
        # refine to gaps of 1.9e-6 up to 5.77; real crossings refine to 4.1e-12
        recs = classify_crossings(sweep(coupling_grid(4, 0.0, points=5)))
        # at the ends and inside the line; near the decoupled point j = 0 the
        # count depends on which degenerate values tie there to the bit
        ends = sum(abs(c.location) > 1 - 1e-6 for c in recs)
        centre = sum(abs(c.location) < 1e-6 for c in recs)
        assert (ends, centre, len(recs) - ends - centre) == (72, 26, 6)
        assert all(c.gap <= 1e-11 for c in recs if c.kind != "ambiguous")

    def test_requires_gain_free_coupling_sweep(self):
        tracks = sweep(gain_grid(2, 0.5, 0.2, 11))
        with pytest.raises(ValueError):
            classify_crossings(tracks)

    def test_matches_one_refinement_at_a_time(self, gain_free_tracks, crossings):
        # the sign changes are refined together; each must end where its own
        # refinement, solved one probe at a time, ends
        tracks = gain_free_tracks
        grid = tracks[0].grid
        pts = np.asarray(grid.points)
        expected, exact = [], set()
        for a in range(len(tracks)):
            for b in range(a + 1, len(tracks)):
                d = (tracks[a].eigenvalues - tracks[b].eigenvalues).real
                exact.update((float(pts[p]), (a, b)) for p in np.flatnonzero(d == 0.0))
                for p in np.flatnonzero(d[:-1] * d[1:] < 0.0):
                    loc, gap = _refine_crossing(
                        grid.solver(), pts[p], pts[p + 1],
                        (int(tracks[a].columns[p]), int(tracks[b].columns[p])),
                        d[p], CROSSING_TOL)
                    expected.append((float(loc), (a, b), float(gap)))
        refined = [(c.location, c.levels, c.gap) for c in crossings
                   if c.kind != "ambiguous" and (c.location, c.levels) not in exact]
        assert len(expected) >= 6
        assert refined == sorted(expected)


@pytest.fixture(scope="module")
def high_gain_tracks():
    # a line with both records and skipped transitions (partner exchanges)
    return sweep(coupling_grid(4, 0.40125, points=201))


class TestLockstep:
    """Refinements run together, sharing stacked solves, and end as they would alone."""

    def test_transitions_are_the_changes_of_the_pair_sets(self, high_gain_tracks):
        # the reference reading: the set of linked pairs at each point, compared
        # between neighbouring points
        tracks = high_gain_tracks
        pairs = [{(a, int(tr.partner[p])) for a, tr in enumerate(tracks) if tr.partner[p] > a}
                 for p in range(len(tracks[0].grid.points))]
        want = [(a, b, p, side) for p in range(len(pairs) - 1)
                for side, gone, there in (("lo", pairs[p], pairs[p + 1]),
                                          ("hi", pairs[p + 1], pairs[p]))
                for a, b in gone - there]
        want.sort(key=lambda e: (e[2], e[0], e[1], e[3]))
        assert want and reality_transitions(tracks) == want

    def test_records_match_one_transition_at_a_time(self, high_gain_tracks):
        tracks = high_gain_tracks
        grid = tracks[0].grid
        # locate_ep2_records solves its probes in stacks, partial(_solve_values,
        # grid); refine_alone solves each probe alone, partial(map, grid.solver())
        records, skipped = [], []
        for a, b, p, side in reality_transitions(tracks):
            res = refine_alone(tracks, (a, b, p, side))
            if isinstance(res, EPRecord):
                records.append(res)
            else:
                assert isinstance(res, NoEPInBracket)
                skipped.append({"levels": [a, b], "bracket": [grid.points[p], grid.points[p + 1]],
                                "complex_side": side, "reason": str(res)})
        records.sort(key=EPRecord.sort_key)
        assert records and skipped
        assert locate_ep2_records(tracks) == (records, skipped)

    def test_leaves_no_reference_cycles(self, high_gain_tracks):
        # a cycle would keep the refinements' spectra, and the stacks they
        # are views of, alive until the garbage collector runs
        gc.collect()
        gc.disable()
        try:
            _, skipped = locate_ep2_records(high_gain_tracks)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert skipped
        assert garbage == 0

    def test_failed_point_keeps_no_traceback(self):
        # this point fails in a degenerate cluster's eigenspace step; a stored
        # traceback would hold the solve's frame, and the stack's arrays with
        # it, in a cycle until the garbage collector runs
        gc.collect()
        gc.disable()
        try:
            failed = sector_spectra(normalized_blocks(4, np.array([-0.9009566594357457, 0.0]),
                                                      np.array([0.05, 0.05])), 4)[0]
            assert isinstance(failed, AtExceptionalPoint)
            kept_traceback = failed.__traceback__ is not None
            del failed
            garbage = gc.collect()
        finally:
            gc.enable()
        assert (kept_traceback, garbage) == (False, 0)

    def test_one_stack_per_round(self, monkeypatch):
        tracks = sweep(coupling_grid(4, 0.40125, points=801))
        stacks, failed, singles, retries = [], [], [], []
        stacked, single = epscan.sector_spectra, epscan.spectrum_with_indices
        solve_values = epscan._solve_values

        def count_stack(blocks, n, **kw):
            out = stacked(blocks, n, **kw)
            stacks.append(len(out))
            failed.extend(sp for sp in out if isinstance(sp, Exception))
            return out

        def count_single(h, zeta, **kw):
            singles.append(1)
            return single(h, zeta, **kw)

        def count_retry(line, values, nudges=_NUDGES):
            if nudges != _NUDGES:
                retries.append(values)
            return solve_values(line, values, nudges)

        monkeypatch.setattr(epscan, "sector_spectra", count_stack)
        monkeypatch.setattr(epscan, "spectrum_with_indices", count_single)
        monkeypatch.setattr(epscan, "_solve_values", count_retry)
        records, skipped = locate_ep2_records(tracks)
        assert len(records) + len(skipped) >= 20
        assert len(stacks) <= 25
        # every solve is stacked; a failed point is retried at the next offset
        assert singles == []
        assert len(retries) == len(failed)


class TestStackedBuild:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_single_builds(self, n):
        # the lines' clamps included: couplings past +-1 and negative gains
        rng = np.random.default_rng(n)
        lines = {AXIS_COUPLING: ([0.0, 0.3, float(rng.uniform(0, 1))],
                                 [*rng.uniform(-1, 1, 6), -1.0 - 1e-11, -1.0, -0.0,
                                  0.0, 1e-11, 1.0, 1.0 + 1e-11]),
                 AXIS_GAIN: ([-1.0, 0.0, 1.0, float(rng.uniform(-1, 1))],
                             [*rng.uniform(0, 1, 6), -1e-11, -0.0, 0.0, 1e-11, 1.0])}
        for axis, (fixed_values, values) in lines.items():
            for fixed in fixed_values:
                line = _Line(axis, fixed, n, None, INDICATOR_FLOOR)
                # the clamp of _solve_values, then one build from the arrays
                lo, hi = AXIS_RANGE[axis]
                location = _location(line, np.minimum(hi, np.maximum(lo, values)))
                stacked = normalized_blocks(n, location[AXIS_COUPLING], location[AXIS_GAIN])
                for k, v in enumerate(values):
                    alone = sector_blocks(_point(line, v).chain(n))
                    assert same_blocks([b[k:k + 1] for b in stacked], alone)

    @pytest.mark.parametrize("axis, fixed", [
        (AXIS_GAIN, 1.5), (AXIS_GAIN, -1.0 - 1e-12), (AXIS_GAIN, np.nan), (AXIS_GAIN, np.inf),
        (AXIS_COUPLING, -0.1), (AXIS_COUPLING, np.nan), (AXIS_COUPLING, np.inf)])
    def test_point_off_the_circle_raises_its_error(self, axis, fixed):
        # the fixed coordinate is not clamped: the stacked check raises the
        # ValueError that NormalizedPoint raises for the first point
        line = _Line(axis, fixed, 4, None, INDICATOR_FLOOR)
        with pytest.raises(ValueError) as alone:
            NormalizedPoint(**_location(line, 0.25))
        with pytest.raises(ValueError) as stacked:
            next(_solve_values(line, [0.25, 0.5]))
        assert str(stacked.value) == str(alone.value)

    def test_nan_value_raises(self):
        line = _Line(AXIS_COUPLING, 0.2, 4, None, INDICATOR_FLOOR)
        with pytest.raises(ValueError, match="j_tilde must lie in"):
            list(_solve_values(line, [0.1, np.nan]))


class TestProjectTwoLevel:
    def test_same_index_pair_hermitian(self):
        # project the gained Hamiltonian onto two same-index levels of the
        # gain-free chain; the block must come out Hermitian
        n, jt = 4, -0.95
        spec0 = NormalizedPoint(jt, 0.0).chain(n)
        h0 = build_hamiltonian(spec0)
        sp = spectrum_with_indices(h0, build_parity(n))
        v = gain_generator(spec0)
        same = [(a, b) for a in range(6) for b in range(a + 1, 6)
                if sp.levels[a].z2_index == sp.levels[b].z2_index]
        a, b = same[0]
        m = project_two_level(h0 + 0.01 * v, sp.levels[a], sp.levels[b])
        assert np.allclose(m, m.conj().T, atol=1e-10)

    def test_opposite_index_pair_pseudo_hermitian(self):
        n, jt = 4, -0.95
        spec0 = NormalizedPoint(jt, 0.0).chain(n)
        h0 = build_hamiltonian(spec0)
        sp = spectrum_with_indices(h0, build_parity(n))
        v = gain_generator(spec0)
        m = project_two_level(h0 + 0.01 * v, sp.levels[0], sp.levels[1])
        assert sp.levels[0].z2_index * sp.levels[1].z2_index == -1
        eta = np.diag([1.0, -1.0])
        assert np.allclose(eta @ m, m.conj().T @ eta, atol=1e-10)

    def test_diagonal_gap_matches_free_fermion_splitting(self):
        n, jt = 4, -0.95
        spec0 = NormalizedPoint(jt, 0.0).chain(n)
        h0 = build_hamiltonian(spec0)
        sp = spectrum_with_indices(h0, build_parity(n))
        m = project_two_level(h0, sp.levels[0], sp.levels[1])
        eps0 = solve_modes(n, jt, spec0.delta)[0].energy
        assert abs((m[1, 1] - m[0, 0]).real - eps0) < 1e-8
        assert abs(m[0, 1]) < 1e-10 and abs(m[1, 0]) < 1e-10

    def test_requires_defined_indices(self):
        from pshchain import IndexIllDefined
        sp = spectrum_with_indices(
            build_hamiltonian(NormalizedPoint(-0.9, 0.3).chain(4)), build_parity(4))
        complex_levels = [lv for lv in sp.levels if lv.z2_index is None]
        with pytest.raises(IndexIllDefined):
            project_two_level(np.eye(16), complex_levels[0], complex_levels[1])


class TestPredictGammaCr:
    def test_ferromagnetic_ground_pair_not_applicable(self):
        spec = NormalizedPoint(0.95, 0.0).chain(4)
        with pytest.raises(AccidentallyZeroElement):
            predict_gamma_cr(spec, (0, 1))

    def test_antiferromagnetic_ground_pair(self):
        spec = NormalizedPoint(-0.95, 0.0).chain(4)
        pred = predict_gamma_cr(spec, (0, 1))
        assert 0 < pred < 0.01

    def test_linear_in_gap(self):
        # at fixed couplings the prediction is the pair gap over 2|w|;
        # scaling the gap by hand scales the prediction exactly
        jt = -0.95
        delta = float(np.sqrt(1 - jt ** 2))
        spec = ChainSpec.staggered(4, delta, jt, 0.0)
        pred = predict_gamma_cr(spec, (0, 1))
        sp = spectrum_with_indices(build_hamiltonian(spec), build_parity(4))
        gap = (sp.levels[1].eigenvalue - sp.levels[0].eigenvalue).real
        v = gain_generator(spec)
        w = np.vdot(sp.levels[1].left, v @ sp.levels[0].right)
        assert np.isclose(pred, gap / (2 * abs(w)), rtol=1e-12)

    def test_requires_gain_free_start(self):
        with pytest.raises(ValueError):
            predict_gamma_cr(NormalizedPoint(-0.9, 0.1).chain(4), (0, 1))

    def test_excited_band_pair_strong_coupling(self):
        # ferromagnet, first excited band: almost-degenerate pairs have
        # opposite indices and merge at the predicted gain (within 5%)
        n, jt = 4, 0.95
        spec = NormalizedPoint(jt, 0.0).chain(n)
        sp = spectrum_with_indices(build_hamiltonian(spec), build_parity(n))
        assert sp.levels[2].z2_index * sp.levels[3].z2_index == -1
        gap = (sp.levels[3].eigenvalue - sp.levels[2].eigenvalue).real
        eps0 = solve_modes(n, jt, spec.delta)[0].energy
        assert np.isclose(gap, eps0, atol=1e-8)
        pred = predict_gamma_cr(spec, (2, 3))
        grid = gain_grid(n, jt, 4 * pred, 41)
        recs, _ = locate_ep2_records(sweep(grid), tol=1e-10)
        mine = [r for r in recs if set(r.levels) == {2, 3}]
        assert len(mine) == 1
        det = mine[0].location[AXIS_GAIN]
        assert abs(det - pred) / det < 0.05


class TestLevelIndices:
    """Level indices are distinct and in 0..2^N-1 wherever the library takes them."""

    @pytest.mark.parametrize("call", [
        lambda levels: find_ep3(4, (-0.78, -0.75), (0.35, 0.45), levels),
        lambda levels: triple_pairing(4, -0.7, 0.3, levels),
    ], ids=["find_ep3", "triple_pairing"])
    @pytest.mark.parametrize("triple", [(3, 4, -9), (3, 3, 7), (3, 4, 16)])
    def test_bad_triple_rejected(self, call, triple):
        with pytest.raises(ValueError, match=r"triple must be distinct level indices in 0\.\.15"):
            call(triple)

    @pytest.mark.parametrize("call", [
        lambda n: find_ep3(n, (-0.78, -0.75), (0.35, 0.45), (0, 1, 2)),
        lambda n: triple_pairing(n, -0.7, 0.3, (0, 1, 2)),
    ], ids=["find_ep3", "triple_pairing"])
    @pytest.mark.parametrize("n", [3, 0, -2, 4.0])
    def test_bad_chain_length_rejected(self, call, n):
        # an odd chain is not P-pseudo-Hermitian; every length is checked
        # before the levels and before any solve
        with pytest.raises(ValueError, match="chain length must be a positive even integer"):
            call(n)

    @pytest.mark.parametrize("gamma", [np.inf, np.nan, -0.1])
    def test_triple_pairing_bad_gain_rejected(self, gamma):
        # the point is checked before the gain march sizes its rungs from gamma
        with pytest.raises(ValueError, match="gamma_tilde must be >= 0, got"):
            triple_pairing(4, -0.7, gamma, (3, 4, 7))

    @pytest.mark.parametrize("pair", [(-16, 1), (1, 1), (0, 16)])
    def test_bad_pair_rejected(self, pair):
        with pytest.raises(ValueError, match=r"pair must be distinct level indices in 0\.\.15"):
            predict_gamma_cr(NormalizedPoint(-0.95, 0.0).chain(4), pair)


class TestVerifySelectionRule:
    def test_empty(self):
        assert verify_selection_rule([]) == []

    def test_synthetic_violation(self):
        good = EPRecord(order=2, location={"j_tilde": 0.1, "gamma_tilde": 0.2},
                        levels=(0, 1), indices=(1, -1), residual=0.0, bracket_width=0.0)
        bad = EPRecord(order=2, location={"j_tilde": 0.1, "gamma_tilde": 0.2},
                       levels=(0, 1), indices=(1, 1), residual=0.0, bracket_width=0.0)
        bad3 = EPRecord(order=3, location={"j_tilde": 0.1, "gamma_tilde": 0.2},
                        levels=(0, 1, 2), indices=(1, 1, -1), residual=0.0,
                        bracket_width=0.0)
        report = verify_selection_rule([good, bad, bad3])
        assert len(report) == 2
        assert "equal indices" in report[0]["reason"]
        assert "staggered" in report[1]["reason"]

    def test_undefined_index_flagged(self):
        rec = EPRecord(order=2, location={"j_tilde": 0.0, "gamma_tilde": 0.0},
                       levels=(0, 1), indices=(0, 1), residual=0.0, bracket_width=0.0)
        assert verify_selection_rule([rec])[0]["reason"] == "undefined index"

    @pytest.mark.parametrize("order, indices", [(3, (1, -1)), (2, (1,)), (2, (1, -1, 1))])
    def test_index_count_must_match_order(self, order, indices):
        # a record read back from a file can carry any number of indices
        rec = EPRecord.from_dict({"order": order, "location": {"j_tilde": 0.1, "gamma_tilde": 0.2},
                                  "levels": list(range(order)), "indices": list(indices),
                                  "residual": 0.0, "bracket_width": 0.0})
        assert ([v["reason"] for v in verify_selection_rule([rec])]
                == ["index count does not match order"])


@pytest.fixture(scope="module")
def record():
    return find_ep3(4, (-0.78, -0.75), (0.35, 0.45), (3, 4, 7))


class TestFindEp3:
    def test_staggered_signature(self, record):
        assert record.order == 3
        s = record.indices[0]
        assert record.indices == (s, -s, s)
        assert verify_selection_rule([record]) == []

    def test_location_inside_box(self, record):
        assert 0.35 <= record.location[AXIS_GAIN] <= 0.45
        assert -0.78 <= record.location[AXIS_COUPLING] <= -0.74

    def test_middle_level_switches_partners(self, record):
        js = record.location[AXIS_COUPLING]
        gs = record.location[AXIS_GAIN]
        left = triple_pairing(4, js - 2e-3, gs + 2e-3, (3, 4, 7))
        right = triple_pairing(4, js + 2e-3, gs + 2e-3, (3, 4, 7))
        assert {left.kind, right.kind} == {"low-mid", "mid-up"}

    def test_gain_free_triple_is_all_real(self):
        # no gain, no conjugate pair: the triple has no pairing
        assert triple_pairing(4, -0.7, 0.0, (3, 4, 7)).kind == "none"

    def test_empty_box_raises(self):
        with pytest.raises(NoEP3InBox):
            find_ep3(4, (-0.2, -0.1), (0.35, 0.45), (3, 4, 7))

    def test_edge_without_outside_probe_solves_the_outer_end(self):
        # the triple pairs only at p = 1, so every probe of the bisection is
        # all-real; the kind outside is read at the outer end, solved last
        solved = []

        def solve(p):
            solved.append(p)
            if p < 1:
                return spectrum_with_indices(np.diag([0.0, 1.0, 2.0]).astype(complex),
                                             np.eye(3, dtype=complex))
            return spectrum_with_indices(np.diag([0, 1 + 1j, 1 - 1j]), swap_metric(3, 1, 2))

        edge = epscan._triple_reality_boundary(solve(0.0), np.arange(3), 0.0, 1.0, 1e-3)
        assert one_at_a_time(edge, solve) == (0.99951171875, "mid-up")
        assert solved[-1] == 1.0

    def test_wedge_edges_start_from_their_samples(self, monkeypatch):
        # each edge's bisection starts from the real-side sample the wedge search
        # has solved: its first round probes the midpoints, and no round
        # solves a sample again
        line = _Line(AXIS_COUPLING, 0.4, 4, None, INDICATOR_FLOOR)
        centre, h, reach = -0.76, 0.08 / 60, 30
        state = epscan._march_probe(line._replace(axis=AXIS_GAIN, fixed_value=centre), 0.4)
        solved = []
        original = epscan._solve_values

        def recording(line, values, *args):
            solved.append([float(v) for v in values])
            return original(line, values, *args)

        monkeypatch.setattr(epscan, "_solve_values", recording)
        wedge = epscan._find_wedge(line, state, centre, h, reach, (3, 4, 7), epscan.EP3_J_TOL)
        assert wedge.edge_kinds == ("mid-up", "low-mid")
        # both sides of the centre, solved in one call, come first
        samples = {k: centre + k * h for k in range(-reach, reach + 1) if k}
        assert sorted(solved[0]) == sorted(samples.values())
        rounds = solved[1:]
        inside = [k for k, j in samples.items() if wedge.j_lo < j < wedge.j_hi]
        lo, hi = min(inside), max(inside)
        assert rounds[0] == [0.5 * (samples[lo] + samples[lo - 1]),
                             0.5 * (samples[hi] + samples[hi + 1])]
        assert not set(samples.values()) & {v for r in rounds for v in r}
        # to a fraction of the width the samples allow, never finer than j_tol
        assert wedge.edge_tol == max(epscan.EP3_J_TOL, epscan._EDGE_FRACTION * (hi - lo + 2) * h)
        halvings = int(np.ceil(np.log2(h / wedge.edge_tol)))
        assert len(rounds) <= halvings + 1

    def test_wedge_run_at_the_window_end_goes_on(self):
        # a window that holds only part of the wedge samples on until both
        # edges lie between samples
        line = _Line(AXIS_COUPLING, 0.4, 4, None, INDICATOR_FLOOR)
        centre, h = -0.755, 2e-4
        state = epscan._march_probe(line._replace(axis=AXIS_GAIN, fixed_value=centre), 0.4)
        wedge = epscan._find_wedge(line, state, centre, h, 3, (3, 4, 7), epscan.EP3_J_TOL)
        assert wedge.edge_kinds == ("mid-up", "low-mid")
        assert wedge.width > 2 * 3 * h and abs(wedge.width - 3.183e-3) < wedge.edge_tol + 1e-6

    def test_record_sits_on_the_dense_collision(self, record, monkeypatch):
        # the reference: the wedge followed densely below the collision, windows
        # of 201 samples, edges to 1e-13, and quadratic fits of width^(2/3)
        # (the cusp law's straight line) and of the centre against the gain
        monkeypatch.setattr(epscan, "_EDGE_FRACTION", 0.0)
        rows = []
        for g in np.linspace(0.4130, 0.41372, 8):
            centre = -0.7478533 + 0.5813 * (g - 0.4137375)  # the measured drift
            width = 1.9 * (0.4137375 - g) ** 1.5
            line = _Line(AXIS_COUPLING, g, 4, None, INDICATOR_FLOOR)
            state = epscan._march_probe(line._replace(axis=AXIS_GAIN, fixed_value=centre), g)
            wedge = epscan._find_wedge(line, state, centre, width / 50, 100, (3, 4, 7), 1e-13)
            assert wedge.edge_kinds == ("mid-up", "low-mid")
            rows.append((g - 0.4137, wedge.width ** (2 / 3), wedge.centre))
        dg, f, c = np.array(rows).T
        law = np.polynomial.Polynomial.fit(dg, f, 2).convert()
        assert np.max(np.abs(law(dg) - f)) < 1e-6 * np.max(f)
        root = min(r.real for r in law.roots() if r.real > dg[-1])
        g_star = 0.4137 + root
        j_star = np.polynomial.Polynomial.fit(dg, c, 2).convert()(root)
        assert abs(g_star - 0.4137376) < 1e-6 and abs(j_star + 0.7478532) < 1e-6
        assert abs(record.location[AXIS_GAIN] - g_star) < 1e-6
        assert abs(record.location[AXIS_COUPLING] - j_star) < 1e-6
        assert record.residual < 1e-6

    @pytest.mark.parametrize("g", [0.35, 0.34819418444333977])
    def test_mirror_exact_at_a_shifted_gain_start(self, g):
        # every window centre, width and probe of the search is odd under
        # j -> -j, so the coupling mirror of a search is the mirrored search
        direct = find_ep3(4, (0.75, 0.78), (g, 0.45), (8, 11, 12))
        mapped = epscan._mirror_record(find_ep3(4, (-0.78, -0.75), (g, 0.45), (3, 4, 7)), 4)
        assert json.dumps(mapped.to_dict()) == json.dumps(direct.to_dict())

    def test_zero_gain_tolerance_ends(self, tmp_path):
        # the gain bisection stops once its midpoint rounds onto an end
        out = tmp_path / "ep3.json"
        argv = ["find-ep", "--order", "3", "--n", "4", "--j-start", "-0.78",
                "--j-stop", "-0.75", "--g-start", "0.35", "--g-stop", "0.45",
                "--triple", "3", "4", "7", "--tol", "ep3_gamma_tol=0", "--output", str(out)]
        proc = subprocess.run([sys.executable, "-m", "pshchain.cli", *argv],
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        (rec,) = [EPRecord.from_dict(d) for d in json.loads(out.read_text())["records"]]
        g = rec.location[AXIS_GAIN]
        assert 0 < rec.bracket_width <= 2 * np.spacing(g)

    def test_candidates_scan_finds_the_triple(self):
        cands = find_ep3_candidates(4, (-0.9, -0.6), (0.35, 0.45), probes=11)
        assert any(c["triple"] == (3, 4, 7) for c in cands)

    @pytest.mark.parametrize("j_bracket, gamma_bracket", [
        ((np.nan, -0.75), (0.35, 0.45)), ((-0.78, np.inf), (0.35, 0.45)),
        ((-0.75, -0.78), (0.35, 0.45)), ((-1.5, -0.75), (0.35, 0.45)),
        ((-0.78, -0.75), (0.45, 0.35)), ((-0.78, -0.75), (0.35, np.inf)),
        ((-0.78, -0.75), (-0.1, 0.45)), ((-0.78, -0.75), (0.35, np.nan)),
    ])
    def test_bad_bracket_rejected(self, j_bracket, gamma_bracket):
        with pytest.raises(ValueError, match="j_bracket" if j_bracket != (-0.78, -0.75)
                           else "gamma_bracket"):
            find_ep3(4, j_bracket, gamma_bracket, (3, 4, 7))

    @pytest.mark.parametrize("tols", [
        *({"reality_tol": v} for v in (-1.0, np.nan, np.inf, True)),
        *({"indicator_floor": v} for v in (-1e-6, np.nan, np.inf, None)),
    ], ids=lambda tols: "{}={!r}".format(*next(iter(tols.items()))))
    def test_bad_tolerance_rejected_before_any_solve(self, tols, monkeypatch):
        # SweepGrid's check, made before the first wedge is solved
        monkeypatch.setattr(epscan, "sector_spectra", None)  # a solve raises TypeError
        (name, value), = tols.items()
        with pytest.raises(ValueError, match=re.escape(f"{name} must be finite and >= 0, "
                                                       f"got {value!r}")):
            find_ep3(4, (-0.78, -0.75), (0.35, 0.45), (3, 4, 7), **tols)

    @pytest.mark.parametrize("j_window, gamma_window, probes, name", [
        ((np.nan, 0.99), (0.35, 0.45), 5, "j_window"),
        ((0.5, -0.5), (0.35, 0.45), 5, "j_window"),
        ((-1.5, 0.99), (0.35, 0.45), 5, "j_window"),
        ((-0.99, 0.99), (0.45, 0.35), 5, "gamma_window"),
        ((-0.99, 0.99), (0.35, np.inf), 5, "gamma_window"),
        ((-0.99, 0.99), (0.35, 0.45), 1, "probes"),
        ((-0.99, 0.99), (0.35, 0.45), 2.0, "probes"),
    ])
    def test_bad_candidate_window_rejected(self, j_window, gamma_window, probes, name):
        with pytest.raises(ValueError, match=name):
            find_ep3_candidates(4, j_window, gamma_window, probes=probes)


def _mirror_levels(levels, n):
    """The coupling mirror's k -> 2^n - 1 - k on a triple, in energy order."""
    return tuple((1 << n) - 1 - k for k in reversed(levels))


def _count_calls(monkeypatch, name):
    """Count the calls of ``epscan.<name>`` (made in this process)."""
    calls = []
    original = getattr(epscan, name)

    def counting(*args, **kw):
        calls.append(args)
        return original(*args, **kw)

    monkeypatch.setattr(epscan, name, counting)
    return calls


def _count_pools(monkeypatch):
    """Collect every multiprocessing pool started (in this process)."""
    pools = []
    init = multiprocessing.pool.Pool.__init__

    def counting(self, *args, **kw):
        pools.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", counting)
    return pools


#: find-ep at order 3 over the ep3_n4 benchmark window.
EP3_N4 = ["find-ep", "--order", "3", "--n", "4", "--j-start", "-0.99", "--j-stop", "0.99",
          "--g-start", "0.35", "--g-stop", "0.45", "--points", "67"]


class TestEp3Mirror:
    """H(-j) = -C conj(H(j)) C: the EP3 search solves one half of a symmetric
    window and maps the other with the level map k -> 2^n - 1 - k."""

    @pytest.mark.parametrize("j", [-0.96, -0.75, -0.6, -0.45, -0.3])
    def test_probe_at_minus_j_is_the_mirror(self, j):
        ladder = tuple(np.linspace(0.0, 0.45, epscan.EP3_CANDIDATE_STEPS + 1))
        left = epscan._candidate_probe(SweepGrid(AXIS_GAIN, j, ladder, 4))
        right = epscan._candidate_probe(SweepGrid(AXIS_GAIN, -j, ladder, 4))
        assert left and right == {15 - k: (g, 15 - p) for k, (g, p) in left.items()}

    def test_mirrored_failure_has_its_own_message(self, tmp_path):
        # both twins of each failing pair are skipped, each with the reason
        # that its own find_ep3 gives
        out = tmp_path / "ep3.json"
        assert main([*EP3_N4, "--workers", "1", "--output", str(out)]) == 0
        skipped = json.loads(out.read_text())["skipped"]
        pairs = {(tuple(s["triple"]), tuple(s["j_bracket"])) for s in skipped}
        assert len(pairs) == 4
        assert pairs == {(_mirror_levels(t, 4), (-b, -a)) for t, (a, b) in pairs}
        for s in skipped:
            with pytest.raises(NoEP3InBox) as direct:
                find_ep3(4, tuple(s["j_bracket"]), (0.35, 0.45), tuple(s["triple"]))
            assert s["reason"] == str(direct.value)

    @pytest.mark.parametrize("window, probes, solved", [
        ((-0.9, 0.8), 7, 7), ((-0.9, -0.6), 6, 6), ((-0.9, 0.9), 7, 4), ((-0.9, 0.9), 6, 3),
    ])
    def test_only_a_symmetric_window_is_halved(self, monkeypatch, window, probes, solved):
        calls = _count_calls(monkeypatch, "_candidate_probe")
        find_ep3_candidates(4, window, (0.35, 0.45), probes=probes)
        assert len(calls) == solved

    @pytest.mark.parametrize("probes", [6, 7])
    def test_symmetric_grid_is_exact(self, monkeypatch, probes):
        calls = _count_calls(monkeypatch, "_candidate_probe")
        find_ep3_candidates(4, (-0.9, 0.9), (0.35, 0.45), probes=probes)
        lower = np.linspace(-0.9, 0.9, probes)[:probes // 2].tolist()
        assert [grid.fixed_value for (grid,) in calls] == lower + [0.0] * (probes % 2)

    def test_candidates_come_in_mirror_pairs(self):
        cands = find_ep3_candidates(4, (-0.99, 0.99), (0.35, 0.45), probes=67)
        pairs = {(c["triple"], c["j_bracket"]) for c in cands}
        assert len(pairs) == 6
        assert pairs == {(_mirror_levels(t, 4), (-b, -a)) for t, (a, b) in pairs}
        assert cands == sorted(cands, key=lambda c: (c["triple"], c["j_bracket"]))
        assert cands == find_ep3_candidates(4, (-0.99, 0.99), (0.35, 0.45), probes=67,
                                            workers=2)


class TestDecoupledProbe:
    """At j = 0 the spins decouple and every level is (N - 2k) sqrt(1 - g^2), so
    a gain ladder below g = 1 has no reality transition: the EP3 scan answers
    that probe without a solve."""

    @staticmethod
    def _grid(n, g_top, j=0.0):
        ladder = tuple(np.linspace(0.0, g_top, epscan.EP3_CANDIDATE_STEPS + 1))
        return SweepGrid(AXIS_GAIN, j, ladder, n)

    @pytest.mark.parametrize("g_top", [0.45, 0.95])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_probe_is_empty_as_the_solve_is(self, n, g_top):
        grid = self._grid(n, g_top)
        assert epscan._candidate_probe(grid) == {}
        assert reality_transitions(sweep(grid)) == []

    # only the j = 0 ladder below 1 is not solved; the 4th point of
    # linspace(-0.9, 0.3, 5) is -1.1e-16, not 0
    @pytest.mark.parametrize("n, g_top, j, sweeps", [
        (4, 0.45, 0.0, 0), (2, 1.0, 0.0, 1), (4, 1.2, 0.0, 1),
        (4, 0.45, float(np.linspace(-0.9, 0.3, 5)[3]), 1),
    ])
    def test_probe_solves_unless_decoupled(self, monkeypatch, n, g_top, j, sweeps):
        calls = _count_calls(monkeypatch, "sweep")
        epscan._candidate_probe(self._grid(n, g_top, j))
        assert len(calls) == sweeps

    @pytest.mark.parametrize("window, probes, expected", [
        ((-0.5, 0.25), 4, []),
        ((-0.81, 0.0), 10, [{"triple": (8, 9, 11), "j_bracket": (-0.7200000000000001, -0.63)},
                            {"triple": (11, 9, 12), "j_bracket": (-0.63, -0.54)}]),
    ])
    def test_window_with_a_zero_probe(self, monkeypatch, window, probes, expected):
        # not mirrored, with an exact 0.0 probe: the candidates of a scan that
        # solves it, from every probe's sweep but that one
        calls = _count_calls(monkeypatch, "sweep")
        assert find_ep3_candidates(4, window, (0.35, 0.45), probes=probes) == expected
        solved = [j for j in np.linspace(*window, probes).tolist() if j != 0.0]
        assert len(solved) == probes - 1
        assert [grid.fixed_value for (grid,) in calls] == solved


class TestEp3Search:
    """find-ep --order 3 scans and refines on one pool, each candidate as soon
    as its bracket's probes are in."""

    def test_one_pool_per_search(self, monkeypatch, tmp_path):
        pools = _count_pools(monkeypatch)
        assert main([*EP3_N4, "--workers", "2", "--output", str(tmp_path / "ep3.json")]) == 0
        assert len(pools) == 1

    def test_triple_run_starts_no_pool(self, monkeypatch, tmp_path):
        # --triple scans nothing and refines its one triple in this process
        pools = _count_pools(monkeypatch)
        assert main(["find-ep", "--order", "3", "--n", "4", "--j-start", "-0.78",
                     "--j-stop", "-0.75", "--g-start", "0.35", "--g-stop", "0.45",
                     "--triple", "3", "4", "7", "--tol", "ep3_gamma_tol=1e-3",
                     "--workers", "2", "--output", str(tmp_path / "ep3.json")]) == 0
        assert pools == []

    def test_probes_go_out_as_workers_free_up(self, monkeypatch, tmp_path):
        # a probe per worker, then one per probe returned, so a refinement waits
        # only behind the probes already running; the bytes do not show it
        events = []
        submit, take = _Pool.submit, _Pool.next

        def recording_submit(pool, fn, arg, tag):
            events.append(("out", tag))
            submit(pool, fn, arg, tag)

        def recording_next(pool):
            tag, result = take(pool)
            events.append(("in", tag))
            return tag, result

        monkeypatch.setattr(_Pool, "submit", recording_submit)
        monkeypatch.setattr(_Pool, "next", recording_next)
        outs = []
        for workers in (1, 2):
            events.clear()
            out = tmp_path / f"ep3-{workers}.json"
            assert main([*EP3_N4, "--workers", str(workers), "--output", str(out)]) == 0
            outs.append(out.read_bytes())
            probes = [(kind, tag) for kind, tag in events if isinstance(tag, int)]
            running = np.cumsum([1 if kind == "out" else -1 for kind, _ in probes])
            assert running.max() == workers and running[-1] == 0
            assert sorted(tag for kind, tag in probes if kind == "out") == list(range(34))
            sent = [tag for kind, tag in events if kind == "out"]
            first_refinement = next(k for k, tag in enumerate(sent) if isinstance(tag, tuple))
            assert first_refinement < sent.index(33)
        assert outs[0] == outs[1]

    def test_serial_search_refines_the_same_candidates(self, monkeypatch, tmp_path):
        # the three lower-key candidates, then the mirror twins of the two that fail
        calls = _count_calls(monkeypatch, "find_ep3")
        assert main([*EP3_N4, "--workers", "1", "--output", str(tmp_path / "ep3.json")]) == 0
        assert sorted((triple, j_bracket) for _, j_bracket, _, triple in calls) == [
            ((3, 4, 7), (-0.78, -0.75)), ((3, 6, 4), (0.6, 0.63)),
            ((5, 7, 6), (0.69, 0.72)), ((9, 8, 10), (-0.72, -0.69)),
            ((11, 9, 12), (-0.63, -0.6))]


def test_ep_records_roundtrip():
    rec = EPRecord(order=2, location={"j_tilde": -0.25, "gamma_tilde": 0.4},
                   levels=(3, 5), indices=(-1, 1), residual=1e-5, bracket_width=1e-9)
    assert EPRecord.from_dict(rec.to_dict()) == rec
