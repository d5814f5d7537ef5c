"""The solve engine: each chain point solved in its two real Krein sectors.

The full-matrix path (``spectrum_with_indices``) is the reference throughout.
"""

from collections import Counter
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from conftest import (assert_same_spectrum, build_sector_blocks, mirror_chains,
                      reference_hamiltonian, reference_mirror, solve_chain)
from pshchain import (AXIS_COUPLING, AtExceptionalPoint, ChainSpec,
                      NormalizedPoint, SweepGrid, build_hamiltonian, build_parity,
                      locate_ep2_records, spectrum_with_indices, sweep)
from pshchain import biortho, numerics
from pshchain.biortho import INDICATOR_FLOOR, sector_spectra
from pshchain.model import sector_bases, sector_blocks
from pshchain.numerics import CLUSTER_SCALE, DEFECT_THRESHOLD, eig_blocks

#: Eigenvector condition number up to which a point counts as well posed: its
#: indices and biorthonormal vectors are then determined to rounding. Nearer
#: an EP the vectors of the merging pair are nearly parallel, and the residual
#: of any solve grows like eps ||H|| kappa^2 (2.9e-6 at kappa = 8.6e3 on a
#: 64-level chain, for this engine and the full solve alike).
WELL_POSED = 1e3
#: Chains with normal (not subnormal) floats: a subnormal entry carries too few
#: bits for either solve to resolve levels to rounding (at delta = j = 5e-324
#: the two solves order exact ties differently).
normal_chains = mirror_chains(allow_subnormal=False)
#: A chain whose near-equal +i pair (1.4e-15 apart) is split by the -i pair
#: in (Re, Im) order, so clustering by sort-order neighbours misses it.
CLUSTER_CHAIN = ChainSpec(n=6, delta=0.01, j=-0.7,
                          gamma_profile=(0.3, -0.3, 0.3, -0.3, 0.3, -0.3))


def basis_matrix(basis) -> np.ndarray:
    """The block's basis vectors as the columns of a dense 2^n x d matrix."""
    w = np.zeros((basis.cols.shape[1], basis.eta.size), dtype=complex)
    for side, phase in enumerate((1.0, 1j)):
        has = basis.weights[side] != 0.0
        w[np.flatnonzero(has), basis.cols[side, has]] = phase * basis.weights[side, has]
    return w


def random_chain(rng, n):
    half = rng.uniform(-1.0, 1.0, n // 2)
    return ChainSpec(n, float(rng.uniform(0.0, 1.5)), float(rng.uniform(-1.5, 1.5)),
                     (*half, *(-half[::-1])))


class TestSectorBasis:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_blocks_are_the_hamiltonian_in_the_sector_basis(self, n):
        dim = 1 << n
        q_perm = reference_mirror(n)[np.arange(dim) ^ (dim - 1)]
        p = build_parity(n)
        bases = sector_bases(n)
        assert sum(b.eta.size for b in bases) == dim
        rng = np.random.default_rng(n)
        specs = [random_chain(rng, n) for _ in range(3)]
        for basis in bases:
            w = basis_matrix(basis)
            assert np.array_equal(basis.to_states(np.eye(basis.eta.size)), w)
            assert np.allclose(w.conj().T @ w, np.eye(basis.eta.size), atol=1e-14)
            assert np.array_equal(w[q_perm], basis.q * w)  # Q = q on the block
            assert np.allclose(w.conj().T @ p @ w, np.diag(basis.eta), atol=1e-14)
        for spec in specs:
            h = reference_hamiltonian(spec)
            for basis, a in zip(bases, sector_blocks(spec)):
                w = basis_matrix(basis)
                assert a.dtype == np.float64
                assert np.max(np.abs(w.conj().T @ h @ w - a[0])) <= 1e-14 * np.linalg.norm(h)
                # eta A is symmetric to the last bit
                assert np.array_equal(basis.eta[:, None] * a[0], (basis.eta[:, None] * a[0]).T)

    def test_tables_are_cached_and_read_only(self):
        assert sector_bases(4) is sector_bases(4)
        with pytest.raises(ValueError):
            sector_bases(4)[0].flips[0, 0] = 1.0


def frobenius(h) -> float:
    """||h||_F without underflow for tiny entries."""
    return float(np.hypot.reduce(np.abs(h).ravel()))


def bound(sp, h) -> float:
    """1e-12 ||H||_F, times the eigenvector condition number (Bauer-Fike) of an
    ill-conditioned point, where no solve resolves the eigenvalues better."""
    return max(1e-12 * frobenius(h) * max(1.0, sp.eigensystem.cond_right), np.finfo(float).tiny)


def clusters(values, tol):
    """Groups of levels chained by distances up to ``tol``, each as an index array."""
    _, label = connected_components(np.abs(values[:, None] - values[None, :]) <= tol)
    return [np.flatnonzero(label == k) for k in np.unique(label)]


def matched(sp, ref):
    """Column of ``ref`` matched to each level of ``sp``, and each level's distance."""
    dist = np.abs(sp.eigenvalues[:, None] - ref.eigenvalues[None, :])
    rows, cols = linear_sum_assignment(dist)
    cols = cols[np.argsort(rows)]
    return cols, dist[np.arange(len(cols)), cols]


class TestAgainstFullMatrix:
    @settings(max_examples=150, deadline=None)
    @given(spec=normal_chains)
    @example(spec=CLUSTER_CHAIN)
    def test_sector_engine_matches_the_full_solve(self, spec):
        h = build_hamiltonian(spec)
        try:
            ref = spectrum_with_indices(h, build_parity(spec.n))
            sp = solve_chain(spec)
        except AtExceptionalPoint:
            assume(False)
        assume(max(sp.eigensystem.cond_right, ref.eigensystem.cond_right) <= WELL_POSED)
        cols, dist = matched(sp, ref)
        # equal eigenvalues and indices at every isolated level. A degenerate
        # cluster's values are resolved to CLUSTER_SCALE ||H||_F, and either
        # solve may order its levels differently. The full solve's clusters
        # may mix both sectors and real with complex levels, so it can leave
        # indices undefined that the blocks resolve: there the indices one
        # solve gives must all appear in the other's.
        tol = 10 * CLUSTER_SCALE * frobenius(h)
        for members in clusters(sp.eigenvalues, tol):
            mine, theirs = sp.z2[members], ref.z2[cols[members]]
            if members.size == 1:
                assert dist[members[0]] <= max(bound(sp, h), bound(ref, h))
                assert mine[0] == theirs[0]
                continue
            assert np.max(dist[members]) <= tol
            fewer, more = sorted((Counter(mine[mine != 0].tolist()),
                                  Counter(theirs[theirs != 0].tolist())), key=lambda c: c.total())
            assert not fewer - more
        # partners are mutual and exact conjugates
        for i, q in enumerate(sp.partner):
            if q >= 0:
                assert sp.partner[q] == i
                assert sp.eigenvalues[q] == np.conj(sp.eigenvalues[i])
        # both solves cluster levels by distance, so both are biorthonormal
        assert sp.eigensystem.biortho_residual <= 1e-6
        assert ref.eigensystem.biortho_residual <= 1e-6

    def test_cluster_chain_is_biorthonormal(self):
        # levels cluster by distance, so both solves resolve the split pair
        ref = spectrum_with_indices(build_hamiltonian(CLUSTER_CHAIN), build_parity(6))
        assert ref.eigensystem.biortho_residual <= 1e-6
        assert solve_chain(CLUSTER_CHAIN).eigensystem.biortho_residual <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(spec=normal_chains)
    def test_levels_lie_in_their_sector(self, spec):
        try:
            sp = solve_chain(spec)
        except AtExceptionalPoint:
            assume(False)
        assume(sp.eigensystem.cond_right <= WELL_POSED)
        dim = 1 << spec.n
        q_perm = reference_mirror(spec.n)[np.arange(dim) ^ (dim - 1)]
        right, h = sp.eigensystem.right, build_hamiltonian(spec)
        assert set(np.unique(sp.sector)) <= {-1, 1}
        assert np.allclose(right[q_perm], sp.sector * right, atol=1e-12)
        # a degenerate cluster's levels are resolved to CLUSTER_SCALE ||H||_F each
        assert (np.max(np.abs(h @ right - right * sp.eigenvalues))
                <= dim * CLUSTER_SCALE * frobenius(h) + np.finfo(float).tiny)
        for i, lv in enumerate(sp.levels):
            assert lv.sector == sp.sector[i]


class TestCouplingMirror:
    """H(-j) = -C conj(H(j)) C with C = prod_n sz_n: the spectrum at -j is
    minus the spectrum at j, level by level, with equal indices."""

    @settings(max_examples=90, deadline=None)
    @given(spec=normal_chains)
    # all 64 levels cluster within 10 CLUSTER_SCALE ||H||_F, where the gain is as
    # large as the field: the levels near -1 miss their mirrors by 5.6e-11, above
    # the per-level bound (1.8e-11 at cond_right 1.0), and the dense eigvals of H
    # miss them by 5.7e-11 too
    @example(spec=ChainSpec(n=6, delta=1e-10, j=1.0,
                            gamma_profile=(0.0, 1e-10, 0.0, -0.0, -1e-10, -0.0)))
    def test_spectrum_at_minus_j(self, spec):
        try:
            sp, mirrored = solve_chain(spec), solve_chain(replace(spec, j=-spec.j))
        except AtExceptionalPoint:
            assume(False)
        assume(max(sp.eigensystem.cond_right, mirrored.eigensystem.cond_right) <= WELL_POSED)
        h = build_hamiltonian(spec)
        # level k at -j is minus level d-1-k at j; levels whose real parts
        # tie to rounding may sort either way, so the levels are matched
        flipped = replace(sp, eigensystem=replace(sp.eigensystem,
                                                  eigenvalues=-sp.eigenvalues[::-1]))
        cols, dist = matched(mirrored, flipped)
        # as against the full matrix: an isolated level within the Bauer-Fike
        # bound, the levels of a degenerate cluster within its resolution
        tol = 10 * CLUSTER_SCALE * frobenius(h)
        z2 = sp.z2[::-1]
        for members in clusters(mirrored.eigenvalues, tol):
            if members.size == 1:
                assert dist[members[0]] <= max(bound(sp, h), bound(mirrored, h))
            assert np.max(dist[members]) <= tol
            assert sorted(mirrored.z2[members]) == sorted(z2[cols[members]])


class TestStackedSectorSpectra:
    """A point's sector spectrum does not depend on the stack it is solved in."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_stack_matches_single_solves(self, n):
        rng = np.random.default_rng(40 + n)
        points = [NormalizedPoint(float(rng.uniform(-1, 1)), float(rng.uniform(0, 0.6)))
                  for _ in range(6)]
        # degenerate clusters: the Ising endpoint with gain, and decoupled spins
        points += [NormalizedPoint(1.0, 0.3), NormalizedPoint(0.0, 0.0)]
        singles = [solve_chain(p.chain(n)) for p in points]
        for b, sp in enumerate(sector_spectra(build_sector_blocks(points, n), n)):
            assert_same_spectrum(sp, singles[b])
        # another stack size and order
        sub = [5, 0, 7, 2]
        stacked = sector_spectra(build_sector_blocks([points[b] for b in sub], n), n)
        for b, sp in zip(sub, stacked):
            assert_same_spectrum(sp, singles[b])

    def test_blocks_must_fit_the_chain(self):
        with pytest.raises(ValueError, match="Q blocks of a 4-site chain"):
            sector_spectra(build_sector_blocks([NormalizedPoint(0.3, 0.2)], 2), 4)

    def test_failed_point_does_not_fail_its_stack(self):
        points = [NormalizedPoint(0.3, 0.2), NormalizedPoint(0.5, 0.1), NormalizedPoint(-0.4, 0.6)]
        blocks = build_sector_blocks(points, 2)
        # the middle point's Q = +1 block becomes a Jordan block
        blocks[0][1] = [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]
        stacked = sector_spectra(blocks, 2)
        assert isinstance(stacked[1], AtExceptionalPoint)
        for b in (0, 2):
            assert_same_spectrum(stacked[b], solve_chain(points[b].chain(2)))


def _numpy_norms(x):
    return np.linalg.norm(x, axis=-2)


def _full_metric(z, r):
    """The EP indicator with both norms taken, ||eta R|| as well as ||R||."""
    zr = biortho._apply(z, r)
    c = np.sum(r.conj() * zr, axis=-2)
    return zr, c, np.abs(c) / (np.linalg.norm(r, axis=-2) * np.linalg.norm(zr, axis=-2))


def merged_by_scatter(blocks, n, reality_tol=None, indicator_floor=INDICATOR_FLOOR):
    """The oracle of ``sector_spectra``: every norm taken with ``np.linalg.norm``,
    and both blocks' levels merged by scattering each block into its columns
    (``np.empty`` plus ``put_along_axis``), as the engine merged them before
    it gathered."""
    with patch.object(numerics, "column_norms", _numpy_norms), \
            patch.object(biortho, "column_norms", _numpy_norms), \
            patch.object(biortho, "_metric", _full_metric):
        bases = sector_bases(n)
        st_ = eig_blocks(blocks)
        out, good, sub = biortho._good_points(st_)
        if not good:
            return out
        scale = sub(st_.scale)
        values = [sub(w) for w in st_.eigenvalues]
        rtol = biortho._reality_tol(np.concatenate(values, axis=1), reality_tol)
        parts, failed = [], {}
        for basis, a, w, x, partner in zip(bases, blocks, values, st_.right, st_.partner):
            part, bad = biortho._rescale(sub(np.asarray(a, dtype=np.float64)), basis.eta, w,
                                         sub(x), basis.eta, scale, rtol, indicator_floor,
                                         sub(partner))
            parts.append(part)
            failed = bad | failed

    plus, minus = parts
    d = plus.values.shape[1]
    values = np.concatenate([plus.values, minus.values], axis=1)
    order = np.lexsort((values.imag, values.real), axis=-1)
    rank = np.argsort(order, axis=-1)

    def merged(a, b):
        return np.take_along_axis(np.concatenate([a, b], axis=1), order, -1)

    partner = merged(plus.partner, np.where(minus.partner >= 0, minus.partner + d, -1))
    partner = np.where(partner >= 0, np.take_along_axis(rank, np.maximum(partner, 0), -1), -1)
    right, left = (np.empty(values.shape + values.shape[-1:], dtype=np.complex128)
                   for _ in range(2))
    for basis, part, cols in zip(bases, parts, (rank[:, :d], rank[:, d:])):
        np.put_along_axis(right, cols[:, None, :], basis.to_states(part.right), axis=2)
        np.put_along_axis(left, cols[:, None, :], basis.to_states(part.left), axis=2)
    sector = merged(*(np.full(part.values.shape, basis.q, dtype=np.int8)
                      for basis, part in zip(bases, parts)))
    levels = biortho._Levels(np.take_along_axis(values, order, -1), right, left,
                             merged(plus.z2, minus.z2), merged(plus.indicator, minus.indicator),
                             partner, np.maximum(plus.residual, minus.residual),
                             np.maximum(plus.cond, minus.cond), sector)
    return biortho._spectra(out, good, failed, levels, scale, rtol)


def same_bits(x, y) -> bool:
    """Equal dtype, shape and bytes: signed zeros and NaN payloads included."""
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@st.composite
def chain_stacks(draw):
    """Sector blocks of 1-4 random chains of one N in {2, 4, 6}, some of them
    gain-free, whose blocks are symmetric; whether the first point's Q = +1
    block is replaced by a Jordan block, which fails it; and which points
    are gain-free with both blocks intact."""
    n = draw(st.sampled_from([2, 4, 6]))
    floats = st.floats(-1.5, 1.5, allow_subnormal=False)
    specs, gain_free = [], []
    for _ in range(draw(st.integers(1, 4))):
        gain_free.append(draw(st.booleans()))
        half = ([0.0] * (n // 2) if gain_free[-1] else
                draw(st.lists(floats, min_size=n // 2, max_size=n // 2)))
        specs.append(ChainSpec(n, abs(draw(floats)), draw(floats),
                               (*half, *(-g for g in reversed(half)))))
    blocks = tuple(np.concatenate(b) for b in zip(*(sector_blocks(s) for s in specs)))
    if draw(st.booleans()):
        d = blocks[0].shape[1]
        blocks[0][0] = np.eye(d) + np.eye(d, k=1)
        gain_free[0] = False
    return n, blocks, gain_free


def assert_same_point(got, want):
    """Two solves of one point agree bit for bit, or fail with one message."""
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
        return
    for name in ("eigenvalues", "z2", "indicator", "partner", "sector"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    for name in ("right", "left", "scale", "cond_right", "biortho_residual"):
        assert same_bits(getattr(got.eigensystem, name), getattr(want.eigensystem, name)), name
    assert got.reality_tol == want.reality_tol


class TestMergeOracle:
    """The gathered merge of both blocks equals the scattered one, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(stack=chain_stacks())
    def test_gather_equals_scatter(self, stack):
        n, blocks, _ = stack
        for got, want in zip(sector_spectra(blocks, n), merged_by_scatter(blocks, n),
                             strict=True):
            assert_same_point(got, want)

    @settings(max_examples=60, deadline=None)
    @given(stack=chain_stacks())
    def test_point_equals_its_solo_solve(self, stack):
        # gain-free blocks take the symmetric solve, the others the general
        # one, matrix by matrix: a stack that mixes them changes no bit
        n, blocks, gain_free = stack
        for b, got in enumerate(sector_spectra(blocks, n)):
            assert_same_point(got, sector_spectra(tuple(a[b:b + 1] for a in blocks), n)[0])
        raw = eig_blocks(blocks)
        for b in np.flatnonzero(gain_free):
            for v in raw.right:
                assert np.allclose(v[b].T @ v[b], np.eye(v.shape[1]), rtol=0, atol=1e-13)

    def test_failed_point_keeps_its_error(self):
        n = 4
        blocks = build_sector_blocks([NormalizedPoint(j, 0.3) for j in (-0.4, 0.2, 0.7)], n)
        blocks[0][1] = np.eye(10) + np.eye(10, k=1)
        got, want = sector_spectra(blocks, n), merged_by_scatter(blocks, n)
        assert isinstance(got[1], AtExceptionalPoint) and str(got[1]) == str(want[1])
        for b in (0, 2):
            assert same_bits(got[b].eigensystem.right, want[b].eigensystem.right)
            assert same_bits(got[b].partner, want[b].partner)


class TestEigBlocks:
    def test_vectors_and_pairs_of_the_whole_matrix(self):
        rng = np.random.default_rng(7)
        blocks = (rng.normal(size=(3, 5, 5)), rng.normal(size=(3, 4, 4)))
        st_ = eig_blocks(blocks)
        for b in range(3):
            full = np.zeros((9, 9))
            full[:5, :5], full[5:, 5:] = blocks[0][b], blocks[1][b]
            vectors = np.zeros((9, 9), dtype=complex)
            vectors[:5, :5], vectors[5:, 5:] = st_.right[0][b], st_.right[1][b]
            values = np.concatenate([st_.eigenvalues[0][b], st_.eigenvalues[1][b]])
            assert np.allclose(full @ vectors, vectors * values, atol=1e-12 * np.linalg.norm(full))
            assert np.allclose(np.linalg.norm(vectors, axis=0), 1.0)
            assert np.isclose(st_.scale[b], np.linalg.norm(full))
            assert st_.errors[b] is None
            for k, (w, partner) in enumerate(zip(st_.eigenvalues, st_.partner)):
                for i, q in enumerate(partner[b]):
                    assert (q < 0) == (w[b, i].imag == 0)
                    if q >= 0:
                        assert abs(q - i) == 1 and partner[b, q] == i
                        assert w[b, q] == np.conj(w[b, i])
                        assert np.array_equal(st_.right[k][b][:, q],
                                              st_.right[k][b][:, i].conj())

    def test_defective_block_is_reported_per_matrix(self):
        # the solve judges no defect; the rescaling reports it for its matrix alone
        jordan = np.array([[[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 2.0]]])
        assert eig_blocks((jordan, np.ones((2, 1, 1)))).errors == [None, None]
        blocks = build_sector_blocks([NormalizedPoint(0.3, 0.2), NormalizedPoint(0.5, 0.1)], 2)
        blocks[0][0] = [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]
        assert eig_blocks(blocks).errors == [None, None]
        defective, good = sector_spectra(blocks, 2)
        assert isinstance(defective, AtExceptionalPoint)
        assert defective.cond > DEFECT_THRESHOLD
        assert str(defective).startswith("defective eigensystem (condition ")
        assert_same_spectrum(good, solve_chain(NormalizedPoint(0.5, 0.1).chain(2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            eig_blocks((np.full((1, 2, 2), np.nan),))


def test_c04_records_join_levels_of_one_sector():
    """Every EP2 record of the acceptance scan joins two levels of one Q sector."""
    for gamma in (0.05, 0.21, 0.40125, 0.48375):
        grid = SweepGrid(AXIS_COUPLING, gamma, tuple(np.linspace(-1.0, 1.0, 801)), 4)
        tracks = sweep(grid)
        records, _ = locate_ep2_records(tracks)
        assert records
        solve = grid.solver()
        for rec in records:
            p = int(np.searchsorted(grid.points, rec.location[AXIS_COUPLING])) - 1
            for end in (p, p + 1):
                sp = solve(grid.points[end])
                a, b = (int(tracks[t].columns[end]) for t in rec.levels)
                assert sp.sector[a] == sp.sector[b]
