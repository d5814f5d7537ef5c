"""Zeta-rescaled biorthogonal spectra and Z2 level indices.

For a pseudo-Hermitian H (zeta H = H^+ zeta) every level with a real
eigenvalue admits the rescaling |L> = s * zeta |R> with s = sign<R|zeta|R>,
and that sign is the level's Z2 index: it is constant while the eigenvalue
stays real and can only change where <R|zeta|R> passes through zero, which is
exactly what happens at an exceptional point. Complex eigenvalues come in
conjugate pairs and carry no index.

The normalized magnitude |<R|zeta|R>| / (||R|| ||zeta R||) serves as an
exceptional-point proximity indicator: it is 1 for a Hermitian problem,
drops toward 0 as two levels coalesce, and vanishes for conjugate pairs.

The solve engine, :func:`sector_spectra`, takes a chain Hamiltonian as its
two real Q blocks (:mod:`pshchain.model`). There zeta = P is a diagonal
signature eta, so a real level's index is its Krein signature sign(x^T eta
x) and its left vector s eta x; any simple level's left vector is eta
conj(x) / conj(x^T eta x), with no P product and no left eigensolve.
Conjugate partners are LAPACK's exact pairs, and the paper's selection rule
is the Krein-collision rule: only levels of opposite signature in one block
can meet in an EP2. Every command solves through it. The blocks of a
gain-free point, where the indices are defined, are symmetric, and
:func:`pshchain.numerics.eig_blocks` solves each such matrix with LAPACK's
symmetric solve: all its levels are real, with orthonormal vectors.
:func:`spectrum_with_indices` serves one complex-symmetric matrix (H^T = H,
as the dense chain Hamiltonian is) and any zeta: the paper's general-zeta
definition, and the tests' reference for the engine.

Both share one rescaling core, which treats all isolated levels of a stack
together; levels closer than ``CLUSTER_SCALE * ||H||_F`` form a degenerate
cluster, which is resolved one point at a time. On both paths a raw left
vector is conj(m R) for a diagonal signature m (eta on a Q block, ones for
a complex-symmetric matrix). The core is also the one test for an
exceptional point (:func:`_rescale`). A point's spectrum is the same, bit
for bit, whichever stack it is part of. A real cluster's Hermitian-definite
pencil is reduced by Cholesky, and the general path pairs conjugates with
:func:`pshchain.numerics.linear_sum_assignment`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import sector_bases
from .numerics import (CLUSTER_SCALE, DEFECT_THRESHOLD, AtExceptionalPoint, EigenSystem,
                       as_complex_matrix, column_norms, eig_blocks, eig_general,
                       linear_sum_assignment)

#: Indicator value below which the Z2 index is reported undefined.
INDICATOR_FLOOR = 1e-6
#: Default reality tolerance as a fraction of the spectral radius.
REALITY_SCALE = 1e-8
#: Condition number of a real cluster's Gram matrix above which its raw
#: eigenvectors, nearly parallel, no longer pin down the cluster's eigenspace.
GRAM_COND_MAX = 1e10


class IndexIllDefined(RuntimeError):
    """<R|zeta|R> is too close to zero for the index sign to be trusted."""


@dataclass(frozen=True)
class LevelRecord:
    """One level of a biorthogonal spectrum.

    ``z2_index`` is +-1 for real levels away from exceptional points, None
    for complex levels and for real levels whose indicator fell below the
    floor. ``conjugate_partner`` links the two members of a complex pair.
    The stored ``right``/``left`` vectors are the rescaled ones. ``sector``
    is the Q = +-1 block the level came from, None for a general matrix.
    """

    label: int
    eigenvalue: complex
    z2_index: int | None
    ep_indicator: float
    conjugate_partner: int | None
    right: np.ndarray
    left: np.ndarray
    sector: int | None


@dataclass(frozen=True)
class BiorthoSpectrum:
    """All levels of one Hamiltonian, sorted by (Re, Im) of the eigenvalue.

    Per-level data are arrays over the level's column in ``eigensystem``:
    ``z2`` holds the index (-1/+1, 0 = undefined), ``indicator`` the EP
    indicator, ``partner`` the column of the conjugate partner (-1 = none)
    and ``sector`` the Q = +-1 block of the level (0 for a general matrix).
    ``levels`` builds the same data as records on first use.
    """

    eigensystem: EigenSystem
    z2: np.ndarray
    indicator: np.ndarray
    partner: np.ndarray
    reality_tol: float
    sector: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigensystem.dim

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eigensystem.eigenvalues

    @functools.cached_property
    def levels(self) -> list[LevelRecord]:
        es = self.eigensystem
        return [
            LevelRecord(
                label=i,
                eigenvalue=complex(es.eigenvalues[i]),
                z2_index=int(self.z2[i]) or None,
                ep_indicator=float(self.indicator[i]),
                conjugate_partner=int(self.partner[i]) if self.partner[i] >= 0 else None,
                right=es.right[:, i].copy(),
                left=es.left[:, i].copy(),
                sector=int(self.sector[i]) or None,
            )
            for i in range(self.dim)
        ]


def _apply(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """zeta @ r, for zeta a matrix or a signature eta given by its diagonal."""
    return z[:, None] * r if z.ndim == 1 else z @ r


def _metric(z: np.ndarray, r: np.ndarray):
    """zeta|R>, <R|zeta|R> and the EP indicator of every column of ``r``.

    ``r`` may be a stack of matrices; the last two axes are (component, level).
    ``z`` is zeta or, for a signature eta (entries +-1), its diagonal.
    """
    zr = _apply(z, r)
    c = (r.conj() * zr).sum(axis=-2)
    norm = column_norms(r)
    # eta changes no modulus, so ||eta R|| = ||R|| to the bit
    return zr, c, np.abs(c) / (norm * (norm if z.ndim == 1 else column_norms(zr)))


def ep_indicator(r, zeta) -> float:
    """Normalized |<R|zeta|R>|, in [0, 1]; tends to 0 on approach to an EP."""
    z = as_complex_matrix(zeta)
    vec = np.asarray(r, dtype=np.complex128).reshape(-1, 1)
    if vec.shape[0] != z.shape[1]:
        raise ValueError(f"dimension mismatch: {vec.shape[:1]} vs {z.shape}")
    if not np.any(vec):
        raise ValueError("zero vector has no indicator")
    if not np.any(z @ vec):  # before the indicator divides by ||zeta R||
        raise ValueError("zeta maps the vector to zero (zeta not invertible?)")
    return float(_metric(z, vec)[2][0])


def z2_index(r, zeta, floor: float = INDICATOR_FLOOR) -> int:
    """Sign of <R|zeta|R>; invariant under rescaling of R.

    Raises :class:`IndexIllDefined` when the normalized magnitude is below
    ``floor``, where the sign carries no information.
    """
    z = as_complex_matrix(zeta)
    vec = np.asarray(r, dtype=np.complex128).reshape(-1)
    nr = np.linalg.norm(vec)
    if nr == 0.0:
        raise ValueError("zero vector has no index")
    ind = ep_indicator(vec, z)
    if ind < floor:
        raise IndexIllDefined(f"indicator {ind:.3e} below floor {floor:.3e}")
    val = complex(np.vdot(vec, z @ vec))
    return 1 if val.real > 0 else -1


def _pair_conjugates(values: np.ndarray, is_real: np.ndarray, pair_tol: float) -> np.ndarray:
    """Column of each level's conjugate partner, -1 for none.

    One assignment between the complex levels of the upper and of the lower
    half-plane on the distance |v_i - conj(v_j)|. Distances above
    ``pair_tol`` cost more than any set of closer pairs, so the assignment
    first makes as many pairs within ``pair_tol`` as it can, then the
    closest ones; pairs farther apart stay unpaired.
    """
    partner = np.full(values.size, -1, dtype=np.int64)
    upper = np.flatnonzero(~is_real & (values.imag > 0))
    lower = np.flatnonzero(~is_real & (values.imag < 0))
    if upper.size and lower.size:
        dist = np.abs(values[upper][:, None] - values[lower].conj()[None, :])
        far = dist > pair_tol
        cost = np.where(far, (min(upper.size, lower.size) + 1) * pair_tol, dist)
        rows, cols = linear_sum_assignment(cost)
        keep = ~far[rows, cols]
        partner[upper[rows[keep]]] = lower[cols[keep]]
        partner[lower[cols[keep]]] = upper[rows[keep]]
    return partner


def _clusters(close: np.ndarray) -> list[np.ndarray]:
    """Groups of two or more levels chained by ``close``, a symmetric boolean
    matrix with a true diagonal; each group in ascending order."""
    label = levels = np.arange(close.shape[0])
    while True:  # every level takes the smallest label among its neighbours
        new = np.min(np.where(close, label, close.shape[0]), axis=1)
        if np.array_equal(new, label):
            break
        label = new
    # a group's label is its smallest level (np.unique would import numpy.ma)
    return [g for g in (np.flatnonzero(label == k) for k in levels[label == levels]) if g.size > 1]


def _block_cluster(z: np.ndarray, rc: np.ndarray, lc: np.ndarray):
    """Generic biorthonormalization of a degenerate cluster; no indices. The
    cluster is defective if L^+ R has a condition above ``DEFECT_THRESHOLD``."""
    rc = rc / np.linalg.norm(rc, axis=0)
    overlap = lc.conj().T @ rc
    cond = np.linalg.cond(overlap)
    if cond > DEFECT_THRESHOLD:
        raise AtExceptionalPoint(cond)
    lc = lc @ np.linalg.inv(overlap).conj().T
    return rc, lc, np.zeros(rc.shape[1], dtype=np.int8), _metric(z, rc)[2], None


def _pencil_eigh(a: np.ndarray, b: np.ndarray):
    """Eigenvalues (ascending) and vectors y of the Hermitian-definite pencil
    a y = lambda b y, with y^+ b y = 1: with b = l l^+ (Cholesky), those of the
    Hermitian l^-1 a l^-+, mapped back by l^-+, as LAPACK's ``hegv`` does."""
    li = np.linalg.inv(np.linalg.cholesky(b))
    c = li @ a @ li.conj().T
    values, z = np.linalg.eigh(0.5 * (c + c.conj().T))
    return values, li.conj().T @ z


def _real_cluster(a: np.ndarray, z: np.ndarray, rc: np.ndarray, floor: float,
                  resolution: float):
    """Index-rescaled basis of a cluster of real levels (a genuine crossing).

    Diagonalizing zeta restricted to the cluster separates the index signs.
    Within each same-sign subspace <R|zeta|R> = s is then fixed and any
    unitary rotation keeps it so. The energies there are the eigenvalues of
    the Hermitian form s <R|zeta H|R>; where they split by more than
    ``resolution``, the subspace is rotated onto its eigenvectors (in
    ascending energy), so that nearly degenerate levels of one index come
    out separately rather than as a mixture. An exactly degenerate subspace
    keeps its basis. Raw vectors too close to parallel (Gram condition above
    ``GRAM_COND_MAX``) are replaced by an orthonormal basis of the
    eigenspace: the right singular vectors of H - lambda with the smallest
    singular values; if fewer of those than levels are below ``CLUSTER_SCALE``
    times the largest, the cluster is defective. Returns None when zeta is
    singular on the cluster.
    """
    gram = rc.conj().T @ rc
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] * GRAM_COND_MAX < sv[0]:
        lam = np.vdot(rc[:, 0], a @ rc[:, 0])
        _, sh, vh = np.linalg.svd(a - lam * np.eye(a.shape[0]))
        if sh[-rc.shape[1]] > CLUSTER_SCALE * sh[0]:
            raise AtExceptionalPoint(np.linalg.cond(rc))
        rc = vh[-rc.shape[1]:].conj().T
        gram = np.eye(rc.shape[1])
    q = rc.conj().T @ _apply(z, rc)
    qvals, y = _pencil_eigh(0.5 * (q + q.conj().T), 0.5 * (gram + gram.conj().T))
    if np.min(np.abs(qvals)) < floor:
        return None
    sign = np.where(qvals > 0, 1, -1)
    rn = (rc @ y) / np.sqrt(np.abs(qvals))
    for s in (-1, 1):
        same = sign == s
        if np.count_nonzero(same) > 1:
            rs = rn[:, same]
            m = s * (rs.conj().T @ _apply(z, a @ rs))
            energies, v = np.linalg.eigh(0.5 * (m + m.conj().T))
            if energies[-1] - energies[0] > resolution:
                rn[:, same] = rs @ v
    zr, _, ind = _metric(z, rn)
    ln = zr * sign
    return rn, ln, sign.astype(np.int8), ind, np.sum(ln.conj() * (a @ rn), axis=0)


class _Levels(NamedTuple):
    """Rescaled levels of a stack of points: arrays over (point, level), and
    over (point, component, level) for the vectors."""

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray
    z2: np.ndarray
    indicator: np.ndarray
    partner: np.ndarray
    residual: np.ndarray  # biorthogonality residual per point
    cond: np.ndarray  # largest condition of an isolated level, per point
    sector: np.ndarray | None = None


def _good_points(st):
    """The exceptions of the failed points of a raw stack ``st``, the indices of
    the others, and the map that selects the others from an array over the stack."""
    out = list(st.errors)
    good = [b for b, exc in enumerate(st.errors) if exc is None]
    # the failed points drop out of the vectorized rescaling
    return out, good, (lambda x: x) if len(good) == len(out) else (lambda x: x[good])


def _reality_tol(values, reality_tol) -> np.ndarray:
    """Per point: ``reality_tol``, or ``REALITY_SCALE`` times the spectral radius."""
    radius = np.abs(values).max(axis=1)
    return (REALITY_SCALE * radius if reality_tol is None
            else np.full(radius.shape, float(reality_tol)))


def _rescale(a, z, values, raw_r, m, scale, rtol, floor, partner):
    """Index-rescaled levels of a stack of points from their raw eigenvectors.

    ``z`` is zeta, or the diagonal of a signature eta. Each raw left vector is
    conj(m R) for the diagonal signature ``m``: eta for a real block, ones
    for a complex-symmetric matrix. ``partner`` holds each level's conjugate
    partner column, both members of a pair linked, and is kept for the
    levels that are not real. Real levels with a resolvable
    <R|zeta|R> get |R>/sqrt|<R|zeta|R>| and |L> = s zeta |R>; the others unit
    |R> and |L> scaled to <L|R> = 1. Levels closer than ``CLUSTER_SCALE * scale`` are
    resolved together, one point at a time, and check themselves for a
    defect; any other level fails its point with :class:`AtExceptionalPoint`
    if its condition 1/|<l|r>| (unit vectors) exceeds ``DEFECT_THRESHOLD``.
    Returns the values, right and left vectors, indices, indicators,
    partners, biorthogonality residual and largest such condition of every
    point, and the exceptions of the points that failed, by position.
    """
    values = values.copy()
    is_real = np.abs(values.imag) <= rtol[:, None]
    close = (np.abs(values[:, :, None] - values[:, None, :])
             <= (CLUSTER_SCALE * scale)[:, None, None])
    clustered = np.count_nonzero(close, axis=2) > 1

    norm_r = column_norms(raw_r)  # conj(m R) has the norms of R, to the bit
    conj_l = _apply(m, raw_r)
    raw_l = conj_l.conj()
    right = raw_r / norm_r[:, None, :]
    zr, c, indicator = _metric(z, right)
    indexed = is_real & ~clustered & (indicator >= floor)
    generic = ~clustered & ~indexed
    s = (conj_l * right).sum(axis=1)
    with np.errstate(divide="ignore"):
        cond = np.max(norm_r / np.abs(s), axis=1, initial=1.0, where=~clustered)
    sign = np.where(c.real > 0, 1, -1)
    k = 1.0 / np.sqrt(np.where(indexed, np.abs(c.real), 1.0))
    right *= k[:, None, :]
    zr *= (sign * k)[:, None, :]
    # indexed levels keep s zeta |R>, generic ones get |L> / conj<L|R>; the
    # clusters' columns are set below
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.divide(raw_l, np.conj(s)[:, None, :], out=zr, where=generic[:, None, :])
    z2 = np.where(indexed, sign, 0).astype(np.int8)
    partner = np.where(is_real, -1, partner)

    failed = {}
    for i in np.flatnonzero((cond > DEFECT_THRESHOLD) | clustered.any(axis=1)):
        if cond[i] > DEFECT_THRESHOLD:
            failed[i] = AtExceptionalPoint(cond[i])
            continue
        try:
            for cols in _clusters(close[i]) if clustered[i].any() else ():
                rc = raw_r[i][:, cols]
                # the rounding level of the eigenvalues: d * eps * ||H||_F
                resolution = values.shape[1] * np.finfo(float).eps * scale[i]
                done = (_real_cluster(a[i], z, rc, floor, resolution)
                        if is_real[i, cols].all() else None)
                if done is None:
                    done = _block_cluster(z, rc, raw_l[i][:, cols])
                right[i][:, cols], left[i][:, cols], z2[i, cols], indicator[i, cols], vals = done
                if vals is not None:
                    values[i, cols] = vals
        except AtExceptionalPoint as exc:
            failed[i] = exc

    overlap = left.conj().swapaxes(1, 2) @ right
    overlap -= np.eye(values.shape[1])
    residual = np.max(np.abs(overlap), axis=(1, 2))
    return _Levels(values, right, left, z2, indicator, partner, residual, cond), failed


def _spectra(out, good, failed, levels: _Levels, scale, rtol) -> list:
    """``out`` with each good point that did not fail replaced by its spectrum."""
    points = zip(good, levels.values, levels.right, levels.left, scale.tolist(),
                 levels.cond.tolist(), levels.residual.tolist(), levels.z2, levels.indicator,
                 levels.partner, rtol.tolist(), levels.sector)
    for i, (b, values, right, left, s, c, res, z2, ind, partner, tol, sector) in enumerate(points):
        out[b] = failed[i] if i in failed else BiorthoSpectrum(
            EigenSystem(values, right, left, s, c, res), z2, ind, partner, tol, sector)
    return out


def sector_spectra(blocks, n: int, reality_tol: float | None = None,
                   indicator_floor: float = INDICATOR_FLOOR) -> list:
    """Biorthogonal spectra of n-site chain Hamiltonians given by their two real Q blocks.

    ``blocks`` are the Q = +1 and Q = -1 stacks of
    :func:`pshchain.model.normalized_blocks`. Each block is solved and
    rescaled on its own, with the checks and results of
    :func:`spectrum_with_indices`, but in real arithmetic: P is the diagonal
    signature eta of the block, a real level's index is its Krein signature
    sign(x^T eta x), and the left vector of a level is eta conj(x) (s eta x
    for an indexed level), so no P product and no left eigensolve is needed.
    Conjugate partners are LAPACK's exact pairs, and degenerate clusters are
    resolved inside a block. The vectors then go back to the basis states, and
    both blocks' levels merge in (Re, Im) order. Entry ``b`` is the spectrum of
    matrix ``b`` or the exception it raised. A point's spectrum is the same,
    bit for bit, whichever stack it is part of.
    """
    bases = sector_bases(n)
    if [np.shape(a)[-1] for a in blocks] != [basis.eta.size for basis in bases]:
        raise ValueError(f"blocks of sizes {[np.shape(a) for a in blocks]} are not the "
                         f"Q blocks of a {n}-site chain")
    st = eig_blocks(blocks)
    out, good, sub = _good_points(st)
    if not good:
        return out
    scale = sub(st.scale)
    values = [sub(w) for w in st.eigenvalues]
    rtol = _reality_tol(np.concatenate(values, axis=1), reality_tol)
    parts, failed = [], {}
    for basis, a, w, x, partner in zip(bases, blocks, values, st.right, st.partner):
        part, bad = _rescale(sub(np.asarray(a, dtype=np.float64)), basis.eta, w, sub(x),
                             basis.eta, scale, rtol, indicator_floor, sub(partner))
        parts.append(part)
        failed = bad | failed

    # both blocks' levels in (Re, Im) order, partners following their levels
    plus, minus = parts
    d = plus.values.shape[1]
    values = np.concatenate([plus.values, minus.values], axis=1)
    order = np.lexsort((values.imag, values.real), axis=-1)
    rows = np.arange(len(order))[:, None]
    # each level's merged column, and -1 in a last column for "no partner"
    rank = np.full((len(order), order.shape[1] + 1), -1)
    rank[rows, order] = np.arange(order.shape[1])
    partner = np.concatenate([plus.partner, np.where(minus.partner >= 0, minus.partner + d, -1)],
                             axis=1)

    def merged(a, b):
        return np.concatenate([a, b], axis=1)[rows, order]

    def vectors(name):
        # gathered as rows (level, state), then laid out as columns again
        both = np.concatenate([basis.to_states(getattr(part, name)).swapaxes(1, 2)
                               for basis, part in zip(bases, parts)], axis=1)
        return np.ascontiguousarray(both[rows, order].swapaxes(1, 2))

    sector = np.repeat(np.array([basis.q for basis in bases], dtype=np.int8),
                       [plus.values.shape[1], minus.values.shape[1]])[order]
    levels = _Levels(values[rows, order], vectors("right"), vectors("left"),
                     merged(plus.z2, minus.z2), merged(plus.indicator, minus.indicator),
                     rank[rows, partner[rows, order]], np.maximum(plus.residual, minus.residual),
                     np.maximum(plus.cond, minus.cond), sector)
    return _spectra(out, good, failed, levels, scale, rtol)


def spectrum_with_indices(h, zeta) -> BiorthoSpectrum:
    """Biorthogonal spectrum of ``h`` with per-level Z2 indices.

    ``h`` must be complex symmetric (H^T = H, exactly), as a chain
    Hamiltonian is; any other matrix raises ValueError. Real levels get the
    zeta-rescaled left vectors |L> = s * zeta |R> and the index s; complex
    levels are biorthonormalized generically and linked to their conjugate
    partners. Degenerate clusters of real levels (genuine crossings) are
    resolved by diagonalizing zeta restricted to the cluster, and then zeta H
    inside each same-index subspace, which keeps indices and energies well
    defined through stable crossings, with the default solve tolerances. A
    defective input raises :class:`AtExceptionalPoint`.
    """
    a = as_complex_matrix(h)
    z = as_complex_matrix(zeta)
    if a.shape != z.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {z.shape}")
    es = eig_general(a)
    values, scale = es.eigenvalues[None], np.array([es.scale])
    rtol = _reality_tol(values, None)
    partner = _pair_conjugates(es.eigenvalues, np.abs(es.eigenvalues.imag) <= rtol[0],
                               1e-6 * max(np.max(np.abs(es.eigenvalues)), 1.0))
    levels, failed = _rescale(a[None], z, values, es.right[None], np.ones(a.shape[0]), scale,
                              rtol, INDICATOR_FLOOR, partner[None])
    sp, = _spectra([None], [0], failed, levels._replace(sector=np.zeros(values.shape, np.int8)),
                   scale, rtol)
    if isinstance(sp, Exception):
        raise sp
    return sp
