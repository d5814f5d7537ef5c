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

Spectra are computed for a stack of Hamiltonians at once
(:func:`spectra_with_indices`); the rescaling runs on all isolated levels of
the stack together, and only degenerate clusters are handled one by one.
A point's spectrum is the same, bit for bit, whichever stack it is part of.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy.optimize import linear_sum_assignment

from .numerics import (CLUSTER_SCALE, EigenStack, EigenSystem, NearDefective,
                       as_complex_matrix, as_complex_stack, eig_general, eig_stack)

#: Indicator value below which the Z2 index is reported undefined.
INDICATOR_FLOOR = 1e-6
#: Default reality tolerance as a fraction of the spectral radius.
REALITY_SCALE = 1e-8


class AtExceptionalPoint(RuntimeError):
    """The matrix is numerically defective; no biorthogonal basis exists."""

    def __init__(self, cond: float, message: str | None = None):
        self.cond = float(cond)
        super().__init__(message or f"defective eigensystem (condition {self.cond:.3e})")


class IndexIllDefined(RuntimeError):
    """<R|zeta|R> is too close to zero for the index sign to be trusted."""


@dataclass(frozen=True)
class LevelRecord:
    """One level of a biorthogonal spectrum.

    ``z2_index`` is +-1 for real levels away from exceptional points, None
    for complex levels and for real levels whose indicator fell below the
    floor. ``conjugate_partner`` links the two members of a complex pair.
    The stored ``right``/``left`` vectors are the rescaled ones.
    """

    label: int
    eigenvalue: complex
    z2_index: int | None
    ep_indicator: float
    conjugate_partner: int | None
    right: np.ndarray
    left: np.ndarray


@dataclass(frozen=True)
class BiorthoSpectrum:
    """All levels of one Hamiltonian, sorted by (Re, Im) of the eigenvalue.

    Per-level data are arrays over the level's column in ``eigensystem``:
    ``z2`` holds the index (-1/+1, 0 = undefined), ``indicator`` the EP
    indicator and ``partner`` the column of the conjugate partner (-1 =
    none). ``levels`` builds the same data as records on first use.
    """

    eigensystem: EigenSystem
    z2: np.ndarray
    indicator: np.ndarray
    partner: np.ndarray
    reality_tol: float

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
            )
            for i in range(self.dim)
        ]


def _metric(z: np.ndarray, r: np.ndarray):
    """zeta|R>, <R|zeta|R> and the EP indicator of every column of ``r``.

    ``r`` may be a stack of matrices; the last two axes are (component, level).
    """
    zr = z @ r
    c = np.sum(r.conj() * zr, axis=-2)
    return zr, c, np.abs(c) / (np.linalg.norm(r, axis=-2) * np.linalg.norm(zr, axis=-2))


def ep_indicator(r, zeta) -> float:
    """Normalized |<R|zeta|R>|, in [0, 1]; tends to 0 on approach to an EP."""
    z = as_complex_matrix(zeta)
    vec = np.asarray(r, dtype=np.complex128).reshape(-1, 1)
    if not np.any(vec):
        raise ValueError("zero vector has no indicator")
    zr, _, ind = _metric(z, vec)
    if not np.any(zr):
        raise ValueError("zeta maps the vector to zero (zeta not invertible?)")
    return float(ind[0])


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


def _clusters(link: np.ndarray) -> list[np.ndarray]:
    """Runs of sorted levels chained by ``link`` (level i is close to level i+1)."""
    groups: list[list[int]] = []
    for i in np.flatnonzero(link).tolist():
        if groups and groups[-1][-1] == i:
            groups[-1].append(i + 1)
        else:
            groups.append([i, i + 1])
    return [np.array(g) for g in groups]


def _block_cluster(z: np.ndarray, rc: np.ndarray, lc: np.ndarray):
    """Generic biorthonormalization of a degenerate cluster; no indices."""
    rc = rc / np.linalg.norm(rc, axis=0)
    try:
        lc = lc @ np.linalg.inv(lc.conj().T @ rc).conj().T
    except np.linalg.LinAlgError as exc:
        raise AtExceptionalPoint(math.inf, "defective degenerate cluster") from exc
    return rc, lc, np.zeros(rc.shape[1], dtype=np.int8), _metric(z, rc)[2], None


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
    keeps its basis. Returns None when zeta is singular on the cluster.
    """
    gram = rc.conj().T @ rc
    q = rc.conj().T @ (z @ rc)
    qvals, y = sla.eigh(0.5 * (q + q.conj().T), 0.5 * (gram + gram.conj().T))
    if np.min(np.abs(qvals)) < floor:
        return None
    sign = np.where(qvals > 0, 1, -1)
    rn = (rc @ y) / np.sqrt(np.abs(qvals))
    for s in (-1, 1):
        same = sign == s
        if np.count_nonzero(same) > 1:
            rs = rn[:, same]
            m = s * (rs.conj().T @ (z @ (a @ rs)))
            energies, v = np.linalg.eigh(0.5 * (m + m.conj().T))
            if energies[-1] - energies[0] > resolution:
                rn[:, same] = rs @ v
    zr, _, ind = _metric(z, rn)
    ln = zr * sign
    return rn, ln, sign.astype(np.int8), ind, np.sum(ln.conj() * (a @ rn), axis=0)


def _index_stack(a: np.ndarray, z: np.ndarray, st: EigenStack, reality_tol,
                 indicator_floor: float) -> list:
    """Rescaled spectra of the stack ``a`` from its raw eigendecompositions.

    Entry ``b`` is the :class:`BiorthoSpectrum` of ``a[b]``, or the
    exception that point raised (:class:`AtExceptionalPoint` or
    ``ArithmeticError``).
    """
    out = [AtExceptionalPoint(exc.cond) if isinstance(exc, NearDefective) else exc
           for exc in st.errors]
    good = [b for b, exc in enumerate(st.errors) if exc is None]
    if not good:
        return out
    # the failed points drop out of the vectorized rescaling
    sub = (lambda x: x) if len(good) == len(out) else (lambda x: x[good])
    a, raw_r, raw_l, scale = sub(a), sub(st.right), sub(st.left), sub(st.scale)
    values, cond = sub(st.eigenvalues).copy(), sub(st.cond_right)

    radius = np.max(np.abs(values), axis=1)
    rtol = (REALITY_SCALE * radius if reality_tol is None
            else np.full(radius.shape, float(reality_tol)))
    pair_tol = np.maximum(1e-6 * np.maximum(radius, 1.0), 10.0 * rtol)
    is_real = np.abs(values.imag) <= rtol[:, None]
    link = np.abs(np.diff(values, axis=1)) <= (CLUSTER_SCALE * scale)[:, None]
    clustered = np.zeros(values.shape, dtype=bool)
    clustered[:, 1:] = link
    clustered[:, :-1] |= link
    # rounding level of the eigenvalues: d * eps * ||H||_F
    resolution = values.shape[1] * np.finfo(float).eps * scale

    # isolated levels, all points at once: real ones with a resolvable
    # <R|zeta|R> get |R>/sqrt|<R|zeta|R>| and |L> = s zeta |R>, the others
    # unit |R> and |L> scaled to <L|R> = 1
    right = raw_r / np.linalg.norm(raw_r, axis=1)[:, None, :]
    zr, c, indicator = _metric(z, right)
    indexed = is_real & ~clustered & (indicator >= indicator_floor)
    generic = ~clustered & ~indexed
    s = np.sum(raw_l.conj() * right, axis=1)
    flat = generic & (np.abs(s) < 1e-12 * np.linalg.norm(raw_l, axis=1))
    sign = np.where(c.real > 0, 1, -1)
    k = 1.0 / np.sqrt(np.where(indexed, np.abs(c.real), 1.0))
    right *= k[:, None, :]
    zr *= (sign * k)[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        left = raw_l / np.conj(np.where(generic, s, 1.0))[:, None, :]
    np.copyto(left, zr, where=indexed[:, None, :])
    z2 = np.where(indexed, sign, 0).astype(np.int8)
    partner = np.full(values.shape, -1, dtype=np.int64)

    for i, b in enumerate(good):
        if flat[i].any():
            col = int(np.argmax(flat[i]))
            out[b] = AtExceptionalPoint(1.0 / max(abs(s[i, col]), 1e-300),
                                        "left/right pair nearly orthogonal")
            continue
        try:
            for cols in _clusters(link[i]):
                rc = raw_r[i][:, cols]
                done = (_real_cluster(a[i], z, rc, indicator_floor, resolution[i])
                        if is_real[i, cols].all() else None)
                if done is None:
                    done = _block_cluster(z, rc, raw_l[i][:, cols])
                right[i][:, cols], left[i][:, cols], z2[i, cols], indicator[i, cols], vals = done
                if vals is not None:
                    values[i, cols] = vals
        except AtExceptionalPoint as exc:
            out[b] = exc
            continue
        partner[i] = _pair_conjugates(values[i], is_real[i], pair_tol[i])

    overlap = left.conj().swapaxes(1, 2) @ right
    overlap -= np.eye(values.shape[1])
    residual = np.max(np.abs(overlap), axis=(1, 2))
    for i, b in enumerate(good):
        if out[b] is None:
            es = EigenSystem(eigenvalues=values[i], right=right[i], left=left[i],
                             scale=float(scale[i]), cond_right=float(cond[i]),
                             biortho_residual=float(residual[i]))
            out[b] = BiorthoSpectrum(eigensystem=es, z2=z2[i], indicator=indicator[i],
                                     partner=partner[i], reality_tol=float(rtol[i]))
    return out


def _check_shapes(a: np.ndarray, z: np.ndarray) -> None:
    if a.shape[-2:] != z.shape:
        raise ValueError(f"dimension mismatch: {a.shape[-2:]} vs {z.shape}")


def spectra_with_indices(hs, zeta, reality_tol: float | None = None,
                         indicator_floor: float = INDICATOR_FLOOR) -> list:
    """:func:`spectrum_with_indices` of every matrix in the stack ``hs``.

    One eigensolve and one vectorized rescaling serve the whole stack. Entry
    ``b`` is the spectrum of ``hs[b]``, bit for bit what
    :func:`spectrum_with_indices` returns for it alone, or the exception it
    would raise (:class:`AtExceptionalPoint`, ``ArithmeticError``): a point
    that fails does not fail the stack.
    """
    a = as_complex_stack(hs)
    z = as_complex_matrix(zeta)
    _check_shapes(a, z)
    return _index_stack(a, z, eig_stack(a), reality_tol, indicator_floor)


def spectrum_with_indices(h, zeta, reality_tol: float | None = None,
                          indicator_floor: float = INDICATOR_FLOOR) -> BiorthoSpectrum:
    """Biorthogonal spectrum of ``h`` with per-level Z2 indices.

    Real levels get the zeta-rescaled left vectors |L> = s * zeta |R> and the
    index s; complex levels are biorthonormalized generically and linked to
    their conjugate partners. Degenerate clusters of real levels (genuine
    crossings) are resolved by diagonalizing zeta restricted to the cluster,
    and then zeta H inside each same-index subspace, which keeps indices and
    energies well defined through stable crossings. A defective input
    raises :class:`AtExceptionalPoint`. This is :func:`spectra_with_indices`
    on a stack of one.
    """
    a = as_complex_matrix(h)
    z = as_complex_matrix(zeta)
    _check_shapes(a, z)
    try:
        es = eig_general(a)
    except NearDefective as exc:
        raise AtExceptionalPoint(exc.cond) from exc
    sp = _index_stack(a[None], z, EigenStack.of(es), reality_tol, indicator_floor)[0]
    if isinstance(sp, Exception):
        raise sp
    return sp
