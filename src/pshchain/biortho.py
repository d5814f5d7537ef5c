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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .numerics import (CLUSTER_SCALE, DEFAULT_TOL, DEFECT_THRESHOLD, EigenSystem,
                       NearDefective, as_complex_matrix, cluster_groups, eig_general)

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
    """All levels of one Hamiltonian, sorted by (Re, Im) of the eigenvalue."""

    levels: list[LevelRecord]
    eigensystem: EigenSystem
    reality_tol: float

    @property
    def dim(self) -> int:
        return len(self.levels)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eigensystem.eigenvalues


def ep_indicator(r, zeta) -> float:
    """Normalized |<R|zeta|R>|, in [0, 1]; tends to 0 on approach to an EP."""
    z = as_complex_matrix(zeta)
    vec = np.asarray(r, dtype=np.complex128).reshape(-1)
    nr = np.linalg.norm(vec)
    if nr == 0.0:
        raise ValueError("zero vector has no indicator")
    zr = z @ vec
    nzr = np.linalg.norm(zr)
    if nzr == 0.0:
        raise ValueError("zeta maps the vector to zero (zeta not invertible?)")
    return float(abs(np.vdot(vec, zr)) / (nr * nzr))


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


def _pair_conjugates(values: np.ndarray, is_real: np.ndarray, pair_tol: float):
    partner: list[int | None] = [None] * values.size
    pool = [i for i in range(values.size) if not is_real[i]]
    unused = set(pool)
    for i in pool:
        if i not in unused:
            continue
        unused.discard(i)
        best, best_d = None, math.inf
        for j in unused:
            d = abs(values[i] - np.conj(values[j]))
            if d < best_d:
                best, best_d = j, d
        if best is not None and best_d <= pair_tol:
            partner[i] = best
            partner[best] = i
            unused.discard(best)
    return partner


def spectrum_with_indices(h, zeta, reality_tol: float | None = None,
                          indicator_floor: float = INDICATOR_FLOOR,
                          tol: float = DEFAULT_TOL,
                          defect_threshold: float = DEFECT_THRESHOLD) -> BiorthoSpectrum:
    """Biorthogonal spectrum of ``h`` with per-level Z2 indices.

    Real levels get the zeta-rescaled left vectors |L> = s * zeta |R| and the
    index s; complex levels are biorthonormalized generically and linked to
    their conjugate partners. Degenerate clusters of real levels (genuine
    crossings) are resolved by diagonalizing zeta restricted to the cluster,
    which keeps indices well defined through stable crossings. A defective
    input raises :class:`AtExceptionalPoint`.
    """
    a = as_complex_matrix(h)
    z = as_complex_matrix(zeta)
    if a.shape != z.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {z.shape}")

    try:
        sys = eig_general(a, tol=tol, defect_threshold=defect_threshold)
    except NearDefective as exc:
        raise AtExceptionalPoint(exc.cond) from exc

    values = sys.eigenvalues.copy()
    dim = values.size
    radius = float(np.max(np.abs(values)))
    rtol = REALITY_SCALE * radius if reality_tol is None else float(reality_tol)
    ctol = CLUSTER_SCALE * sys.scale
    is_real = np.abs(values.imag) <= rtol

    right = sys.right.copy()
    left = sys.left.copy()
    z2: list[int | None] = [None] * dim
    indicator = np.zeros(dim)

    def generic_single(idx: int):
        u = right[:, idx] / np.linalg.norm(right[:, idx])
        l = left[:, idx]
        s = complex(np.vdot(l, u))
        if abs(s) < 1e-12 * np.linalg.norm(l):
            raise AtExceptionalPoint(1.0 / max(abs(s), 1e-300),
                                     "left/right pair nearly orthogonal")
        right[:, idx] = u
        left[:, idx] = l / np.conj(s)
        indicator[idx] = ep_indicator(u, z)

    def block_cluster(group: list[int]):
        cols = np.array(group)
        rc = right[:, cols]
        rc = rc / np.linalg.norm(rc, axis=0)
        lc = left[:, cols]
        s = lc.conj().T @ rc
        try:
            lnew = lc @ np.linalg.inv(s).conj().T
        except np.linalg.LinAlgError as exc:
            raise AtExceptionalPoint(math.inf, "defective degenerate cluster") from exc
        right[:, cols] = rc
        left[:, cols] = lnew
        for idx in group:
            indicator[idx] = ep_indicator(right[:, idx], z)

    for group in cluster_groups(values, ctol):
        if len(group) == 1:
            idx = group[0]
            if not is_real[idx]:
                generic_single(idx)
                continue
            u = right[:, idx] / np.linalg.norm(right[:, idx])
            zu = z @ u
            c = complex(np.vdot(u, zu))
            ind = float(abs(c) / np.linalg.norm(zu))
            indicator[idx] = ind
            if ind < indicator_floor:
                generic_single(idx)
                continue
            sign = 1 if c.real > 0 else -1
            rn = u / math.sqrt(abs(c.real))
            right[:, idx] = rn
            left[:, idx] = sign * (z @ rn)
            z2[idx] = sign
        elif np.all(is_real[np.array(group)]):
            # genuine crossing: diagonalize zeta restricted to the cluster
            cols = np.array(group)
            rc = right[:, cols]
            gram = rc.conj().T @ rc
            q = rc.conj().T @ (z @ rc)
            gram = 0.5 * (gram + gram.conj().T)
            q = 0.5 * (q + q.conj().T)
            qvals, y = sla.eigh(q, gram)
            rrot = rc @ y
            if np.min(np.abs(qvals)) < indicator_floor:
                block_cluster(group)
                continue
            for pos, idx in enumerate(group):
                qa = float(qvals[pos])
                ra = rrot[:, pos]
                ind = float(abs(qa) / np.linalg.norm(z @ ra))
                indicator[idx] = ind
                sign = 1 if qa > 0 else -1
                rn = ra / math.sqrt(abs(qa))
                ln = sign * (z @ rn)
                right[:, idx] = rn
                left[:, idx] = ln
                z2[idx] = sign
                values[idx] = complex(np.vdot(ln, a @ rn))
        else:
            block_cluster(group)

    pair_tol = max(1e-6 * max(radius, 1.0), 10.0 * rtol)
    partner = _pair_conjugates(values, is_real, pair_tol)

    overlap = left.conj().T @ right
    residual = float(np.max(np.abs(overlap - np.eye(dim))))
    es = EigenSystem(eigenvalues=values, right=right, left=left, tol=tol,
                     scale=sys.scale, cond_right=sys.cond_right,
                     biortho_residual=residual)
    records = [
        LevelRecord(
            label=i,
            eigenvalue=complex(values[i]),
            z2_index=z2[i],
            ep_indicator=float(indicator[i]),
            conjugate_partner=partner[i],
            right=right[:, i].copy(),
            left=left[:, i].copy(),
        )
        for i in range(dim)
    ]
    return BiorthoSpectrum(levels=records, eigensystem=es, reality_tol=rtol)
