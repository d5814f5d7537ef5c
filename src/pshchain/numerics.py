"""Dense complex linear algebra for non-Hermitian eigenproblems.

General eigendecomposition with left and right eigenvectors, and grouping of
degenerate eigenvalue clusters. Matrices are plain numpy complex128 arrays;
the problem sizes we target (dim <= 4096) make dense solvers the robust
choice over iterative ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

#: Default relative tolerance for eigendecomposition contracts.
DEFAULT_TOL = 1e-10
#: Condition number of the right-eigenvector matrix above which the
#: decomposition is treated as (near-)defective.
DEFECT_THRESHOLD = 1e12
#: Relative spacing below which eigenvalues count as a degenerate cluster.
CLUSTER_SCALE = 1e-8


class NearDefective(RuntimeError):
    """Right-eigenvector basis is numerically singular.

    Raised when the condition number of the right-eigenvector matrix exceeds
    the defectiveness threshold, which happens in the immediate vicinity of
    an exceptional point. Carries the condition estimate in ``cond``.
    """

    def __init__(self, cond: float, message: str | None = None):
        self.cond = float(cond)
        super().__init__(
            message
            or f"eigenvector basis condition number {self.cond:.3e} exceeds threshold"
        )


def as_complex_matrix(m) -> np.ndarray:
    """Validate and convert input to a finite square complex128 matrix."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues plus matched left/right eigenvector sets.

    Column ``n`` of ``right`` is the right eigenvector |R_n>; column ``n`` of
    ``left`` is the ket |L_n>, i.e. the left eigenvector enters expressions
    as ``left[:, n].conj().T``. ``biortho_residual`` is max |<L_n|R_m> - delta_nm|:
    about 1 for the raw vectors of :func:`eig_general`, small for the rescaled
    sets of :func:`pshchain.biortho.spectrum_with_indices`.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    tol: float
    scale: float
    cond_right: float
    biortho_residual: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def eig_general(m, tol: float = DEFAULT_TOL,
                defect_threshold: float = DEFECT_THRESHOLD) -> EigenSystem:
    """Full eigendecomposition of a general complex matrix.

    Eigenvalues are sorted by (Re, Im) so repeated runs produce identical
    orderings. Residuals ||M R_n - lambda_n R_n|| and ||L_n^+ M - lambda_n L_n^+||
    are verified against ``tol * ||M||_F``. A near-defective input (condition
    number of the right-eigenvector matrix above ``defect_threshold``) raises
    :class:`NearDefective` instead of returning garbage vectors.
    """
    a = as_complex_matrix(m)
    scale = float(np.linalg.norm(a))
    w, vl, vr = sla.eig(a, left=True, right=True)
    order = np.lexsort((w.imag, w.real))
    w, vl, vr = w[order], vl[:, order], vr[:, order]

    cond = float(np.linalg.cond(vr))
    if not np.isfinite(cond) or cond > defect_threshold:
        raise NearDefective(cond)

    bound = tol * max(scale, 1e-300)
    res_right = float(np.max(np.linalg.norm(a @ vr - vr * w, axis=0)))
    res_left = float(np.max(np.linalg.norm(a.conj().T @ vl - vl * w.conj(), axis=0)))
    if res_right > bound or res_left > bound:
        raise ArithmeticError(
            f"eigendecomposition residuals ({res_right:.3e}, {res_left:.3e}) "
            f"exceed {bound:.3e}"
        )

    overlap = vl.conj().T @ vr
    residual = float(np.max(np.abs(overlap - np.eye(a.shape[0]))))
    return EigenSystem(eigenvalues=w, right=vr, left=vl, tol=tol, scale=scale,
                       cond_right=cond, biortho_residual=residual)


def cluster_groups(eigenvalues: np.ndarray, cluster_tol: float) -> list[list[int]]:
    """Group indices of (Re, Im)-sorted eigenvalues into degenerate clusters.

    Consecutive eigenvalues closer than ``cluster_tol`` are chained together.
    """
    groups: list[list[int]] = []
    for i in range(eigenvalues.size):
        if groups and abs(eigenvalues[i] - eigenvalues[groups[-1][-1]]) <= cluster_tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups
