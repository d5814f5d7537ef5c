"""Dense complex linear algebra for non-Hermitian eigenproblems.

General eigendecomposition with left and right eigenvectors, for one matrix
or a stack of matrices solved together. Matrices are plain numpy complex128
arrays; the problem sizes we target (dim <= 4096) make dense solvers the
robust choice over iterative ones.

Every matrix of a stack is decomposed exactly as it would be alone: the
LAPACK calls, reductions and products act on each matrix separately, so a
result does not depend on which stack it was solved in, down to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

#: Relative residual tolerance of every eigendecomposition.
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
    return _as_complex(m, 2)


def as_complex_stack(m) -> np.ndarray:
    """Validate and convert input to a finite (count, d, d) complex128 stack."""
    return _as_complex(m, 3)


def _as_complex(m, ndim: int) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2] or 0 in a.shape:
        what = "a square matrix" if ndim == 2 else "a stack of square matrices"
        raise ValueError(f"expected {what}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues plus matched left/right eigenvector sets.

    Column ``n`` of ``right`` is the right eigenvector |R_n>; column ``n`` of
    ``left`` is the ket |L_n>, i.e. the left eigenvector enters expressions
    as ``left[:, n].conj().T``. ``biortho_residual`` is max |<L_n|R_m> - delta_nm|.
    The raw vectors of :func:`eig_general` are unit-norm and not scaled to
    <L_n|R_n> = 1, so there it is of order 1; it is small for the rescaled
    sets of :func:`pshchain.biortho.spectrum_with_indices`.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    scale: float
    cond_right: float
    biortho_residual: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class EigenStack:
    """Raw eigendecompositions of a stack of matrices, entry ``b`` for matrix ``b``.

    ``eigenvalues`` is (count, d) and sorted by (Re, Im) in each row;
    ``right`` and ``left`` are (count, d, d) with the column conventions of
    :class:`EigenSystem`; ``scale`` (Frobenius norm) and ``cond_right`` are
    per matrix. ``errors[b]`` is the exception matrix ``b`` failed with
    (:class:`NearDefective` or ``ArithmeticError``) or None; the arrays of a
    failed entry carry no meaning.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    scale: np.ndarray
    cond_right: np.ndarray
    errors: list

    @classmethod
    def of(cls, es: EigenSystem) -> "EigenStack":
        """Stack of one holding ``es``."""
        return cls(es.eigenvalues[None], es.right[None], es.left[None],
                   np.array([es.scale]), np.array([es.cond_right]), [None])


def _sorted(w: np.ndarray, *vectors: np.ndarray):
    """Eigenvalues sorted by (Re, Im) along the last axis, with their vector columns."""
    order = np.lexsort((w.imag, w.real), axis=-1)
    return (np.take_along_axis(w, order, -1),
            *(np.take_along_axis(v, order[..., None, :], -1) for v in vectors))


def _eig_vectors(a: np.ndarray):
    """Sorted eigenvalues, right and left eigenvectors of every matrix in ``a``.

    For an exactly complex-symmetric matrix (M^T = M) the left eigenvectors
    are the conjugated right ones, so only the right ones are computed.
    Other matrices take LAPACK's left and right solve.
    """
    symmetric = np.all(a == a.swapaxes(1, 2), axis=(1, 2))
    if symmetric.all():
        w, vr = _sorted(*np.linalg.eig(a))
        return w, vr, vr.conj()
    w = np.empty(a.shape[:2], dtype=np.complex128)
    vr = np.empty_like(a)
    vl = np.empty_like(a)
    for b in range(a.shape[0]):
        if symmetric[b]:
            w[b], vr[b] = _sorted(*np.linalg.eig(a[b]))
            vl[b] = vr[b].conj()
        else:
            wb, vlb, vrb = sla.eig(a[b], left=True, right=True)
            w[b], vr[b], vl[b] = _sorted(wb, vrb, vlb)
    return w, vr, vl


def eig_stack(mats) -> EigenStack:
    """Eigendecompositions of a stack of general complex matrices.

    Applies the contract of :func:`eig_general`, with the constants
    ``DEFAULT_TOL`` and ``DEFECT_THRESHOLD``, to every matrix; a matrix that
    breaks it records its exception in ``errors`` instead of failing the stack.
    """
    a = as_complex_stack(mats)
    scale = np.linalg.norm(a, axis=(1, 2))
    w, vr, vl = _eig_vectors(a)

    with np.errstate(divide="ignore", invalid="ignore"):
        sv = np.linalg.svd(vr, compute_uv=False)
        cond = sv[:, 0] / sv[:, -1]
    bound = DEFAULT_TOL * np.maximum(scale, 1e-300)
    res = a @ vr
    res -= vr * w[:, None, :]
    res_right = np.max(np.linalg.norm(res, axis=1), axis=1)
    res = a.conj().swapaxes(1, 2) @ vl
    res -= vl * w.conj()[:, None, :]
    res_left = np.max(np.linalg.norm(res, axis=1), axis=1)

    errors: list = []
    for b in range(a.shape[0]):
        if not np.isfinite(cond[b]) or cond[b] > DEFECT_THRESHOLD:
            errors.append(NearDefective(cond[b]))
        elif res_right[b] > bound[b] or res_left[b] > bound[b]:
            errors.append(ArithmeticError(
                f"eigendecomposition residuals ({res_right[b]:.3e}, {res_left[b]:.3e}) "
                f"exceed {bound[b]:.3e}"))
        else:
            errors.append(None)
    return EigenStack(w, vr, vl, scale, cond, errors)


def eig_general(m) -> EigenSystem:
    """Full eigendecomposition of a general complex matrix.

    Eigenvalues are sorted by (Re, Im) so repeated runs produce identical
    orderings. Residuals ||M R_n - lambda_n R_n|| and ||L_n^+ M - lambda_n L_n^+||
    are verified against the constant ``DEFAULT_TOL * ||M||_F``. A
    near-defective input (condition number of the right-eigenvector matrix
    above the constant ``DEFECT_THRESHOLD``) raises :class:`NearDefective`
    instead of returning garbage vectors. This is :func:`eig_stack` on a
    stack of one.
    """
    st = eig_stack(as_complex_matrix(m)[None])
    if st.errors[0] is not None:
        raise st.errors[0]
    right, left = st.right[0], st.left[0]
    overlap = left.conj().T @ right
    residual = float(np.max(np.abs(overlap - np.eye(right.shape[0]))))
    return EigenSystem(eigenvalues=st.eigenvalues[0], right=right, left=left,
                       scale=float(st.scale[0]), cond_right=float(st.cond_right[0]),
                       biortho_residual=residual)
