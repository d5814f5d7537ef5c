"""Dense linear algebra for non-Hermitian eigenproblems, and the assignment
problem that matches levels between points.

Two solvers share one contract: residuals checked against ``DEFAULT_TOL *
||M||_F``, and a near-defective input (condition number of the
right-eigenvector matrix above ``DEFECT_THRESHOLD``) reported as
:class:`AtExceptionalPoint` instead of returning garbage vectors.

* :func:`eig_blocks` is the solve engine's: real block-diagonal matrices,
  solved block by block with LAPACK's real solve, right vectors only.
  Complex eigenvalues come as exact conjugate pairs, and the singular values
  of the blocks' eigenvector matrices together are those of the whole.
* :func:`eig_general` takes one general complex matrix, with left and
  right eigenvectors, for general-purpose use and as the reference of the
  block solve.

:func:`linear_sum_assignment` is scipy's shortest-augmenting-path solver,
ported to Python with scipy's tie rules, for matching levels between points.
This module imports scipy only in the general solve of a matrix that is not
complex-symmetric, for LAPACK's left and right eigenvectors; everything else
here uses numpy alone, so that importing it costs no scipy import.

The problem sizes we target (dim <= 4096) make dense solvers the robust
choice over iterative ones. Every matrix of a block stack is decomposed
exactly as it would be alone: the LAPACK calls, reductions and products act
on each matrix separately, so a result does not depend on which stack it was
solved in, down to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Relative residual tolerance of every eigendecomposition.
DEFAULT_TOL = 1e-10
#: Condition number of the right-eigenvector matrix above which the
#: decomposition is treated as (near-)defective.
DEFECT_THRESHOLD = 1e12
#: Relative spacing below which eigenvalues count as a degenerate cluster.
CLUSTER_SCALE = 1e-8


class AtExceptionalPoint(RuntimeError):
    """The matrix is numerically defective; no biorthogonal basis exists."""

    def __init__(self, cond: float, message: str | None = None):
        self.cond = float(cond)
        super().__init__(message or f"defective eigensystem (condition {self.cond:.3e})")

    def __reduce__(self):  # pickle rebuilds it from (cond, message), as from a pool worker
        return type(self), (self.cond, str(self))


def as_complex_matrix(m) -> np.ndarray:
    """Validate and convert input to a finite square complex128 matrix."""
    return _as_array(m, 2)


def _as_array(m, ndim: int, dtype=np.complex128) -> np.ndarray:
    a = np.asarray(m, dtype=dtype)
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


def _sorted(w: np.ndarray, *vectors: np.ndarray):
    """Eigenvalues sorted by (Re, Im) along the last axis, with their vector columns."""
    order = np.lexsort((w.imag, w.real), axis=-1)
    return (np.take_along_axis(w, order, -1),
            *(np.take_along_axis(v, order[..., None, :], -1) for v in vectors))


def _eig(a: np.ndarray):
    """``np.linalg.eig`` of every matrix in the stack ``a``, and the mask of those
    whose eigenvalues did not converge.

    One such matrix fails a stacked call, so that stack is solved again matrix
    by matrix: the others keep their values, bit for bit, and a failed matrix
    gets zero eigenvalues and unit vectors, which carry no meaning.
    """
    try:
        return (*np.linalg.eig(a), np.zeros(len(a), dtype=bool))
    except np.linalg.LinAlgError:
        if len(a) == 1:
            eye = np.eye(a.shape[1], dtype=a.dtype)[None]
            return np.zeros(a.shape[:2], a.dtype), eye, np.ones(1, dtype=bool)
    w, v, failed = zip(*(_eig(a[b:b + 1]) for b in range(len(a))))
    return np.concatenate(w), np.concatenate(v), np.concatenate(failed)


def _frobenius(blocks) -> np.ndarray:
    """Frobenius norm of each matrix of block stacks, all blocks together.

    The entries are scaled by the power of two of the largest one, so that
    tiny or huge entries neither underflow nor overflow when squared.
    """
    mags = [np.abs(a) for a in blocks]
    _, exp = np.frexp(np.max([m.max(axis=(1, 2)) for m in mags], axis=0))
    total = sum((np.ldexp(m, -exp[:, None, None]) ** 2).sum(axis=(1, 2)) for m in mags)
    return np.ldexp(np.sqrt(total), exp)


def _errors(cond: np.ndarray, residual: np.ndarray, bound: np.ndarray,
            failed: np.ndarray) -> list:
    """Per matrix: an ``ArithmeticError`` if its eigenvalues did not converge
    (``failed``), :class:`AtExceptionalPoint`, an ``ArithmeticError`` for a residual
    above its bound, or None."""
    defective = ~np.isfinite(cond) | (cond > DEFECT_THRESHOLD)
    errors: list = [None] * len(cond)
    for b in np.flatnonzero(failed | defective | (residual > bound)).tolist():
        if failed[b]:
            errors[b] = ArithmeticError("eigenvalues did not converge")
        elif defective[b]:
            errors[b] = AtExceptionalPoint(cond[b])
        else:
            errors[b] = ArithmeticError(
                f"eigendecomposition residuals {residual[b]:.3e} exceed {bound[b]:.3e}")
    return errors


def column_norms(x: np.ndarray) -> np.ndarray:
    """2-norm of every column of a stack of matrices: ``np.linalg.norm(x, axis=-2)``,
    computed as numpy computes it, without its argument checks."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-2))


@dataclass(frozen=True)
class BlockStack:
    """Right eigendecompositions of a stack of real block-diagonal matrices.

    Entry ``k`` of ``eigenvalues``, ``right`` and ``partner`` belongs to block
    ``k``, in LAPACK's order: (count, d_k) eigenvalues, (count, d_k, d_k) unit
    right eigenvectors, and the column of each eigenvalue's exact conjugate
    partner (-1 for a real eigenvalue). ``scale`` (Frobenius norm),
    ``cond_right`` are per matrix, of all its blocks together. ``errors[b]``
    is the exception matrix ``b`` failed with (:class:`AtExceptionalPoint` or
    ``ArithmeticError``) or None; the arrays of a failed entry carry no meaning.
    """

    eigenvalues: list
    right: list
    partner: list
    scale: np.ndarray
    cond_right: np.ndarray
    errors: list


def eig_blocks(blocks) -> BlockStack:
    """Eigendecompositions of real block-diagonal matrices, block by block.

    ``blocks`` holds one real (count, d_k, d_k) stack per block. LAPACK's real
    solve returns real eigenvalues with zero imaginary part and complex ones
    as exact conjugate pairs, in adjacent columns with Im > 0 first. The
    contract of :func:`eig_general` holds for the whole matrix: the residuals
    are checked against ``DEFAULT_TOL * ||M||_F``, and the condition number
    of the full right-eigenvector matrix, whose singular values are those of
    its blocks together, against ``DEFECT_THRESHOLD``. Left vectors are not
    computed.
    """
    blocks = [_as_array(a, 3, np.float64) for a in blocks]
    scale = _frobenius(blocks)
    values, vectors, partners = [], [], []
    res = np.zeros(scale.shape)
    sv_max, sv_min = np.zeros(scale.shape), np.full(scale.shape, np.inf)
    failed = np.zeros(scale.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in blocks:
            w, v, bad = _eig(a)
            failed |= bad
            # numpy returns w and v real for a stack whose eigenvalues are all real
            w = w.astype(np.complex128, copy=False)
            v = np.ascontiguousarray(v, dtype=np.complex128)
            im = w.imag
            cols = np.arange(w.shape[1])
            partners.append(np.where(im > 0, cols + 1, np.where(im < 0, cols - 1, -1)))
            # the real basis sqrt2 [u, w] of a pair u +- i w has the singular
            # values of the two complex vectors
            basis = np.where(im[:, None, :] < 0, v.imag, v.real)
            basis *= np.where(im != 0, math.sqrt(2.0), 1.0)[:, None, :]
            sv = np.linalg.svd(basis, compute_uv=False)
            np.maximum(sv_max, sv[:, 0], out=sv_max)
            np.minimum(sv_min, sv[:, -1], out=sv_min)
            r = (a @ v.view(np.float64)).view(np.complex128)  # real times complex
            r -= v * w[:, None, :]
            np.maximum(res, column_norms(r).max(axis=1), out=res)
            values.append(w)
            vectors.append(v)
        cond = sv_max / sv_min
    errors = _errors(cond, res, DEFAULT_TOL * np.maximum(scale, 1e-300), failed)
    return BlockStack(values, vectors, partners, scale, cond, errors)


def eig_general(m) -> EigenSystem:
    """Full eigendecomposition of a general complex matrix.

    Eigenvalues are sorted by (Re, Im) so repeated runs produce identical
    orderings. Residuals ||M R_n - lambda_n R_n|| and ||L_n^+ M - lambda_n L_n^+||
    are verified against the constant ``DEFAULT_TOL * ||M||_F``. A
    near-defective input (condition number of the right-eigenvector matrix
    above the constant ``DEFECT_THRESHOLD``) raises :class:`AtExceptionalPoint`
    instead of returning garbage vectors, and eigenvalues that do not
    converge raise ``ArithmeticError``. For an exactly complex-symmetric
    matrix (M^T = M) the left eigenvectors are the conjugated right ones, so
    only the right ones are computed; other matrices take LAPACK's left and
    right solve.
    """
    a = as_complex_matrix(m)
    scale = _frobenius([a[None]])
    try:
        if np.array_equal(a, a.T):
            w, vr = np.linalg.eig(a)
            vl = vr.conj()
        else:
            from scipy.linalg import eig  # here, so that importing the package skips scipy
            w, vl, vr = eig(a, left=True, right=True)
    except np.linalg.LinAlgError:
        raise ArithmeticError("eigenvalues did not converge") from None
    w, vr, vl = _sorted(w, vr, vl)

    with np.errstate(divide="ignore", invalid="ignore"):
        sv = np.linalg.svd(vr, compute_uv=False)
        cond = sv[:1] / sv[-1:]
    residual = max(np.linalg.norm(a @ vr - vr * w, axis=0).max(),
                   np.linalg.norm(a.conj().T @ vl - vl * w.conj(), axis=0).max())
    error, = _errors(cond, np.array([residual]), DEFAULT_TOL * np.maximum(scale, 1e-300),
                     np.zeros(1, dtype=bool))
    if error is not None:
        raise error
    overlap = vl.conj().T @ vr
    return EigenSystem(eigenvalues=w, right=vr, left=vl, scale=float(scale[0]),
                       cond_right=float(cond[0]),
                       biortho_residual=float(np.max(np.abs(overlap - np.eye(len(w))))))


def linear_sum_assignment(cost) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of a minimum-cost one-to-one assignment.

    A port of ``scipy.optimize.linear_sum_assignment``: the same
    shortest-augmenting-path algorithm (Crouse, IEEE Trans. Aerosp. Electron.
    Syst. 52(4), 1679, 2016), with the same arithmetic in the same order and
    the same tie rules, so that it returns scipy's arrays on every input.
    Rows are assigned one at a time. Each search scans the columns not yet
    reached, which start in reverse order and leave by swap-with-last; a tie
    at the minimum goes to the last unassigned column among the tied ones if
    there is one, otherwise to the first tied column. A tall matrix is solved
    transposed. Entries may be +inf (forbidden); a matrix that admits no
    finite assignment raises ValueError, as do NaN and -inf entries.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError(f"expected a matrix (2-D array), got a {c.shape!r} array")
    if not np.all(c > -np.inf):  # false for NaN as for -inf
        raise ValueError("matrix contains invalid numeric entries")
    transpose = c.shape[1] < c.shape[0]
    col4row = _lsap(c.T if transpose else c)
    if not transpose:
        return np.arange(len(col4row)), np.array(col4row, dtype=np.int64)
    cols = np.argsort(col4row)
    return np.array(col4row, dtype=np.int64)[cols], cols


def _lsap(cost: np.ndarray) -> list[int]:
    """The column of each row of a cost matrix with no more rows than columns."""
    nr, nc = cost.shape
    cost = cost.tolist()
    inf = math.inf
    u, v = [0.0] * nr, [0.0] * nc
    path = [-1] * nc
    col4row, row4col = [-1] * nr, [-1] * nc
    for cur in range(nr):
        # shortest augmenting path from row cur to an unassigned column
        shortest = [inf] * nc
        rows_seen, cols_seen = [], []
        remaining = list(range(nc - 1, -1, -1))
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            rows_seen.append(i)
            row, ui = cost[i], u[i]
            index, lowest = -1, inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual update, then augment along the path
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row
