"""Dense linear algebra for non-Hermitian eigenproblems, and the assignment
problem that matches levels between points.

Both solvers check their residuals against ``DEFAULT_TOL * ||M||_F``. A
level's condition is 1/|<l|r>| for its unit left and right eigenvectors
(Wilkinson 1965); it grows without bound as levels coalesce, and above
``DEFECT_THRESHOLD`` the point counts as an exceptional point.

* :func:`eig_blocks` is the solve engine's: real block-diagonal matrices,
  solved block by block, right vectors only. A block equal to its transpose
  (a gain-free chain's) takes LAPACK's symmetric solve, every other block
  LAPACK's real solve, whose complex eigenvalues come as exact conjugate
  pairs. It is a pure solve:
  :mod:`pshchain.biortho` decides whether a point is defective, from the
  left vectors it builds for the rescaling.
* :func:`eig_general` takes one complex-symmetric matrix (M^T = M, as a
  chain Hamiltonian is), for general-purpose use and as the reference of
  the block solve. Its left vectors are the conjugated right ones. It
  raises :class:`AtExceptionalPoint` when a level's condition exceeds
  ``DEFECT_THRESHOLD``.

:func:`linear_sum_assignment` is scipy's shortest-augmenting-path solver,
ported to Python with scipy's tie rules, for matching levels between points.
The package needs numpy alone.

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
#: Condition 1/|<l|r>| of a level's unit left and right eigenvectors above
#: which the eigensystem is treated as (near-)defective.
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
    as ``left[:, n].conj().T``. ``cond_right`` is the largest condition
    1/|<l_n|r_n>| of a level's unit vectors (in the spectra of
    :mod:`pshchain.biortho`, of a level in no degenerate cluster).
    ``biortho_residual`` is max |<L_n|R_m> - delta_nm|.
    The raw vectors of :func:`eig_general` are unit-norm and not scaled to
    <L_n|R_n> = 1, so there it is of order 1; it is small for the rescaled
    sets of :func:`pshchain.biortho.spectrum_with_indices`. The raw ``left``
    of :func:`eig_general` is ``right.conj()``.
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


def _eig(a: np.ndarray):
    """:func:`_solve` of the stack ``a``: each matrix equal to its transpose by
    ``np.linalg.eigh``, every other by ``np.linalg.eig``."""
    symmetric = np.all(a == a.swapaxes(1, 2), axis=(1, 2))
    count = np.count_nonzero(symmetric)
    if count in (0, len(a)):  # one LAPACK call for the whole stack
        return _solve(np.linalg.eigh if count else np.linalg.eig, a)
    w = np.empty(a.shape[:2], np.complex128)
    v = np.empty(a.shape, np.complex128)
    failed = np.empty(len(a), dtype=bool)
    for mask, solve in ((symmetric, np.linalg.eigh), (~symmetric, np.linalg.eig)):
        w[mask], v[mask], failed[mask] = _solve(solve, a[mask])
    return w, v, failed


def _solve(solve, a: np.ndarray):
    """``solve`` (``np.linalg.eig`` or ``eigh``) of every matrix in the stack
    ``a``, as complex arrays, and the mask of those that did not converge.

    One such matrix fails a stacked call, so that stack is solved again matrix
    by matrix: the others keep their values, bit for bit, and a failed matrix
    gets zero eigenvalues and unit vectors, which carry no meaning.
    """
    try:
        w, v = solve(a)
        return (w.astype(np.complex128, copy=False), v.astype(np.complex128, copy=False),
                np.zeros(len(a), dtype=bool))
    except np.linalg.LinAlgError:
        if len(a) == 1:
            eye = np.eye(a.shape[1], dtype=np.complex128)[None]
            return np.zeros(a.shape[:2], np.complex128), eye, np.ones(1, dtype=bool)
    w, v, failed = zip(*(_solve(solve, a[b:b + 1]) for b in range(len(a))))
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


def _errors(residual: np.ndarray, bound: np.ndarray, failed: np.ndarray) -> list:
    """Per matrix: an ``ArithmeticError`` if its eigenvalues did not converge
    (``failed``) or its residual is above its bound, or None."""
    errors: list = [None] * len(residual)
    for b in np.flatnonzero(failed | (residual > bound)).tolist():
        errors[b] = ArithmeticError(
            "eigenvalues did not converge" if failed[b] else
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
    partner (-1 for a real eigenvalue). ``scale`` is the Frobenius norm of
    each matrix, of all its blocks together. ``errors[b]`` is the
    ``ArithmeticError`` matrix ``b`` failed with or None (a defective matrix
    solves); the arrays of a failed entry carry no meaning.
    """

    eigenvalues: list
    right: list
    partner: list
    scale: np.ndarray
    errors: list


def eig_blocks(blocks) -> BlockStack:
    """Eigendecompositions of real block-diagonal matrices, block by block.

    ``blocks`` holds one real (count, d_k, d_k) stack per block. Each matrix
    of a stack that equals its transpose exactly is solved by LAPACK's
    symmetric solve (``np.linalg.eigh``): real eigenvalues in ascending order
    with orthonormal real vectors. Every other matrix is solved by LAPACK's
    real solve (``np.linalg.eig``), which returns real eigenvalues with zero
    imaginary part and complex ones as exact conjugate pairs, in adjacent
    columns with Im > 0 first. The choice is made per matrix, so that a
    matrix gets the same bits in any stack. The residuals of the whole
    matrix are checked against ``DEFAULT_TOL * ||M||_F``. Left vectors are
    not computed, and neither is any measure of defectiveness: a Jordan block
    solves without an error.
    """
    blocks = [_as_array(a, 3, np.float64) for a in blocks]
    scale = _frobenius(blocks)
    values, vectors, partners = [], [], []
    res = np.zeros(scale.shape)
    failed = np.zeros(scale.shape, dtype=bool)
    for a in blocks:
        w, v, bad = _eig(a)
        failed |= bad
        im = w.imag
        cols = np.arange(w.shape[1])
        partners.append(np.where(im > 0, cols + 1, np.where(im < 0, cols - 1, -1)))
        r = (a @ v.view(np.float64)).view(np.complex128)  # real times complex
        r -= v * w[:, None, :]
        np.maximum(res, column_norms(r).max(axis=1), out=res)
        values.append(w)
        vectors.append(v)
    errors = _errors(res, DEFAULT_TOL * np.maximum(scale, 1e-300), failed)
    return BlockStack(values, vectors, partners, scale, errors)


def eig_general(m) -> EigenSystem:
    """Full eigendecomposition of a complex-symmetric matrix (M^T = M).

    Any other matrix raises ValueError before the solve. The left
    eigenvectors are the conjugated right ones, so only the right ones are
    computed, and their residuals ||M R_n - lambda_n R_n|| (those of the
    left ones are their conjugates) are checked against the constant
    ``DEFAULT_TOL * ||M||_F``. Eigenvalues are sorted by (Re, Im) so repeated
    runs produce identical orderings. A near-defective input (a level whose
    unit vectors have a condition 1/|<l_n|r_n>| above the constant
    ``DEFECT_THRESHOLD``) raises :class:`AtExceptionalPoint` instead of
    returning garbage vectors, and eigenvalues that do not converge raise
    ``ArithmeticError``.
    """
    a = as_complex_matrix(m)
    if not np.array_equal(a, a.T):
        raise ValueError("eig_general takes a complex-symmetric matrix (M^T = M)")
    scale = _frobenius([a[None]])
    try:
        w, vr = np.linalg.eig(a)
    except np.linalg.LinAlgError:
        raise ArithmeticError("eigenvalues did not converge") from None
    order = np.lexsort((w.imag, w.real))
    # np.take keeps vr C-ordered, so the column sums of the rescaling keep their bits
    w, vr = w[order], np.take(vr, order, axis=1)

    overlap = vr.T @ vr  # <L_n|R_m> with |L_n> = conj(R_n)
    with np.errstate(divide="ignore"):
        cond = float(1.0 / np.abs(np.diagonal(overlap)).min())
    if cond > DEFECT_THRESHOLD:
        raise AtExceptionalPoint(cond)
    residual = np.linalg.norm(a @ vr - vr * w, axis=0).max()
    error, = _errors(np.array([residual]), DEFAULT_TOL * np.maximum(scale, 1e-300),
                     np.zeros(1, dtype=bool))
    if error is not None:
        raise error
    return EigenSystem(w, vr, vr.conj(), float(scale[0]), cond,
                       float(np.max(np.abs(overlap - np.eye(len(w))))))


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
