"""Parameter sweeps with level tracking and exceptional-point localization.

Sweeps move along one normalized coordinate (the coupling ``j_tilde`` or the
gain ``gamma_tilde``) on the unit circle j^2 + delta^2 = 1. Levels are
followed through the sweep by maximal biorthogonal overlap |<L(p)|R(p+dp)>|,
which stays reliable through genuine crossings where plain energy ordering
would swap labels. The overlaps are taken inside the Q blocks, where a level
meets only the levels of its own block (:func:`_block_match`), by a real
product where both points' vectors are real (:func:`_overlaps`). A real left
vector overlaps both members of a conjugate pair exactly equally, so such
ties go by the Z2 index: index +1 continues as the member with Im E > 0, and
that member as index +1 (:func:`_assign`).

Second-order exceptional points are boundaries between real and
complex-conjugate eigenvalues of a tracked pair. Each is localized in the
swept parameter as the root of the pair's squared gap (a - b)^2, which is
real within a Q block and crosses zero linearly there, by Chandrupatla's
bracketing method; it falls back to bisection where the gap's values do not
fit an inverse quadratic. Third-order points show up as the
collision of two such boundaries sharing the middle level of a triple; they
are localized by following the coupling interval between the two boundaries
up the gain until it closes, guided by the cusp law of its width.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import NamedTuple

import numpy as np

from .biortho import (INDICATOR_FLOOR, BiorthoSpectrum, IndexIllDefined, LevelRecord,
                      SectorEigenSystem, level_sign, sector_spectra)
from .model import (ChainSpec, check_chain_length, check_normalized, gain_diagonal,
                    normalized_blocks, sector_blocks)
from .numerics import AtExceptionalPoint, linear_sum_assignment

# Not called here: the benchmark's span tracer (perfbench/spans.py) patches
# these full-matrix entries under the names this module shares with cli.
from .biortho import spectrum_with_indices  # noqa: F401
from .model import build_hamiltonian, build_parity  # noqa: F401

AXIS_COUPLING = "j_tilde"
AXIS_GAIN = "gamma_tilde"
#: Each axis's range of values; the axis names are ``NormalizedPoint``'s fields.
AXIS_RANGE = {AXIS_COUPLING: (-1.0, 1.0), AXIS_GAIN: (0.0, math.inf)}

#: Default bisection tolerance in the swept parameter.
BISECT_TOL = 1e-8
#: Default tolerances of ``find_ep3``: its finest edge bisection and its final
#: gain bracket.
EP3_J_TOL = 1e-10
EP3_GAMMA_TOL = 1e-6
#: Coupling samples across the first window of ``find_ep3`` and across its probe
#: at the top of the gain bracket, gain steps per probe line of
#: ``find_ep3_candidates``.
EP3_SAMPLES = 61
EP3_CANDIDATE_STEPS = 128
#: ``find_ep3``: edges bisected to this fraction of a wedge's width (never finer
#: than ``j_tol``); share of the distance to the predicted collision that a gain
#: probe stays off it; most samples on each side of a window's centre.
_EDGE_FRACTION = 1 / 128
_AIM_OFF = 1 / 8
_MAX_REACH = 256
#: Sampling rounds of one ``find_ep3`` window, the first and its extensions.
_MAX_GROWTH = 8
#: Default gap below which ``classify_crossings`` flags a near-degeneracy.
AMBIGUOUS_GAP = 1e-6
#: Matched overlap below which a track break is recorded.
OVERLAP_MIN = 0.5
#: What a level and a candidate of the same sign score above their overlap in
#: a match: it decides exact ties, and none between overlaps further apart.
_SIGN_TIE = 1e-12
#: Bisection tolerance of the crossing refinement in ``classify_crossings``.
CROSSING_TOL = 1e-12
#: Gain step of the ladder that identifies levels at a point of an EP3 search.
GAIN_RUNG = 0.005
#: Full-matrix elements per stack of points (64 points at N=4, 4 at N=6, 1 from
#: N=7; the two sector blocks hold about half of them): keeps memory flat
#: while small matrices share one eigensolve call.
_STACK_ELEMENTS = 1 << 14
#: Offsets tried in turn at a point whose solve hits an exact exceptional point.
_NUDGES = (0.0, 1e-11, -1e-11, 1e-10)


class NoEPInBracket(RuntimeError):
    """The bracketed interval contains no reality boundary for the pair."""


class NoEP3InBox(RuntimeError):
    """No collision of second-order exceptional points inside the search box."""


class AccidentallyZeroElement(RuntimeError):
    """The pair is not coupled by the gain generator (matrix element ~ 0)."""

    def __init__(self, magnitude: float, floor: float):
        self.magnitude = float(magnitude)
        self.floor = float(floor)
        super().__init__(
            f"gain matrix element {self.magnitude:.3e} below floor {self.floor:.3e}"
        )

    def __reduce__(self):  # pickle rebuilds it from its arguments, as from a pool worker
        return type(self), (self.magnitude, self.floor)


class _Line(NamedTuple):
    """A line to solve on, with its tolerances: a :class:`SweepGrid` without points."""

    axis: str
    fixed_value: float
    n: int
    reality_tol: float | None
    indicator_floor: float


def _check_tolerances(line) -> None:
    """A ValueError unless ``line``'s ``reality_tol`` (None: the default) and
    ``indicator_floor`` are finite numbers >= 0."""
    for name in ("reality_tol", "indicator_floor"):
        value = getattr(line, name)
        if not (value is None and name == "reality_tol"
                or isinstance(value, (int, float)) and not isinstance(value, bool)
                and 0 <= value < math.inf):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def _location(line, value) -> dict:
    """Both coordinates of ``value`` on ``line``: the other axis at its fixed value."""
    return dict.fromkeys(AXIS_RANGE, line.fixed_value) | {line.axis: value}


def rises_on_axis(axis: str, values) -> bool:
    """True when ``values`` are finite, inside ``axis``'s range and strictly rising."""
    lo, hi = AXIS_RANGE[axis]
    return (all(math.isfinite(v) and lo <= v <= hi for v in values)
            and all(a < b for a, b in zip(values, values[1:])))


def _window(axis: str, window, name: str) -> tuple[float, float]:
    """``window`` as two floats; a ValueError naming ``name`` unless they are
    finite, inside ``axis``'s range and rising."""
    lo, hi = (float(v) for v in window)
    if not rises_on_axis(axis, (lo, hi)):
        raise ValueError(f"{name} must be two finite rising values in "
                         f"[{AXIS_RANGE[axis][0]:g}, {AXIS_RANGE[axis][1]:g}], got {window!r}")
    return lo, hi


def check_levels(levels, n: int, name: str) -> tuple[int, ...]:
    """``levels`` as ints; a ValueError naming ``name`` unless they are distinct
    level indices of an ``n``-site chain, in 0..2^n-1."""
    levels = tuple(int(i) for i in levels)
    if len(set(levels)) < len(levels) or not all(0 <= i < 1 << n for i in levels):
        raise ValueError(f"{name} must be distinct level indices in "
                         f"0..{(1 << n) - 1}, got {list(levels)}")
    return levels


def _solve_values(line, values, nudges=_NUDGES):
    """Spectra at ``values + nudges[0]`` on ``line`` (a :class:`SweepGrid` or
    :class:`_Line`) with its tolerances, in order, lazily, in stacks of at
    most ``_STACK_ELEMENTS`` matrix elements.

    Each value is clamped to the axis range, and each stack is solved as its
    points' two real sector blocks (:func:`pshchain.model.normalized_blocks`,
    :func:`pshchain.biortho.sector_spectra`); a point off the unit circle
    raises :class:`NormalizedPoint`'s ValueError. A point at an exact
    exceptional point is solved again through this routine at the remaining
    offsets; the failure at the last is raised, other errors at once.
    """
    size = max(1, _STACK_ELEMENTS >> (2 * line.n))
    lo, hi = AXIS_RANGE[line.axis]
    values = np.asarray(values, dtype=np.float64)
    for start in range(0, len(values), size):
        chunk = values[start:start + size]
        location = _location(line, np.minimum(hi, np.maximum(lo, chunk + nudges[0])))
        spectra = sector_spectra(
            normalized_blocks(line.n, location[AXIS_COUPLING], location[AXIS_GAIN]), line.n,
            reality_tol=line.reality_tol, indicator_floor=line.indicator_floor)
        for v, sp in zip(chunk, spectra):
            if isinstance(sp, AtExceptionalPoint) and len(nudges) > 1:
                sp = next(_solve_values(line, [v], nudges[1:]))
            elif isinstance(sp, Exception):
                raise sp
            yield sp


def _solve_value(line, value: float) -> BiorthoSpectrum:
    return next(_solve_values(line, [value]))


@dataclass(frozen=True)
class SweepGrid:
    """Sampling of one normalized coordinate at a fixed value of the other.

    ``reality_tol`` and ``indicator_floor`` go to every solve on the grid,
    the sweep's and those of the refinements of its tracks alike.
    """

    axis: str
    fixed_value: float
    points: tuple[float, ...]
    n: int
    reality_tol: float | None = None
    indicator_floor: float = INDICATOR_FLOOR

    def __post_init__(self):
        if self.axis not in AXIS_RANGE:
            raise ValueError(f"axis must be one of {tuple(AXIS_RANGE)}, got {self.axis!r}")
        check_chain_length(self.n)
        _check_tolerances(self)
        if isinstance(self.fixed_value, bool):
            raise ValueError(f"fixed_value must be a number, got {self.fixed_value!r}")
        pts = tuple(self.points)
        if any(isinstance(p, bool) for p in pts):
            raise ValueError(f"points must be numbers, got {pts!r}")
        pts = tuple(float(p) for p in pts)
        if len(pts) < 2 or any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must be strictly increasing (>= 2 points)")
        # every point must map onto the unit normalization circle
        check_normalized(**_location(self, np.array(pts)))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "fixed_value", float(self.fixed_value))

    def solver(self):
        """``value -> spectrum`` along this grid's axis (see :func:`_solve_values`)."""
        return partial(_solve_value, self)

    def index_of(self, value: float) -> int:
        pts = np.asarray(self.points)
        i = int(np.argmin(np.abs(pts - value)))
        if abs(pts[i] - value) > 1e-12 * max(1.0, abs(value)):
            raise ValueError(f"{value!r} is not a grid point of this sweep")
        return i


@dataclass
class LevelTrack:
    """One level followed across a sweep.

    ``z2`` holds -1/0/+1 per grid point (0 = undefined), ``partner`` the
    track id of the conjugate partner (or -1), ``columns`` the level's
    position in the sorted spectrum at each point, and ``overlaps`` the
    matched biorthogonal overlap against the previous point.
    """

    level_id: int
    grid: SweepGrid
    eigenvalues: np.ndarray
    z2: np.ndarray
    indicator: np.ndarray
    partner: np.ndarray
    columns: np.ndarray
    overlaps: np.ndarray
    breaks: list[int] = field(default_factory=list)

    @property
    def continuity_score(self) -> float:
        return float(np.min(self.overlaps[1:])) if self.overlaps.size > 1 else 1.0

    def mutual_partner(self, point_index: int, other: "LevelTrack") -> bool:
        return bool(self.partner[point_index] == other.level_id)


class _Pool:
    """The one pool of the package: :meth:`submit` hands out a task, and
    :meth:`next` returns the ``(tag, result)`` of a finished one, in the order
    they finish, or raises the error of the task that failed.

    The tasks run in the order they were handed out, on a fork pool of
    ``min(workers, tasks)`` processes when that is more than one, ``tasks``
    being the number it starts with; otherwise each runs in this process as it
    is handed out. Leaving the ``with`` block stops the pool.
    """

    def __init__(self, workers: int, tasks: int):
        import queue  # here, like multiprocessing.pool: importing the package skips it

        self.pending = 0
        self._done = queue.SimpleQueue()
        self._pool = None
        if min(workers, tasks) > 1:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                ctx = multiprocessing.get_context()
            self._pool = ctx.Pool(processes=min(workers, tasks))

    def __enter__(self) -> "_Pool":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.terminate()

    def submit(self, fn, arg, tag) -> None:
        """Hand out ``fn(arg)``; :meth:`next` returns its result with ``tag``."""
        self.pending += 1
        if self._pool is None:
            self._done.put((tag, fn(arg), None))
        else:  # the callbacks run on the pool's result thread
            self._pool.apply_async(fn, (arg,), callback=lambda r: self._done.put((tag, r, None)),
                                   error_callback=lambda e: self._done.put((tag, None, e)))

    def next(self) -> tuple:
        """``(tag, result)`` of the next task to finish; a failed task's error is raised."""
        tag, result, error = self._done.get()
        self.pending -= 1
        if error is not None:
            raise error
        return tag, result

    def map(self, fn, tasks: list) -> list:
        """``fn(task)`` for every task, in task order."""
        results = [None] * len(tasks)
        for k, task in enumerate(tasks):
            self.submit(fn, task, k)
        for _ in tasks:
            k, result = self.next()
            results[k] = result
        return results


def _assign(overlap, ref_sign, new_sign):
    """Column matched to each row of every matrix of ``overlap``, over (matrix,
    row, column), and its overlap.

    A row scores its overlap with a column, ``_SIGN_TIE`` more where the row's
    sign in ``ref_sign`` and the column's in ``new_sign`` are equal and not 0.
    Each row takes its best score: where those columns are distinct, they are
    an assignment of largest summed score, since that sum bounds every other.
    Where two rows of a matrix take one column, such an assignment is solved.
    """
    score = overlap + _SIGN_TIE * (ref_sign[..., :, None] * new_sign[..., None, :] > 0)
    found = score.argmax(axis=-1)
    ordered = np.sort(found, axis=-1)
    for k in np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=-1)):
        found[k] = linear_sum_assignment(-score[k])[1]  # rows come back in order
    return found, np.take_along_axis(overlap, found[..., None], axis=-1)[..., 0]


def _overlaps(left, right, real):
    """|<L|R>| of the left vectors ``left`` and the right vectors ``right`` of
    each pair of points, over (pair, left, right): by a real product for the
    pairs whose vectors are all ``real``, by a complex one for the others."""
    if real.all():
        return _real_overlaps(left, right)
    if not real.any():
        return _complex_overlaps(left, right)
    out = np.empty((len(left), left.shape[2], right.shape[2]))
    out[real] = _real_overlaps(left[real], right[real])
    out[~real] = _complex_overlaps(left[~real], right[~real])
    return out


def _complex_overlaps(left, right):
    return np.abs(left.conj().swapaxes(1, 2) @ right)


def _real_overlaps(left, right):
    # the real parts, copied into contiguous arrays
    return np.abs(np.ascontiguousarray(left.real).swapaxes(1, 2) @ np.ascontiguousarray(right.real))


def _block_match(a, refs: slice, blocks, b, news: slice):
    """Matches of the levels in block columns ``blocks`` of the points
    ``refs`` of stack ``a`` into the points ``news`` of stack ``b``, one pair
    of points per point of either slice, decided in the Q blocks
    (:class:`~pshchain.biortho.SectorStack`).

    A level overlaps only the levels of its own block (:func:`_overlaps`).
    Each block's levels are matched by :func:`_assign` on |<L|R>| and their
    ``sign`` (:func:`~pshchain.biortho.level_sign`), in block-column order
    whatever the order of ``blocks``, so that order breaks no tie. Returns
    each level's merged column and overlap over (pair, level).
    """
    d = a.right[0].shape[-1]
    by_column = np.argsort(blocks)
    upper = blocks[by_column] >= d
    shape = (news.stop - news.start, len(blocks))
    found, best = np.empty(shape, dtype=np.int64), np.empty(shape)
    for at, left, right, real, start in zip((by_column[~upper], by_column[upper]), a.left,
                                            b.right, zip(a.real, b.real), (0, d)):
        if at.size:
            rows = blocks[at]
            overlap = _overlaps(left[refs][:, :, rows - start], right[news],
                                real[0][refs] & real[1][news])
            found[:, at], best[:, at] = _assign(
                overlap, a.sign[refs][:, rows], b.sign[news][:, start:start + right.shape[-1]])
            found[:, at] += start
    return b.rank[news][np.arange(shape[0])[:, None], found], best


def _match_levels(ref: BiorthoSpectrum, cols, new: BiorthoSpectrum):
    """Columns of ``new`` matched to the levels ``cols`` of ``ref``, and their
    overlaps: in the Q blocks (:func:`_block_match`), or by :func:`_assign`
    on the vectors of a general matrix."""
    a, b = ref.eigensystem, new.eigensystem
    if isinstance(a, SectorEigenSystem):
        matched, overlaps = _block_match(a.stack, slice(a.point, a.point + 1),
                                         a.stack.order[a.point, cols], b.stack,
                                         slice(b.point, b.point + 1))
    else:
        matched, overlaps = _assign(np.abs(a.left[:, cols].conj().T @ b.right)[None],
                                    level_sign(ref.z2, ref.eigenvalues)[cols][None],
                                    level_sign(new.z2, new.eigenvalues)[None])
    return matched[0], overlaps[0]


def _runs(spectra):
    """``spectra`` in lists of consecutive points of one stack."""
    run = []
    for sp in spectra:
        if run and sp.eigensystem.stack is not run[-1].eigensystem.stack:
            yield run
            run = []
        run.append(sp)
    if run:
        yield run


def _follow(spectra, sp: BiorthoSpectrum | None = None, cols=None):
    """Follow tracks through ``spectra``: yields (spectrum, track columns, overlaps).

    Each point's tracks are matched against the left vectors of the previous
    point, starting from spectrum ``sp`` with track columns ``cols``; without
    ``sp`` the first point's columns are the tracks (overlaps 1). The points
    of one stack are matched to each other's levels in one
    :func:`_block_match`, the first point of a stack by :func:`_match_levels`.
    A stack's points are read before the first of them is yielded.
    """
    for run in _runs(spectra):
        # the points of a run are consecutive in their stack
        stack, first = run[0].eigensystem.stack, run[0].eigensystem.point
        refs, news = slice(first, first + len(run) - 1), slice(first + 1, first + len(run))
        matched, overlaps = _block_match(stack, refs, np.arange(run[0].dim), stack, news)
        # each pair's match of every level, by the earlier point's merged column
        matched, overlaps = (np.take_along_axis(x, stack.order[refs], axis=1)
                             for x in (matched, overlaps))
        for k, new in enumerate(run):
            if sp is None:
                cols, overlap = np.arange(new.dim), np.ones(new.dim)
            elif k == 0:
                cols, overlap = _match_levels(sp, cols, new)
            else:
                cols, overlap = matched[k - 1, cols], overlaps[k - 1, cols]
            sp = new
            yield new, cols, overlap


def _signed(value) -> float:
    """A refinement's answer as a signed value: a bool counts as +1 or -1."""
    if isinstance(value, bool):
        return 1.0 if value else -1.0
    return float(value)


def _bisect(side, p_in: float, p_out: float, tol: float, max_iter: int = 200, ends=None):
    """Shrink the bracket (p_in, p_out) onto the point where ``side`` changes sign.

    A refinement: yields each probe and, given its spectrum ``sp``, asks
    ``side(sp)`` for a value whose sign (of a zero too) places the probe, + on
    ``p_in``'s side; a bool counts as +1 or -1. ``ends`` holds the values at
    ``p_in`` and ``p_out`` when they are known. Stops once the bracket is no
    wider than ``tol``, after ``max_iter`` probes, or when the midpoint rounds
    onto an end. Returns the final ends.

    The signs alone decide the bracket; the magnitudes only choose the probes.
    The first probe is the secant root of ``ends``, each later one the root of
    the inverse quadratic through the last probe, the end it replaced and the
    other end, where Chandrupatla's test accepts it (Adv. Eng. Softw. 28, 145,
    1997). Such a probe stays at least ``tol / 2`` inside both ends, so a zero
    at an end gives a probe half a tolerance off it. The probe is the midpoint
    instead where those values are missing, where the test rejects the step,
    and where the last three probes have not halved the bracket, so that every
    four probes at least halve it. Values of equal magnitude, as bools give,
    always fail the test: they bisect.
    """
    v_in, v_out = (None, None) if ends is None else map(_signed, ends)
    last = None  # the last probe, its value, and the end and value it replaced
    widths = [abs(p_out - p_in)]
    for _ in range(max_iter):
        pm = 0.5 * (p_in + p_out)
        if not abs(p_out - p_in) > tol or pm in (p_in, p_out):
            break
        p = pm
        if len(widths) < 4 or widths[-1] <= 0.5 * widths[-4]:
            p = _interpolate(p_in, v_in, p_out, v_out, last, tol)
            if p is None or not min(p_in, p_out) < p < max(p_in, p_out):
                p = pm
        v = _signed(side((yield p)))
        if math.copysign(1.0, v) > 0:
            last = p, v, p_in, v_in
            p_in, v_in = p, v
        else:
            last = p, v, p_out, v_out
            p_out, v_out = p, v
        widths.append(abs(p_out - p_in))
    return p_in, p_out


def _interpolate(p_in, v_in, p_out, v_out, last, tol):
    """Chandrupatla's next probe of :func:`_bisect`, or None for the midpoint."""
    if last is None:  # the secant through the ends
        a, fa, b, fb = p_in, v_in, p_out, v_out
        if fa is None or fb is None or fa == fb:
            return None
        t = fa / (fa - fb)
    else:
        a, fa, c, fc = last
        b, fb = (p_out, v_out) if a == p_in else (p_in, v_in)
        if fb is None or fc is None or fc == fb:
            return None
        xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
        if not (phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi):
            return None
        t = (fa / (fb - fa) * fc / (fb - fc)
             + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
    lim = 0.5 * tol / abs(b - a)
    return a + min(max(t, lim), 1.0 - lim) * (b - a)


def _matched(state, sp: BiorthoSpectrum):
    """Columns of ``sp`` matched to the levels of ``state``, a ``(spectrum, columns)``."""
    return _match_levels(*state, sp)[0]


def _tracked(sp: BiorthoSpectrum, cols, p_in: float, p_out: float, tol: float, inside,
             ends=None):
    """Shrink (p_in, p_out) following the levels ``cols`` of ``sp``, solved at ``p_in``.

    A refinement (see :func:`_bisect`, which takes ``ends``): each probe's
    levels are matched to those of the last probe inside, where they are
    still apart, and ``inside(spectrum, columns)``, a bool or a signed value,
    places the probe. Returns the final ends, the last inside ``(spectrum,
    columns)`` (``(sp, cols)`` before any) and the last outside one (None
    before any).
    """
    last_in, last_out = (sp, cols), None

    def side(probe):
        nonlocal last_in, last_out
        state = probe, _matched(last_in, probe)
        value = _signed(inside(*state))
        if math.copysign(1.0, value) > 0:
            last_in = state
        else:
            last_out = state
        return value

    p_in, p_out = yield from _bisect(side, p_in, p_out, tol, ends=ends)
    return p_in, p_out, last_in, last_out


def _lockstep(solve, refinements) -> list:
    """Run refinement generators together: the one driver of every refinement.

    Each round, ``solve`` maps the refinements' probe values to their spectra,
    in order: ``partial(_solve_values, line)`` in stacks, ``partial(map,
    point_solver)`` one at a time. Returns each one's result, or the
    :class:`NoEPInBracket` or :class:`~pshchain.biortho.IndexIllDefined` it
    raised without its traceback, whose frames would keep a round's stacks
    alive in a cycle; other errors are raised.
    """
    results = [None] * len(refinements)
    answers = dict.fromkeys(range(len(refinements)))
    while answers:
        probes = {}
        for k, sp in answers.items():
            try:
                probes[k] = refinements[k].send(sp)
            except StopIteration as stop:
                results[k] = stop.value
            except (NoEPInBracket, IndexIllDefined) as exc:
                results[k] = exc.with_traceback(None)
        answers = dict(zip(probes, solve(list(probes.values()))))
    return results


def sweep(grid: SweepGrid) -> list[LevelTrack]:
    """Track all 2^N levels across the grid, in this process.

    Grid points are solved in the stacks of :func:`_solve_values` and matched
    to the previous point's levels in grid order (:func:`_follow`). Matched
    overlaps below ``OVERLAP_MIN`` are recorded as track breaks and the sweep
    continues with the assignment it found.
    """
    npts = len(grid.points)
    dim = 1 << grid.n
    # each point's levels in its own column order, read along the tracks at the end
    values = np.empty((npts, dim), dtype=np.complex128)
    z2 = np.empty((npts, dim), dtype=np.int8)
    ind, overlaps = np.empty((npts, dim)), np.empty((npts, dim))
    partner, columns = np.empty((npts, dim), dtype=np.int64), np.empty((npts, dim), dtype=np.int64)

    for p, (sp, cols, matched) in enumerate(_follow(_solve_values(grid, grid.points))):
        values[p], z2[p], ind[p], partner[p] = sp.eigenvalues, sp.z2, sp.indicator, sp.partner
        columns[p], overlaps[p] = cols, matched
    rows = np.arange(npts)[:, None]
    track = np.empty_like(columns)
    track[rows, columns] = np.arange(dim)
    partner = partner[rows, columns]
    partner = np.where(partner >= 0, track[rows, partner], -1)
    evals, z2, ind, partner, columns, overlaps = (
        np.ascontiguousarray(a.T) for a in (values[rows, columns], z2[rows, columns],
                                            ind[rows, columns], partner, columns, overlaps))
    return [
        LevelTrack(level_id=t, grid=grid, eigenvalues=evals[t], z2=z2[t],
                   indicator=ind[t], partner=partner[t], columns=columns[t],
                   overlaps=overlaps[t],
                   breaks=np.flatnonzero(overlaps[t] < OVERLAP_MIN).tolist())
        for t in range(dim)
    ]


@dataclass(frozen=True)
class EPRecord:
    """A located exceptional point.

    ``location`` always carries both normalized coordinates. ``indices`` are
    the Z2 indices of the participating levels just outside the point, and
    ``residual`` is the eigenvalue gap at the claimed location (order 2) or
    the width of the last all-real interval below the collision (order 3).
    """

    order: int
    location: dict[str, float]
    levels: tuple[int, ...]
    indices: tuple[int, ...]
    residual: float
    bracket_width: float

    def sort_key(self) -> tuple:
        """Order of record lists: by gain, then coupling, then levels."""
        return (self.location[AXIS_GAIN], self.location[AXIS_COUPLING], self.levels)

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "location": {k: float(v) for k, v in sorted(self.location.items())},
            "levels": list(self.levels),
            "indices": list(self.indices),
            "residual": float(self.residual),
            "bracket_width": float(self.bracket_width),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EPRecord":
        return cls(order=int(d["order"]),
                   location={k: float(v) for k, v in d["location"].items()},
                   levels=tuple(int(x) for x in d["levels"]),
                   indices=tuple(int(x) for x in d["indices"]),
                   residual=float(d["residual"]),
                   bracket_width=float(d["bracket_width"]))


def _mutual(sp: BiorthoSpectrum, cols) -> bool:
    """True when the two levels in ``cols`` are each other's conjugate partner."""
    return bool(sp.partner[cols[0]] == cols[1])


def _squared_gap(sp: BiorthoSpectrum, cols) -> float:
    """The pair's squared gap D = (a - b)^2, real within a Q block: |a - b|^2,
    negated when the two levels in ``cols`` are each other's conjugate partner."""
    a, b = sp.eigenvalues[cols]
    return math.copysign(float(abs(a - b)) ** 2, -1.0 if _mutual(sp, cols) else 1.0)


def _reality_boundary(p_real: float, p_complex: float, pair, tol: float):
    """Locate the parameter where a tracked pair switches real <-> complex: a
    refinement (see :func:`_tracked`) from ``p_real``, where ``pair`` holds the
    two levels' columns, to ``p_complex``.

    The boundary is the root of the pair's squared gap D (:func:`_squared_gap`),
    negative once the pair is each other's conjugate partner: that link decides
    each probe's side, and D, known at both ends, only where :func:`_bisect`
    probes. The pair is re-identified at every probe by overlap against the
    last real-side probe. Returns the boundary ``location`` (the final
    bracket's midpoint), the bracket's ``width``, the pair's gap there
    (``residual``), and the pair's Z2 indices and indicators at the last
    real-side probe (``real_side_z2``, ``real_side_indicator``). Raises
    :class:`NoEPInBracket` when the bracket shows no transition or the
    converged boundary is not a real-to-complex one.
    """
    real = (yield p_real), list(pair)
    if _mutual(*real):
        raise NoEPInBracket("pair is already complex on the declared real side")
    sp = yield p_complex
    cplx = sp, _matched(real, sp)
    if not _mutual(*cplx):
        raise NoEPInBracket("pair is not complex-conjugate on the complex side")
    ends = _squared_gap(*real), _squared_gap(*cplx)
    pr, pc, (sp, cols), _ = yield from _tracked(*real, float(p_real), float(p_complex), tol,
                                                _squared_gap, ends)
    if not np.all(np.abs(sp.eigenvalues[cols].imag) <= sp.reality_tol):
        raise NoEPInBracket("pairing changes without a reality boundary (partner exchange)")

    location = 0.5 * (pr + pc)
    sp_loc = yield location
    a, b = sp_loc.eigenvalues[_matched((sp, cols), sp_loc)]
    return {
        "location": location,
        "width": abs(pc - pr),
        "residual": float(abs(a - b)),
        "real_side_z2": tuple(int(i) or None for i in sp.z2[cols]),
        "real_side_indicator": tuple(float(i) for i in sp.indicator[cols]),
    }


def _ep2(track_a: LevelTrack, track_b: LevelTrack, i_real: int, i_cplx: int, tol: float):
    """The EP2 record of two tracked levels as a refinement (see :func:`_bisect`)
    from grid point i_real, where the pair is real, to i_cplx, where it is a
    conjugate pair. The record carries both Z2 indices from the real side."""
    grid = track_a.grid
    res = yield from _reality_boundary(
        grid.points[i_real], grid.points[i_cplx],
        (int(track_a.columns[i_real]), int(track_b.columns[i_real])), tol)

    ia, ib = int(track_a.z2[i_real]), int(track_b.z2[i_real])
    if ia == 0 or ib == 0:
        ia, ib = res["real_side_z2"][0] or 0, res["real_side_z2"][1] or 0
    if ia == 0 or ib == 0:
        raise IndexIllDefined("no well-defined index on the real side of the bracket")
    return EPRecord(order=2,
                    location=_location(grid, res["location"]),
                    levels=(track_a.level_id, track_b.level_id),
                    indices=(ia, ib),
                    residual=res["residual"],
                    bracket_width=res["width"])


def reality_transitions(tracks: list[LevelTrack]):
    """Grid intervals where some pair of tracks gains or loses conjugate pairing.

    Returns tuples ``(a, b, interval_index, complex_side)`` with
    ``complex_side`` in {"lo", "hi"}.
    """
    # a pair (a, b), a < b, is read from track a where a's partner changes
    partner = np.array([tr.partner for tr in tracks])
    events = []
    for a, p in zip(*np.nonzero(partner[:, :-1] != partner[:, 1:])):
        for b, side in ((partner[a, p], "lo"), (partner[a, p + 1], "hi")):
            if b > a:
                events.append((int(a), int(b), int(p), side))
    events.sort(key=lambda e: (e[2], e[0], e[1], e[3]))
    return events


def locate_ep2_records(tracks: list[LevelTrack], tol: float = BISECT_TOL):
    """Refine every reality transition of a sweep into an EP record.

    Transitions that give no record are collected in the second return
    value, with the reason, instead: a pair that, matched from its real end,
    is not linked at its complex end; a partner exchange that bisects to no
    reality boundary (a complex pair trades one member for another level);
    and a pair with no well-defined index on the real side. All transitions
    are refined together, their probes solved in shared stacks.
    """
    grid = tracks[0].grid
    events = reality_transitions(tracks)
    results = _lockstep(partial(_solve_values, grid), [
        _ep2(tracks[a], tracks[b], *((p + 1, p) if side == "lo" else (p, p + 1)), tol)
        for a, b, p, side in events])
    skipped = [{"levels": [a, b], "bracket": [grid.points[p], grid.points[p + 1]],
                "complex_side": side, "reason": str(res)}
               for (a, b, p, side), res in zip(events, results)
               if isinstance(res, (NoEPInBracket, IndexIllDefined))]
    records = [res for res in results if isinstance(res, EPRecord)]
    return sorted(records, key=EPRecord.sort_key), skipped


@dataclass(frozen=True)
class CrossingRecord:
    """A level crossing on the Hermitian line, labeled by the pair's indices."""

    location: float
    levels: tuple[int, int]
    indices: tuple[int, int]
    kind: str
    gap: float


def _refine_crossing(solve, p_lo: float, p_hi: float, pair, d_lo: float,
                     tol: float) -> tuple[float, float]:
    """Bisect the sign change of the tracked gap d, each probe solved alone by
    ``solve`` (``value -> spectrum``); returns (location, |d| at the last probe)."""
    return _lockstep(partial(map, solve), [_crossing(p_lo, p_hi, pair, d_lo, tol)])[0]


def _crossing(p_lo: float, p_hi: float, pair, d_lo: float, tol: float):
    """:func:`_refine_crossing` as a refinement (see :func:`_tracked`)."""
    sign_lo = math.copysign(1.0, d_lo)
    gap = abs(d_lo)

    def low_side(sp, cols):
        nonlocal gap
        d = float((sp.eigenvalues[cols[0]] - sp.eigenvalues[cols[1]]).real)
        gap = abs(d)
        return math.copysign(1.0, d) == sign_lo

    lo, hi, _, _ = yield from _tracked((yield p_lo), list(pair), p_lo, p_hi, tol, low_side)
    return 0.5 * (lo + hi), gap


def classify_crossings(tracks: list[LevelTrack],
                       ambiguous_gap: float = AMBIGUOUS_GAP) -> list[CrossingRecord]:
    """Locate and label all level crossings of a gain-free coupling sweep.

    Opposite-index crossings are the ones that split into pairs of
    second-order exceptional points once the gain is turned on; same-index
    crossings are stable. Near-degeneracies without a sign change of the
    tracked gap are flagged ``ambiguous``. All sign changes are refined
    together, their probes solved in shared stacks; one whose refined gap
    stays above ``ambiguous_gap`` is a jump of the tracks, not a crossing.
    """
    grid = tracks[0].grid
    if grid.axis != AXIS_COUPLING or grid.fixed_value != 0.0:
        raise ValueError("crossing classification runs on a gain-free coupling sweep")
    pts = np.asarray(grid.points)
    out: list[CrossingRecord] = []
    labels, refinements = [], []

    def label(a, b, p):
        ia, ib = int(tracks[a].z2[p]), int(tracks[b].z2[p])
        return (a, b), (ia, ib), "same" if ia * ib > 0 else "opposite"

    dim = len(tracks)
    for a in range(dim):
        for b in range(a + 1, dim):
            d = (tracks[a].eigenvalues - tracks[b].eigenvalues).real
            prod = d[:-1] * d[1:]
            for p in np.flatnonzero(d == 0.0):
                out.append(CrossingRecord(float(pts[p]), *label(a, b, p), 0.0))
            for p in np.flatnonzero(prod < 0.0):
                labels.append(label(a, b, p))
                refinements.append(_crossing(
                    pts[p], pts[p + 1],
                    (int(tracks[a].columns[p]), int(tracks[b].columns[p])),
                    d[p], CROSSING_TOL))
            absd = np.abs(d)
            for p in range(1, len(pts) - 1):
                if (absd[p] < ambiguous_gap and absd[p] <= absd[p - 1]
                        and absd[p] <= absd[p + 1]
                        and prod[p - 1] > 0.0 and prod[p] > 0.0):
                    ia, ib = int(tracks[a].z2[p]), int(tracks[b].z2[p])
                    out.append(CrossingRecord(float(pts[p]), (a, b), (ia, ib),
                                              "ambiguous", float(absd[p])))
    refined = _lockstep(partial(_solve_values, grid), refinements)
    for (levels, indices, kind), (loc, gap) in zip(labels, refined):
        if gap <= ambiguous_gap:  # a larger gap is a jump of the tracks, not a crossing
            out.append(CrossingRecord(float(loc), levels, indices, kind, float(gap)))
    out.sort(key=lambda c: (c.location, c.levels))
    return out


def project_two_level(h, level_a: LevelRecord, level_b: LevelRecord) -> np.ndarray:
    """2x2 matrix <L_i|H|R_j> of ``h`` in the biorthogonal pair basis.

    With index-rescaled vectors the off-diagonal entries obey
    M_21 = s_a s_b conj(M_12), so same-index pairs give a locally Hermitian
    block and opposite-index pairs a pseudo-Hermitian one.
    """
    if level_a.z2_index is None or level_b.z2_index is None:
        raise IndexIllDefined("two-level projection requires defined indices")
    m = np.empty((2, 2), dtype=np.complex128)
    lefts = (level_a.left, level_b.left)
    rights = (level_a.right, level_b.right)
    ha = np.asarray(h, dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            m[i, j] = np.vdot(lefts[i], ha @ rights[j])
    return m


def predict_gamma_cr(spec: ChainSpec, pair):
    """Critical gain of an opposite-index pair from its gain-free data.

    gamma_cr = gap / (2 |w|) with w = <L_b|V|R_a> the gain-generator matrix
    element of the pair. Same-index pairs have w = 0 by symmetry and raise
    :class:`AccidentallyZeroElement` (|w| below ``1e-8 * N``).
    """
    a, b = check_levels(pair, spec.n, "pair")
    if any(g != 0.0 for g in spec.gamma_profile):
        raise ValueError("prediction starts from the gain-free chain")
    sp = sector_spectra(sector_blocks(spec), spec.n)[0]
    if isinstance(sp, Exception):
        raise sp
    la, lb = sp.levels[a], sp.levels[b]
    if la.z2_index is None or lb.z2_index is None:
        raise IndexIllDefined("pair indices undefined at the gain-free point")
    w = complex(np.vdot(lb.left, gain_diagonal(spec) * la.right))
    floor = 1e-8 * spec.n
    if abs(w) < floor:
        raise AccidentallyZeroElement(abs(w), floor)
    gap = abs((lb.eigenvalue - la.eigenvalue).real)
    return gap / (2.0 * abs(w))


# ---------------------------------------------------------------------------
# third-order points


@dataclass(frozen=True)
class TriplePairing:
    """Pairing state of a tracked triple at one parameter point.

    ``kind`` is 'none' (all real), 'low-mid' or 'mid-up' (two members form a
    conjugate pair, named by the position of the real spectator), or
    'external' (a member pairs with a level outside the triple).
    """

    kind: str


def _classify_triple(sp: BiorthoSpectrum, tri_cols) -> TriplePairing:
    cols = [int(c) for c in tri_cols]
    partner = sp.partner[cols].tolist()
    if not set(partner) <= {-1, *cols}:
        return TriplePairing("external")
    if partner == [-1, -1, -1]:
        return TriplePairing("none")
    # links are mutual: two members form the pair, and the unlinked one is the spectator
    first, spect = (cols[0] if partner[0] >= 0 else cols[1]), cols[partner.index(-1)]
    pair_below = sp.eigenvalues[first].real < sp.eigenvalues[spect].real
    return TriplePairing("low-mid" if pair_below else "mid-up")


def _march(line, state, values):
    """``state`` (spectrum, track columns) followed through ``values`` on ``line``."""
    sp, cols = state
    for sp, cols, _ in _follow(_solve_values(line, values), sp, cols):
        pass
    return sp, cols


def _rungs(start: float, stop: float) -> np.ndarray:
    """Values after ``start`` up to ``stop``, in equal steps of at most ``GAIN_RUNG``."""
    return np.linspace(start, stop, math.ceil(abs(stop - start) / GAIN_RUNG) + 1)[1:]


def _march_probe(line: _Line, gamma: float):
    """Spectrum and track columns at ``gamma`` on the gain ``line``, by a gain
    march from zero gain, where the tracks are the energy ranks."""
    steps = max(4, int(math.ceil(gamma / GAIN_RUNG)))
    return _march(line, (None, None), np.linspace(0.0, gamma, steps + 1))


def triple_pairing(n: int, j_value: float, gamma: float, triple) -> TriplePairing:
    """Pairing state of three levels (zero-gain energy ranks) at one point,
    classified at the library's default tolerances."""
    triple = check_levels(triple, check_chain_length(n), "triple")
    check_normalized(j_value, gamma)
    sp, cols = _march_probe(_Line(AXIS_GAIN, j_value, n, None, INDICATOR_FLOOR), gamma)
    return _classify_triple(sp, cols[list(triple)])


def _all_real(sp: BiorthoSpectrum, cols) -> bool:
    """True when the levels in ``cols`` are real and unpaired."""
    return bool(np.all(sp.partner[cols] < 0)
                and np.all(np.abs(sp.eigenvalues[cols].imag) <= sp.reality_tol))


def _triple_reality_boundary(sp: BiorthoSpectrum, cols, p_real: float, p_cplx: float, tol: float):
    """Bisect the parameter where a tracked triple stops being all-real.

    A refinement (see :func:`_tracked`) from the triple's columns ``cols`` of
    ``sp``, solved at ``p_real``. Returns the boundary and the
    :class:`TriplePairing` kind just outside it.
    """
    pr, pc, real, outside = yield from _tracked(sp, cols, p_real, p_cplx, tol, _all_real)
    if outside is None:
        sp = yield pc
        outside = sp, _matched(real, sp)
    return 0.5 * (pr + pc), _classify_triple(*outside).kind


@dataclass(frozen=True, eq=False)
class _Wedge:
    """The all-real interval of a triple at one gain, with the state a march
    to the next gain starts from: ``anchor`` is (coupling, spectrum, track
    columns) at an all-real sample."""

    gamma: float
    j_lo: float
    j_hi: float
    indices: tuple
    edge_kinds: tuple
    edge_tol: float
    anchor: tuple

    @property
    def centre(self) -> float:
        return 0.5 * (self.j_lo + self.j_hi)

    @property
    def width(self) -> float:
        return self.j_hi - self.j_lo


def _find_wedge(line: _Line, state, centre: float, h: float, reach: int, triple,
                j_tol: float) -> _Wedge | None:
    """Locate the all-real interval of the triple on the fixed-gain ``line``.

    Samples ``centre + k*h`` for ``|k| <= reach`` (those in [-1, 1]), marched
    outward from ``state``, the spectrum and track columns at ``centre``. A
    run of all-real samples that reaches the outermost sample on a side goes
    on ``reach`` samples further there, up to ``_MAX_GROWTH`` rounds in all,
    and an edge still at the outermost sample stays there. The widest run,
    the first of equal ones, is the interval; both its edges are bisected
    together, to ``_EDGE_FRACTION`` of the width its samples allow but never
    finer than ``j_tol``. None when no sample is all-real.
    """
    tri = list(triple)
    states = {0: state}
    last = {-1: 0, 1: 0}  # outermost k sampled on each side
    grow = (-1, 1)
    for _ in range(_MAX_GROWTH):
        if not grow:
            break
        parts = {side: [k for k in range(last[side] + side, last[side] + side * (reach + 1), side)
                        if abs(centre + k * h) <= 1.0] for side in grow}
        parts = {side: ks for side, ks in parts.items() if ks}
        # both sides share one stacked solve, then each is followed from its own end
        spectra = list(_solve_values(line, [centre + k * h for ks in parts.values() for k in ks]))
        for side, ks in parts.items():
            mine, spectra = spectra[:len(ks)], spectra[len(ks):]
            for k, (sp, cols, _) in zip(ks, _follow(mine, *states[last[side]])):
                states[k] = sp, cols
            last[side] = ks[-1]
        ks = sorted(states)
        real_mask = [int(_all_real(states[k][0], states[k][1][tri])) for k in ks]
        if not any(real_mask):
            return None
        # widest run of all-real samples, the first of equal ones
        edges = np.flatnonzero(np.diff([0, *real_mask, 0])).tolist()
        lo, hi = max(zip(edges[::2], edges[1::2]), key=lambda r: r[1] - r[0])
        lo, hi = ks[lo], ks[hi - 1]
        grow = tuple(side for side, end in ((-1, lo), (1, hi))
                     if end == last[side] and parts.get(side))

    # the anchor: the all-real sample nearest the centre. March labels can swap
    # inside complex bubbles; the physical roles (lower, middle, upper) are the
    # energy order inside the interval
    k_a = min(max(0, lo), hi)
    sp, cols = states[k_a]
    order = np.argsort(sp.eigenvalues[cols[tri]].real, kind="stable")
    indices = tuple(int(i) for i in sp.z2[cols[tri][order]])

    tol = max(j_tol, _EDGE_FRACTION * (hi - lo + 2) * h)
    ends = [(lo, lo - 1), (hi, hi + 1)]
    inner = [(i, o) for i, o in ends if o in states]
    refined = dict(zip(inner, _lockstep(partial(_solve_values, line), [_triple_reality_boundary(
        states[i][0], states[i][1][tri], centre + i * h, centre + o * h, tol) for i, o in inner])))
    (j_left, kind_left), (j_right, kind_right) = [
        refined.get(end, (centre + end[0] * h, "edge")) for end in ends]
    return _Wedge(gamma=line.fixed_value, j_lo=j_left, j_hi=j_right, indices=indices,
                  edge_kinds=(kind_left, kind_right), edge_tol=tol,
                  anchor=(centre + k_a * h, sp, cols))


def _next_probe(wedges: list[_Wedge], g_gone: float, weights, g_tol: float):
    """The next gain probe of :func:`find_ep3`: (gain, window centre, spacing, reach).

    Near the collision the interval's width w follows the cusp law: w^(2/3)
    falls linearly to zero, and the centre moves linearly. The probe is the
    regula falsi point of w^(2/3) between the last interval's gain and the
    gain where none is left, whose value is the law's extrapolation through
    the last two intervals; ``weights`` are the Illinois factors of the two
    ends. It keeps ``_AIM_OFF`` of the distance from the last interval to the
    predicted collision, and at least 0.4 * g_tol, off that collision, where
    the predicted interval would be too narrow to sample; once the last
    interval is that close, it goes past the collision instead. The window is
    centred on the predicted centre, sampled at a quarter of the predicted
    width (or coarser, to keep within ``_MAX_REACH`` samples a side), and
    reaches twice that width beyond the centre's uncertainty: the curvature
    of the path of the last three centres, or half the predicted drift, plus
    the edges' tolerance. Until the law can be read (one interval, or widths
    that do not fall), the probe goes up an eighth of the last width (a
    quarter of the bracket at most): if each edge moves no faster than twice
    the gain, at least half the width is left, and the window, sampled at an
    eighth of the last width, spans that drift.
    """
    w1 = wedges[-1]
    g1, f1 = w1.gamma, w1.width ** (2 / 3)
    if len(wedges) > 1:
        w0 = wedges[-2]
        g0, step = w0.gamma, w1.gamma - w0.gamma
        slope = (f1 - w0.width ** (2 / 3)) / step
    if len(wedges) < 2 or not slope < 0:
        h = 0.125 * max(w1.width, w1.edge_tol)
        g = g1 + min(0.25 * (g_gone - g1), h)
        return g, w1.centre, h, math.ceil((0.5 * w1.width + 2.0 * (g - g1)) / h)

    root = g1 - f1 / slope
    beyond = f1 + slope * (g_gone - g1)
    f_exist, f_gone = weights[0] * f1, weights[1] * (beyond if beyond < 0 else -f1)
    g = (g1 * f_gone - g_gone * f_exist) / (f_gone - f_exist)
    aim_off = max(0.4 * g_tol, _AIM_OFF * (root - g1))
    if abs(g - root) < aim_off:
        below = g <= root and root - g1 >= 2.0 * aim_off
        g = root - aim_off if below else root + aim_off
    if not g1 < g < g_gone:
        g = 0.5 * (g1 + g_gone)
    width = (-slope * max(abs(g - root), aim_off)) ** 1.5

    drift = (w1.centre - w0.centre) / step
    if len(wedges) > 2:
        wa = wedges[-3]
        curvature = (drift - (w0.centre - wa.centre) / (g0 - wa.gamma)) / (g1 - wa.gamma)
        spread = 2.0 * abs(curvature * (g - g0) * (g - g1))
    else:
        spread = 0.5 * abs(drift * (g - g1))
    lever = (g - g1) / step
    spread += w1.edge_tol * (1.0 + lever) + w0.edge_tol * lever
    span = 2.0 * width + spread
    h = max(0.25 * width, span / _MAX_REACH)
    return g, w1.centre + drift * (g - g1), h, math.ceil(span / h)


def find_ep3(n: int, j_bracket, gamma_bracket, triple, j_tol: float = EP3_J_TOL,
             g_tol: float = EP3_GAMMA_TOL, reality_tol=None,
             indicator_floor: float = INDICATOR_FLOOR) -> EPRecord:
    """Localize a third-order point as the collision of two tracked boundaries.

    At fixed gain below the collision, the triple (zero-gain energy ranks,
    middle entry = shared level) is all-real on a coupling interval, the
    wedge, bounded by the two second-order boundaries that share the middle
    level. The wedge closes as the gain rises, by the cusp law: its width
    w^(2/3) falls linearly to zero and its centre moves linearly. The first
    wedge is sampled across ``j_bracket``, padded by half its width on each
    side, at ``gamma_bracket[0]``, its triple labelled by a gain march from
    zero gain. The wedge must be gone at ``gamma_bracket[1]``. Between them a
    regula falsi on w^(2/3) with the Illinois modification (see
    :func:`_next_probe`) keeps a bracket of a gain with a wedge and a gain
    without one, until it is no wider than ``g_tol``. Each probe labels the
    triple by a short march from the last wedge's anchor sample, and samples
    a window of the predicted wedge; an empty window means no wedge. Every
    wedge's edges are bisected to a fraction of its width, never finer than
    ``j_tol``.

    The record's gain is the middle of the final bracket and its coupling is
    the last wedge's centre moved along the drift to that gain. Its indices
    are read inside the last wedge where the indicators of all three levels
    resolve them, its residual is the last wedge's width, and its bracket
    width is the final gain bracket. A chain length that is not a
    positive even integer, a bracket that is not two finite rising values on
    its axis, or a tolerance that a :class:`SweepGrid` rejects raises
    ValueError, before any solve.
    """
    triple = check_levels(triple, check_chain_length(n), "triple")
    j_lo, j_hi = _window(AXIS_COUPLING, j_bracket, "j_bracket")
    g_lo, g_hi = _window(AXIS_GAIN, gamma_bracket, "gamma_bracket")
    pad = 0.5 * (j_hi - j_lo)
    window = (max(-1.0, j_lo - pad), min(1.0, j_hi + pad))

    line = _Line(AXIS_COUPLING, g_lo, n, reality_tol, indicator_floor)
    _check_tolerances(line)
    centre, half = 0.5 * (window[0] + window[1]), EP3_SAMPLES // 2
    state = _march_probe(line._replace(axis=AXIS_GAIN, fixed_value=centre), g_lo)
    wedge = _find_wedge(line, state, centre, (window[1] - window[0]) / (2 * half), half,
                        triple, j_tol)
    if wedge is None:
        raise NoEP3InBox(
            f"triple {triple} has no all-real interval at gamma={g_lo:.6g} in {window}")
    wedges = [wedge]

    def probe(g: float, centre: float, h: float, reach: int) -> _Wedge | None:
        j_a, sp, cols = wedges[-1].anchor
        state = _march(line._replace(axis=AXIS_GAIN, fixed_value=j_a), (sp, cols),
                       _rungs(wedges[-1].gamma, g))
        at_g = line._replace(fixed_value=g)
        return _find_wedge(at_g, _march(at_g, state, _rungs(j_a, centre)), centre, h, reach,
                           triple, j_tol)

    reach = max(2.0 * wedge.width, 2.0 * (g_hi - g_lo), 1e-4)
    if probe(g_hi, wedge.centre, reach / half, half) is not None:
        raise NoEP3InBox(
            f"the all-real interval persists at gamma={g_hi:.6g}; "
            "the boundaries collide above the box")

    g_gone, weights, found_last = g_hi, [1.0, 1.0], None
    for _ in range(200):
        g_exist = wedges[-1].gamma
        if not g_gone - g_exist > g_tol:
            break
        g, *plan = _next_probe(wedges, g_gone, weights, g_tol)
        if g in (g_exist, g_gone):  # the bracket is down to adjacent floats
            break
        found = probe(g, *plan)
        # Illinois: an end kept twice in a row counts half
        if found is not None:
            wedges.append(found)
            weights[0] = 1.0
            if found_last:
                weights[1] *= 0.5
        else:
            g_gone = g
            weights[1] = 1.0
            if found_last is False:
                weights[0] *= 0.5
        found_last = found is not None

    wedge = wedges[-1]
    kinds = set(wedge.edge_kinds)
    if kinds != {"low-mid", "mid-up"}:
        raise NoEP3InBox(
            f"interval at gamma={wedge.gamma:.6g} is not bounded by the two "
            f"boundaries sharing the middle level (edge kinds {wedge.edge_kinds})")
    # the indicators vanish as the three levels coalesce: the indices are the
    # last ones that every level of the triple resolves
    indices = [w.indices for w in wedges if all(i in (-1, 1) for i in w.indices)]
    if not indices:
        raise NoEP3InBox("triple indices are not resolved inside the interval")

    g_star = 0.5 * (wedge.gamma + g_gone)
    j_star = wedge.centre
    if len(wedges) > 1:
        w0 = wedges[-2]
        j_star += (wedge.centre - w0.centre) / (wedge.gamma - w0.gamma) * (g_star - wedge.gamma)
    return EPRecord(order=3,
                    location={AXIS_COUPLING: float(j_star), AXIS_GAIN: float(g_star)},
                    levels=triple, indices=indices[-1],
                    residual=float(wedge.width),
                    bracket_width=float(g_gone - wedge.gamma))


def _candidate_probe(grid: SweepGrid) -> dict:
    """First merge partner and gain for every level along one gain ``grid``;
    a ladder at j = 0 that stays below g = 1 is answered without a solve."""
    # at j = 0 the spins decouple and every level is (N - 2k) sqrt(1 - g^2),
    # real for g < 1: no level has a reality transition, so none merges
    if grid.fixed_value == 0.0 and grid.points[-1] < 1.0:
        return {}
    tracks = sweep(grid)
    first: dict[int, tuple[float, int]] = {}
    for a, b, p, side in reality_transitions(tracks):
        if side == "hi":
            gmid = 0.5 * (grid.points[p] + grid.points[p + 1])
            first.setdefault(a, (gmid, b))
            first.setdefault(b, (gmid, a))
    return first


# The coupling mirror H(-j) = -C conj(H(j)) C, C = prod sz: the spectrum at -j is
# minus the conjugate of that at j, so level k there is level 2^n - 1 - k here,
# with the same index, and the energy order of a triple reverses. Coupling
# values map to 0.0 - j, which is -j without a negative zero.


def _mirror_levels(levels, n: int) -> tuple[int, ...]:
    """``levels`` (in energy order) of the mirrored point, in energy order."""
    top = (1 << n) - 1
    return tuple(top - k for k in reversed(levels))


def _mirror_record(record: EPRecord, n: int) -> EPRecord:
    location = record.location | {AXIS_COUPLING: 0.0 - record.location[AXIS_COUPLING]}
    return EPRecord(order=record.order, location=location,
                    levels=_mirror_levels(record.levels, n), indices=record.indices[::-1],
                    residual=record.residual, bracket_width=record.bracket_width)


def _bracket_candidates(left: dict, right: dict, j_bracket, g_floor: float,
                        g_hi: float) -> list[dict]:
    """The candidates of one coupling bracket, from the first merges of its two
    probes (see :func:`find_ep3_candidates`), in triple order."""
    triples = []
    for mid in sorted(set(left) & set(right)):
        g_a, part_a = left[mid]
        g_b, part_b = right[mid]
        if part_a == part_b or mid in (part_a, part_b):
            continue
        if not (g_floor <= g_a <= g_hi and g_floor <= g_b <= g_hi):
            continue
        lo_part, up_part = sorted((part_a, part_b))
        triples.append((lo_part, mid, up_part))
    # near a collision the tracks of all three levels can switch partners
    # within one rung; two middles of one level set in one bracket name one
    # collision, so the first in order stands for both
    merged: dict = {}
    for triple in sorted(triples):
        merged.setdefault(frozenset(triple), triple)
    return [{"triple": t, "j_bracket": j_bracket} for t in merged.values()]


def _ep3_task(args) -> EPRecord | NoEP3InBox:
    """One candidate's :func:`find_ep3`: its record, or the NoEP3InBox it raised."""
    n, candidate, gamma_window, kw = args
    try:
        return find_ep3(n, candidate["j_bracket"], gamma_window, candidate["triple"], **kw)
    except NoEP3InBox as exc:
        return exc.with_traceback(None)


def _ep3_search(n: int, j_window, gamma_window, probes, workers: int, tols: dict,
                refine: dict | None) -> tuple:
    """The candidates of :func:`find_ep3_candidates`, and, unless ``refine`` is
    None, each one's :func:`find_ep3` record or the NoEP3InBox it raised, in
    candidate order; any other error is raised.

    ``tols`` (``reality_tol`` and ``indicator_floor``) goes to every solve, and
    ``refine`` to every :func:`find_ep3` besides.

    The probes and the refinements share one :class:`_Pool`. It gets a probe
    per worker at first, then the next each time one is in, after the
    refinements that one frees, so a refinement waits only behind the probes
    already running. Once both probes of a bracket are in, and those of its
    mirror bracket, which holds the twins (coupling mirrors) of its
    candidates, their candidates go to refinement at once. Of two twins,
    only the one with the lower ``(j_bracket, triple)`` key is refined, and the
    other's entry is the mirror of its record; where it raised NoEP3InBox, the
    other is refined as soon as that is in, so that its message is its own.
    Each candidate is refined whole in one worker, so the entries are the same
    for any worker count.
    """
    j_lo, j_hi = _window(AXIS_COUPLING, j_window, "j_window")
    g_lo, g_hi = _window(AXIS_GAIN, gamma_window, "gamma_window")
    if isinstance(probes, bool) or not isinstance(probes, (int, np.integer)) or probes < 2:
        raise ValueError(f"probes must be an integer >= 2, got {probes!r}")
    g_floor = g_lo - (g_hi - g_lo)
    j_vals = np.linspace(j_lo, j_hi, probes)
    mirrored = j_lo == -j_hi
    if mirrored:  # exactly symmetric, which linspace is not
        lower = j_vals[:probes // 2]
        j_vals = np.concatenate([lower, [0.0] * (probes % 2), -lower[::-1]])
    j_vals = [float(j) for j in j_vals]
    ladder = tuple(np.linspace(0.0, g_hi, EP3_CANDIDATE_STEPS + 1))
    grids = [SweepGrid(AXIS_GAIN, j, ladder, n, **tols)
             for j in j_vals[:(probes + 1) // 2 if mirrored else probes]]
    brackets = list(zip(j_vals, j_vals[1:]))
    index = {bracket: b for b, bracket in enumerate(brackets)}
    mirror = [index.get((0.0 - hi, 0.0 - lo)) for lo, hi in brackets]
    top = (1 << n) - 1
    first: list = [None] * probes  # first merges per probe
    found: dict = {}  # candidates per bracket
    results: dict = {}  # (j_bracket, triple) -> EPRecord or NoEP3InBox
    waiting: dict = {}  # key of a refined candidate -> its twin's key
    with _Pool(workers, len(grids)) as pool:
        def submit(key: tuple) -> None:
            candidate = {"j_bracket": key[0], "triple": key[1]}
            pool.submit(_ep3_task, (n, candidate, gamma_window, refine | tols), key)

        queued = iter(enumerate(grids))  # one more goes out per probe in, so pending stays > 0
        for i, grid in islice(queued, max(workers, 1)):
            pool.submit(_candidate_probe, grid, i)
        while pool.pending:
            tag, result = pool.next()
            if isinstance(tag, tuple):  # a refinement, tagged with its candidate's key
                results[tag] = result
                twin = waiting.pop(tag, None)
                if twin is not None and isinstance(result, EPRecord):
                    results[twin] = _mirror_record(result, n)
                elif twin is not None:
                    submit(twin)
                continue
            first[tag] = result
            ends = [tag]
            if mirrored and tag < probes // 2:  # and its mirror, the probe at -j
                ends.append(probes - 1 - tag)
                first[ends[1]] = {top - k: (g, top - p) for k, (g, p) in result.items()}
            for b in sorted({e - 1 for e in ends} | set(ends)):
                if b in found or not 0 <= b < probes - 1 or None in first[b:b + 2]:
                    continue
                found[b] = _bracket_candidates(first[b], first[b + 1], brackets[b],
                                               g_floor, g_hi)
                # refined with those of the mirror bracket, which holds their twins
                group = {b, mirror[b]} - {None}
                if refine is None or not group <= found.keys():
                    continue
                keys = [(c["j_bracket"], c["triple"]) for g in sorted(group) for c in found[g]]
                for key in keys:
                    (lo, hi), triple = key
                    twin = ((0.0 - hi, 0.0 - lo), _mirror_levels(triple, n))
                    if twin in keys and twin < key:
                        waiting[twin] = key
                    else:
                        submit(key)
            for i, grid in islice(queued, 1):
                pool.submit(_candidate_probe, grid, i)
    candidates = sorted((c for cands in found.values() for c in cands),
                        key=lambda c: (c["triple"], c["j_bracket"]))
    if refine is None:
        return candidates, None
    return candidates, [results[(c["j_bracket"], c["triple"])] for c in candidates]


def find_ep3_candidates(n: int, j_window, gamma_window, probes: int = 33,
                        workers: int = 1, reality_tol=None,
                        indicator_floor: float = INDICATOR_FLOOR) -> list[dict]:
    """Coarse scan for levels that switch first-merge partners with the coupling.

    A third-order point announces itself by a shared (middle) level whose
    first merge happens with one neighbor on one side of the collision
    coupling and with another neighbor on the other side. Candidates are
    kept when the first-merge gains of both flanking probes reach at most
    ``gamma_window[1]`` and not less than one window-width below
    ``gamma_window[0]`` (the boundary gain sinks steeply away from the
    collision, so the coarse probes routinely undershoot the window).
    Each candidate carries a (lower, middle, upper) triple and a coupling
    bracket, ready for :func:`find_ep3`; they come sorted by triple, then
    bracket.

    A window symmetric about j = 0 gets an exactly symmetric probe grid: the
    probes with j <= 0 are run and the others are their coupling mirrors,
    so the candidates are those of a scan that solves every probe of that
    grid. Any other window runs every probe. Of either grid, a probe at j = 0
    whose ladder stays below g = 1 has no merge and is not solved. The probes
    run on one pool of ``workers`` processes, handed out as workers free up.
    ``find-ep --order 3`` runs this scan on the same pool as the refinements
    of its candidates, each of which goes ahead of the probes not yet handed
    out as soon as the probes of its bracket are in.
    Windows that are not two finite rising values on their axes, and fewer
    than two probes, raise ValueError.
    """
    tols = {"reality_tol": reality_tol, "indicator_floor": indicator_floor}
    return _ep3_search(n, j_window, gamma_window, probes, workers, tols, None)[0]


def verify_selection_rule(records) -> list[dict]:
    """Check every record against the index selection rules.

    Each record needs one defined index per level of its order: order-2
    records must join opposite indices, order-3 records must carry a
    staggered signature (s, -s, s). Returns the list of violations (empty on
    success); violations are data, not errors.
    """
    violations = []
    for rec in records:
        idx = rec.indices
        if any(i not in (-1, 1) for i in idx):
            reason = "undefined index"
        elif rec.order not in (2, 3):
            reason = f"unsupported order {rec.order}"
        elif len(idx) != rec.order:
            reason = "index count does not match order"
        elif rec.order == 2 and idx[0] == idx[1]:
            reason = "second-order point with equal indices"
        elif rec.order == 3 and not idx[0] == idx[2] == -idx[1]:
            reason = "third-order point without staggered signature"
        else:
            continue
        violations.append({"record": rec.to_dict(), "reason": reason})
    return violations
