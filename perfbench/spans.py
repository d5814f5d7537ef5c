"""In-memory spans around the public functions of each pshchain layer.

The package modules import their collaborators by name (``from .model import
build_hamiltonian``), so a wrapper only sees a call when it replaces the name
the *caller* looks up. :func:`install` patches those names; every call then
records one span (layer name, start, end, parent span, and a few facts read
from the return value). Spans stay in a list until :func:`layer_metrics`
reduces them, after the traced run has finished.

Self time is a span's duration minus the time covered by its direct child
spans. Only calls made in this process are seen, so traced runs are serial.
"""

from __future__ import annotations

import functools
import time

# Span layer names.
BUILD_H = "model.build_hamiltonian"
BUILD_P = "model.build_parity"
EIG = "numerics.eig_general"
SOLVE = "biortho.spectrum_with_indices"
SWEEP = "epscan.sweep"
ASSIGN = "epscan.assign"
EP2 = "epscan.ep2"
EP3_CAND = "epscan.ep3_candidates"
EP3 = "epscan.ep3"
#: Layers that own solves: every solve is charged to its nearest such ancestor.
SOLVE_OWNERS = (SWEEP, EP2, EP3_CAND, EP3)


class Span:
    __slots__ = ("name", "start", "end", "parent", "info", "raised")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None
        self.raised = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Span list plus the stack of open spans (single-threaded use only)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, inspect=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.raised = type(exc).__name__
                raise
            finally:
                self._open.pop()
            span.end = time.perf_counter()
            if inspect is not None:
                span.info = inspect(result)
            return result

        return traced


def _eig_info(es):
    return (es.dim, float(es.cond_right))


def _solve_info(sp):
    # residual of the rescaled left/right sets the solve hands to its callers;
    # the raw LAPACK vectors that eig_general returns are not biorthonormal
    return float(sp.eigensystem.biortho_residual)


def _sweep_info(tracks):
    return (sum(len(t.breaks) for t in tracks),
            min(t.continuity_score for t in tracks))


def _ep2_info(result):
    records, skipped = result
    return (len(records), len(skipped))


# (layer, function name, modules whose global name is replaced, inspector)
_TARGETS = (
    (BUILD_H, "build_hamiltonian", ("epscan", "cli"), None),
    (BUILD_P, "build_parity", ("epscan", "cli"), None),
    (EIG, "eig_general", ("biortho",), _eig_info),
    (SOLVE, "spectrum_with_indices", ("epscan", "cli"), _solve_info),
    (ASSIGN, "linear_sum_assignment", ("epscan",), None),
    (SWEEP, "sweep", ("epscan", "cli"), _sweep_info),
    (EP2, "locate_ep2_records", ("epscan", "cli"), _ep2_info),
    (EP3_CAND, "find_ep3_candidates", ("epscan", "cli"), len),
    (EP3, "find_ep3", ("epscan", "cli"), None),
)


def install(recorder: Recorder) -> None:
    """Replace each traced function at every name its callers look up."""
    import importlib

    for layer, attr, modules, inspect in _TARGETS:
        mods = [importlib.import_module(f"pshchain.{m}") for m in modules]
        original = getattr(mods[0], attr)
        traced = recorder.wrap(layer, original, inspect)
        for mod in mods:
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"{mod.__name__}.{attr} is not the shared "
                                   "function; the trace would miss calls")
            setattr(mod, attr, traced)


def _self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _owner(spans: list[Span], i: int):
    p = spans[i].parent
    while p >= 0 and spans[p].name not in SOLVE_OWNERS:
        p = spans[p].parent
    return spans[p].name if p >= 0 else None


def _ratio(num, den) -> float:
    """num / den; 0.0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], main_from: int, main_wall: float, n: int) -> dict:
    """Per-layer counts and self times of one traced CLI call.

    ``spans[main_from:]`` belong to the CLI call; earlier spans come from the
    process set-up and only enter the parity-build metrics, which count the
    whole process because the parity matrix is built once and cached.
    """
    self_s = _self_times(spans)
    main = range(main_from, len(spans))

    def calls(name, idx=main):
        return sum(1 for i in idx if spans[i].name == name)

    def self_time(name, idx=main):
        return sum(self_s[i] for i in idx if spans[i].name == name)

    solves = {owner: 0 for owner in SOLVE_OWNERS}
    for i in main:
        if spans[i].name == SOLVE:
            owner = _owner(spans, i)
            if owner is not None:
                solves[owner] += 1

    def infos(name):
        return [spans[i].info for i in main
                if spans[i].name == name and spans[i].info is not None]

    eig, sweeps, ep2, cand = infos(EIG), infos(SWEEP), infos(EP2), infos(EP3_CAND)
    residuals = infos(SOLVE)
    ep3_calls = [spans[i] for i in main if spans[i].name == EP3]
    ep3_records = sum(1 for s in ep3_calls if s.raised is None)
    ep2_records = sum(r for r, _ in ep2)
    ep2_skipped = sum(k for _, k in ep2)
    top = sum(spans[i].duration for i in main if spans[i].parent < 0)

    return {
        f"{BUILD_H}.calls": calls(BUILD_H),
        f"{BUILD_H}.self_s": self_time(BUILD_H),
        f"{BUILD_H}.bytes_computed": calls(BUILD_H) * 16 * 4 ** n,
        f"{BUILD_P}.calls": calls(BUILD_P, range(len(spans))),
        f"{BUILD_P}.self_s": self_time(BUILD_P, range(len(spans))),
        f"{EIG}.calls": calls(EIG),
        f"{EIG}.self_s": self_time(EIG),
        f"{EIG}.dim": max((d for d, _ in eig), default=0),
        f"{EIG}.cond_right_max": max((c for _, c in eig), default=0.0),
        f"{EIG}.biortho_residual_max": max(residuals, default=0.0),
        f"{SOLVE}.calls": calls(SOLVE),
        f"{SOLVE}.self_s": self_time(SOLVE),
        f"{SOLVE}.at_ep_raised": sum(1 for i in main if spans[i].name == SOLVE
                                     and spans[i].raised == "AtExceptionalPoint"),
        f"{SWEEP}.self_s": self_time(SWEEP),
        f"{SWEEP}.solves": solves[SWEEP],
        "epscan.track_breaks": sum(b for b, _ in sweeps),
        "epscan.min_overlap": min((o for _, o in sweeps), default=0.0),
        f"{ASSIGN}.calls": calls(ASSIGN),
        f"{ASSIGN}.self_s": self_time(ASSIGN),
        f"{EP2}.solves": solves[EP2],
        f"{EP2}.self_s": self_time(EP2),
        f"{EP2}.records": ep2_records,
        f"{EP2}.skipped": ep2_skipped,
        f"{EP2}.useful_ratio": _ratio(ep2_records, ep2_records + ep2_skipped),
        f"{EP2}.solves_per_record": _ratio(solves[EP2], ep2_records),
        f"{EP3_CAND}.solves": solves[EP3_CAND],
        f"{EP3_CAND}.self_s": self_time(EP3_CAND),
        f"{EP3_CAND}.count": sum(cand),
        f"{EP3}.solves": solves[EP3],
        f"{EP3}.self_s": self_time(EP3),
        f"{EP3}.records": ep3_records,
        f"{EP3}.useful_ratio": _ratio(ep3_records, len(ep3_calls)),
        f"{EP3}.solves_per_record": _ratio(solves[EP3], ep3_records),
        "cli.self_s": main_wall - top,
    }
