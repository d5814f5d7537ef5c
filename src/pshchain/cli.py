"""Configuration-driven command line for spectra, sweeps, and EP searches.

Physical inputs are given in normalized units: the coupling circle is
j_tilde^2 + delta^2 = 1 and gamma_tilde is the staggered gain in the same
units (the ``oracle`` command is the exception and takes raw couplings).
Commands read an optional JSON config file; explicit flags override config
fields. Outputs are CSV (17 significant digits, lossless double round-trip)
or JSON; sweeps also write their exceptional-point records to a sibling
JSON file.

Exit codes: 0 success, 1 usage or config error, 2 numeric failure,
3 invariant violation (e.g. a selection-rule breach).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .biortho import INDICATOR_FLOOR, IndexIllDefined, sector_spectra
from .epscan import (AMBIGUOUS_GAP, AXIS_COUPLING, AXIS_GAIN, AXIS_RANGE, BISECT_TOL,
                     EP3_GAMMA_TOL, EP3_J_TOL, AccidentallyZeroElement, EPRecord, NoEP3InBox,
                     NoEPInBracket, SweepGrid, _ep3_search, _Pool, check_levels,
                     classify_crossings, find_ep3, locate_ep2_records, rises_on_axis,
                     sweep, verify_selection_rule)
from .model import ChainSpec, NormalizedPoint, check_chain_length, sector_blocks
from .numerics import AtExceptionalPoint
from .oracle import full_spectrum

# Not called here: the benchmark's span tracer (perfbench/spans.py) patches
# these names, which this module shares with epscan.
from .biortho import spectrum_with_indices  # noqa: F401
from .epscan import find_ep3_candidates  # noqa: F401
from .model import build_hamiltonian, build_parity  # noqa: F401

TOLERANCE_NAMES = frozenset({
    "reality_tol", "indicator_floor", "bisect_tol", "ep3_gamma_tol", "ambiguous_gap",
})
#: Gain values of the default verification grid.
DEFAULT_GAMMAS = (0.05, 0.21, 0.40125, 0.48375)
#: Each axis's span where no start or stop is given.
_DEFAULT_SPAN = {AXIS_COUPLING: (-1.0, 1.0), AXIS_GAIN: (0.0, 1.0)}

_NUMERIC_ERRORS = (AtExceptionalPoint, IndexIllDefined, NoEPInBracket, NoEP3InBox,
                   AccidentallyZeroElement, ArithmeticError)

# Commands that offer a group of flags.
_SPAN = ("sweep", "find-ep", "verify", "crossings")
_LINE = ("sweep", "find-ep")
_EP = ("find-ep",)


class UsageError(Exception):
    """Bad flags or config; maps to exit code 1."""


def _entry(path: str, flag: str | None = None, on: tuple[str, ...] | None = None,
           default=None, **argparse_kw):
    """Declare a config field: its JSON ``path`` ("section.key" or "key"), the
    ``flag`` that overrides it on the commands ``on`` (None: all) and the flag's
    other ``add_argument`` keywords. The annotation is the value type: a tuple
    takes a JSON list and, as a flag, that many values, or one comma-separated
    list for ``tuple[float, ...]``."""
    return field(default=default,
                 metadata={"path": path, "flag": flag, "on": on, "kw": argparse_kw})


@dataclass
class RunConfig:
    """Flattened run configuration; each field declares its JSON path and flag."""

    command: str = _entry("command", default="")
    n: int = _entry("chain.n", "--n", default=4, help="number of spins (even)")
    j_tilde: float | None = _entry("chain.j_tilde", "--jt", ("spectrum",),
                                   help="normalized coupling j_tilde")
    gamma_tilde: float | None = _entry("chain.gamma_tilde", "--gt", ("spectrum",),
                                       help="normalized gain gamma_tilde")
    j: float | None = _entry("chain.j", "--j", ("oracle",), help="coupling (raw units)")
    delta: float | None = _entry("chain.delta", "--delta", ("oracle",),
                                 help="transverse field (raw units)")
    profile: tuple[float, ...] | None = _entry(
        "chain.profile", "--profile", ("spectrum",),
        help="comma-separated per-site gains (overrides --gt)")
    axis: str | None = _entry("grid.axis", "--axis", _LINE, choices=("jt", "gt"),
                              help="swept coordinate")
    fixed_value: float | None = _entry("grid.fixed_value", "--fixed", _LINE,
                                       help="value of the other coordinate")
    start: float | None = _entry("grid.start", "--start", _SPAN)
    stop: float | None = _entry("grid.stop", "--stop", _SPAN)
    points: int | None = _entry("grid.points", "--points", _SPAN)
    gamma_values: tuple[float, ...] | None = _entry(
        "grid.gamma_values", "--gammas", ("verify",), help="comma-separated gain values")
    j_start: float | None = _entry("grid.j_start", "--j-start", _EP)
    j_stop: float | None = _entry("grid.j_stop", "--j-stop", _EP)
    g_start: float | None = _entry("grid.g_start", "--g-start", _EP)
    g_stop: float | None = _entry("grid.g_stop", "--g-stop", _EP)
    order: int | None = _entry("order", "--order", _EP, choices=(2, 3))
    pair: tuple[int, int] | None = _entry("pair", "--pair", _EP, metavar=("A", "B"))
    triple: tuple[int, int, int] | None = _entry("triple", "--triple", _EP,
                                                 metavar=("A", "B", "C"))
    #: Set by ``--tol NAME=VALUE``; names and values are checked below.
    tolerances: dict = field(default_factory=dict, metadata={"path": "tolerances"})
    output_path: str | None = _entry("output.path", "--output",
                                     help="output file path (default: stdout where allowed)")
    output_format: str = _entry("output.format", "--format",
                                ("spectrum", "oracle", "crossings"), default="csv",
                                choices=("csv", "json"), help="output format")
    workers: int = _entry("workers", "--workers", default=1,
                          help="processes of the one pool of verify's gain lines, or of "
                               "find-ep --order 3's probes and refinements; each "
                               "candidate's refinement starts once its bracket's probes "
                               "are in")

    def __post_init__(self):
        if self.command and self.command not in COMMANDS:
            raise UsageError(f"command must be one of {COMMANDS}, got {self.command!r}")
        for name, value in self.tolerances.items():
            if name not in TOLERANCE_NAMES:
                raise UsageError(f"tolerances.{name}: unknown name "
                                 f"(documented: {sorted(TOLERANCE_NAMES)})")
            if not (_is(value, float) and math.isfinite(value) and value >= 0):
                raise UsageError(f"tolerances.{name} must be a finite non-negative "
                                 f"number, got {value!r}")
        if self.output_format not in ("csv", "json"):
            raise UsageError(f"output.format must be 'csv' or 'json', got {self.output_format!r}")
        try:
            check_chain_length(self.n)
        except ValueError as exc:
            raise UsageError(f"chain.n: {exc}") from None
        if not _is(self.workers, int) or self.workers < 1:
            raise UsageError(f"workers must be a positive integer, got {self.workers}")
        if self.gamma_values is not None and len(set(self.gamma_values)) < len(self.gamma_values):
            # a repeated value would sweep its line again and emit its records twice
            raise UsageError(f"grid.gamma_values must be distinct, got {list(self.gamma_values)}")
        if self.order not in (None, 2, 3):
            raise UsageError(f"order must be 2 or 3, got {self.order!r}")
        for name in ("pair", "triple"):
            if getattr(self, name) is not None:
                try:
                    check_levels(getattr(self, name), self.n, name)
                except ValueError as exc:
                    raise UsageError(str(exc)) from None

    def to_dict(self) -> dict:
        out: dict = {section: {} for section in _SECTIONS}
        for key in _SCHEMA:
            value = getattr(self, key.name)
            if value is not None:
                section, _, name = key.path.rpartition(".")
                (out[section] if section else out)[name] = (
                    list(value) if isinstance(value, tuple)
                    else dict(value) if isinstance(value, dict) else value)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise UsageError(f"config must be a JSON object, got {d!r}")
        flat = {}
        for name, value in d.items():
            if name not in _SECTIONS:
                flat[name] = value
            elif isinstance(value, dict):
                flat.update((f"{name}.{k}", v) for k, v in value.items())
            else:
                raise UsageError(f"{name} must be an object, got {value!r}")
        unknown = sorted(flat.keys() - _BY_PATH.keys())
        if unknown:
            raise UsageError(f"{unknown[0]}: unknown config field")
        return cls(**{_BY_PATH[path].name: _checked(_BY_PATH[path], value)
                      for path, value in flat.items()})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))

    def tol(self, name: str, default):
        return self.tolerances.get(name, default)

    def solve_tols(self) -> dict:
        """The solve tolerances, for every library call that takes them."""
        return {"reality_tol": self.tol("reality_tol", None),
                "indicator_floor": self.tol("indicator_floor", INDICATOR_FLOOR)}


class _Key(typing.NamedTuple):
    """A config field's schema entry, read from its declaration."""

    name: str
    path: str
    kind: type      # the value type, or the element type of a tuple
    count: object   # None for a scalar, the tuple length, or ... for any length
    optional: bool
    flag: str | None
    on: tuple[str, ...] | None
    argparse_kw: dict


def _key(f, hint) -> _Key:
    args = typing.get_args(hint)
    optional = type(None) in args
    if optional:
        (hint,) = (a for a in args if a is not type(None))
    kind, count = hint, None
    if typing.get_origin(hint) is tuple:
        elems = typing.get_args(hint)
        kind, count = elems[0], (... if elems[-1] is ... else len(elems))
    m = f.metadata
    return _Key(f.name, m["path"], kind, count, optional, m.get("flag"), m.get("on"),
                m.get("kw", {}))


_HINTS = typing.get_type_hints(RunConfig)
_SCHEMA = tuple(_key(f, _HINTS[f.name]) for f in fields(RunConfig))
_BY_PATH = {key.path: key for key in _SCHEMA}
_SECTIONS = {key.path.split(".")[0] for key in _SCHEMA if "." in key.path}


def _is(value, kind) -> bool:
    """Whether a JSON value has a field's type; ints count as floats, bools as neither."""
    return not isinstance(value, bool) and isinstance(
        value, (int, float) if kind is float else kind)


def _checked(key: _Key, value):
    """A config value checked against its field's type, a JSON list as a tuple."""
    if value is None and key.optional:
        return None
    if key.count is None and _is(value, key.kind):
        return dict(value) if key.kind is dict else value
    if (key.count is not None and isinstance(value, (list, tuple))
            and key.count in (..., len(value)) and all(_is(x, key.kind) for x in value)):
        return tuple(key.kind(x) for x in value)
    expected = key.kind.__name__ if key.count is None else (
        f"a list of {'' if key.count is ... else f'{key.count} '}{key.kind.__name__}")
    raise UsageError(f"{key.path} must be {expected}, got {value!r}")


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


_FLOAT = "{:.17g}"  # a float CSV cell: 17 significant digits


def _csv_text(header, rows, types=None) -> str:
    """CSV of typed cells: floats as ``_FLOAT``, other values as str. Given
    the type of each column (``types``), every row is written with one format
    string built from them, instead of by each cell's type."""
    lines = [",".join(header)]
    if types is None:
        for row in rows:
            lines.append(",".join(_FLOAT.format(v) if isinstance(v, float) else str(v)
                                  for v in row))
    else:
        line = ",".join(_FLOAT if t is float else "{}" for t in types).format
        lines += [line(*row) for row in rows]
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _table_output(cfg: RunConfig, key: str, header, rows):
    """Write rows as CSV, or as a JSON list of header-keyed objects under ``key``."""
    _write_text(cfg.output_path, _csv_text(header, rows) if cfg.output_format == "csv"
                else _json_text({key: [dict(zip(header, row)) for row in rows]}))


def _records_json(records, skipped) -> dict:
    return {"records": [r.to_dict() for r in records], "skipped": list(skipped)}


def _records_path(path) -> Path:
    """The record JSON beside a sweep's CSV ``path``: same stem, ``.json`` suffix.
    Raises ValueError where that is ``path`` itself."""
    sibling = Path(path).with_suffix(".json")
    if sibling == Path(path):
        raise ValueError(f"output.path {str(path)!r} ends in .json, where the sweep's "
                         f"records go; give the CSV another suffix")
    return sibling


def emit_figure_data(tracks, records, path, skipped=()) -> None:
    """Write sweep tracks as figure-ready CSV plus a sibling record JSON.

    CSV columns: grid_value, level_id, re_eps, im_eps, z2_index
    (-1 / 0 undefined / +1), ep_indicator. The sibling JSON (same stem,
    ``.json`` suffix) carries the refined exceptional-point records, so a
    ``path`` that ends in ``.json`` raises ValueError.
    """
    sibling = _records_path(path)
    grid = tracks[0].grid
    # each track's arrays read once, as Python numbers, which format as numpy's do
    cols = [(tr.level_id, tr.eigenvalues.real.tolist(), tr.eigenvalues.imag.tolist(),
             tr.z2.tolist(), tr.indicator.tolist()) for tr in tracks]
    rows = ((value, level, re[p], im[p], z2[p], indicator[p])
            for p, value in enumerate(grid.points) for level, re, im, z2, indicator in cols)
    header = ("grid_value", "level_id", "re_eps", "im_eps", "z2_index", "ep_indicator")
    _write_text(str(path), _csv_text(header, rows, (float, int, float, float, int, float)))
    _write_text(str(sibling), _json_text(_records_json(records, skipped)))


def _chain_from_config(cfg: RunConfig) -> ChainSpec:
    if cfg.j_tilde is None:
        raise UsageError("chain.j_tilde is required for this command")
    if cfg.profile is not None:
        delta = NormalizedPoint(cfg.j_tilde, 0.0).delta
        return ChainSpec(n=cfg.n, delta=delta, j=cfg.j_tilde, gamma_profile=cfg.profile)
    gt = cfg.gamma_tilde if cfg.gamma_tilde is not None else 0.0
    return NormalizedPoint(cfg.j_tilde, gt).chain(cfg.n)


def _points(cfg: RunConfig, default: int) -> int:
    points = cfg.points if cfg.points is not None else default
    if points < 2:
        raise UsageError("grid.points must be at least 2")
    return points


def _check_on_axis(axis: str, names: tuple[str, ...], values) -> None:
    """Reject values of the config fields ``grid.<names>`` off ``axis``'s range:
    [-1, 1] for the coupling, finite and >= 0 for the gain. Two names, a start
    and a stop, must also rise. The message names the fields and the condition."""
    if not rises_on_axis(axis, values):
        lo, hi = AXIS_RANGE[axis]
        chain = f"{lo:g} <= {' < '.join(names)}" + (f" <= {hi:g}" if hi < math.inf else "")
        raise UsageError(f"grid.{'/'.join(names)} must satisfy {chain}")


def _span_grid(cfg: RunConfig, axis: str, fixed: float, fixed_name: str,
               default_points: int = 801) -> SweepGrid:
    """The config's span along ``axis`` at the value ``fixed`` of the other
    axis (config field ``grid.<fixed_name>``), checked, with the command's
    solve tolerances. An unset start or stop takes the axis's default span:
    -1..1 for the coupling, 0..1 for the gain."""
    start = cfg.start if cfg.start is not None else _DEFAULT_SPAN[axis][0]
    stop = cfg.stop if cfg.stop is not None else _DEFAULT_SPAN[axis][1]
    points = _points(cfg, default_points)
    if not stop > start:
        raise UsageError("grid.stop must exceed grid.start")
    _check_on_axis(axis, ("start", "stop"), (start, stop))
    _check_on_axis(AXIS_GAIN if axis == AXIS_COUPLING else AXIS_COUPLING, (fixed_name,),
                   (fixed,))
    return SweepGrid(axis=axis, fixed_value=float(fixed),
                     points=tuple(np.linspace(start, stop, points)), n=cfg.n,
                     **cfg.solve_tols())


def _grid_from_config(cfg: RunConfig, default_axis=None, default_fixed=None,
                      default_points=801) -> SweepGrid:
    axis = cfg.axis or default_axis
    axis = {"jt": AXIS_COUPLING, "gt": AXIS_GAIN}.get(axis, axis)
    if axis not in AXIS_RANGE:
        raise UsageError(f"grid.axis must be 'jt', 'gt', '{AXIS_COUPLING}' or '{AXIS_GAIN}'")
    fixed = cfg.fixed_value if cfg.fixed_value is not None else default_fixed
    if fixed is None:
        raise UsageError("grid.fixed_value is required for this command")
    return _span_grid(cfg, axis, fixed, "fixed_value", default_points)


def _rule_exit(records) -> int:
    """Exit code for emitted ``records``: 3, reported on stderr, on a selection-rule breach."""
    violations = verify_selection_rule(records)
    if violations:
        sys.stderr.write(f"selection-rule violations: {len(violations)}\n")
        return 3
    return 0


def _cmd_spectrum(cfg: RunConfig) -> int:
    sp = sector_spectra(sector_blocks(_chain_from_config(cfg)), cfg.n, **cfg.solve_tols())[0]
    if isinstance(sp, Exception):  # an exact EP exits 2
        raise sp
    _table_output(cfg, "levels", ("level_id", "re_eps", "im_eps", "z2_index", "ep_indicator"),
                  [(lv.label, lv.eigenvalue.real, lv.eigenvalue.imag, lv.z2_index or 0,
                    lv.ep_indicator) for lv in sp.levels])
    return 0


def _cmd_oracle(cfg: RunConfig) -> int:
    if cfg.j is None or cfg.delta is None:
        raise UsageError("chain.j and chain.delta are required for the oracle command")
    states = full_spectrum(cfg.n, cfg.j, cfg.delta)
    _table_output(cfg, "states", ("level_id", "energy", "parity", "excitations", "occupation"),
                  [(i, s.energy, s.parity, s.r, s.occupation) for i, s in enumerate(states)])
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    if cfg.output_path is None:
        raise UsageError("output.path is required for sweep")
    _records_path(cfg.output_path)  # checked before the sweep, so a refused path costs no solve
    tracks = sweep(_grid_from_config(cfg))
    records, skipped = locate_ep2_records(tracks, tol=cfg.tol("bisect_tol", BISECT_TOL))
    emit_figure_data(tracks, records, cfg.output_path, skipped=skipped)
    return _rule_exit(records)


def _cmd_crossings(cfg: RunConfig) -> int:
    grid = _grid_from_config(cfg, default_axis=AXIS_COUPLING, default_fixed=0.0)
    if grid.axis != AXIS_COUPLING or grid.fixed_value != 0.0:
        raise UsageError("crossings runs on the gain-free coupling axis only")
    recs = classify_crossings(sweep(grid),
                              ambiguous_gap=cfg.tol("ambiguous_gap", AMBIGUOUS_GAP))
    _table_output(cfg, "crossings", ("location", "level_a", "level_b", "index_a", "index_b",
                                     "kind", "gap"),
                  [(c.location, *c.levels, *c.indices, c.kind, c.gap) for c in recs])
    return 0


def _cmd_find_ep(cfg: RunConfig) -> int:
    if cfg.output_path is None:
        raise UsageError("output.path is required for find-ep")
    if cfg.order in (None, 2):
        grid = _grid_from_config(cfg, default_points=401)
        records, skipped = locate_ep2_records(sweep(grid),
                                              tol=cfg.tol("bisect_tol", BISECT_TOL))
        if cfg.pair is not None:
            pair = sorted(cfg.pair)
            records = [r for r in records if list(r.levels) == pair]
            skipped = [s for s in skipped if s["levels"] == pair]
            if not records:
                raise NoEPInBracket(f"no EP2 of pair {pair} on the line" + "".join(
                    f"; {s['bracket']}: {s['reason']}" for s in skipped))
    else:  # order 3
        j_box = (cfg.j_start, cfg.j_stop)
        g_box = (cfg.g_start, cfg.g_stop)
        if any(v is None for v in j_box + g_box):
            raise UsageError("grid.j_start/j_stop/g_start/g_stop are required for order 3")
        _check_on_axis(AXIS_COUPLING, ("j_start", "j_stop"), j_box)
        _check_on_axis(AXIS_GAIN, ("g_start", "g_stop"), g_box)
        probes = _points(cfg, 33)
        tols = cfg.solve_tols()
        refine = {"j_tol": cfg.tol("bisect_tol", EP3_J_TOL),
                  "g_tol": cfg.tol("ep3_gamma_tol", EP3_GAMMA_TOL)}
        if cfg.triple is not None:  # no scan: the triple is refined here
            records, skipped = [find_ep3(cfg.n, j_box, g_box, cfg.triple, **refine, **tols)], []
        else:
            candidates, results = _ep3_search(cfg.n, j_box, g_box, probes, cfg.workers,
                                              tols, refine)
            if not candidates:
                raise NoEP3InBox(f"no candidates in {j_box} x {g_box}")
            records = [r for r in results if isinstance(r, EPRecord)]
            skipped = [{"triple": list(cand["triple"]), "j_bracket": list(cand["j_bracket"]),
                        "reason": str(r)}
                       for cand, r in zip(candidates, results) if isinstance(r, NoEP3InBox)]
            if not records:
                raise NoEP3InBox(f"no collision refined inside {j_box} x {g_box}")
            records.sort(key=EPRecord.sort_key)
    _write_text(cfg.output_path, _json_text(_records_json(records, skipped)))
    return _rule_exit(records)


def _ep2_line(task):
    """The EP2 records and skipped entries of one ``(grid, tol)`` line of verify."""
    grid, tol = task
    return locate_ep2_records(sweep(grid), tol=tol)


def _cmd_verify(cfg: RunConfig) -> int:
    gammas = cfg.gamma_values if cfg.gamma_values is not None else DEFAULT_GAMMAS
    tol = cfg.tol("bisect_tol", BISECT_TOL)
    tasks = [(_span_grid(cfg, AXIS_COUPLING, g, "gamma_values"), tol) for g in gammas]
    records, skipped = [], []
    with _Pool(cfg.workers, len(tasks)) as pool:
        lines = pool.map(_ep2_line, tasks)
    # one line per task, back in line order, so the bytes do not depend on the workers
    for line_records, line_skipped in lines:
        records += line_records
        skipped += line_skipped
    records.sort(key=EPRecord.sort_key)
    violations = verify_selection_rule(records)
    obj = _records_json(records, skipped)
    obj["violations"] = violations
    obj["gamma_values"] = [float(g) for g in gammas]
    obj["n"] = cfg.n
    if cfg.output_path is not None:
        _write_text(cfg.output_path, _json_text(obj))
    n_rec, n_vio = len(records), len(violations)
    sys.stdout.write(f"ep2 records: {n_rec}, selection-rule violations: {n_vio}\n")
    return 3 if n_vio else 0


#: Each command's handler and one-line help.
_COMMANDS = {
    "spectrum": (_cmd_spectrum, "biorthogonal spectrum with indices at one point"),
    "oracle": (_cmd_oracle, "closed-form gain-free spectrum and parities"),
    "sweep": (_cmd_sweep, "track levels along one normalized coordinate"),
    "find-ep": (_cmd_find_ep, "localize exceptional points"),
    "verify": (_cmd_verify, "exhaustive selection-rule check over a grid"),
    "crossings": (_cmd_crossings, "classify gain-free level crossings"),
}
COMMANDS = tuple(_COMMANDS)


def run(config: RunConfig) -> int:
    """Dispatch a validated config; returns the process exit code."""
    if config.command not in _COMMANDS:
        raise UsageError(f"unknown command {config.command!r}")
    return _COMMANDS[config.command][0](config)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pshchain",
                     description="Spectra, Z2 indices, and exceptional points of a "
                                 "pseudo-Hermitian Ising chain")
    sub = parser.add_subparsers(dest="command")
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help=f"named tolerance override; names: {sorted(TOLERANCE_NAMES)}")
        for key in _SCHEMA:
            if key.flag is None or (key.on is not None and command not in key.on):
                continue
            typed = ({"type": _parse_floats} if key.count is ...
                     else {"type": None if key.kind is str else key.kind, "nargs": key.count})
            p.add_argument(key.flag, **typed, **key.argparse_kw)
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        cfg = RunConfig.from_json(path.read_text())
    # a flag's value sits under argparse's default dest: "--j-start" -> "j_start"
    given = {key.name: getattr(args, key.flag[2:].replace("-", "_"), None)
             for key in _SCHEMA if key.flag is not None}
    tolerances = dict(cfg.tolerances)
    for item in args.tol:
        name, eq, value = item.partition("=")
        if not eq:
            raise UsageError(f"--tol expects NAME=VALUE, got {item!r}")
        try:
            tolerances[name] = float(value)
        except ValueError as exc:
            raise UsageError(f"tolerances.{name}: {value!r} is not a number") from exc
    # replace() validates the config again, with the flags applied
    return replace(cfg, command=args.command, tolerances=tolerances,
                   **{name: tuple(v) if isinstance(v, list) else v
                      for name, v in given.items() if v is not None})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a command is required (see --help)")
        cfg = _config_from_args(args)
        return run(cfg)
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
