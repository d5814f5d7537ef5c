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
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .biortho import AtExceptionalPoint, IndexIllDefined, spectrum_with_indices
from .epscan import (AXIS_COUPLING, AXIS_GAIN, AccidentallyZeroElement, EPRecord,
                     NoEP3InBox, NoEPInBracket, SweepGrid, classify_crossings,
                     find_ep2, find_ep3, find_ep3_candidates, locate_ep2_records,
                     selection_rule_scan, sweep, verify_selection_rule)
from .model import ChainSpec, NormalizedPoint, build_hamiltonian, build_parity
from .numerics import NearDefective
from .oracle import full_spectrum

COMMANDS = ("spectrum", "oracle", "sweep", "find-ep", "verify", "crossings")
TOLERANCE_NAMES = frozenset({
    "reality_tol", "indicator_floor", "bisect_tol", "ep3_gamma_tol", "overlap_min",
    "ambiguous_gap",
})
#: Gain values of the default verification grid.
DEFAULT_GAMMAS = (0.05, 0.21, 0.40125, 0.48375)

_NUMERIC_ERRORS = (NearDefective, AtExceptionalPoint, IndexIllDefined, NoEPInBracket,
                   NoEP3InBox, AccidentallyZeroElement, ArithmeticError)


class UsageError(Exception):
    """Bad flags or config; maps to exit code 1."""


@dataclass
class RunConfig:
    """Flattened run configuration; mirrors the nested JSON config schema."""

    command: str = ""
    n: int = 4
    j_tilde: float | None = None
    gamma_tilde: float | None = None
    j: float | None = None
    delta: float | None = None
    profile: tuple[float, ...] | None = None
    axis: str | None = None
    fixed_value: float | None = None
    start: float | None = None
    stop: float | None = None
    points: int | None = None
    gamma_values: tuple[float, ...] | None = None
    j_start: float | None = None
    j_stop: float | None = None
    g_start: float | None = None
    g_stop: float | None = None
    order: int | None = None
    pair: tuple[int, int] | None = None
    triple: tuple[int, int, int] | None = None
    tolerances: dict = field(default_factory=dict)
    output_path: str | None = None
    output_format: str = "csv"
    workers: int = 1

    def __post_init__(self):
        if self.command and self.command not in COMMANDS:
            raise UsageError(f"command must be one of {COMMANDS}, got {self.command!r}")
        unknown = set(self.tolerances) - TOLERANCE_NAMES
        if unknown:
            raise UsageError(
                f"tolerances.{sorted(unknown)[0]}: unknown name "
                f"(documented: {sorted(TOLERANCE_NAMES)})"
            )
        for name, value in self.tolerances.items():
            if not isinstance(value, (int, float)) or value < 0:
                raise UsageError(f"tolerances.{name} must be a non-negative number")
        if self.output_format not in ("csv", "json"):
            raise UsageError(f"output.format must be 'csv' or 'json', got {self.output_format!r}")
        if not isinstance(self.n, int) or self.n <= 0 or self.n % 2:
            raise UsageError(f"chain.n must be a positive even integer, got {self.n}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise UsageError(f"workers must be a positive integer, got {self.workers}")

    def to_dict(self) -> dict:
        chain = {"n": self.n}
        for k in ("j_tilde", "gamma_tilde", "j", "delta"):
            v = getattr(self, k)
            if v is not None:
                chain[k] = v
        if self.profile is not None:
            chain["profile"] = list(self.profile)
        grid = {}
        for k in ("axis", "fixed_value", "start", "stop", "points", "j_start",
                  "j_stop", "g_start", "g_stop"):
            v = getattr(self, k)
            if v is not None:
                grid[k] = v
        if self.gamma_values is not None:
            grid["gamma_values"] = list(self.gamma_values)
        out: dict = {"command": self.command, "chain": chain, "grid": grid,
                     "tolerances": dict(self.tolerances),
                     "output": {"format": self.output_format}, "workers": self.workers}
        if self.output_path is not None:
            out["output"]["path"] = self.output_path
        for k in ("order",):
            if getattr(self, k) is not None:
                out[k] = getattr(self, k)
        if self.pair is not None:
            out["pair"] = list(self.pair)
        if self.triple is not None:
            out["triple"] = list(self.triple)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known_sections = {"command", "chain", "grid", "tolerances", "output",
                          "workers", "order", "pair", "triple"}
        unknown = set(d) - known_sections
        if unknown:
            raise UsageError(f"{sorted(unknown)[0]}: unknown config field")
        kw: dict = {}
        kw["command"] = d.get("command", "")
        chain = d.get("chain", {})
        grid = d.get("grid", {})
        for src, names in ((chain, ("n", "j_tilde", "gamma_tilde", "j", "delta", "profile")),
                           (grid, ("axis", "fixed_value", "start", "stop", "points",
                                   "gamma_values", "j_start", "j_stop", "g_start", "g_stop"))):
            section = "chain" if src is chain else "grid"
            for k in src:
                if k not in names:
                    raise UsageError(f"{section}.{k}: unknown config field")
            for k in names:
                if k in src and src[k] is not None:
                    kw[k] = src[k]
        if "profile" in kw:
            kw["profile"] = tuple(float(x) for x in kw["profile"])
        if "gamma_values" in kw:
            kw["gamma_values"] = tuple(float(x) for x in kw["gamma_values"])
        kw["tolerances"] = dict(d.get("tolerances", {}))
        output = d.get("output", {})
        for k in output:
            if k not in ("path", "format"):
                raise UsageError(f"output.{k}: unknown config field")
        if "path" in output:
            kw["output_path"] = output["path"]
        if "format" in output:
            kw["output_format"] = output["format"]
        kw["workers"] = d.get("workers", 1)
        if "order" in d:
            kw["order"] = int(d["order"])
        if "pair" in d:
            kw["pair"] = tuple(int(x) for x in d["pair"])
        if "triple" in d:
            kw["triple"] = tuple(int(x) for x in d["triple"])
        return cls(**kw)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))

    def tol(self, name: str, default):
        return self.tolerances.get(name, default)


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _rows_to_output(cfg: RunConfig, header, rows, json_obj):
    if cfg.output_format == "csv":
        _write_text(cfg.output_path, _csv_text(header, rows))
    else:
        _write_text(cfg.output_path, _json_text(json_obj))


def _records_json(records, skipped) -> dict:
    return {"records": [r.to_dict() for r in records], "skipped": list(skipped)}


def load_ep_records(path) -> list[EPRecord]:
    """Read back the exceptional-point records of an emitted JSON file."""
    data = json.loads(Path(path).read_text())
    return [EPRecord.from_dict(d) for d in data["records"]]


def emit_figure_data(tracks, records, path, skipped=()) -> None:
    """Write sweep tracks as figure-ready CSV plus a sibling record JSON.

    CSV columns: grid_value, level_id, re_eps, im_eps, z2_index
    (-1 / 0 undefined / +1), ep_indicator. The sibling JSON (same stem,
    ``.json`` suffix) carries the refined exceptional-point records.
    """
    grid = tracks[0].grid
    rows = []
    for p, value in enumerate(grid.points):
        for tr in tracks:
            rows.append((
                _fmt(value), str(tr.level_id), _fmt(tr.eigenvalues[p].real),
                _fmt(tr.eigenvalues[p].imag), str(int(tr.z2[p])), _fmt(tr.indicator[p]),
            ))
    header = ("grid_value", "level_id", "re_eps", "im_eps", "z2_index", "ep_indicator")
    _write_text(str(path), _csv_text(header, rows))
    sibling = Path(path).with_suffix(".json")
    _write_text(str(sibling), _json_text(_records_json(records, skipped)))


def _chain_from_config(cfg: RunConfig) -> ChainSpec:
    if cfg.j_tilde is None:
        raise UsageError("chain.j_tilde is required for this command")
    if cfg.profile is not None:
        delta = NormalizedPoint(cfg.j_tilde, 0.0).delta
        return ChainSpec(n=cfg.n, delta=delta, j=cfg.j_tilde, gamma_profile=cfg.profile)
    gt = cfg.gamma_tilde if cfg.gamma_tilde is not None else 0.0
    return NormalizedPoint(cfg.j_tilde, gt).chain(cfg.n)


def _grid_from_config(cfg: RunConfig, default_axis=None, default_fixed=None,
                      default_span=(-1.0, 1.0), default_points=801) -> SweepGrid:
    axis = cfg.axis or default_axis
    if axis in ("jt", "j"):
        axis = AXIS_COUPLING
    if axis in ("gt", "g"):
        axis = AXIS_GAIN
    if axis not in (AXIS_COUPLING, AXIS_GAIN):
        raise UsageError(f"grid.axis must be '{AXIS_COUPLING}' or '{AXIS_GAIN}'")
    fixed = cfg.fixed_value if cfg.fixed_value is not None else default_fixed
    if fixed is None:
        raise UsageError("grid.fixed_value is required for this command")
    start = cfg.start if cfg.start is not None else default_span[0]
    stop = cfg.stop if cfg.stop is not None else default_span[1]
    points = cfg.points if cfg.points is not None else default_points
    if points < 2:
        raise UsageError("grid.points must be at least 2")
    if not stop > start:
        raise UsageError("grid.stop must exceed grid.start")
    try:
        return SweepGrid(axis=axis, fixed_value=float(fixed),
                         points=tuple(np.linspace(start, stop, points)), n=cfg.n)
    except ValueError as exc:
        raise UsageError(f"grid: {exc}") from exc


def _cmd_spectrum(cfg: RunConfig) -> int:
    spec = _chain_from_config(cfg)
    sp = spectrum_with_indices(build_hamiltonian(spec), build_parity(cfg.n),
                               reality_tol=cfg.tol("reality_tol", None),
                               indicator_floor=cfg.tol("indicator_floor", 1e-6))
    rows = [(str(lv.label), _fmt(lv.eigenvalue.real), _fmt(lv.eigenvalue.imag),
             str(lv.z2_index or 0), _fmt(lv.ep_indicator)) for lv in sp.levels]
    obj = {"levels": [
        {"level_id": lv.label, "re_eps": lv.eigenvalue.real, "im_eps": lv.eigenvalue.imag,
         "z2_index": lv.z2_index or 0, "ep_indicator": lv.ep_indicator}
        for lv in sp.levels]}
    _rows_to_output(cfg, ("level_id", "re_eps", "im_eps", "z2_index", "ep_indicator"),
                    rows, obj)
    return 0


def _cmd_oracle(cfg: RunConfig) -> int:
    if cfg.j is None or cfg.delta is None:
        raise UsageError("chain.j and chain.delta are required for the oracle command")
    states = full_spectrum(cfg.n, cfg.j, cfg.delta)
    rows = [(str(i), _fmt(s.energy), str(s.parity), str(s.r), str(s.occupation))
            for i, s in enumerate(states)]
    obj = {"states": [
        {"level_id": i, "energy": s.energy, "parity": s.parity,
         "excitations": s.r, "occupation": s.occupation}
        for i, s in enumerate(states)]}
    _rows_to_output(cfg, ("level_id", "energy", "parity", "excitations", "occupation"),
                    rows, obj)
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    if cfg.output_path is None:
        raise UsageError("output.path is required for sweep")
    grid = _grid_from_config(cfg)
    tracks = sweep(grid, workers=cfg.workers,
                   reality_tol=cfg.tol("reality_tol", None),
                   indicator_floor=cfg.tol("indicator_floor", 1e-6),
                   overlap_min=cfg.tol("overlap_min", 0.5))
    records, skipped = locate_ep2_records(tracks, tol=cfg.tol("bisect_tol", 1e-8),
                                          reality_tol=cfg.tol("reality_tol", None),
                                          indicator_floor=cfg.tol("indicator_floor", 1e-6))
    emit_figure_data(tracks, records, cfg.output_path, skipped=skipped)
    violations = verify_selection_rule(records)
    if violations:
        sys.stderr.write(f"selection-rule violations: {len(violations)}\n")
        return 3
    return 0


def _cmd_crossings(cfg: RunConfig) -> int:
    grid = _grid_from_config(cfg, default_axis=AXIS_COUPLING, default_fixed=0.0)
    if grid.axis != AXIS_COUPLING or grid.fixed_value != 0.0:
        raise UsageError("crossings runs on the gain-free coupling axis only")
    tracks = sweep(grid, workers=cfg.workers)
    recs = classify_crossings(tracks, ambiguous_gap=cfg.tol("ambiguous_gap", 1e-6))
    rows = [(_fmt(c.location), str(c.levels[0]), str(c.levels[1]), str(c.indices[0]),
             str(c.indices[1]), c.kind, _fmt(c.gap)) for c in recs]
    obj = {"crossings": [
        {"location": c.location, "level_a": c.levels[0], "level_b": c.levels[1],
         "index_a": c.indices[0], "index_b": c.indices[1], "kind": c.kind, "gap": c.gap}
        for c in recs]}
    _rows_to_output(cfg, ("location", "level_a", "level_b", "index_a", "index_b",
                          "kind", "gap"), rows, obj)
    return 0


def _cmd_find_ep(cfg: RunConfig) -> int:
    if cfg.output_path is None:
        raise UsageError("output.path is required for find-ep")
    order = cfg.order or 2
    if order == 2:
        grid = _grid_from_config(cfg, default_points=401)
        tracks = sweep(grid, workers=cfg.workers,
                       reality_tol=cfg.tol("reality_tol", None))
        if cfg.pair is not None:
            a, b = cfg.pair
            rec = find_ep2(tracks[a], tracks[b],
                           (grid.points[0], grid.points[-1]),
                           tol=cfg.tol("bisect_tol", 1e-8))
            records, skipped = [rec], []
        else:
            records, skipped = locate_ep2_records(tracks, tol=cfg.tol("bisect_tol", 1e-8))
    elif order == 3:
        j_box = (cfg.j_start, cfg.j_stop)
        g_box = (cfg.g_start, cfg.g_stop)
        if any(v is None for v in j_box + g_box):
            raise UsageError("grid.j_start/j_stop/g_start/g_stop are required for order 3")
        if cfg.triple is not None:
            candidates = [{"triple": cfg.triple, "j_bracket": j_box}]
        else:
            candidates = find_ep3_candidates(cfg.n, j_box, g_box,
                                             probes=cfg.points or 33,
                                             workers=cfg.workers)
            if not candidates:
                raise NoEP3InBox(f"no candidates in {j_box} x {g_box}")
        records, skipped = [], []
        for cand in candidates:
            try:
                records.append(find_ep3(cfg.n, cand["j_bracket"], g_box, cand["triple"],
                                        j_tol=cfg.tol("bisect_tol", 1e-10),
                                        g_tol=cfg.tol("ep3_gamma_tol", 1e-6)))
            except NoEP3InBox as exc:
                skipped.append({"triple": list(cand["triple"]),
                                "j_bracket": list(cand["j_bracket"]),
                                "reason": str(exc)})
        if not records:
            raise NoEP3InBox(f"no collision refined inside {j_box} x {g_box}")
        records.sort(key=lambda r: (r.location[AXIS_GAIN], r.location[AXIS_COUPLING],
                                    r.levels))
    else:
        raise UsageError(f"order must be 2 or 3, got {order}")
    _write_text(cfg.output_path, _json_text(_records_json(records, skipped)))
    violations = verify_selection_rule(records)
    if violations:
        sys.stderr.write(f"selection-rule violations: {len(violations)}\n")
        return 3
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    gammas = cfg.gamma_values if cfg.gamma_values is not None else DEFAULT_GAMMAS
    result = selection_rule_scan(
        cfg.n, gammas,
        j_start=cfg.start if cfg.start is not None else -1.0,
        j_stop=cfg.stop if cfg.stop is not None else 1.0,
        points=cfg.points if cfg.points is not None else 801,
        workers=cfg.workers, tol=cfg.tol("bisect_tol", 1e-8),
        reality_tol=cfg.tol("reality_tol", None))
    obj = _records_json(result["records"], result["skipped"])
    obj["violations"] = result["violations"]
    obj["gamma_values"] = [float(g) for g in gammas]
    obj["n"] = cfg.n
    if cfg.output_path is not None:
        _write_text(cfg.output_path, _json_text(obj))
    n_rec, n_vio = len(result["records"]), len(result["violations"])
    sys.stdout.write(f"ep2 records: {n_rec}, selection-rule violations: {n_vio}\n")
    return 3 if n_vio else 0


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "oracle": _cmd_oracle,
    "sweep": _cmd_sweep,
    "find-ep": _cmd_find_ep,
    "verify": _cmd_verify,
    "crossings": _cmd_crossings,
}


def run(config: RunConfig) -> int:
    """Dispatch a validated config; returns the process exit code."""
    handler = _DISPATCH.get(config.command)
    if handler is None:
        raise UsageError(f"unknown command {config.command!r}")
    return handler(config)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--n", type=int, help="number of spins (even)")
    p.add_argument("--output", help="output file path (default: stdout where allowed)")
    p.add_argument("--format", choices=("csv", "json"), help="output format")
    p.add_argument("--workers", type=int, help="parallel grid workers")
    p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                   help=f"named tolerance override; names: {sorted(TOLERANCE_NAMES)}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pshchain",
                     description="Spectra, Z2 indices, and exceptional points of a "
                                 "pseudo-Hermitian Ising chain")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("spectrum", help="biorthogonal spectrum with indices at one point")
    _add_common(p)
    p.add_argument("--jt", type=float, help="normalized coupling j_tilde")
    p.add_argument("--gt", type=float, help="normalized gain gamma_tilde")
    p.add_argument("--profile", help="comma-separated per-site gains (overrides --gt)")

    p = sub.add_parser("oracle", help="closed-form gain-free spectrum and parities")
    _add_common(p)
    p.add_argument("--j", type=float, help="coupling (raw units)")
    p.add_argument("--delta", type=float, help="transverse field (raw units)")

    p = sub.add_parser("sweep", help="track levels along one normalized coordinate")
    _add_common(p)
    p.add_argument("--axis", choices=("jt", "gt"), help="swept coordinate")
    p.add_argument("--fixed", type=float, dest="fixed", help="value of the other coordinate")
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--points", type=int)

    p = sub.add_parser("find-ep", help="localize exceptional points")
    _add_common(p)
    p.add_argument("--order", type=int, choices=(2, 3))
    p.add_argument("--axis", choices=("jt", "gt"))
    p.add_argument("--fixed", type=float, dest="fixed")
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--pair", type=int, nargs=2, metavar=("A", "B"))
    p.add_argument("--j-start", type=float, dest="j_start")
    p.add_argument("--j-stop", type=float, dest="j_stop")
    p.add_argument("--g-start", type=float, dest="g_start")
    p.add_argument("--g-stop", type=float, dest="g_stop")
    p.add_argument("--triple", type=int, nargs=3, metavar=("A", "B", "C"))

    p = sub.add_parser("verify", help="exhaustive selection-rule check over a grid")
    _add_common(p)
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--gammas", help="comma-separated gain values")

    p = sub.add_parser("crossings", help="classify gain-free level crossings")
    _add_common(p)
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--points", type=int)

    return parser


def _config_from_args(args) -> RunConfig:
    base: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        base = json.loads(path.read_text())
    cfg = RunConfig.from_dict(base) if base else RunConfig(command=args.command or "")
    if args.command:
        cfg.command = args.command

    def take(attr, value):
        if value is not None:
            setattr(cfg, attr, value)

    take("n", getattr(args, "n", None))
    take("output_path", getattr(args, "output", None))
    take("output_format", getattr(args, "format", None))
    take("workers", getattr(args, "workers", None))
    take("j_tilde", getattr(args, "jt", None))
    take("gamma_tilde", getattr(args, "gt", None))
    take("j", getattr(args, "j", None))
    take("delta", getattr(args, "delta", None))
    take("axis", getattr(args, "axis", None))
    take("fixed_value", getattr(args, "fixed", None))
    take("start", getattr(args, "start", None))
    take("stop", getattr(args, "stop", None))
    take("points", getattr(args, "points", None))
    take("order", getattr(args, "order", None))
    take("j_start", getattr(args, "j_start", None))
    take("j_stop", getattr(args, "j_stop", None))
    take("g_start", getattr(args, "g_start", None))
    take("g_stop", getattr(args, "g_stop", None))
    if getattr(args, "pair", None) is not None:
        cfg.pair = tuple(args.pair)
    if getattr(args, "triple", None) is not None:
        cfg.triple = tuple(args.triple)
    profile = getattr(args, "profile", None)
    if profile is not None:
        cfg.profile = tuple(float(x) for x in profile.split(","))
    gammas = getattr(args, "gammas", None)
    if gammas is not None:
        cfg.gamma_values = tuple(float(x) for x in gammas.split(","))
    for item in getattr(args, "tol", []):
        if "=" not in item:
            raise UsageError(f"--tol expects NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        if name not in TOLERANCE_NAMES:
            raise UsageError(f"tolerances.{name}: unknown name")
        try:
            cfg.tolerances[name] = float(value)
        except ValueError as exc:
            raise UsageError(f"tolerances.{name}: {value!r} is not a number") from exc
    # re-validate after overrides
    return RunConfig(**{f.name: getattr(cfg, f.name) for f in fields(RunConfig)})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a command is required (see --help)")
        cfg = _config_from_args(args)
        return run(cfg)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
