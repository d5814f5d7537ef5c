import csv
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from pshchain import (biortho, build_hamiltonian, build_parity, cli, epscan, full_spectrum,
                      model, numerics, spectrum_with_indices)
from pshchain.biortho import sector_spectra
from pshchain.cli import (RunConfig, UsageError, _config_from_args, build_parser,
                          load_ep_records, main)
from pshchain.model import NormalizedPoint, sector_blocks
from pshchain.numerics import linear_sum_assignment

ROOT = Path(__file__).resolve().parents[1]

# Every config field: (argv that sets it by flag, the value it sets, another
# valid value). A field missing here fails the schema tests below.
FLAG_CASES = {
    "command": (["oracle"], "oracle", "spectrum"),
    "n": (["spectrum", "--n", "6"], 6, 2),
    "j_tilde": (["spectrum", "--jt", "0.25"], 0.25, -0.5),
    "gamma_tilde": (["spectrum", "--gt", "0.21"], 0.21, 0.4),
    "j": (["oracle", "--j", "0.6"], 0.6, 1),
    "delta": (["oracle", "--delta", "0.8"], 0.8, 1.5),
    "profile": (["spectrum", "--profile", "0.3,-0.1,0.1,-0.3"], (0.3, -0.1, 0.1, -0.3),
                (0.2, -0.2)),
    "axis": (["sweep", "--axis", "gt"], "gt", "j_tilde"),
    "fixed_value": (["find-ep", "--fixed", "-0.84184"], -0.84184, 0.0),
    "start": (["crossings", "--start", "-0.5"], -0.5, -1),
    "stop": (["verify", "--stop", "0.5"], 0.5, 1.0),
    "points": (["sweep", "--points", "41"], 41, 801),
    "gamma_values": (["verify", "--gammas", "0.05,0.21"], (0.05, 0.21), (0.4,)),
    "j_start": (["find-ep", "--j-start", "-0.99"], -0.99, 0.1),
    "j_stop": (["find-ep", "--j-stop", "0.99"], 0.99, 0.2),
    "g_start": (["find-ep", "--g-start", "0.35"], 0.35, 0),
    "g_stop": (["find-ep", "--g-stop", "0.45"], 0.45, 0.5),
    "order": (["find-ep", "--order", "3"], 3, 2),
    "pair": (["find-ep", "--pair", "2", "3"], (2, 3), (0, 1)),
    "triple": (["find-ep", "--triple", "3", "4", "7"], (3, 4, 7), (0, 1, 2)),
    "tolerances": (["sweep", "--tol", "bisect_tol=1e-9"], {"bisect_tol": 1e-9},
                   {"bisect_tol": 1e-7}),
    "output_path": (["verify", "--output", "v.json"], "v.json", "other.json"),
    "output_format": (["oracle", "--format", "json"], "json", "csv"),
    "workers": (["crossings", "--workers", "2"], 2, 3),
}
FIELD_NAMES = [f.name for f in fields(RunConfig)]


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def parse(argv):
    return _config_from_args(build_parser().parse_args(argv))


class TestRunConfig:
    def test_roundtrip_through_json(self):
        cfg = RunConfig(command="sweep", n=4, axis="j_tilde", fixed_value=0.21,
                        start=-1.0, stop=1.0, points=801,
                        tolerances={"bisect_tol": 1e-8},
                        output_path="out.csv", workers=2)
        again = RunConfig.from_json(cfg.to_json())
        assert again == cfg
        assert RunConfig.from_json(again.to_json()) == again

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(UsageError) as exc:
            RunConfig(command="spectrum", tolerances={"wishful_tol": 1.0})
        assert "tolerances.wishful_tol" in str(exc.value)

    def test_unknown_field_path_reported(self):
        with pytest.raises(UsageError) as exc:
            RunConfig.from_dict({"command": "spectrum", "chain": {"m": 4}})
        assert "chain.m" in str(exc.value)

    def test_odd_chain_rejected(self):
        for n in (3, 0, -2):
            with pytest.raises(UsageError) as exc:
                RunConfig(command="spectrum", n=n)
            assert "chain.n" in str(exc.value)

    @pytest.mark.parametrize("name", FIELD_NAMES)
    def test_every_field_round_trips_from_its_flag(self, name):
        argv, value, _ = FLAG_CASES[name]
        cfg = parse(argv)
        assert cfg == replace(RunConfig(command=argv[0]), **{name: value})
        assert RunConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize("name", FIELD_NAMES)
    def test_flag_overrides_config_file(self, name, tmp_path):
        argv, value, other = FLAG_CASES[name]
        path = tmp_path / "cfg.json"
        path.write_text(replace(RunConfig(command=argv[0]), **{name: other}).to_json())
        if name != "command":  # the subcommand always names the command
            assert getattr(parse([argv[0], "--config", str(path)]), name) == other
        assert getattr(parse([argv[0], "--config", str(path), *argv[1:]]), name) == value

    def test_int_kept_for_float_field(self):
        cfg = RunConfig.from_dict({"grid": {"start": -1}})
        assert type(cfg.start) is int
        assert type(json.loads(cfg.to_json())["grid"]["start"]) is int


class TestSpectrumCommand:
    def test_csv_rows_match_library(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--n", "4", "--jt", "0.5", "--gt", "0.21",
                     "--output", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 16
        spec = NormalizedPoint(0.5, 0.21).chain(4)
        sp = sector_spectra(sector_blocks(spec), 4)[0]
        for row, lv in zip(rows, sp.levels, strict=True):  # the engine's levels, to the bit
            assert int(row["level_id"]) == lv.label
            assert float(row["re_eps"]) == lv.eigenvalue.real
            assert float(row["im_eps"]) == lv.eigenvalue.imag
            assert int(row["z2_index"]) == (lv.z2_index or 0)
            assert float(row["ep_indicator"]) == lv.ep_indicator
        # the general-matrix reference, level by level after matching
        ref = spectrum_with_indices(build_hamiltonian(spec), build_parity(4))
        got = np.array([complex(float(r["re_eps"]), float(r["im_eps"])) for r in rows])
        match, _ = linear_sum_assignment(np.abs(ref.eigenvalues[:, None] - got[None, :]))
        assert np.max(np.abs(ref.eigenvalues - got[match])) <= 1e-12
        z2 = np.array([int(r["z2_index"]) for r in rows])[match]
        close = np.abs(ref.eigenvalues[:, None] - ref.eigenvalues[None, :]) <= 1e-9
        for cluster in close:  # the index multiset of each degenerate cluster
            assert sorted(z2[cluster]) == sorted(ref.z2[cluster])

    def test_conjugate_pairs_in_adjacent_rows(self, tmp_path):
        # a pair's members share their real part to the bit, so their row
        # order does not turn on rounding: the lower half-plane comes first
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--n", "6", "--jt", "-0.84184", "--gt", "0.3",
                     "--output", str(out)]) == 0
        rows = read_csv(out)
        complex_rows = [k for k, r in enumerate(rows) if float(r["im_eps"]) != 0.0]
        assert len(complex_rows) == 52
        for k in complex_rows[::2]:
            low, high = rows[k], rows[k + 1]
            assert low["re_eps"] == high["re_eps"]
            assert float(low["im_eps"]) == -float(high["im_eps"]) < 0

    def test_exact_ep_exits_2(self, capsys):
        # decoupled spins at their own EPs: the solve is defective
        assert main(["spectrum", "--n", "4", "--jt", "0", "--gt", "1"]) == 2
        assert capsys.readouterr().err.startswith("numeric failure: defective eigensystem")

    def test_gain_free_matches_oracle(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--n", "4", "--jt", "0.6", "--gt", "0",
                     "--output", str(out)]) == 0
        rows = read_csv(out)
        states = full_spectrum(4, 0.6, float(np.sqrt(1 - 0.36)))
        assert np.allclose([float(r["re_eps"]) for r in rows],
                           [s.energy for s in states], atol=1e-9)
        assert [int(r["z2_index"]) for r in rows] == [s.parity for s in states]

    def test_custom_profile(self, tmp_path):
        out = tmp_path / "spec.json"
        code = main(["spectrum", "--n", "4", "--jt", "0.5",
                     "--profile", "0.3,-0.1,0.1,-0.3",
                     "--format", "json", "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["levels"]) == 16

    def test_bad_profile_is_usage_error(self):
        assert main(["spectrum", "--n", "4", "--jt", "0.5",
                     "--profile", "0.3,0.3,0.1,-0.3"]) == 1


class TestOracleCommand:
    def test_two_site_spectrum(self, tmp_path):
        out = tmp_path / "oracle.csv"
        assert main(["oracle", "--n", "2", "--j", "1", "--delta", "1",
                     "--output", str(out)]) == 0
        rows = read_csv(out)
        assert np.allclose([float(r["energy"]) for r in rows],
                           [-np.sqrt(5), -1.0, 1.0, np.sqrt(5)], atol=1e-12)
        assert [int(r["parity"]) for r in rows] == [1, 1, -1, 1]

    def test_missing_flags(self):
        assert main(["oracle", "--n", "2", "--j", "1"]) == 1


class TestSweepCommand:
    def test_csv_and_sibling_json(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--n", "2", "--axis", "gt", "--fixed", "0.707106781",
                     "--start", "0", "--stop", "0.4", "--points", "41",
                     "--output", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 41 * 4
        records = load_ep_records(tmp_path / "sweep.json")
        assert len(records) == 1
        assert records[0].order == 2
        assert sorted(records[0].indices) == [-1, 1]

    def test_gain_free_sweep_imaginary_column_zero(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert main(["sweep", "--n", "2", "--axis", "jt", "--fixed", "0",
                     "--start", "-1", "--stop", "1", "--points", "21",
                     "--output", str(out)]) == 0
        rows = read_csv(out)
        assert all(float(r["im_eps"]) == 0.0 for r in rows)

    def test_pair_without_index_is_skipped_not_fatal(self, tmp_path):
        # at this floor the pair (14, 15) has no index on the real side of its
        # bracket; the run keeps its other records and lists that pair
        out = tmp_path / "floor.csv"
        code = main(["sweep", "--n", "4", "--axis", "gt", "--fixed", "0.3", "--start", "0",
                     "--stop", "0.5", "--points", "101", "--tol", "indicator_floor=0.05",
                     "--output", str(out)])
        doc = json.loads((tmp_path / "floor.json").read_text())
        records = load_ep_records(tmp_path / "floor.json")
        assert code == cli._rule_exit(records) == 0
        assert len(read_csv(out)) == 101 * 16
        assert len(records) == 3
        assert doc["skipped"] == [{"levels": [14, 15], "bracket": [0.41500000000000004, 0.42],
                                   "complex_side": "hi",
                                   "reason": "no well-defined index on the real side of "
                                             "the bracket"}]

    def test_requires_output(self):
        assert main(["sweep", "--n", "2", "--axis", "gt", "--fixed", "0.5",
                     "--start", "0", "--stop", "0.4", "--points", "5"]) == 1

    def test_json_output_is_refused(self, tmp_path, capsys):
        # the records go to the CSV's .json sibling, which here is the CSV itself
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--n", "2", "--axis", "gt", "--fixed", "0.7071", "--start", "0",
                     "--stop", "0.4", "--points", "5", "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: output.path ")
        assert not out.exists()
        with pytest.raises(ValueError, match="output.path"):
            cli.emit_figure_data([], [], out)

    def test_gain_axis_default_span(self, tmp_path):
        # the default span was -1..1 on both axes, so a gain sweep needed --start
        out = tmp_path / "gain.csv"
        assert main(["sweep", "--n", "2", "--axis", "gt", "--fixed", "0.5",
                     "--points", "5", "--output", str(out)]) == 0
        values = sorted({float(r["grid_value"]) for r in read_csv(out)})
        assert values == [0.0, 0.25, 0.5, 0.75, 1.0]


class TestCrossingsCommand:
    def test_rows(self, tmp_path):
        out = tmp_path / "cross.csv"
        assert main(["crossings", "--n", "4", "--points", "201",
                     "--output", str(out)]) == 0
        rows = read_csv(out)
        kinds = {r["kind"] for r in rows}
        assert {"same", "opposite"} <= kinds
        locs = [float(r["location"]) for r in rows if 0.4 < float(r["location"]) < 0.6]
        assert any(abs(l - 0.5013) < 0.01 for l in locs)


class TestFindEpCommand:
    def test_order_two_scan(self, tmp_path):
        out = tmp_path / "ep2.json"
        code = main(["find-ep", "--order", "2", "--n", "2", "--axis", "gt",
                     "--fixed", "0.707106781", "--start", "0", "--stop", "0.4",
                     "--points", "41", "--output", str(out)])
        assert code == 0
        records = load_ep_records(out)
        assert len(records) == 1
        assert abs(records[0].location["gamma_tilde"] - 0.2653) < 1e-3

    def test_order_two_with_given_pair(self, tmp_path):
        out = tmp_path / "pair.json"
        code = main(["find-ep", "--order", "2", "--n", "2", "--axis", "gt",
                     "--fixed", "0.707106781", "--start", "0", "--stop", "0.4",
                     "--points", "21", "--pair", "2", "3", "--output", str(out)])
        assert code == 0
        (rec,) = load_ep_records(out)
        assert rec.levels == (2, 3)
        assert abs(rec.location["gamma_tilde"] - 0.2653) < 1e-3

    def test_pair_gets_every_ep2_of_the_pair_on_the_line(self, tmp_path):
        # the pair (4, 6) turns complex at jt = -0.7164 and real again at -0.4838
        line = ["find-ep", "--order", "2", "--n", "4", "--axis", "jt", "--fixed", "0.21",
                "--start", "-1", "--stop", "1", "--points", "401"]
        every, pair = tmp_path / "every.json", tmp_path / "pair.json"
        assert main([*line, "--output", str(every)]) == 0
        assert main([*line, "--pair", "4", "6", "--output", str(pair)]) == 0
        want = [r for r in json.loads(every.read_text())["records"] if r["levels"] == [4, 6]]
        assert len(want) == 2
        assert json.loads(pair.read_text()) == {"records": want, "skipped": []}

    def test_pair_without_ep2_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "pair.json"
        code = main(["find-ep", "--order", "2", "--n", "2", "--axis", "gt",
                     "--fixed", "0.707106781", "--start", "0", "--stop", "0.4",
                     "--points", "21", "--pair", "1", "0", "--output", str(out)])
        assert code == 2 and not out.exists()
        assert "no EP2 of pair [0, 1] on the line" in capsys.readouterr().err

    def test_order_three_with_given_triple(self, tmp_path):
        out = tmp_path / "ep3.json"
        code = main(["find-ep", "--order", "3", "--n", "4",
                     "--j-start", "-0.78", "--j-stop", "-0.75",
                     "--g-start", "0.35", "--g-stop", "0.45",
                     "--triple", "3", "4", "7",
                     "--tol", "ep3_gamma_tol=1e-5", "--output", str(out)])
        assert code == 0
        (rec,) = load_ep_records(out)
        assert rec.order == 3
        s = rec.indices[0]
        assert rec.indices == (s, -s, s)

    def test_box_without_collision(self, tmp_path):
        out = tmp_path / "none.json"
        code = main(["find-ep", "--order", "3", "--n", "4",
                     "--j-start", "-0.2", "--j-stop", "-0.1",
                     "--g-start", "0.35", "--g-stop", "0.45",
                     "--triple", "3", "4", "7", "--output", str(out)])
        assert code == 2

    def test_moved_window_gives_paired_records(self, tmp_path):
        # the (3,4,7) search of this window and the mirrored (8,11,12) one
        # close on mirror points, within the benchmark's EP3 pairing
        # tolerances (1e-3 in the coupling, 1e-5 in the gain)
        out = tmp_path / "ep3.json"
        assert main(["find-ep", "--order", "3", "--n", "4",
                     "--j-start", "-0.981", "--j-stop", "0.999",
                     "--g-start", "0.35", "--g-stop", "0.45",
                     "--points", "67", "--output", str(out)]) == 0
        low, high = load_ep_records(out)
        assert (low.levels, high.levels) == ((3, 4, 7), (8, 11, 12))
        assert abs(low.location["j_tilde"] + high.location["j_tilde"]) <= 1e-3
        assert abs(low.location["gamma_tilde"] - high.location["gamma_tilde"]) <= 1e-5


class TestVerifyCommand:
    def test_small_grid_clean(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = main(["verify", "--n", "4", "--points", "101",
                     "--gammas", "0.21", "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["violations"] == []
        assert len(data["records"]) >= 4
        assert "selection-rule violations: 0" in capsys.readouterr().out

    def test_each_gain_swept_like_find_ep(self, tmp_path):
        # verify's lines are the coupling lines find-ep --order 2 sweeps at each gain
        out = tmp_path / "verify.json"
        assert main(["verify", "--n", "4", "--points", "101", "--gammas", "0.21,0.40125",
                     "--output", str(out)]) == 0
        records, skipped = [], []
        for k, gamma in enumerate(("0.21", "0.40125")):
            line = tmp_path / f"line{k}.json"
            assert main(["find-ep", "--order", "2", "--n", "4", "--axis", "jt",
                         "--fixed", gamma, "--start", "-1", "--stop", "1",
                         "--points", "101", "--output", str(line)]) == 0
            data = json.loads(line.read_text())
            records += data["records"]
            skipped += data["skipped"]
        data = json.loads(out.read_text())
        assert records and data["records"] == records
        assert data["skipped"] == skipped

    def test_records_in_gain_order(self, tmp_path):
        # the gains are given out of order; the records come out sorted
        outs = []
        for k, gammas in enumerate(("0.6,0.3", "0.3,0.6")):
            out = tmp_path / f"verify{k}.json"
            assert main(["verify", "--n", "2", "--points", "41", "--gammas", gammas,
                         "--output", str(out)]) == 0
            outs.append(json.loads(out.read_text())["records"])
        gains = [r["location"]["gamma_tilde"] for r in outs[0]]
        assert len(set(gains)) == 2 and gains == sorted(gains)
        assert outs[0] == outs[1]


class TestExitCodes:
    def test_no_command(self):
        assert main([]) == 1

    def test_bad_flag_value(self):
        assert main(["spectrum", "--n", "4", "--jt", "1.7"]) == 1

    def test_unknown_tolerance_flag(self):
        assert main(["spectrum", "--n", "4", "--jt", "0.5", "--tol", "nope=1"]) == 1

    @pytest.mark.parametrize("name", ["eig_tol", "element_floor", "defect_threshold",
                                      "overlap_min"])
    def test_unread_tolerance_names_rejected(self, name, capsys):
        # no command reads these, so accepting them would silently ignore them
        assert main(["spectrum", "--n", "4", "--jt", "0.5", "--tol", f"{name}=1e4"]) == 1
        assert f"tolerances.{name}" in capsys.readouterr().err

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "command": "spectrum",
            "chain": {"n": 2, "j_tilde": 0.5, "gamma_tilde": 0.0},
            "output": {"format": "csv"},
        }))
        out = tmp_path / "o.csv"
        assert main(["spectrum", "--config", str(cfg), "--n", "4",
                     "--output", str(out)]) == 0
        assert len(read_csv(out)) == 16  # the flag override won

    def test_missing_config_file(self):
        assert main(["spectrum", "--config", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize("doc, path", [
        ({"grid": {"points": 5.5}}, "grid.points"),
        ({"grid": {"points": "5"}}, "grid.points"),
        ({"chain": {"j_tilde": "0.5"}}, "chain.j_tilde"),
        ({"chain": {"n": None}}, "chain.n"),
        ({"chain": {"profile": [0.1, "x"]}}, "chain.profile"),
        ({"workers": True}, "workers"),
        ({"pair": [1]}, "pair"),
        ({"tolerances": [1e-8]}, "tolerances"),
        ({"output": "o.csv"}, "output"),
    ])
    def test_config_value_of_wrong_type_rejected(self, doc, path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(cfg), "--n", "2", "--axis", "gt",
                     "--fixed", "0.5", "--output", str(tmp_path / "o.csv")]) == 1
        assert f"usage error: {path} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, path", [
        (["--n", "2", "--pair", "2", "9"], "pair"),
        (["--n", "2", "--pair", "-1", "2"], "pair"),
        (["--n", "2", "--pair", "3", "3"], "pair"),
        (["--n", "4", "--triple", "3", "4", "99"], "triple"),
        (["--n", "4", "--triple", "3", "4", "-2"], "triple"),
        (["--n", "4", "--triple", "3", "7", "3"], "triple"),
    ])
    def test_level_indices_out_of_range_rejected(self, argv, path, tmp_path, capsys):
        # indices run 0..2^N-1; negative ones used to wrap to the top levels
        assert main(["find-ep", *argv, "--output", str(tmp_path / "ep.json")]) == 1
        assert f"usage error: {path} must be distinct level indices" in capsys.readouterr().err

    @pytest.mark.parametrize("order", [0, 1, 4])
    def test_order_other_than_two_or_three_rejected(self, order, tmp_path, capsys):
        # the flag's choices reject these; a config file used to run order 0 as order 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "find-ep", "order": order}))
        out = tmp_path / "ep.json"
        assert main(["find-ep", "--config", str(cfg), *N2_GAIN_LINE, "--output", str(out)]) == 1
        assert f"usage error: order must be 2 or 3, got {order}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("g_box", [("0.45", "0.35"), ("0", "0"), ("-0.1", "0.45")])
    def test_order_three_gain_box_checked(self, g_box, tmp_path, capsys):
        # the candidate scan marches the gain from 0 up to g_stop
        assert main(["find-ep", "--order", "3", "--n", "4", "--j-start", "-0.78",
                     "--j-stop", "-0.75", "--g-start", g_box[0], "--g-stop", g_box[1],
                     "--output", str(tmp_path / "ep3.json")]) == 1
        assert "usage error: grid.g_start/g_stop must satisfy" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--j-start", "0.5", "--j-stop", "-0.5"], "grid.j_start/j_stop must satisfy"),
        (["--j-start", "-0.6", "--j-stop", "-0.6"], "grid.j_start/j_stop must satisfy"),
        (["--j-start", "-1.5", "--j-stop", "-0.6"], "grid.j_start/j_stop must satisfy"),
        (["--j-start", "0.5", "--j-stop", "1.01"], "grid.j_start/j_stop must satisfy"),
        (["--j-start", "-0.9", "--j-stop", "-0.6", "--points", "1"], "grid.points must be"),
        (["--j-start", "-0.9", "--j-stop", "-0.6", "--points", "0"], "grid.points must be"),
        (["--j-start", "-0.9", "--j-stop", "-0.6", "--points", "-3"], "grid.points must be"),
    ])
    def test_order_three_coupling_box_and_probes_checked(self, argv, message, tmp_path,
                                                        capsys):
        # these exited 2 with "no candidates", or 1 with numpy's linspace error
        assert main(["find-ep", "--order", "3", "--n", "4", *argv, "--g-start", "0.35",
                     "--g-stop", "0.45", "--output", str(tmp_path / "ep3.json")]) == 1
        assert f"usage error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "sweep", "crossings", "find-ep"])
    @pytest.mark.parametrize("argv, message", [
        (["--points", "1"], "grid.points must be at least 2"),
        (["--start", "1", "--stop", "-1"], "grid.stop must exceed grid.start"),
        (["--start", "0.5", "--stop", "0.5"], "grid.stop must exceed grid.start"),
        (["--start", "-2"], "grid.start/stop must satisfy -1 <= start < stop <= 1"),
    ])
    def test_span_checked_alike_by_every_command(self, command, argv, message, tmp_path,
                                                 capsys):
        # verify checked its span apart from the others and reported no field path
        line = ["--axis", "jt", "--fixed", "0.21"] if command in ("sweep", "find-ep") else []
        assert main([command, "--n", "2", *line, *argv,
                     "--output", str(tmp_path / "out")]) == 1
        assert f"usage error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "find-ep"])
    def test_gain_span_checked(self, command, tmp_path, capsys):
        assert main([command, "--n", "2", "--axis", "gt", "--fixed", "0.5", "--start", "-0.1",
                     "--output", str(tmp_path / "out")]) == 1
        assert "usage error: grid.start/stop must satisfy 0 <= start < stop" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("argv, path", [
        (["verify", "--gammas", "0.21,-0.1"], "grid.gamma_values"),
        (["verify", "--gammas", "0.21,inf"], "grid.gamma_values"),
        (["sweep", "--axis", "jt", "--fixed", "-0.5"], "grid.fixed_value"),
        (["sweep", "--axis", "gt", "--fixed", "1.5"], "grid.fixed_value"),
        (["find-ep", "--axis", "gt", "--fixed", "-1.01"], "grid.fixed_value"),
    ])
    def test_fixed_value_checked_on_its_axis(self, argv, path, tmp_path, capsys):
        # these reached SweepGrid and were reported without a field path
        assert main([*argv, "--n", "2", "--points", "5",
                     "--output", str(tmp_path / "out")]) == 1
        assert f"usage error: {path} must satisfy" in capsys.readouterr().err

    def test_repeated_gamma_values_rejected(self, tmp_path, capsys):
        # the line was swept and refined once per repeat: 44 records instead of 22
        out = tmp_path / "v.json"
        assert main(["verify", "--n", "4", "--points", "101", "--gammas", "0.21,0.21",
                     "--output", str(out)]) == 1
        assert "usage error: grid.gamma_values must be distinct" in capsys.readouterr().err
        assert not out.exists()

    def test_level_indices_checked_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"chain": {"n": 2}, "pair": [0, 4]}))
        assert main(["find-ep", "--config", str(cfg), "--output", str(tmp_path / "e.json")]) == 1
        assert "usage error: pair must be distinct level indices in 0..3" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_flag_rejected(self, value, tmp_path, capsys):
        # a nan bisect_tol skipped the bisection and emitted a grid-wide bracket
        code = main(["find-ep", "--order", "2", "--n", "2", "--axis", "gt",
                     "--fixed", "0.707106781", "--start", "0", "--stop", "0.4",
                     "--points", "41", "--tol", f"bisect_tol={value}",
                     "--output", str(tmp_path / "ep2.json")])
        assert code == 1
        assert "tolerances.bisect_tol" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "true", "-1e-8"])
    def test_bad_tolerance_in_config_rejected(self, value, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tolerances": {"bisect_tol": %s}}' % value)
        assert main(["spectrum", "--config", str(cfg), "--jt", "0.5"]) == 1
        assert "tolerances.bisect_tol" in capsys.readouterr().err

    @pytest.fixture
    def equal_index_record(self, monkeypatch):
        # a breach of the selection rule: an EP2 that joins two levels of one index
        rec = epscan.EPRecord(order=2, location={"j_tilde": 0.1, "gamma_tilde": 0.2},
                              levels=(0, 1), indices=(1, 1), residual=0.0, bracket_width=0.0)
        monkeypatch.setattr(cli, "locate_ep2_records", lambda tracks, tol: ([rec], []))
        return rec

    @pytest.mark.parametrize("command", [["sweep"], ["find-ep", "--order", "2"]])
    def test_selection_rule_breach_exits_3(self, command, equal_index_record, tmp_path,
                                           capsys):
        out = tmp_path / "out.csv"
        assert main([*command, *N2_GAIN_LINE, "--output", str(out)]) == 3
        assert "selection-rule violations: 1" in capsys.readouterr().err

    def test_verify_reports_a_breach_and_exits_3(self, equal_index_record, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert main(["verify", "--n", "2", "--points", "41", "--gammas", "0.5",
                     "--output", str(out)]) == 3
        assert "selection-rule violations: 1" in capsys.readouterr().out
        (violation,) = json.loads(out.read_text())["violations"]
        assert violation["record"] == equal_index_record.to_dict()
        assert violation["reason"] == "second-order point with equal indices"

    @pytest.mark.parametrize("command", ["verify", "sweep", "find-ep"])
    def test_format_only_on_commands_that_read_it(self, command, capsys):
        # these commands write fixed formats, so --format would be ignored
        assert main([command, "--n", "2", "--format", "csv"]) == 1
        assert "--format" in capsys.readouterr().err


N2_GAIN_LINE = ["--n", "2", "--axis", "gt", "--fixed", "0.707106781", "--start", "0",
                "--stop", "0.4", "--points", "41"]


class TestSolveTolerances:
    # (argv, whether the tolerances come by --tol flags or from a --config file)
    @pytest.mark.parametrize("argv, by_flag", [
        (["spectrum", "--n", "4", "--jt", "0.5", "--gt", "0.21"], True),
        (["sweep", *N2_GAIN_LINE], True),
        (["verify", "--n", "4", "--points", "41", "--gammas", "0.21"], True),
        (["crossings", "--n", "4", "--points", "101"], False),
        (["find-ep", "--order", "2", *N2_GAIN_LINE], True),
        (["find-ep", "--order", "2", *N2_GAIN_LINE, "--pair", "2", "3"], True),
        (["find-ep", "--order", "3", "--n", "4", "--j-start", "-0.9", "--j-stop", "-0.6",
          "--g-start", "0.35", "--g-stop", "0.45", "--points", "5",
          "--tol", "ep3_gamma_tol=1e-3"], True),
    ])
    def test_every_solve_gets_the_command_tolerances(self, argv, by_flag, tmp_path,
                                                     monkeypatch):
        seen = []

        def recording(original):
            def solve(blocks, n, **kw):
                seen.append((kw.get("reality_tol"), kw.get("indicator_floor")))
                return original(blocks, n, **kw)
            return solve

        for module in (epscan, cli):
            monkeypatch.setattr(module, "sector_spectra", recording(module.sector_spectra))
        out = tmp_path / ("out.csv" if argv[0] in ("sweep", "spectrum", "crossings")
                          else "out.json")
        tols = ["--tol", "reality_tol=2e-8", "--tol", "indicator_floor=2e-6"]
        if not by_flag:
            cfg = tmp_path / "cfg.json"
            cfg.write_text('{"tolerances": {"reality_tol": 2e-8, "indicator_floor": 2e-6}}')
            tols = ["--config", str(cfg)]
        assert main([*argv, *tols, "--output", str(out)]) == 0
        assert seen and set(seen) == {(2e-8, 2e-6)}


#: One call of every command, at small N.
EVERY_COMMAND = [
    ["spectrum", "--n", "4", "--jt", "0.5", "--gt", "0.21"],
    ["oracle", "--n", "4", "--j", "0.6", "--delta", "0.8"],
    ["sweep", *N2_GAIN_LINE],
    ["verify", "--n", "4", "--points", "41", "--gammas", "0.21"],
    ["crossings", "--n", "4", "--points", "101"],
    ["find-ep", "--order", "2", *N2_GAIN_LINE],
    ["find-ep", "--order", "3", "--n", "4", "--j-start", "-0.78", "--j-stop", "-0.75",
     "--g-start", "0.35", "--g-stop", "0.45", "--triple", "3", "4", "7",
     "--tol", "ep3_gamma_tol=1e-3"],
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_no_command_takes_the_dense_path(argv, tmp_path, monkeypatch):
    # every command solves on the sector engine; the dense builders and the
    # general solve are the tests' reference only
    def dense(*args, **kw):
        raise AssertionError("dense path called")

    names = ("build_hamiltonian", "build_parity", "spectrum_with_indices", "eig_general")
    for module in (model, numerics, biortho, epscan, cli):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, dense)
    out = tmp_path / ("out.csv" if argv[0] in ("sweep", "spectrum", "crossings")
                      else "out.json")
    assert main([*argv, "--output", str(out)]) == 0
    assert out.stat().st_size > 0


class TestDeterminism:
    def test_workers_do_not_change_bytes(self, tmp_path):
        outs = []
        for k, workers in enumerate(("1", "2")):
            out = tmp_path / f"det{k}.csv"
            assert main(["sweep", "--n", "4", "--axis", "jt", "--fixed", "0.21",
                         "--start", "-0.8", "--stop", "0.8", "--points", "81",
                         "--workers", workers, "--output", str(out)]) == 0
            outs.append((out.read_bytes(), (tmp_path / f"det{k}.json").read_bytes()))
        assert outs[0] == outs[1]

    def test_order_three_candidates_do_not_change_bytes(self, tmp_path):
        # three candidates, refined one per task: a record and skipped entries
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"ep3-{workers}.json"
            assert main(["find-ep", "--order", "3", "--n", "4", "--j-start", "-0.9",
                         "--j-stop", "-0.6", "--g-start", "0.35", "--g-stop", "0.45",
                         "--points", "11", "--workers", workers, "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        doc = json.loads(outs[0])
        assert len(doc["records"]) + len(doc["skipped"]) == 3 and doc["skipped"]


#: find-ep at order 3 on two workers, each candidate's refinement failing.
FAILING_REFINEMENT = """
import sys
from pshchain import AtExceptionalPoint, cli, epscan

def at_ep(n, j_bracket, gamma_bracket, triple, **kw):
    raise AtExceptionalPoint(1e20)

epscan.find_ep3 = at_ep
cli.find_ep3_candidates = lambda *args, **kw: [
    {"triple": (3, 4, 7), "j_bracket": (-0.78, -0.75)},
    {"triple": (3, 4, 7), "j_bracket": (0.75, 0.78)}]
sys.exit(cli.main(sys.argv[1:]))
"""


class TestWorkerFailure:
    def test_refinement_error_exits_2(self, tmp_path):
        # the error comes back from a worker; the parent must not hang on it
        argv = ["find-ep", "--order", "3", "--n", "4", "--j-start", "-0.99", "--j-stop",
                "0.99", "--g-start", "0.35", "--g-stop", "0.45", "--workers", "2",
                "--output", str(tmp_path / "ep3.json")]
        proc = subprocess.run([sys.executable, "-c", FAILING_REFINEMENT, *argv],
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "numeric failure: defective eigensystem (condition 1.000e+20)\n"


#: A fresh process that imports the package, sweeps an N=4 line through EP2s and
#: argmax collisions, refines its records and solves a degenerate gain-free point.
COLD_START = """
import json
import sys

import numpy as np

import pshchain
import pshchain.cli
from pshchain import AXIS_COUPLING, SweepGrid, biortho, epscan

calls = {"assignment": 0, "cluster": 0}

def counted(name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper

epscan.linear_sum_assignment = counted("assignment", epscan.linear_sum_assignment)
biortho._real_cluster = counted("cluster", biortho._real_cluster)
tracks = epscan.sweep(SweepGrid(AXIS_COUPLING, 0.21, tuple(np.linspace(-1.0, 1.0, 41)), 4))
records, _ = epscan.locate_ep2_records(tracks)
SweepGrid(AXIS_COUPLING, 0.0, (0.0, 0.5), 4).solver()(0.0)
print(json.dumps({"records": len(records), **calls, "numpy.ma": "numpy.ma" in sys.modules,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_cold_start_does_not_import_scipy():
    # importing scipy takes a fresh process about 0.5 s and 48 MB, which every
    # CLI call would pay before any physics; numpy.ma, which the first
    # np.unique call imports, takes about 15 ms
    proc = subprocess.run([sys.executable, "-c", COLD_START],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["records"] > 0 and seen["assignment"] > 0 and seen["cluster"] > 0
    assert seen["scipy"] == [] and not seen["numpy.ma"]


class TestTracerContract:
    @pytest.mark.parametrize("n, warm", [(4, [0.05, 0.5]), (8, [0.0, 0.5])])
    def test_benchmark_setup_solve_runs(self, n, warm, tmp_path):
        # perfbench/child.py builds a SweepGrid and solves one point before
        # timing the CLI call; with no argv it stops after that set-up
        result = tmp_path / "child.json"
        spec = {"result": str(result), "n": n, "warm": warm, "argv": None, "trace": False}
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                               json.dumps(spec)],
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "ready" in json.loads(result.read_text())

    def test_traced_verify_reports_its_layers(self, tmp_path):
        # verify's sweeps and refinements run in cli; the tracer must still see them
        result = tmp_path / "child.json"
        spec = {"result": str(result), "n": 2, "warm": [0.3, 0.5], "trace": True,
                "argv": ["verify", "--n", "2", "--points", "41", "--gammas", "0.3,0.6"]}
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                               json.dumps(spec)],
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        layers = json.loads(result.read_text())["layers"]
        assert layers["epscan.ep2.records"] > 0
        assert layers["epscan.sweep.self_s"] > 0

    def test_traced_order_three_reports_its_refinement(self, tmp_path):
        # the refinement task calls find_ep3 through the name the tracer patches
        result = tmp_path / "child.json"
        spec = {"result": str(result), "n": 4, "warm": [0.4, 0.5], "trace": True,
                "argv": ["find-ep", "--order", "3", "--n", "4", "--j-start", "-0.78",
                         "--j-stop", "-0.75", "--g-start", "0.35", "--g-stop", "0.45",
                         "--triple", "3", "4", "7", "--workers", "1",
                         "--output", str(tmp_path / "ep3.json")]}
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                               json.dumps(spec)],
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        layers = json.loads(result.read_text())["layers"]
        assert layers["epscan.ep3.records"] >= 1
        assert layers["epscan.ep3.self_s"] > 0
