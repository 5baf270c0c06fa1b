import json
import math
import os
import random
import shlex
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from magictrap.cli import _grid, main
from magictrap.datafiles import depth_hz_from_mk, write_coefficients
from magictrap.dls import TrapCoefficients
from magictrap.errors import InvalidArgumentError


@pytest.fixture
def coeffs_file(tmp_path):
    path = tmp_path / "exp.toml"
    write_coefficients(path, TrapCoefficients(3.47e-4, -0.99e-4, 4.6e-12))
    return str(path)


@pytest.fixture
def shift_table(tmp_path):
    """Exact model shifts at four bias fields; returns the CSV path."""
    from magictrap.datafiles import write_table
    from magictrap.dls import dls
    coeffs = TrapCoefficients(3.47e-4, -0.99e-4, 4.6e-12)
    rows = []
    for b in (2.8, 3.0, 3.115, 3.3):
        for depth_mk in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
            rows.append((b, depth_mk, dls(coeffs, b, depth_hz_from_mk(depth_mk))))
    path = tmp_path / "dls.csv"
    write_table(path, ("b_field_gauss", "depth_mk", "dls_hz"), rows)
    return str(path)


def write_timeline_doc(tmp_path):
    """A legal four-segment transfer timeline; returns its path."""
    doc = {
        "t1_s": 4.0,
        "t2prime_s": 0.3,
        "segments": [
            {"phase": "Overlap", "duration_s": 1e-4, "depth_mk": 0.37,
             "temperature_uk": 14.0, "b_field_gauss": 3.115,
             "t2_override_s": 0.025},
            {"phase": "Move", "duration_s": 2e-3, "depth_mk": 0.2,
             "temperature_uk": 14.0, "b_field_gauss": 3.115},
            {"phase": "Return", "duration_s": 1e-4, "depth_mk": 0.2,
             "temperature_uk": 14.0, "b_field_gauss": 3.115},
            {"phase": "Hold", "duration_s": 0.0, "depth_mk": 0.2014,
             "temperature_uk": 8.0, "b_field_gauss": 3.115},
        ],
    }
    path = tmp_path / "timeline.json"
    path.write_text(json.dumps(doc))
    return str(path)


def parse_doc(text):
    doc = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        doc[key] = value
    return doc


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTopLevel:
    def test_version(self, capsys):
        code, out, err = run(capsys, ["--version"])
        assert code == 0
        assert out.startswith("magictrap ")

    def test_constants(self, capsys):
        code, out, err = run(capsys, ["--constants"])
        assert code == 0
        doc = parse_doc(out)
        assert float(doc["planck_h_j_s"]) == 6.62607015e-34
        assert float(doc["rb87_hyperfine_nu0_hz"]) == 6.834682611e9

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_flag_is_usage_error(self, capsys, coeffs_file):
        with pytest.raises(SystemExit) as info:
            main(["magic", "--bogus"])
        assert info.value.code == 2

    def test_missing_required_flag_lists_it(self, capsys, coeffs_file):
        with pytest.raises(SystemExit) as info:
            main(["ramsey", "--coeffs", coeffs_file, "--b-field", "3.115",
                  "--depth-mk", "0.2"])
        assert info.value.code == 2
        assert "--temp-uk" in capsys.readouterr().err


class TestMagic:
    def test_magic_document(self, capsys, coeffs_file):
        code, out, err = run(capsys, ["magic", "--b-field", "3.115",
                                      "--coeffs", coeffs_file])
        assert code == 0
        assert err == ""
        doc = parse_doc(out)
        assert float(doc["u_m_hz"]) == pytest.approx(-4.197e6, rel=1e-3)
        assert float(doc["depth_mk"]) == pytest.approx(0.201, abs=1e-3)
        assert float(doc["dls_min_hz"]) == pytest.approx(-81.0, abs=0.1)
        assert float(doc["zero_crossing_gauss"]) == pytest.approx(3.505,
                                                                  abs=1e-3)

    def test_byte_identical_reruns(self, capsys, coeffs_file):
        _, first, _ = run(capsys, ["magic", "--b-field", "3.115",
                                   "--coeffs", coeffs_file])
        _, second, _ = run(capsys, ["magic", "--b-field", "3.115",
                                    "--coeffs", coeffs_file])
        assert first == second

    def test_missing_coeffs_file(self, capsys):
        code, out, err = run(capsys, ["magic", "--b-field", "3.115",
                                      "--coeffs", "no-such-file.toml"])
        assert code == 1
        assert err.startswith("error: file-not-found:")

    def test_repeated_coefficient_key(self, capsys, tmp_path):
        path = tmp_path / "twice.toml"
        path.write_text("beta1 = 1e-4\nbeta2_per_gauss = -0.99e-4\n"
                        "beta4_per_hz = 4.6e-12\nbeta1 = 3.47e-4\n")
        code, out, err = run(capsys, ["magic", "--b-field", "3.115",
                                      "--coeffs", str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: invalid-argument: {path}:4: repeated key 'beta1'\n"

    def test_vertex_past_the_zero_crossing_prints_a_negative_depth(
            self, capsys, coeffs_file):
        # at 4 G > 3.505 G the vertex sits above zero: not a trap depth
        code, out, err = run(capsys, ["magic", "--b-field", "4",
                                      "--coeffs", coeffs_file])
        assert (code, err) == (0, "")
        doc = parse_doc(out)
        assert (doc["u_m_hz"], doc["depth_mk"]) == ("5326086.96", "-0.255611859")
        code, out, err = run(capsys, ["dls-curve", "--b-field", "4",
                                      "--coeffs", coeffs_file])
        assert (code, err) == (0, "")
        assert parse_doc(out)["magic_depth_mk"] == "-0.255611859"

    def test_a_vertex_at_plus_zero_prints_no_sign(self, capsys, tmp_path):
        # beta1 + beta2 * B is +0.0 or -0.0: the vertex, its depth and its
        # shift all print as 0, whatever the signs of the zeros
        path = tmp_path / "zero.toml"
        for beta1 in ("0.0", "-0.0"):
            path.write_text(f"beta1 = {beta1}\nbeta2_per_gauss = 1e-4\n"
                            "beta4_per_hz = 4.6e-12\n")
            for b_field in ("0.0", "-0.0"):
                code, out, err = run(capsys, ["magic", "--b-field", b_field,
                                              "--coeffs", str(path)])
                assert (code, err) == (0, ""), (beta1, b_field)
                doc = parse_doc(out)
                assert (doc["u_m_hz"], doc["depth_mk"], doc["dls_min_hz"]) == (
                    "0", "0", "0"), (beta1, b_field)
                code, out, err = run(capsys, ["dls-curve", "--b-field", b_field,
                                              "--coeffs", str(path)])
                assert (code, err) == (0, ""), (beta1, b_field)
                doc = parse_doc(out)
                assert (doc["dls_min_hz"], doc["magic_depth_mk"]) == (
                    "0", "0"), (beta1, b_field)

    def test_zero_crossing_past_float_range_is_a_domain_error(self, capsys,
                                                              tmp_path):
        path = tmp_path / "subnormal.toml"
        write_coefficients(path, TrapCoefficients(3.47e-4, 1e-320, 4.6e-12))
        code, out, err = run(capsys, ["magic", "--b-field", "3.115",
                                      "--coeffs", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid-argument:")


class TestCurves:
    def test_dls_curve_artifacts(self, capsys, coeffs_file, tmp_path):
        out_csv = tmp_path / "curve.csv"
        out_svg = tmp_path / "curve.svg"
        code, out, err = run(capsys, [
            "dls-curve", "--b-field", "3.115", "--coeffs", coeffs_file,
            "--depth-mk-max", "0.4", "--points", "41",
            "--out", str(out_csv), "--plot", str(out_svg)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "depth_mk,dls_hz"
        assert len(lines) == 42
        root = ET.fromstring(out_svg.read_text())
        assert root.tag.endswith("svg")

    def test_visibility_trace(self, capsys, coeffs_file, tmp_path):
        out_csv = tmp_path / "vis.csv"
        code, out, err = run(capsys, [
            "visibility", "--coeffs", coeffs_file, "--b-field", "3.115",
            "--depth-mk", "0.2014", "--temp-uk", "17",
            "--t-max", "1.0", "--points", "5", "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "t_s,visibility"
        first = float(lines[1].split(",")[1])
        assert first == 1.0

    @pytest.mark.parametrize("command", ["ramsey", "visibility"])
    def test_document_prints_the_truncation_mass(self, capsys, coeffs_file,
                                                 command):
        # the literal average over the truncated density is this mass
        # times each printed value
        from magictrap.ramsey import TrapFieldConfig
        from magictrap.thermal import truncation_mass
        cfg = TrapFieldConfig(TrapCoefficients(3.47e-4, -0.99e-4, 4.6e-12),
                              3.115, depth_hz_from_mk(0.12), 40e-6)
        code, out, err = run(capsys, [
            command, "--coeffs", coeffs_file, "--b-field", "3.115",
            "--depth-mk", "0.12", "--temp-uk", "40", "--points", "3"])
        assert (code, err) == (0, "")
        assert parse_doc(out)["truncation_mass"] == (
            f"{truncation_mass(cfg.ensemble):.9g}")

    def test_long_time_envelope_converges(self, capsys, coeffs_file):
        # once the ensemble has dephased the envelope sits far below the
        # relative tolerance of its own integral
        code, out, err = run(capsys, [
            "visibility", "--coeffs", coeffs_file, "--b-field", "3.115",
            "--depth-mk", "0.12", "--temp-uk", "17", "--t-max", "30",
            "--points", "31"])
        assert (code, err) == (0, "")
        assert 0.0 <= float(parse_doc(out)["visibility_final"]) < 1e-4

    def test_subnormal_times_in_a_deep_trap(self, capsys, coeffs_file):
        # at t <= 1e-307 s the saddle x* ~ 1/(2*p2) lies near float range,
        # where the modulus of Z must not overflow
        code, out, err = run(capsys, [
            "visibility", "--coeffs", coeffs_file, "--b-field", "3.115",
            "--depth-mk", "10", "--temp-uk", "2", "--t-max", "1e-315",
            "--points", "11"])
        assert (code, err) == (0, "")
        assert 1.0 - 1e-15 <= float(parse_doc(out)["visibility_final"]) <= 1.0

    @pytest.mark.parametrize("argv,label", [
        (["visibility"], "visibility"), (["ramsey"], "population"),
        (["ramsey", "--detuning-hz", "37"], None)])
    def test_shift_free_trap_at_huge_time(self, capsys, tmp_path, argv, label):
        # with no shift the phase is 0 at any finite t; a detuning turns the
        # carrier past float range, a coded failure that prints its phase
        path = tmp_path / "flat.toml"
        write_coefficients(path, TrapCoefficients(0.0, 0.0, 0.0))
        code, out, err = run(capsys, argv + [
            "--coeffs", str(path), "--b-field", "3.115", "--depth-mk", "0.2",
            "--temp-uk", "17", "--t-max", "1e308", "--points", "2"])
        if label is None:
            assert (code, out) == (1, "")
            assert err.splitlines() == [
                "error: numerical-failure: Ramsey carrier phase is not finite",
                "phase = inf"]
        else:
            assert (code, err) == (0, "")
            assert float(parse_doc(out)[f"{label}_final"]) == 1.0

    def test_plot_with_nothing_finite_is_a_domain_error(self, capsys,
                                                        coeffs_file, tmp_path):
        # at 1 nK on the magic depth with T1 = T2' = inf every tau is inf
        out_svg = tmp_path / "tau.svg"
        code, out, err = run(capsys, [
            "coherence-curve", "--coeffs", coeffs_file, "--b-field", "3.115",
            "--temp-uk", "0.001", "--t1", "inf", "--t2prime", "inf",
            "--ratio-min", "1", "--ratio-max", "1", "--points", "1",
            "--plot", str(out_svg)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid-argument:")
        assert not out_svg.exists()

    def test_coherence_curve_rejects_t1_before_any_solve(
            self, capsys, coeffs_file, monkeypatch):
        from magictrap import ramsey
        calls = []
        monkeypatch.setattr(ramsey, "_integrals", calls.append)
        code, out, err = run(capsys, [
            "coherence-curve", "--coeffs", coeffs_file, "--b-field", "3.115",
            "--temp-uk", "17", "--t1", "0", "--t2prime", "0.3"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid-argument: t1_s must be positive")
        assert calls == []

    def test_coherence_curve(self, capsys, coeffs_file, tmp_path):
        out_csv = tmp_path / "tau.csv"
        code, out, err = run(capsys, [
            "coherence-curve", "--coeffs", coeffs_file, "--b-field", "3.115",
            "--temp-uk", "8", "--t1", "4", "--t2prime", "0.3",
            "--ratio-min", "0.9", "--ratio-max", "1.1", "--points", "3",
            "--out", str(out_csv)])
        assert code == 0
        doc = parse_doc(out)
        assert float(doc["peak_ratio"]) == 1.0
        assert len(out_csv.read_text().splitlines()) == 4

    def test_coherence_curve_past_the_zero_crossing(self, capsys, coeffs_file):
        # past 3.505 G the vertex U_M lies above zero: no ratio of it is a trap
        code, out, err = run(capsys, [
            "coherence-curve", "--coeffs", coeffs_file, "--b-field", "4",
            "--temp-uk", "17", "--t1", "4", "--t2prime", "0.3"])
        assert (code, out) == (1, "")
        assert err == ("error: unphysical-configuration: magic depth is not "
                       "a trap at this field\n")


class TestScalars:
    def test_t2star_near_quoted(self, capsys, coeffs_file):
        code, out, err = run(capsys, [
            "t2star", "--coeffs", coeffs_file, "--b-field", "3.115",
            "--depth-mk", "0.201", "--temp-uk", "17"])
        assert code == 0
        assert float(parse_doc(out)["t2_star_s"]) == pytest.approx(1.5,
                                                                   rel=0.30)

    def test_beff(self, capsys):
        code, out, err = run(capsys, ["beff", "--depth-mk", "0.6"])
        assert code == 0
        assert float(parse_doc(out)["b_eff_gauss"]) == pytest.approx(1.12,
                                                                     rel=0.01)

    def test_beff_negative_depth_domain_error(self, capsys):
        code, out, err = run(capsys, ["beff", "--depth-mk", "-0.6"])
        assert code == 1
        assert err.startswith("error: invalid-argument:")
        assert len(err.splitlines()) == 1      # no diagnostics to print

    @pytest.mark.parametrize("argv,value", [
        (["t2star", "--coeffs", "COEFFS", "--b-field", "3.115",
          "--depth-mk", "nan", "--temp-uk", "17"], "nan"),
        (["beff", "--depth-mk", "inf"], "inf"),
        (["convert", "--mk", "nan"], "nan"),
        (["ramsey", "--coeffs", "COEFFS", "--b-field", "3.115",
          "--depth-mk", "nan", "--temp-uk", "17", "--points", "3"], "nan")])
    def test_non_finite_depth_is_named(self, capsys, coeffs_file, argv, value):
        code, out, err = run(capsys, [coeffs_file if a == "COEFFS" else a
                                      for a in argv])
        assert (code, out) == (1, "")
        assert err == (f"error: invalid-argument: trap depth must be finite, "
                       f"got {value} mK\n")

    @pytest.mark.parametrize("argv", [
        ["t2star", "--coeffs", "COEFFS", "--b-field", "3.115",
         "--depth-mk", "5e152", "--temp-uk", "17"],
        ["coherence-curve", "--coeffs", "COEFFS", "--b-field", "3.115",
         "--temp-uk", "8", "--t1", "4", "--t2prime", "0.3",
         "--ratio-min", "1e300", "--ratio-max", "1e300"]])
    def test_phase_spread_past_float_range_is_a_domain_error(
            self, capsys, coeffs_file, argv):
        code, out, err = run(capsys, [coeffs_file if a == "COEFFS" else a
                                      for a in argv])
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid-argument: phase per second")

    @pytest.mark.parametrize("argv", [
        ["magic", "--b-field", "1e308", "--coeffs", "COEFFS"],
        ["convert", "--kelvin", "1e308"],
        ["convert", "--mk", "1e306"],
        ["beff", "--ratio", "1e308", "--depth-mk", "0.6"],
        ["dls-curve", "--b-field", "3.115", "--coeffs", "COEFFS",
         "--depth-mk-max", "1e300", "--points", "3", "--out", "OUT"],
        # 1/T past float range: rejected before any T2* solve
        ["transfer", "--coeffs", "COEFFS", "--timeline", "TIMELINE",
         "--post-temp-uk", "16", "--t2star-static", "1e-320",
         "--t2star-mobile", "1.9", "--out", "OUT"],
        ["coherence-curve", "--coeffs", "COEFFS", "--b-field", "3.115",
         "--temp-uk", "17", "--t1", "1e-320", "--t2prime", "0.3",
         "--out", "OUT"],
        # beta1*U overflows (1e308) or the residuals do (1e300)
        ["fit-dls", "--input", "SHIFTS", "--beta1", "1e300"],
        ["fit-dls", "--input", "SHIFTS", "--beta1", "1e308"]])
    def test_result_past_float_range_is_a_domain_error(
            self, capsys, coeffs_file, shift_table, tmp_path, monkeypatch, argv):
        from magictrap import ramsey
        calls = []
        monkeypatch.setattr(ramsey, "_integrals", calls.append)
        table = tmp_path / "table.csv"
        code, out, err = run(capsys, [
            {"COEFFS": coeffs_file, "OUT": str(table), "SHIFTS": shift_table,
             "TIMELINE": write_timeline_doc(tmp_path)}.get(a, a) for a in argv])
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid-argument:")
        assert len(err.splitlines()) == 1
        assert not table.exists()
        assert calls == []

    def test_column_norm_past_float_range_is_a_domain_error(self, capsys, tmp_path):
        # b*U near 1e305 is finite, but the norm of its design column is not
        path = tmp_path / "dls.csv"
        lines = ["b_field_gauss,depth_mk,dls_hz"]
        for b in ("1e300", "2"):
            for depth_mk in (0.1, 0.2, 0.3):
                lines.append(f"{b},{depth_mk},{-100.0 * depth_mk}")
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, ["fit-dls", "--input", str(path),
                                      "--beta1", "3e-4"])
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid-argument:")
        assert len(err.splitlines()) == 1

    def test_convert(self, capsys):
        code, out, err = run(capsys, ["convert", "--mk", "0.2"])
        assert code == 0
        assert float(parse_doc(out)["depth_hz_signed"]) < 0

    def test_stdout_values_have_nine_significant_digits(self, capsys):
        code, out, err = run(capsys, ["convert", "--hz", "1"])
        assert (code, err) == (0, "")
        assert parse_doc(out)["kelvin"] == "4.79924307e-11"

    def test_precision_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["convert", "--mk", "0.2", "--precision", "5"])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    def test_convert_needs_input(self, capsys):
        code, out, err = run(capsys, ["convert"])
        assert code == 1
        assert "invalid-argument" in err

    def test_degenerate_grids_are_domain_errors(self, capsys, coeffs_file):
        code, out, err = run(capsys, [
            "coherence-curve", "--coeffs", coeffs_file, "--b-field", "3.115",
            "--temp-uk", "8", "--t1", "4", "--t2prime", "0.3",
            "--points", "-1"])
        assert code == 1
        assert "invalid-argument" in err
        code, out, err = run(capsys, [
            "visibility", "--coeffs", coeffs_file, "--b-field", "3.115",
            "--depth-mk", "0.2", "--temp-uk", "17", "--points", "0"])
        assert code == 1
        assert "invalid-argument" in err


class TestGridChecks:
    """A bad or oversized grid is an invalid-argument before any work: no
    coefficient file read, no T2* solve. The CLI builds its grids without
    numpy, so np.linspace is not watched."""

    RATIO = ["coherence-curve", "--coeffs", "COEFFS", "--b-field", "3.115",
             "--temp-uk", "8", "--t1", "4", "--t2prime", "0.3"]
    TRAP = ["--coeffs", "COEFFS", "--b-field", "3.115", "--depth-mk", "0.2",
            "--temp-uk", "17"]

    @pytest.fixture
    def no_work(self, monkeypatch):
        from magictrap import cli, datafiles, ramsey

        def refuse(*args, **kwargs):
            raise AssertionError("work done before the grid check")

        for owner, name in ((datafiles, "read_coefficients"),
                            (ramsey, "t2_star"), (ramsey, "_t2_stars"),
                            (cli, "coherence_vs_depth")):
            monkeypatch.setattr(owner, name, refuse)

    @pytest.mark.parametrize("argv", [
        RATIO + ["--ratio-min", "nan"],
        RATIO + ["--ratio-max", "nan"],
        RATIO + ["--ratio-min=-inf"],
        RATIO + ["--ratio-max", "inf"],
        RATIO + ["--ratio-min", "0"],
        RATIO + ["--ratio-max=-1"],
        RATIO + ["--ratio-min=-1e308", "--ratio-max", "1e308"],
        RATIO + ["--points", "0"],
        RATIO + ["--points", "10001"],
        ["dls-curve", "--coeffs", "COEFFS", "--b-field", "3.115",
         "--points", "1000000000"],
        ["dls-curve", "--coeffs", "COEFFS", "--b-field", "3.115", "--points", "0"],
        ["dls-curve", "--coeffs", "COEFFS", "--b-field", "3.115",
         "--depth-mk-max", "nan"],
        ["dls-curve", "--coeffs", "COEFFS", "--b-field", "3.115",
         "--depth-mk-min=-1e308", "--depth-mk-max", "1e308"],
        ["ramsey", *TRAP, "--points", "1000000000"],
        ["ramsey", *TRAP, "--t-max", "inf"],
        ["visibility", *TRAP, "--points", "10001"],
        ["visibility", *TRAP, "--t-max", "nan"]],
        ids=lambda argv: " ".join([argv[0], *argv[-2:]]))
    def test_bad_grid_is_rejected_first(self, capsys, no_work, argv):
        code, out, err = run(capsys, ["missing.toml" if a == "COEFFS" else a
                                      for a in argv])
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid-argument:")
        assert len(err.splitlines()) == 1

    @pytest.fixture
    def ratio_grid(self, capsys, monkeypatch, coeffs_file):
        """Run coherence-curve with extra options and a stub curve; returns
        the ratio grid it was given."""
        from magictrap import cli

        def stub(base, ratios, t1_s, t2_prime_s):
            seen.append(ratios)
            return [(r, 1.0) for r in ratios]

        def grid(*options):
            monkeypatch.setattr(cli, "coherence_vs_depth", stub)
            argv = [coeffs_file if a == "COEFFS" else a for a in self.RATIO]
            code, out, err = run(capsys, argv + list(options))
            assert (code, err) == (0, "")
            return seen.pop()

        seen = []
        return grid

    def test_largest_ratio_grid_passes_the_check(self, ratio_grid):
        from magictrap.cli import MAX_GRID_POINTS
        assert ratio_grid("--ratio-min", "1", "--ratio-max", "10000",
                          "--points", "10000") == [
            float(k) for k in range(1, MAX_GRID_POINTS + 1)]

    def test_default_ratio_grid_is_the_old_step_grid(self, ratio_grid):
        # 21 points from 0.5 to 1.5 are 0.5 + k*0.05 bit for bit, so the
        # default curve keeps its ratios to the last digit
        assert repr(ratio_grid()) == repr([0.5 + k * 0.05 for k in range(21)])

    def test_largest_points_grid_passes_the_check(self, capsys, coeffs_file):
        from magictrap.cli import MAX_GRID_POINTS
        code, out, err = run(capsys, [
            "dls-curve", "--coeffs", coeffs_file, "--b-field", "3.115",
            "--points", str(MAX_GRID_POINTS)])
        assert (code, err) == (0, "")
        assert parse_doc(out)["points"] == str(MAX_GRID_POINTS)


class TestArtifactsBeforeDocument:
    """An artifact that cannot be written fails the call before the
    document reaches stdout."""

    @pytest.mark.parametrize("command,flag", [
        ("dls-curve", "--out"), ("dls-curve", "--plot"),
        ("ramsey", "--out"), ("ramsey", "--plot"),
        ("visibility", "--out"), ("visibility", "--plot"),
        ("coherence-curve", "--out"), ("coherence-curve", "--plot"),
        ("fit-ramsey", "--plot"), ("transfer", "--out")])
    def test_unwritable_artifact_leaves_stdout_empty(self, capsys, coeffs_file,
                                                     tmp_path, command, flag):
        from magictrap.datafiles import write_table
        field = ["--coeffs", coeffs_file, "--b-field", "3.115"]
        trap = field + ["--depth-mk", "0.2014", "--temp-uk", "17",
                        "--t-max", "1", "--points", "3"]
        if command == "fit-ramsey":
            t = np.linspace(0.0, 0.4, 100)
            path = tmp_path / "trace.csv"
            write_table(path, ("t_s", "p"), list(zip(
                t, 0.5 + 0.5 * np.exp(-t / 0.2) * np.cos(2 * np.pi * 50.0 * t))))
            argv = ["--input", str(path)]
        elif command == "transfer":
            timeline = write_timeline_doc(tmp_path)
            argv = ["--coeffs", coeffs_file, "--timeline", timeline,
                    "--post-temp-uk", "16", "--t2star-static", "6.6",
                    "--t2star-mobile", "1.9"]
        elif command == "coherence-curve":
            argv = field + ["--temp-uk", "8", "--t1", "4", "--t2prime", "0.3",
                            "--ratio-min", "0.9", "--ratio-max", "1.1",
                            "--points", "3"]
        elif command == "dls-curve":
            argv = field + ["--points", "5"]
        else:
            argv = trap
        missing = tmp_path / "no-such-dir" / "artifact"
        code, out, err = run(capsys, [command, *argv, flag, str(missing)])
        assert (code, out) == (1, "")
        assert err == f"error: file-not-found: {missing}\n"


@pytest.mark.parametrize("case", ["coefficient-not-a-number", "out-is-a-directory"])
def test_unusable_file_is_a_coded_error(capsys, coeffs_file, tmp_path, case):
    argv = ["dls-curve", "--coeffs", coeffs_file, "--b-field", "3.115", "--points", "3"]
    if case == "coefficient-not-a-number":
        bad = tmp_path / "bad.toml"
        bad.write_text("beta1 = abc\nbeta2_per_gauss = -0.99e-4\nbeta4_per_hz = 4.6e-12\n")
        argv[2] = str(bad)
        expected = f"error: invalid-argument: {bad}:1: not a number: 'abc'\n"
    else:
        argv += ["--out", str(tmp_path)]
        expected = "error: io-error: "
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith(expected) and err.count("\n") == 1


class TestFits:
    def test_fit_dls(self, capsys, shift_table):
        code, out, err = run(capsys, ["fit-dls", "--input", shift_table,
                                      "--beta1", "3.47e-4"])
        assert code == 0
        doc = parse_doc(out)
        assert float(doc["beta2"]) == pytest.approx(-0.99e-4, rel=1e-6)
        assert float(doc["beta4"]) == pytest.approx(4.6e-12, rel=1e-6)
        assert "corr_beta2_beta4" in doc

    def test_fit_dls_free_beta1(self, capsys, shift_table):
        code, out, err = run(capsys, ["fit-dls", "--input", shift_table,
                                      "--free-beta1"])
        assert (code, err) == (0, "")
        doc = parse_doc(out)
        assert doc["beta1_fixed"] == "free"
        assert float(doc["beta1"]) == pytest.approx(3.47e-4, rel=1e-6)
        assert "beta1_stderr" in doc

    @pytest.mark.parametrize("options", [["--beta1", "3.47e-4", "--free-beta1"], []],
                             ids=["both", "neither"])
    def test_fit_dls_takes_exactly_one_beta1_option(self, capsys, shift_table,
                                                    options):
        with pytest.raises(SystemExit) as info:
            main(["fit-dls", "--input", shift_table, *options])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert "--beta1" in last and "--free-beta1" in last

    def test_fit_dls_keys_each_field_apart(self, capsys, tmp_path):
        # 3.115 and 3.1150001 G share a %g form but are distinct fields
        from magictrap.datafiles import write_table
        from magictrap.dls import dls
        coeffs = TrapCoefficients(3.47e-4, -0.99e-4, 4.6e-12)
        fields = (2.7, 3.115, 3.1150001)
        path = tmp_path / "dls.csv"
        write_table(path, ("b_field_gauss", "depth_mk", "dls_hz"), [
            (b, depth_mk, dls(coeffs, b, depth_hz_from_mk(depth_mk)))
            for b in fields for depth_mk in (0.05, 0.1, 0.2, 0.3)])
        code, out, err = run(capsys, ["fit-dls", "--input", str(path),
                                      "--beta1", "3.47e-4"])
        assert (code, err) == (0, "")
        keys = [line.partition(" = ")[0] for line in out.splitlines()]
        assert len(keys) == len(set(keys))
        for b in fields:
            assert f"u_m_hz_at_{b!r}G" in keys
            assert f"u_m_sigma_hz_at_{b!r}G" in keys

    def test_fit_dls_missing_file(self, capsys):
        code, out, err = run(capsys, ["fit-dls", "--input", "missing.csv",
                                      "--beta1", "3.47e-4"])
        assert code == 1
        assert err.startswith("error: file-not-found:")

    def test_fit_ramsey(self, capsys, tmp_path):
        from magictrap.datafiles import write_table
        t = np.linspace(0.0, 0.4, 100)
        p = 0.5 + 0.5 * np.exp(-t / 0.206) * np.cos(2 * np.pi * 50.0 * t)
        path = tmp_path / "trace.csv"
        write_table(path, ("t_s", "p"), list(zip(t, p)))
        plot = tmp_path / "fit.svg"
        code, out, err = run(capsys, ["fit-ramsey", "--input", str(path),
                                      "--plot", str(plot)])
        assert code == 0
        doc = parse_doc(out)
        assert float(doc["tau"]) == pytest.approx(0.206, rel=1e-5)
        assert float(doc["delta"]) == pytest.approx(50.0, rel=1e-5)
        assert "corr_v0_tau" in doc
        assert plot.exists()

    @pytest.mark.parametrize("command,options,names", [
        ("fit-dls", ["--beta1", "3.47e-4"], ["beta2", "beta4"]),
        ("fit-dls", ["--free-beta1"], ["beta1", "beta2", "beta4"]),
        ("fit-ramsey", [], ["v0", "tau", "delta", "phi", "offset"])],
        ids=["fit-dls-fixed-beta1", "fit-dls-free-beta1", "fit-ramsey"])
    def test_fit_document_states_each_number_once(self, capsys, tmp_path,
                                                  command, options, names):
        # noisy, unweighted input: each parameter and its stderr, chi^2 and
        # dof, then the correlation of each pair of parameters a before b
        from magictrap.datafiles import write_table
        from magictrap.dls import dls
        rng = np.random.default_rng(21)
        path = tmp_path / "input.csv"
        if command == "fit-dls":
            coeffs = TrapCoefficients(3.47e-4, -0.99e-4, 4.6e-12)
            write_table(path, ("b_field_gauss", "depth_mk", "dls_hz"), [
                (b, d, dls(coeffs, b, depth_hz_from_mk(d)) + rng.normal(0.0, 2.0))
                for b in (2.8, 3.0, 3.115, 3.3) for d in (0.05, 0.1, 0.2, 0.3)])
            head = ["n_datasets", "n_points", "beta1_fixed"]
        else:
            t = np.linspace(0.0, 0.4, 100)
            p = 0.5 + 0.5 * np.exp(-t / 0.206) * np.cos(2 * np.pi * 50.0 * t)
            write_table(path, ("t_s", "p"), list(zip(t, p + rng.normal(0.0, 0.02, t.size))))
            head = []
        code, out, err = run(capsys, [command, "--input", str(path), *options])
        assert (code, err) == (0, "")
        keys = [line.partition(" = ")[0] for line in out.splitlines()]
        corr_keys = [f"corr_{a}_{b}" for i, a in enumerate(names) for b in names[i + 1:]]
        assert len(corr_keys) == len(names) * (len(names) - 1) // 2
        block = head + [key for name in names for key in (name, f"{name}_stderr")]
        block += ["chi_square", "dof"] + corr_keys
        assert keys[:len(block)] == block
        # fit-dls goes on with the vertex depth and its uncertainty per field
        assert all(key.startswith("u_m_") for key in keys[len(block):])
        doc = parse_doc(out)
        for key in corr_keys:
            assert -1.0 - 1e-12 <= float(doc[key]) <= 1.0 + 1e-12, key
        for name in names:
            assert float(doc[f"{name}_stderr"]) > 0.0, name

    @pytest.mark.parametrize("scale_p,sigma", [(1e300, None), (1.0, 1e-300)],
                             ids=["values-1e300", "sigma-1e-300"])
    def test_fit_ramsey_past_float_range_is_a_domain_error(
            self, capsys, tmp_path, monkeypatch, scale_p, sigma):
        # chi^2 at the start point overflows: rejected before the solver runs
        from magictrap import fitting
        from magictrap.datafiles import write_table
        solves = []
        monkeypatch.setattr(fitting, "least_squares",
                            lambda *a, **k: solves.append(a))
        t = np.linspace(0.0, 0.4, 50)
        p = scale_p * (0.5 + 0.4 * np.exp(-t / 0.2) * np.cos(2 * np.pi * 40 * t))
        path = tmp_path / "trace.csv"
        if sigma is None:
            write_table(path, ("t_s", "p"), list(zip(t, p)))
        else:
            write_table(path, ("t_s", "p", "sigma"),
                        list(zip(t, p, np.full(t.size, sigma))))
        code, out, err = run(capsys, ["fit-ramsey", "--input", str(path)])
        assert (code, out) == (1, "")
        assert err == ("error: invalid-argument: damped-sinusoid fit is past "
                       "float range\n")
        assert solves == []

    def test_fit_ramsey_times_spanning_past_float_range(self, capsys, tmp_path):
        # every time is finite, their span is not
        from magictrap.datafiles import write_table
        t = 1.5e308 * np.linspace(-1.0, 1.0, 50)
        p = 0.5 + 0.4 * np.cos(2 * np.pi * np.linspace(0.0, 8.0, 50))
        path = tmp_path / "trace.csv"
        write_table(path, ("t_s", "p"), list(zip(t, p)))
        code, out, err = run(capsys, ["fit-ramsey", "--input", str(path)])
        assert (code, out) == (1, "")
        assert err == ("error: invalid-argument: sample times must span a "
                       "finite range\n")

    @pytest.mark.parametrize("time", [1e308, -1e308])
    def test_fit_ramsey_one_time_past_the_spectrum_grid(self, capsys, tmp_path, time):
        from magictrap.datafiles import write_table
        t = np.linspace(0.0, 0.4, 50)
        p = 0.5 + 0.4 * np.exp(-t / 0.2) * np.cos(2 * np.pi * 40 * t)
        t[-1 if time > 0 else 0] = time
        path = tmp_path / "trace.csv"
        write_table(path, ("t_s", "p"), list(zip(t, p)))
        code, out, err = run(capsys, ["fit-ramsey", "--input", str(path)])
        assert (code, out) == (1, "")
        assert err == ("error: invalid-argument: median sample step is too small "
                       "against the span: the frequency grid is past float range\n")

    @pytest.mark.parametrize("command,column,bad,message", [
        ("fit-ramsey", 0, "nan", "sample times must be finite"),
        ("fit-ramsey", 0, "inf", "sample times must be finite"),
        ("fit-dls", 2, "nan", "shifts must be finite")])
    def test_non_finite_cell_is_a_coded_error(self, capsys, tmp_path, command,
                                              column, bad, message):
        from magictrap.datafiles import write_table
        path = tmp_path / "input.csv"
        if command == "fit-ramsey":
            t = np.linspace(0.0, 0.4, 100)
            rows = [[ti, 0.5 + 0.5 * np.cos(2 * np.pi * 50.0 * ti)] for ti in t]
            header = ("t_s", "p")
            argv = ["fit-ramsey", "--input", str(path)]
        else:
            rows = [[b, d, -100.0 * d] for b in (2.8, 3.3) for d in (0.1, 0.2, 0.3)]
            header = ("b_field_gauss", "depth_mk", "dls_hz")
            argv = ["fit-dls", "--input", str(path), "--beta1", "3.47e-4"]
        rows[4][column] = bad
        write_table(path, header, rows)
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == f"error: invalid-argument: {message}\n"

    @pytest.mark.parametrize("command,text,width", [
        ("fit-ramsey", "t_s,p,sigma\n0.1,0.4\n", 3),
        ("fit-dls", "b_field_gauss,depth_mk,dls_hz,sigma_hz\n3.0,0.1,-150.0\n", 4)],
        ids=["fit-ramsey", "fit-dls"])
    def test_short_row_under_a_sigma_header(self, capsys, tmp_path, command,
                                            text, width):
        path = tmp_path / "input.csv"
        path.write_text(text)
        argv = [command, "--input", str(path)]
        if command == "fit-dls":
            argv += ["--beta1", "3.47e-4"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"error: invalid-argument: {path}:2: expected >= {width} columns\n"

    def test_undecodable_input_is_a_coded_error(self, capsys, tmp_path):
        path = tmp_path / "coeffs.toml"
        path.write_bytes(b"beta1 = 3.47e-4 # \xff\n")
        code, out, err = run(capsys, ["magic", "--b-field", "3.115",
                                      "--coeffs", str(path)])
        assert (code, out) == (1, "")
        assert err == (f"error: invalid-argument: {path}: not UTF-8 text "
                       "(invalid start byte)\n")


class TestErrorDiagnostics:
    def test_ill_conditioned_fit_prints_condition_number(self, capsys, tmp_path):
        # two fields 1e-10 G apart make the U and B*U columns collinear
        path = tmp_path / "dls.csv"
        lines = ["b_field_gauss,depth_mk,dls_hz"]
        for b in ("3.0", "3.0000000001"):
            for depth_mk in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
                lines.append(f"{b},{depth_mk},{-100.0 * depth_mk}")
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, ["fit-dls", "--input", str(path),
                                      "--free-beta1"])
        assert code == 1
        assert out == ""
        first, *rest = err.splitlines()
        assert first.startswith("error: ill-conditioned:")
        assert len(rest) == 1
        key, _, value = rest[0].partition(" = ")
        assert key == "condition_number"
        assert float(value) > 1e12

    def test_numerical_failure_prints_each_entry(self, capsys, monkeypatch,
                                                 coeffs_file):
        from magictrap import cli
        from magictrap.errors import NumericalFailureError

        def failing(*args, **kwargs):
            raise NumericalFailureError(
                "root bracket lost",
                diagnostics={"iterations": 7, "last_t_s": 0.25})

        monkeypatch.setattr(cli, "t2_star", failing)
        code, out, err = run(capsys, [
            "t2star", "--coeffs", coeffs_file, "--b-field", "3.115",
            "--depth-mk", "0.201", "--temp-uk", "17"])
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: numerical-failure: root bracket lost",
            "iterations = 7",
            "last_t_s = 0.25",
        ]


class TestSelftestPlumbing:
    def test_failure_surfaces_as_nonzero_exit(self, capsys, monkeypatch):
        from magictrap import acceptance

        def forced_failure():
            return acceptance.CheckResult("synthetic-failure", False, "forced")

        monkeypatch.setattr(acceptance, "ALL_CHECKS", (forced_failure,))
        code = main(["selftest"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL  synthetic-failure" in out
        assert "0/1 checks passed" in out


class TestTransferCommand:
    def test_budget_with_measured_t2(self, capsys, coeffs_file, tmp_path):
        timeline = write_timeline_doc(tmp_path)
        out_csv = tmp_path / "budget.csv"
        code, out, err = run(capsys, [
            "transfer", "--coeffs", coeffs_file, "--timeline", timeline,
            "--post-temp-uk", "16", "--t2star-static", "6.6",
            "--t2star-mobile", "1.9", "--out", str(out_csv)])
        assert code == 0
        doc = parse_doc(out)
        assert float(doc["fractional_tau_loss"]) == pytest.approx(0.0912,
                                                                  abs=2e-4)
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("phase,duration_s,t2_used_s")
        assert len(lines) == 5

    def test_infinite_tau_gain_is_a_coded_error(self, capsys, coeffs_file,
                                                tmp_path):
        # T1 = T2' = T2*_mobile = inf: tau_mobile is infinite, tau_static
        # 1.9 s, and the loss 1 - inf/1.9 is not a number to print
        path = tmp_path / "endless.json"
        doc = json.loads(Path(write_timeline_doc(tmp_path)).read_text())
        path.write_text(json.dumps(dict(doc, t1_s=math.inf, t2prime_s=math.inf)))
        code, out, err = run(capsys, [
            "transfer", "--coeffs", coeffs_file, "--timeline", str(path),
            "--post-temp-uk", "16", "--t2star-static", "1.9",
            "--t2star-mobile", "inf"])
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid-argument: fractional tau loss")

    def test_negative_measured_t2star_rejected_before_any_solve(
            self, capsys, coeffs_file, tmp_path, monkeypatch):
        from magictrap import ramsey
        calls = []
        monkeypatch.setattr(ramsey, "_integrals", calls.append)
        timeline = write_timeline_doc(tmp_path)
        code, out, err = run(capsys, [
            "transfer", "--coeffs", coeffs_file, "--timeline", timeline,
            "--post-temp-uk", "16", "--t2star-static", "-1"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid-argument:")
        assert calls == []

    def test_non_finite_post_transfer_temperature(self, capsys, coeffs_file,
                                                  tmp_path):
        timeline = write_timeline_doc(tmp_path)
        code, out, err = run(capsys, [
            "transfer", "--coeffs", coeffs_file, "--timeline", timeline,
            "--post-temp-uk", "nan"])
        assert code == 1
        assert out == ""
        assert err == ("error: invalid-argument: post-transfer temperature "
                       "must be finite\n")

    @pytest.mark.parametrize("edit", [
        lambda doc: [],
        lambda doc: dict(doc, t1_s=None),
        lambda doc: dict(doc, segments=[1]),
    ], ids=["top-level-list", "null-t1", "number-segment"])
    def test_malformed_timeline_is_a_coded_error(self, capsys, coeffs_file,
                                                 tmp_path, edit):
        write_timeline_doc(tmp_path)
        path = tmp_path / "timeline.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        code, out, err = run(capsys, [
            "transfer", "--coeffs", coeffs_file, "--timeline", str(path),
            "--post-temp-uk", "16"])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: invalid-argument: {path}: ")
        assert len(err.splitlines()) == 1

    def test_broken_timeline_is_a_coded_error(self, capsys, coeffs_file,
                                             tmp_path):
        doc = {"t1_s": 4.0, "t2prime_s": 0.3, "segments": [
            {"phase": "Move", "duration_s": 1e-3, "depth_mk": 0.2,
             "temperature_uk": 14.0, "b_field_gauss": 3.115}]}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, [
            "transfer", "--coeffs", coeffs_file, "--timeline", str(path),
            "--post-temp-uk", "16"])
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: invalid-timeline: missing-overlap: expected Overlap "
            "before segment 0 (Move)",
            "violation = missing-overlap",
            "segment = 0"]


#: a cold process: the CLI imported, which loads every package module but
#: the acceptance checks (the benchmark reaches the modules it times through
#: that one import); then every package module imported; then the scalar
#: commands (the README's dls-curve call among them), --help, --version,
#: --constants and a usage error, none of which may load numpy; then the
#: command in argv, which may
COLD_START = """
import contextlib, importlib, io, pkgutil, sys
import magictrap
from magictrap import cli

loaded = sorted(name for name in sys.modules if name.split(".")[0] == "magictrap")
assert loaded == ["magictrap", "magictrap.cli", "magictrap.datafiles", "magictrap.dls",
                  "magictrap.errors", "magictrap.fitting", "magictrap.parallel",
                  "magictrap.quadrature", "magictrap.ramsey", "magictrap.svg",
                  "magictrap.thermal", "magictrap.transfer"], loaded
for module in pkgutil.iter_modules(magictrap.__path__):
    importlib.import_module("magictrap." + module.name)
coeffs = "out/measured_coeffs.toml"
for argv in (["convert", "--mk", "0.2"], ["magic", "--b-field", "3.115", "--coeffs", coeffs],
             ["dls-curve", "--b-field", "3.115", "--coeffs", coeffs, "--plot", "out/dls.svg"],
             ["beff", "--depth-mk", "0.6"], ["--version"], ["--constants"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
for argv, status in ((["--help"], 0), (["magic", "--bogus"], 2)):
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
    except SystemExit as exit:
        assert exit.code == status, (argv, exit.code)
    else:
        raise AssertionError(f"{argv} did not exit")
assert "numpy" not in sys.modules, "a scalar command loaded numpy"
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_cold_process_loads_numpy_only_for_array_work(tmp_path):
    # then the README's t2star call must print its transcript, so numpy
    # loaded on first use reaches the kernel as an import at the top would
    transcript = Path(__file__).resolve().parent / "readme_transcript"
    (tmp_path / "out").mkdir()
    shutil.copy(transcript / "artifacts" / "measured_coeffs.toml", tmp_path / "out")
    (call,) = [chunk for chunk in
               (transcript / "stdout.txt").read_text(encoding="utf-8").split("$ ")
               if chunk.startswith("magictrap t2star ")]
    command, expected = call.split("\n", 1)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", COLD_START, *shlex.split(command)[1:]],
                          env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected


@pytest.mark.parametrize("start,stop,num", [
    (0.0, 0.6, 121), (0.0, 0.4, 201), (0.0, 2.0, 101), (0.0, 0.4, 400),  # README
    (0.2, 0.7, 1), (0.2, 0.7, 2), (0.3, 0.3, 7), (2.5, -1.0, 9),
    (0.0, 5e-324, 4), (5e-324, 2e-323, 3), (0.0, math.inf, 5), (1.0, -math.inf, 1),
    (0.0, math.nan, 3), (-1e308, 1e308, 5)])
def test_linspace_is_numpys_bit_for_bit(start, stop, num):
    if not math.isfinite(stop - start):  # where numpy's grid holds inf or nan
        with pytest.raises(InvalidArgumentError, match="span must be finite"):
            _grid(start, stop, num)
        return
    assert repr(_grid(start, stop, num)) == repr(np.linspace(start, stop, num).tolist())


def test_linspace_matches_numpy_on_a_random_sweep():
    rng = random.Random(2024)
    for _ in range(2000):
        start, stop = (rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 300)
                       for _ in range(2))
        num = rng.randint(1, 300)
        # the same length and the same bits: -0.0, NaN payloads and every
        # last digit count
        grid = np.array(_grid(start, stop, num), dtype=float)
        assert np.array_equal(grid.view(np.int64),
                              np.linspace(start, stop, num).view(np.int64)), (
            start, stop, num)
