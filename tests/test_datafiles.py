import json
import math

import numpy as np
import pytest

from magictrap import datafiles
from magictrap.acceptance import MEASURED_COEFFS, reference_transfer_timeline
from magictrap.dls import TrapCoefficients, hz_from_kelvin
from magictrap.errors import InvalidArgumentError, TimelineError

COEFFS = TrapCoefficients(3.47e-4, -0.99e-4, 4.6e-12)


class TestCoefficientFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "coeffs.toml"
        datafiles.write_coefficients(path, COEFFS)
        back = datafiles.read_coefficients(path)
        assert back == COEFFS

    def test_comments_and_spacing(self, tmp_path):
        path = tmp_path / "coeffs.toml"
        path.write_text(
            "# fitted values\n"
            "beta1 = 3.47e-4\n"
            "beta2_per_gauss=-0.99e-4  # cross term\n"
            "beta4_per_hz = 4.6e-12\n"
            "polarization_A = 1.0\n")
        back = datafiles.read_coefficients(path)
        assert back.beta2 == -0.99e-4

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("beta1 = 3.47e-4\n")
        with pytest.raises(InvalidArgumentError):
            datafiles.read_coefficients(path)

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("beta1 3.47e-4\n")
        with pytest.raises(InvalidArgumentError):
            datafiles.read_coefficients(path)

    @pytest.mark.parametrize("key,lines", [
        ("beta1", ["beta1 = 1e-4", "beta2_per_gauss = -0.99e-4",
                   "beta4_per_hz = 4.6e-12", "beta1=3.47e-4"]),
        ("polarization_A", ["beta1 = 3.47e-4", "polarization_A = 1.0",
                            "beta2_per_gauss = -0.99e-4", "beta4_per_hz = 4.6e-12",
                            "  polarization_A = 2.0  # again"])])
    def test_repeated_key(self, tmp_path, key, lines):
        # an ignored key counts too: any key given twice is ambiguous
        path = tmp_path / "twice.toml"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidArgumentError) as info:
            datafiles.read_coefficients(path)
        assert str(info.value) == f"{path}:{len(lines)}: repeated key {key!r}"


class TestDepthConvention:
    def test_positive_mk_becomes_negative_hz(self):
        depth = datafiles.depth_hz_from_mk(0.2)
        assert depth == pytest.approx(-hz_from_kelvin(0.2e-3), rel=1e-12)
        assert depth < 0

    def test_round_trip(self):
        assert datafiles.mk_from_depth_hz(
            datafiles.depth_hz_from_mk(0.17)) == pytest.approx(0.17, rel=1e-12)

    @pytest.mark.parametrize("depth_hz", [-0.0, -1e-300, -4.2e6, -1e300])
    def test_trap_depths_read_as_their_size(self, depth_hz):
        mk = datafiles.mk_from_depth_hz(depth_hz)
        assert math.copysign(1.0, mk) == 1.0
        assert mk == abs(depth_hz) / hz_from_kelvin(1e-3)

    def test_a_vertex_above_zero_reads_negative(self):
        assert datafiles.mk_from_depth_hz(4.2e6) == -datafiles.mk_from_depth_hz(-4.2e6)

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidArgumentError):
            datafiles.depth_hz_from_mk(-0.1)


class TestCsv:
    def test_table_round_trip_precision(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [(0.1234567891234, -4.19728260869e6),
                (2.0 / 3.0, 1.0e-12)]
        datafiles.write_table(path, ("a", "b"), rows)
        text = path.read_text().splitlines()
        assert text[0] == "a,b"
        for line, row in zip(text[1:], rows):
            for cell, value in zip(line.split(","), row):
                assert float(cell) == pytest.approx(value, rel=1e-11)

    def test_read_dls_groups_by_field(self, tmp_path):
        path = tmp_path / "dls.csv"
        path.write_text(
            "b_field_gauss,depth_mk,dls_hz,sigma_hz\n"
            "3.0,0.1,-150.0,2.0\n"
            "3.0,0.2,-260.0,2.0\n"
            "3.0,0.3,-330.0,2.0\n"
            "3.2,0.1,-140.0,2.0\n"
            "3.2,0.2,-240.0,2.0\n"
            "3.2,0.3,-300.0,2.0\n")
        datasets = datafiles.read_dls_csv(path)
        assert [ds.b_field_gauss for ds in datasets] == [3.0, 3.2]
        assert all(ds.sigmas_given for ds in datasets)
        depth, shift, sigma = datasets[0].points[0]
        assert depth == pytest.approx(-hz_from_kelvin(1e-4), rel=1e-12)
        assert shift == -150.0
        assert sigma == 2.0

    def test_read_dls_without_sigma(self, tmp_path):
        path = tmp_path / "dls.csv"
        path.write_text(
            "b_field_gauss,depth_mk,dls_hz\n"
            "3.0,0.1,-150.0\n3.0,0.2,-260.0\n3.0,0.3,-330.0\n"
            "3.2,0.1,-140.0\n3.2,0.2,-240.0\n3.2,0.3,-300.0\n")
        datasets = datafiles.read_dls_csv(path)
        assert not datasets[0].sigmas_given

    def test_read_ramsey(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t_s,p,sigma\n0.0,1.0,0.05\n0.01,0.4,0.05\n")
        rows = datafiles.read_ramsey_csv(path)
        assert rows == [(0.0, 1.0, 0.05), (0.01, 0.4, 0.05)]

    @pytest.mark.parametrize("header,width", [("t_s", 2), ("t_s,p", 2),
                                              ("t_s,p,sigma", 3),
                                              ("t_s,p,sigma,note", 3)])
    def test_rows_are_cut_to_the_header_width(self, tmp_path, header, width):
        # the header fixes the width, clamped to 2..3 columns; cells past it
        # are not read
        path = tmp_path / "trace.csv"
        path.write_text(f"{header}\n0.0,1.0,0.05,x\n\n , \n0.01,0.4,0.05,y\n")
        rows = datafiles.read_ramsey_csv(path)
        assert rows == [(0.0, 1.0, 0.05)[:width], (0.01, 0.4, 0.05)[:width]]

    @pytest.mark.parametrize("reader,text,width", [
        (datafiles.read_ramsey_csv, "t_s,p,sigma\n0.0,1.0,0.05\n0.1,0.4\n", 3),
        (datafiles.read_dls_csv,
         "b_field_gauss,depth_mk,dls_hz,sigma_hz\n3.0,0.1,-150.0,2.0\n"
         "3.0,0.2,-260.0\n", 4)], ids=["ramsey", "dls"])
    def test_short_row_under_a_sigma_header(self, tmp_path, reader, text, width):
        # a sigma header makes the column required in every row
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(InvalidArgumentError) as info:
            reader(path)
        assert str(info.value) == f"{path}:3: expected >= {width} columns"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InvalidArgumentError):
            datafiles.read_ramsey_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,p\n0.0,one\n")
        with pytest.raises(InvalidArgumentError):
            datafiles.read_ramsey_csv(path)


class TestTimeline:
    def timeline_doc(self):
        return {
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

    def test_read(self, tmp_path):
        path = tmp_path / "timeline.json"
        path.write_text(json.dumps(self.timeline_doc()))
        timeline = datafiles.read_timeline(path, COEFFS)
        assert len(timeline.segments) == 4
        assert timeline.segments[0].t2_override_s == 0.025
        assert timeline.segments[1].t2_override_s is None
        assert timeline.segments[1].config.temperature_k == pytest.approx(14e-6)
        assert timeline.t1_s == 4.0

    def test_write_round_trip(self, tmp_path):
        timeline = reference_transfer_timeline()
        path = tmp_path / "timeline.json"
        datafiles.write_timeline(path, timeline)
        back = datafiles.read_timeline(path, MEASURED_COEFFS)
        assert (back.t1_s, back.t2prime_s) == (timeline.t1_s, timeline.t2prime_s)
        for seg, got in zip(timeline.segments, back.segments, strict=True):
            assert (got.phase, got.duration_s, got.t2_override_s) == (
                seg.phase, seg.duration_s, seg.t2_override_s)
            for name in ("mean_depth_hz", "temperature_k", "b_field_gauss"):
                assert getattr(got.config, name) == pytest.approx(
                    getattr(seg.config, name), rel=1e-14)
        # the register holds at the exact magic depth, not a rounded one
        assert json.loads(path.read_text())["segments"][-1]["depth_mk"] == (
            pytest.approx(0.20143779486743102, rel=1e-14))

    def test_missing_key(self, tmp_path):
        doc = self.timeline_doc()
        del doc["segments"][0]["duration_s"]
        path = tmp_path / "timeline.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidArgumentError):
            datafiles.read_timeline(path, COEFFS)

    def test_bad_phase(self, tmp_path):
        doc = self.timeline_doc()
        doc["segments"][0]["phase"] = "Teleport"
        path = tmp_path / "timeline.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidArgumentError):
            datafiles.read_timeline(path, COEFFS)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "timeline.json"
        path.write_text("{not json")
        with pytest.raises(InvalidArgumentError):
            datafiles.read_timeline(path, COEFFS)

    def test_off_grammar_is_a_timeline_error(self, tmp_path):
        doc = self.timeline_doc()
        doc["segments"] = doc["segments"][1:2]  # a Move alone
        path = tmp_path / "timeline.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TimelineError) as info:
            datafiles.read_timeline(path, COEFFS)
        assert info.value.code == "invalid-timeline"
        assert info.value.diagnostics == {"violation": "missing-overlap",
                                          "segment": 0}


@pytest.mark.parametrize("reader", [
    datafiles.read_coefficients, datafiles.read_dls_csv, datafiles.read_ramsey_csv,
    lambda path: datafiles.read_timeline(path, COEFFS)],
    ids=["coefficients", "dls_csv", "ramsey_csv", "timeline"])
def test_undecodable_file_is_an_invalid_argument(tmp_path, reader):
    path = tmp_path / "input"
    path.write_bytes(b"\xff")
    with pytest.raises(InvalidArgumentError) as info:
        reader(path)
    assert str(info.value) == f"{path}: not UTF-8 text (invalid start byte)"


class TestFormatting:
    def test_infinity(self):
        assert datafiles.format_value(math.inf, 9) == "inf"
        assert datafiles.format_value(-math.inf, 9) == "-inf"
        assert datafiles.format_value(math.nan, 9) == "nan"
        assert datafiles.format_value(np.float64("inf"), 9) == "inf"

    def test_precision(self):
        assert datafiles.format_value(1.0 / 3.0, precision=12) == "0.333333333333"

    def test_keyvalue(self, capsys):
        import sys
        datafiles.write_keyvalue(sys.stdout, [("a", 1.5), ("b", "text")], 9)
        out = capsys.readouterr().out
        assert out == "a = 1.5\nb = text\n"
