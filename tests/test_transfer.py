import math
from dataclasses import replace

import pytest

from magictrap.cli import main
from magictrap.datafiles import write_coefficients, write_timeline
from magictrap.dls import TrapCoefficients, hz_from_kelvin, magic_depth
from magictrap.errors import (
    InvalidArgumentError,
    TimelineError,
    UnphysicalConfigurationError,
)
from magictrap.ramsey import TrapFieldConfig
from magictrap.transfer import (
    Phase,
    TransferSegment,
    TransferTimeline,
    coherence_budget,
)

MEASURED = TrapCoefficients(3.47e-4, -0.99e-4, 4.6e-12)
B0 = 3.115


def trap_config(depth_mk, temperature_uk):
    return TrapFieldConfig(MEASURED, B0, -hz_from_kelvin(depth_mk * 1e-3),
                           temperature_uk * 1e-6)


STATIC = TrapFieldConfig(MEASURED, B0, magic_depth(MEASURED, B0), 8e-6)
MOVER = trap_config(0.2, 14.0)
OVERLAP = trap_config(0.37, 14.0)


def segment(phase, duration, config=STATIC, override=None):
    return TransferSegment(phase, duration, config, override)


def reference_timeline():
    return TransferTimeline((
        segment(Phase.OVERLAP, 1e-4, OVERLAP, override=0.025),
        segment(Phase.MOVE, 2e-3, MOVER),
        segment(Phase.RETURN, 1e-4, MOVER),
        segment(Phase.HOLD, 0.0, STATIC),
    ), t1_s=4.0, t2prime_s=0.3)


def violation(segments):
    """The diagnostics of the TimelineError that building raises."""
    with pytest.raises(TimelineError) as info:
        TransferTimeline(tuple(segments), 4.0, 0.3)
    assert str(info.value).startswith(info.value.diagnostics["violation"] + ": ")
    return info.value.diagnostics


class TestValidation:
    """A timeline checks its grammar and durations when it is built."""

    def test_documented_sequence_accepted(self):
        assert len(reference_timeline().segments) == 4

    def test_full_grammar_accepted(self):
        timeline = TransferTimeline((
            segment(Phase.HOLD, 0.1),
            segment(Phase.OVERLAP, 1e-4, OVERLAP, override=0.025),
            segment(Phase.RAMP_UP, 1e-4, MOVER),
            segment(Phase.MOVE, 2e-3, MOVER),
            segment(Phase.RETURN, 1e-4, MOVER),
            segment(Phase.RAMP_DOWN, 1e-4, MOVER),
            segment(Phase.HOLD, 0.1),
        ), t1_s=4.0, t2prime_s=0.3)
        assert len(timeline.segments) == 7

    def test_split_segments_stay_legal(self):
        timeline = TransferTimeline((
            segment(Phase.OVERLAP, 5e-5, OVERLAP, override=0.025),
            segment(Phase.OVERLAP, 5e-5, OVERLAP, override=0.025),
            segment(Phase.MOVE, 1e-3, MOVER),
            segment(Phase.MOVE, 1e-3, MOVER),
            segment(Phase.RETURN, 1e-4, MOVER),
            segment(Phase.HOLD, 0.0),
        ), t1_s=4.0, t2prime_s=0.3)
        assert len(timeline.segments) == 6

    def test_empty_timeline(self):
        # no segment is to blame
        assert violation(()) == {"violation": "missing-move"}

    def test_negative_duration(self):
        assert violation((
            segment(Phase.OVERLAP, -1e-4, OVERLAP, override=0.025),
            segment(Phase.MOVE, 2e-3, MOVER),
            segment(Phase.RETURN, 1e-4, MOVER),
        )) == {"violation": "negative-duration", "segment": 0}

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_non_finite_duration(self, duration):
        assert violation((
            segment(Phase.OVERLAP, 1e-4, OVERLAP, override=0.025),
            segment(Phase.MOVE, duration, MOVER),
            segment(Phase.RETURN, 1e-4, MOVER),
        )) == {"violation": "negative-duration", "segment": 1}

    def test_missing_overlap(self):
        assert violation((segment(Phase.MOVE, 1e-3, MOVER),)) == {
            "violation": "missing-overlap", "segment": 0}

    def test_missing_return(self):
        assert violation((
            segment(Phase.OVERLAP, 1e-4, OVERLAP, override=0.025),
            segment(Phase.MOVE, 2e-3, MOVER),
            segment(Phase.HOLD, 0.1),
        )) == {"violation": "missing-return", "segment": 2}
        # the timeline ends early: no segment is to blame
        assert violation((
            segment(Phase.OVERLAP, 1e-4, OVERLAP, override=0.025),
            segment(Phase.MOVE, 2e-3, MOVER),
        )) == {"violation": "missing-return"}

    def test_out_of_order_phase(self):
        assert violation((
            segment(Phase.OVERLAP, 1e-4, OVERLAP, override=0.025),
            segment(Phase.MOVE, 2e-3, MOVER),
            segment(Phase.RETURN, 1e-4, MOVER),
            segment(Phase.OVERLAP, 1e-4, OVERLAP, override=0.025),
        )) == {"violation": "unexpected-phase", "segment": 3}

    def test_grammar_checked_after_t1_and_t2prime(self):
        with pytest.raises(InvalidArgumentError):
            TransferTimeline((), 0.0, 0.3)


class TestSegmentT2:
    def test_bad_override_rejected(self):
        with pytest.raises(InvalidArgumentError):
            segment(Phase.OVERLAP, 1e-4, OVERLAP, override=0.0)


class TestBudget:
    def test_documented_scenario(self):
        report = coherence_budget(reference_timeline(), 16e-6,
                                  t2star_static_s=6.6, t2star_mobile_s=1.9)
        assert report.tau_static_s == pytest.approx(0.267748, abs=1e-5)
        assert report.tau_mobile_s == pytest.approx(0.243330, abs=1e-5)
        assert report.fractional_tau_loss == pytest.approx(0.091200, abs=1e-5)

    def test_model_side_reported(self):
        report = coherence_budget(reference_timeline(), 16e-6)
        assert report.t2star_static_s == pytest.approx(5.95, rel=2e-2)
        assert report.t2star_mobile_s == pytest.approx(1.49, rel=2e-2)
        # overlap override and model value sit side by side
        overlap_entry = report.per_segment[0]
        assert overlap_entry.used_override
        assert overlap_entry.t2_used_s == 0.025
        assert overlap_entry.t2_model_s > 0
        # the 0.2 mK mover at 14 uK sits close to its magic point
        move_entry, hold_entry = report.per_segment[1], report.per_segment[3]
        assert not move_entry.used_override
        assert move_entry.t2_used_s == move_entry.t2_model_s
        assert move_entry.t2_model_s == pytest.approx(3.0, rel=0.40)
        assert move_entry.t2_model_s == pytest.approx(2.19, rel=2e-2)
        assert hold_entry.t2_model_s == pytest.approx(6.6, rel=0.30)
        assert any("Move" in note for note in report.notes)

    @pytest.mark.parametrize("post_uk,solves", [(16.0, 4), (8.0, 3)])
    def test_one_root_solve_per_distinct_trap(self, monkeypatch, post_uk,
                                              solves):
        # Move and Return share the mover; the Hold segment is the static
        # trap; at 8 uK the post-transfer trap is the static one as well
        from magictrap import ramsey

        first_crossings, sizes = ramsey._first_crossings, []

        def counted(envelope, configs):
            sizes.append(len(configs))
            return first_crossings(envelope, configs)

        monkeypatch.setattr(ramsey, "_first_crossings", counted)
        timeline = reference_timeline()
        report = coherence_budget(timeline, post_uk * 1e-6)
        assert sizes == [solves]  # one lockstep solve, one root per trap
        assert [entry.t2_model_s for entry in report.per_segment] == [
            ramsey.t2_star(seg.config) for seg in timeline.segments]
        assert report.t2star_static_s == ramsey.t2_star(STATIC)
        assert report.t2star_mobile_s == ramsey.t2_star(
            replace(STATIC, temperature_k=post_uk * 1e-6))

    def test_overlap_amplitude_cost(self):
        report = coherence_budget(reference_timeline(), 16e-6,
                                  t2star_static_s=6.6, t2star_mobile_s=1.9)
        overlap_entry = report.per_segment[0]
        assert overlap_entry.amplitude_factor == pytest.approx(
            math.exp(-1e-4 / 0.025), rel=1e-12)
        assert 1.0 - overlap_entry.amplitude_factor < 0.01

    def test_zero_durations_retain_everything(self):
        timeline = TransferTimeline((
            segment(Phase.OVERLAP, 0.0, OVERLAP, override=0.025),
            segment(Phase.MOVE, 0.0, MOVER),
            segment(Phase.RETURN, 0.0, MOVER),
            segment(Phase.HOLD, 0.0),
        ), 4.0, 0.3)
        report = coherence_budget(timeline, 16e-6, t2star_static_s=6.6,
                                  t2star_mobile_s=1.9)
        assert report.retained_coherence == 1.0

    def test_longer_segment_retains_less(self):
        base = reference_timeline()
        longer = TransferTimeline(
            (base.segments[0],
             replace(base.segments[1], duration_s=4e-3)) + base.segments[2:],
            base.t1_s, base.t2prime_s)
        a = coherence_budget(base, 16e-6, t2star_static_s=6.6,
                             t2star_mobile_s=1.9)
        b = coherence_budget(longer, 16e-6, t2star_static_s=6.6,
                             t2star_mobile_s=1.9)
        assert b.retained_coherence < a.retained_coherence

    def test_dropping_optional_segment_retains_more(self):
        with_hold = TransferTimeline((
            segment(Phase.OVERLAP, 1e-4, OVERLAP, override=0.025),
            segment(Phase.MOVE, 2e-3, MOVER),
            segment(Phase.RETURN, 1e-4, MOVER),
            segment(Phase.HOLD, 0.5),
        ), 4.0, 0.3)
        without_hold = TransferTimeline(with_hold.segments[:-1], 4.0, 0.3)
        a = coherence_budget(with_hold, 16e-6, t2star_static_s=6.6,
                             t2star_mobile_s=1.9)
        b = coherence_budget(without_hold, 16e-6, t2star_static_s=6.6,
                             t2star_mobile_s=1.9)
        assert b.retained_coherence >= a.retained_coherence

    def test_no_heating_no_loss(self):
        report = coherence_budget(reference_timeline(), 8e-6)
        assert report.fractional_tau_loss == 0.0

    def test_split_invariance(self):
        base = reference_timeline()
        move = base.segments[1]
        split = TransferTimeline(
            (base.segments[0],
             replace(move, duration_s=0.7 * move.duration_s),
             replace(move, duration_s=0.3 * move.duration_s))
            + base.segments[2:], base.t1_s, base.t2prime_s)
        a = coherence_budget(base, 16e-6, t2star_static_s=6.6,
                             t2star_mobile_s=1.9)
        b = coherence_budget(split, 16e-6, t2star_static_s=6.6,
                             t2star_mobile_s=1.9)
        assert b.retained_coherence == pytest.approx(a.retained_coherence,
                                                     rel=1e-12)
        assert len(a.notes) == 1
        assert b.notes == a.notes

    def test_cooling_rejected(self):
        with pytest.raises(UnphysicalConfigurationError):
            coherence_budget(reference_timeline(), 4e-6)

    def test_cooling_rejected_before_any_solve(self, monkeypatch):
        from magictrap import ramsey
        calls = []
        monkeypatch.setattr(ramsey, "_integrals", calls.append)
        with pytest.raises(UnphysicalConfigurationError) as info:
            coherence_budget(reference_timeline(), 4e-6)
        assert info.value.code == "unphysical-configuration"
        assert calls == []

    @pytest.mark.parametrize("static_s,mobile_s", [
        (-1.0, 1.9), (6.6, 0.0), (6.6, math.nan), (None, -math.inf)])
    def test_bad_measured_t2star_rejected_before_any_solve(
            self, monkeypatch, static_s, mobile_s):
        from magictrap import ramsey
        calls = []
        monkeypatch.setattr(ramsey, "_integrals", calls.append)
        with pytest.raises(InvalidArgumentError) as info:
            coherence_budget(reference_timeline(), 16e-6,
                             t2star_static_s=static_s, t2star_mobile_s=mobile_s)
        assert info.value.code == "invalid-argument"
        assert calls == []

    def test_infinite_measured_t2star_accepted(self):
        report = coherence_budget(reference_timeline(), 16e-6,
                                  t2star_static_s=math.inf,
                                  t2star_mobile_s=math.inf)
        assert report.tau_static_s == report.tau_mobile_s
        assert report.fractional_tau_loss == 0.0



def transfer_stdout(capsys, tmp_path, timeline):
    coeffs = tmp_path / "coeffs.toml"
    write_coefficients(coeffs, MEASURED)
    path = tmp_path / "timeline.json"
    write_timeline(path, timeline)
    code = main(["transfer", "--coeffs", str(coeffs), "--timeline", str(path),
                 "--post-temp-uk", "16", "--t2star-static", "6.6",
                 "--t2star-mobile", "1.9"])
    assert code == 0
    return capsys.readouterr().out


def test_split_move_keeps_cli_note_lines(capsys, tmp_path):
    base = reference_timeline()
    move = base.segments[1]
    half = replace(move, duration_s=0.5 * move.duration_s)
    split = TransferTimeline((base.segments[0], half, half) + base.segments[2:],
                             base.t1_s, base.t2prime_s)
    whole = transfer_stdout(capsys, tmp_path, base)
    halves = transfer_stdout(capsys, tmp_path, split)
    loss = float(whole.split("fractional_tau_loss = ")[1].split()[0])
    assert loss == pytest.approx(0.0912, abs=2e-4)
    notes = [line for line in whole.splitlines() if line.startswith("note_")]
    assert len(notes) == 1
    assert [line for line in halves.splitlines()
            if line.startswith("note_")] == notes
