"""Mobile-qubit transfer timeline: grammar validation of the phase sequence
and a per-segment dephasing budget.

A legal timeline is Hold? Overlap RampUp? Move Return RampDown? Hold?,
where each name stands for a run of one or more consecutive segments of
that phase (so splitting a segment in two never invalidates a timeline).
Each segment contributes an amplitude factor exp(-duration/T2); the
product is the coherence retained across the transfer.
"""
import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import InvalidArgumentError, TimelineError, UnphysicalConfigurationError
from .ramsey import TrapFieldConfig, _t2_stars, combine_coherence


class Phase(str, Enum):
    HOLD = "Hold"
    OVERLAP = "Overlap"
    RAMP_UP = "RampUp"
    MOVE = "Move"
    RETURN = "Return"
    RAMP_DOWN = "RampDown"


# (phase, required) slots of the transfer grammar, in order
_GRAMMAR = (
    (Phase.HOLD, False),
    (Phase.OVERLAP, True),
    (Phase.RAMP_UP, False),
    (Phase.MOVE, True),
    (Phase.RETURN, True),
    (Phase.RAMP_DOWN, False),
    (Phase.HOLD, False),
)


@dataclass(frozen=True)
class TransferSegment:
    phase: Phase
    duration_s: float
    config: TrapFieldConfig
    t2_override_s: float = None

    def __post_init__(self):
        if self.t2_override_s is not None and not self.t2_override_s > 0:
            raise InvalidArgumentError("t2 override must be positive")


@dataclass(frozen=True)
class TransferTimeline:
    segments: tuple
    t1_s: float
    t2prime_s: float

    def __post_init__(self):
        if not (self.t1_s > 0 and self.t2prime_s > 0):
            raise InvalidArgumentError("t1 and t2prime must be positive")


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    code: str = ""
    message: str = ""
    segment_index: int = None


def validate_timeline(tl: TransferTimeline) -> ValidationResult:
    """Accept iff the phase order matches the transfer grammar and every
    duration is >= 0; otherwise report the first violation."""
    segments = list(tl.segments)
    if not segments:
        return ValidationResult(False, "missing-move", "empty timeline: no Move phase")
    for i, seg in enumerate(segments):
        if not (seg.duration_s >= 0 and math.isfinite(seg.duration_s)):
            return ValidationResult(False, "negative-duration",
                                    f"segment {i} ({seg.phase.value}) has "
                                    f"duration {seg.duration_s}", i)
    i = 0
    for phase, required in _GRAMMAR:
        matched = False
        while i < len(segments) and segments[i].phase == phase:
            i += 1
            matched = True
        if required and not matched:
            if i < len(segments):
                return ValidationResult(
                    False, f"missing-{phase.value.lower()}",
                    f"expected {phase.value} before segment {i} "
                    f"({segments[i].phase.value})", i)
            return ValidationResult(False, f"missing-{phase.value.lower()}",
                                    f"timeline ends before required {phase.value}")
    if i < len(segments):
        return ValidationResult(False, "unexpected-phase",
                                f"segment {i} ({segments[i].phase.value}) does not "
                                f"fit the transfer grammar", i)
    return ValidationResult(True)


@dataclass(frozen=True)
class SegmentBudget:
    phase: Phase
    duration_s: float
    t2_used_s: float
    t2_model_s: float
    amplitude_factor: float
    used_override: bool


@dataclass(frozen=True)
class BudgetReport:
    per_segment: tuple
    retained_coherence: float
    tau_static_s: float
    tau_mobile_s: float
    fractional_tau_loss: float
    t2star_static_s: float
    t2star_mobile_s: float
    notes: tuple


def _static_config(tl: TransferTimeline) -> TrapFieldConfig:
    for seg in tl.segments:
        if seg.phase == Phase.HOLD:
            return seg.config
    return tl.segments[0].config


def coherence_budget(tl: TransferTimeline, post_transfer_temperature_k: float,
                     t2star_static_s: float = None,
                     t2star_mobile_s: float = None) -> BudgetReport:
    """Audit the coherence cost of a transfer.

    Per-segment amplitude factors multiply into the retained coherence.
    tau_static combines T1/T2' with T2* of the register trap at its own
    (pre-transfer) temperature; tau_mobile does the same at the
    post-transfer temperature. The register trap is the first Hold
    segment's configuration (the first segment if no Hold exists).
    Measured T2* values can be passed in to supersede the model on either
    side. The model T2* of every distinct trap the report needs is solved
    together, in lockstep, once per trap.
    """
    verdict = validate_timeline(tl)
    if not verdict.ok:
        raise TimelineError(f"{verdict.code}: {verdict.message}")
    if not math.isfinite(post_transfer_temperature_k):
        raise InvalidArgumentError("post-transfer temperature must be finite")
    static = _static_config(tl)
    if not post_transfer_temperature_k >= static.temperature_k:
        raise UnphysicalConfigurationError(
            "post-transfer temperature below the pre-transfer register "
            "temperature; the loss fraction is defined for heating only"
        )
    for measured in (t2star_static_s, t2star_mobile_s):
        if measured is not None:  # checked before any root solve
            combine_coherence(tl.t1_s, tl.t2prime_s, measured)
    mobile_cfg = replace(static, temperature_k=post_transfer_temperature_k)
    # the static trap is one of the segments'
    traps = [seg.config for seg in tl.segments]
    if t2star_mobile_s is None:
        traps.append(mobile_cfg)
    traps = list(dict.fromkeys(traps))
    model_t2_star = dict(zip(traps, _t2_stars(traps)))

    per_segment = []
    for seg in tl.segments:
        model_t2 = model_t2_star[seg.config]
        used = seg.t2_override_s if seg.t2_override_s is not None else model_t2
        factor = math.exp(-seg.duration_s / used) if seg.duration_s > 0 else 1.0
        per_segment.append(SegmentBudget(seg.phase, seg.duration_s, used,
                                         model_t2, factor,
                                         seg.t2_override_s is not None))
    notes = ()
    # once per report, so splitting a Move segment leaves the notes alone
    if any(seg.phase == Phase.MOVE and seg.t2_override_s is None
           for seg in tl.segments):
        notes = ("Move-segment T2* uses the static-trap shift coefficients; "
                 "the moving trap's own magic point is not modeled",)
    retained = 1.0
    for entry in per_segment:
        retained *= entry.amplitude_factor

    ts_static = (t2star_static_s if t2star_static_s is not None
                 else model_t2_star[static])
    ts_mobile = (t2star_mobile_s if t2star_mobile_s is not None
                 else model_t2_star[mobile_cfg])
    tau_static = combine_coherence(tl.t1_s, tl.t2prime_s, ts_static)
    tau_mobile = combine_coherence(tl.t1_s, tl.t2prime_s, ts_mobile)
    loss = 1.0 - tau_mobile / tau_static
    return BudgetReport(tuple(per_segment), retained, tau_static, tau_mobile,
                        loss, ts_static, ts_mobile, notes)
