"""Mobile-qubit transfer timeline, legal by construction, and a
per-segment dephasing budget.

A legal timeline is Hold? Overlap RampUp? Move Return RampDown? Hold?,
where each name stands for a run of one or more consecutive segments of
that phase (so splitting a segment in two never invalidates a timeline).
Building a TransferTimeline off this grammar, or with a negative or
non-finite duration, raises TimelineError.
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


def _violation(code, message, segment=None):
    diagnostics = {"violation": code}
    if segment is not None:
        diagnostics["segment"] = segment
    return TimelineError(f"{code}: {message}", diagnostics)


@dataclass(frozen=True)
class TransferTimeline:
    """A transfer sequence that matches the grammar, with every duration
    finite and >= 0; anything else raises TimelineError at the first
    violation, its code in diagnostics["violation"] and, where one segment
    is to blame, that segment's index in diagnostics["segment"]."""

    segments: tuple
    t1_s: float
    t2prime_s: float

    def __post_init__(self):
        if not (self.t1_s > 0 and self.t2prime_s > 0):
            raise InvalidArgumentError("t1 and t2prime must be positive")
        segments = self.segments
        if not segments:
            raise _violation("missing-move", "empty timeline: no Move phase")
        for i, seg in enumerate(segments):
            if not (seg.duration_s >= 0 and math.isfinite(seg.duration_s)):
                raise _violation("negative-duration", f"segment {i} "
                                 f"({seg.phase.value}) has duration {seg.duration_s}", i)
        i = 0
        for phase, required in _GRAMMAR:
            start = i
            while i < len(segments) and segments[i].phase == phase:
                i += 1
            if required and i == start:
                code = f"missing-{phase.value.lower()}"
                if i == len(segments):
                    raise _violation(code, f"timeline ends before required {phase.value}")
                raise _violation(code, f"expected {phase.value} before segment {i} "
                                 f"({segments[i].phase.value})", i)
        if i < len(segments):
            raise _violation("unexpected-phase", f"segment {i} "
                             f"({segments[i].phase.value}) does not fit the transfer "
                             "grammar", i)


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
    segment's configuration (the first segment if no Hold exists). The
    fractional loss 1 - tau_mobile/tau_static is 0 for equal times, both
    infinite included, and an invalid-argument where it is not finite
    (an infinite tau_mobile against a finite tau_static). Measured T2*
    values can be passed in to supersede the model on either side. The
    model T2* of every distinct trap the report needs is solved
    together, in lockstep, once per trap.
    """
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
    # the static trap is one of the segments'; the mobile one needs a solve
    # only when no measured value supersedes it
    mobile = (replace(static, temperature_k=post_transfer_temperature_k)
              if t2star_mobile_s is None else static)
    *model_t2_star, model_static, model_mobile = _t2_stars(
        [seg.config for seg in tl.segments] + [static, mobile])

    per_segment = []
    for seg, model_t2 in zip(tl.segments, model_t2_star):
        used = seg.t2_override_s if seg.t2_override_s is not None else model_t2
        factor = math.exp(-seg.duration_s / used)  # used > 0: 1.0 at duration 0
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

    ts_static = t2star_static_s if t2star_static_s is not None else model_static
    ts_mobile = t2star_mobile_s if t2star_mobile_s is not None else model_mobile
    tau_static = combine_coherence(tl.t1_s, tl.t2prime_s, ts_static)
    tau_mobile = combine_coherence(tl.t1_s, tl.t2prime_s, ts_mobile)
    loss = 0.0 if tau_mobile == tau_static else 1.0 - tau_mobile / tau_static
    if not math.isfinite(loss):
        raise InvalidArgumentError(
            f"fractional tau loss is not finite for tau_static = {tau_static!r} s, "
            f"tau_mobile = {tau_mobile!r} s")
    return BudgetReport(tuple(per_segment), retained, tau_static, tau_mobile,
                        loss, ts_static, ts_mobile, notes)
