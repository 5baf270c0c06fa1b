"""Magic-intensity dipole trap toolkit: differential-light-shift model with
hyperpolarizability, thermally averaged Ramsey dephasing, coefficient fits,
and transfer coherence budgets for optically trapped clock qubits."""

from .constants import CONSTANTS, PhysicalConstants, hz_from_kelvin, kelvin_from_hz
from .dls import (
    AtomicInput,
    TrapCoefficients,
    coeffs_from_atomic,
    dls,
    dls_minimum,
    effective_field,
    magic_depth,
    zero_crossing_field,
)
from .errors import MagicTrapError
from .fitting import (
    DlsDataset,
    FitResult,
    fit_damped_sinusoid,
    fit_dls_global,
    fit_envelope,
    magic_depth_sigma,
    make_dls_dataset,
    synth_dls,
)
from .ramsey import (
    RamseyTrace,
    TrapFieldConfig,
    VisibilityCurve,
    coherence_vs_depth,
    combine_coherence,
    ramsey_population,
    ramsey_trace,
    t2_star,
    visibility,
    visibility_curve,
)
from .thermal import ThermalEnsemble, sample, truncation_mass
from .transfer import (
    BudgetReport,
    Phase,
    TransferSegment,
    TransferTimeline,
    coherence_budget,
    validate_timeline,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicInput",
    "BudgetReport",
    "CONSTANTS",
    "DlsDataset",
    "FitResult",
    "MagicTrapError",
    "Phase",
    "PhysicalConstants",
    "RamseyTrace",
    "ThermalEnsemble",
    "TransferSegment",
    "TransferTimeline",
    "TrapCoefficients",
    "TrapFieldConfig",
    "VisibilityCurve",
    "coeffs_from_atomic",
    "coherence_budget",
    "coherence_vs_depth",
    "combine_coherence",
    "dls",
    "dls_minimum",
    "effective_field",
    "fit_damped_sinusoid",
    "fit_dls_global",
    "fit_envelope",
    "hz_from_kelvin",
    "kelvin_from_hz",
    "magic_depth",
    "magic_depth_sigma",
    "make_dls_dataset",
    "ramsey_population",
    "ramsey_trace",
    "sample",
    "synth_dls",
    "t2_star",
    "truncation_mass",
    "validate_timeline",
    "visibility",
    "visibility_curve",
    "zero_crossing_field",
]
