"""qiup: polarization-resolved two-source biphoton interference toolkit.

A sparse evolution engine for a two-photon state moving through wave plates,
beamsplitters, dichroic mirrors and an interferometer stage; a small circuit
DSL with a built-in two-source preset; closed-form reference counts; a
fringe-visibility readout; and a fit that recovers the beam-preparation
parameters from fringe data.
"""
from .modes import Band, Mode, ModePair, Polarization, SourceTag
from .state import BiphotonState, SourceSpec, initial_state
from .elements import (
    MergeRule,
    PreparationSpec,
    WavePlateKind,
    WavePlateSetting,
    apply_bs_dual,
    apply_bs_single,
    apply_dichroic,
    apply_merge,
    apply_phase,
    apply_waveplate,
    hwp_matrix,
    prepare_beam,
    qwp_matrix,
)
from .plan import CircuitPlan, PlanError, compile_text, fig1_preset, iter_plan, run_plan
from .observables import (
    CountResult,
    FringeScan,
    VisibilityResult,
    conditional_state,
    counts,
    counts_by_path,
    fringe_scan,
    visibility,
)
from .reference import (
    nh_closed,
    nh_evolution,
    nv_closed,
    nv_evolution,
    visibility_closed,
)
from .estimation import (
    FitResult,
    NoisyScan,
    fit,
    infer_alpha1,
    simulate_measurement,
)

__version__ = "0.1.0"

__all__ = [
    "Band",
    "BiphotonState",
    "CircuitPlan",
    "CountResult",
    "FitResult",
    "FringeScan",
    "MergeRule",
    "Mode",
    "ModePair",
    "NoisyScan",
    "PlanError",
    "Polarization",
    "PreparationSpec",
    "SourceSpec",
    "SourceTag",
    "VisibilityResult",
    "WavePlateKind",
    "WavePlateSetting",
    "apply_bs_dual",
    "apply_bs_single",
    "apply_dichroic",
    "apply_merge",
    "apply_phase",
    "apply_waveplate",
    "compile_text",
    "conditional_state",
    "counts",
    "counts_by_path",
    "fig1_preset",
    "fit",
    "fringe_scan",
    "hwp_matrix",
    "infer_alpha1",
    "initial_state",
    "iter_plan",
    "nh_closed",
    "nh_evolution",
    "nv_closed",
    "nv_evolution",
    "prepare_beam",
    "qwp_matrix",
    "run_plan",
    "simulate_measurement",
    "visibility",
    "visibility_closed",
    "__version__",
]
