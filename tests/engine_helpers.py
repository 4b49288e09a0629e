"""Engine-side pipeline building blocks shared across test modules."""
from __future__ import annotations

import numpy as np

from qiup import (
    Band,
    BiphotonState,
    MergeRule,
    Polarization,
    PreparationSpec,
    SourceSpec,
    WavePlateKind,
    WavePlateSetting,
    apply_bs_dual,
    apply_bs_single,
    apply_dichroic,
    apply_merge,
    apply_phase,
    apply_waveplate,
    initial_state,
    observables,
    prepare_beam,
    run_plan,
)

FIG1_MERGE_RULES = [
    MergeRule("r", Polarization.V, Band.IDLER),
    MergeRule("b", Polarization.V, Band.SIGNAL),
    MergeRule("r", Polarization.V, Band.SIGNAL),
]


def manual_fig1_steps(
    alpha1: float,
    beta1: float,
    gamma: float,
    alpha2: float,
    beta2: float,
    phi: float,
    theta: float,
    *,
    merge: bool = True,
    convention: str = "symmetric",
    alpha1_phase: float | None = None,
):
    """Yield (label, state) pairs for the built-in circuit, element by element.

    ``alpha1_phase`` optionally multiplies the prepared idler H component by a
    unit phase (inserted as a diagonal polarization unitary), which probes the
    which-source no-go property.
    """
    state = initial_state([SourceSpec(1, "a", "a"), SourceSpec(2, "r", "r")])
    yield "sources", state
    state = prepare_beam(state, "a", Band.IDLER, PreparationSpec(alpha1, beta1, gamma))
    yield "prepare idler", state
    if alpha1_phase is not None:
        chi = np.exp(1j * alpha1_phase)
        state = state.apply_pol_unitary("a", np.diag([chi, 1.0]), Band.IDLER)
        yield "alpha1 phase", state
    state = apply_dichroic(state, "a", "b", "r")
    yield "dm a", state
    state = prepare_beam(state, "b", Band.SIGNAL, PreparationSpec(alpha2, beta2, 0.0))
    yield "prepare signal", state
    state = apply_phase(state, "r", phi, Band.SIGNAL)
    yield "phase", state
    if merge:
        state = apply_merge(state, FIG1_MERGE_RULES)
        yield "merge", state
    state = apply_bs_single(state, "r", "e", "f", convention)
    yield "bs", state
    state = apply_waveplate(state, "f", WavePlateSetting(WavePlateKind.HWP, theta))
    yield "hwp", state
    state = apply_bs_dual(state, "e", "f", "e'", "f'", convention)
    yield "bs2", state
    state = apply_dichroic(state, "f'", "o", "f'")
    yield "dm f'", state
    state = apply_bs_dual(state, "o", "b", "o'", "b'", convention)
    yield "bs3", state


def manual_fig1(*args, **kwargs) -> BiphotonState:
    state = None
    for _, state in manual_fig1_steps(*args, **kwargs):
        pass
    assert state is not None
    return state


def record_runs(monkeypatch) -> list[dict]:
    """The bindings of every run_plan call that observables makes from now on."""
    calls = []

    def recording_run_plan(plan):
        calls.append(plan.bindings)
        return run_plan(plan)

    monkeypatch.setattr(observables, "run_plan", recording_run_plan)
    return calls
