"""Engine-side pipeline building blocks shared across test modules."""
from __future__ import annotations

import math

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


def count_calls(monkeypatch, cls, name):
    """A list that grows by one at each call of ``cls.name`` from now on."""
    calls, method = [], getattr(cls, name)

    def counted(*args):
        calls.append(args[1:])
        return method(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def record_runs(monkeypatch) -> list[dict]:
    """The bindings of every run_plan call that observables makes from now on.

    The count tensors built so far are dropped, so that the next scan of a
    circuit builds its tensor again, and the record shows that run.
    """
    calls = []
    observables._count_tensor.cache_clear()

    def recording_run_plan(plan):
        calls.append(plan.bindings)
        return run_plan(plan)

    monkeypatch.setattr(observables, "run_plan", recording_run_plan)
    return calls


def fig1_tensor_grid() -> dict[str, np.ndarray]:
    """The bindings of fig1's count-tensor run: a product grid over chi1
    (5 nodes j*pi/8, with alpha1, beta1 = cos, sin), gamma (3 nodes
    2*pi*j/3), chi2 (5), phi (3) and theta (9 nodes pi*j/9), the last
    varying fastest: 2025 members."""
    chi = np.arange(5) * (math.pi / 8)
    third = 2.0 * math.pi * np.arange(3) / 3
    chi1, gamma, chi2, phi, theta = (
        grid.ravel()
        for grid in np.meshgrid(chi, third, chi, third, math.pi * np.arange(9) / 9,
                                indexing="ij")
    )
    return {"alpha1": np.cos(chi1), "beta1": np.sin(chi1), "gamma": gamma,
            "alpha2": np.cos(chi2), "beta2": np.sin(chi2), "phi": phi, "theta": theta}


def assert_fig1_tensor_run(calls: list[dict]) -> None:
    """``calls`` (from :func:`record_runs`) is the one run of fig1's count
    tensor."""
    assert len(calls) == 1
    want = fig1_tensor_grid()
    assert sorted(calls[0]) == sorted(want)
    for name, values in want.items():
        np.testing.assert_allclose(calls[0][name], values, rtol=0, atol=1e-15)
