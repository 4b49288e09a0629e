"""``run_verification`` compares coefficients, and its figures are the grid's.

Each deviation it reports must equal the maximum over the count grid of
|engine count - transcribed form|, computed point by point from scalar
scans, while the transcribed forms themselves are never called.
"""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from engine_helpers import count_calls
from qiup import reference, verification
from qiup.dsl import STATEMENTS
from qiup.observables import fringe_scan, visibility
from qiup.plan import CircuitPlan, fig1_preset
from qiup.verification import (
    DEFAULT_BETAS,
    DEFAULT_GAMMAS,
    MAX_PHI_POINTS,
    VISIBILITY_BETAS,
    _grid_extremes,
    regime_params,
    run_verification,
)

FORMS = ("nh_closed", "nv_closed", "nh_evolution", "nv_evolution")
FIELDS = ("max_dev_nh", "max_dev_nv", "max_dev_nh_evolution", "max_dev_nv_evolution")


def brute_force_deviations(phi_points: int, bs_convention: str) -> list[float]:
    """max |engine - form| over the grid, one scalar phi scan per cell."""
    phis = np.linspace(0.0, 2.0 * math.pi, phi_points, endpoint=False)
    worst = [0.0] * 4
    for beta1 in DEFAULT_BETAS:
        for gamma in DEFAULT_GAMMAS:
            plan = replace(fig1_preset(regime_params(beta1, gamma)), bs_convention=bs_convention)
            scan = fringe_scan(plan, "phi", phis)
            engine = (scan.column("h"), scan.column("v")) * 2
            for k, (name, counts) in enumerate(zip(FORMS, engine)):
                form = getattr(reference, name)(beta1, gamma, phis)
                worst[k] = max(worst[k], float(np.max(np.abs(counts - form))))
    return worst


@pytest.mark.parametrize("bs_convention", ["symmetric", "hadamard"])
@pytest.mark.parametrize("phi_points", [1, 2, 3, 4, 7, 64, 256])
def test_deviations_are_the_grid_maxima(phi_points, bs_convention):
    report = run_verification(phi_points=phi_points, bs_convention=bs_convention)
    assert report.grid_points == 88 * phi_points
    expected = brute_force_deviations(phi_points, bs_convention)
    for field, want in zip(FIELDS, expected):
        assert abs(getattr(report, field) - want) <= 1e-12, field


def test_never_evaluates_the_transcribed_forms(monkeypatch):
    report = run_verification()

    def transcribed(*args):
        raise AssertionError("run_verification evaluated a transcribed form")

    for module in (reference, verification):
        for name in FORMS:
            monkeypatch.setattr(module, name, transcribed, raising=False)
    again = run_verification()
    assert replace(again, elapsed_seconds=0.0) == replace(report, elapsed_seconds=0.0)


@pytest.mark.parametrize("bs_convention", ["symmetric", "hadamard"])
def test_no_structural_work_per_call(bs_convention, monkeypatch):
    report = run_verification(bs_convention=bs_convention)
    degrees = count_calls(monkeypatch, CircuitPlan, "harmonic_degree")
    hashes = [count_calls(monkeypatch, cls, "__hash__")
              for cls in {cls for cls, _ in STATEMENTS.values()}]
    again = run_verification(bs_convention=bs_convention)
    assert degrees == [] and all(calls == [] for calls in hashes)
    assert replace(again, elapsed_seconds=0.0) == replace(report, elapsed_seconds=0.0)


def test_memory_does_not_grow_with_the_grid():
    run_verification(phi_points=10**6)
    tracemalloc.start()
    try:
        report = run_verification(phi_points=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.grid_points == 88 * 10**6
    assert peak < 2 * 2**20


@pytest.mark.parametrize("phi_points", [0, -1, MAX_PHI_POINTS + 1])
def test_grid_outside_its_range_refused(phi_points):
    with pytest.raises(ValueError, match=f"needs 1 to {MAX_PHI_POINTS} points, got {phi_points}"):
        run_verification(phi_points=phi_points)


POINTS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 256, 1000]


def extremes_cases() -> list[tuple[float, float, float]]:
    """(a0, a1, b1): seeded random series, then for each grid the phases on
    a node, halfway between two, one ulp to either side of each and of
    +-pi, and a series without a fringe."""
    rng = np.random.default_rng(3001)
    cases = [tuple(row) for row in rng.normal(size=(200, 3))]
    cases += [(0.25, 0.0, 0.0), (-0.5, 0.0, -0.0), (0.0, 0.0, 0.0)]
    for points in POINTS:
        for k in range(min(points, 8)):
            for psi in (2.0 * math.pi * k / points, 2.0 * math.pi * (k + 0.5) / points):
                for angle in (psi, np.nextafter(psi, -np.inf), np.nextafter(psi, np.inf)):
                    cases.append((0.3, 1.7 * math.cos(angle), 1.7 * math.sin(angle)))
    # one ulp below pi, psi*N/(2*pi) reads 31.999999999999996 for N = 64,
    # and rounding it plus 1 would step over the node at pi
    for angle in (math.pi, np.nextafter(math.pi, 0.0), np.nextafter(-math.pi, 0.0)):
        cases.append((-0.1, 2.0 * math.cos(angle), 2.0 * math.sin(angle)))
    return cases


@pytest.mark.parametrize("points", POINTS)
def test_extremes_are_the_grid_extremes(points):
    series = np.array(extremes_cases())
    phis = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    grid = series[:, :1] + series[:, 1:2] * np.cos(phis) + series[:, 2:] * np.sin(phis)
    top, bottom = _grid_extremes(series, points)
    scale = np.abs(series[:, 0]) + np.hypot(series[:, 1], series[:, 2])
    assert (np.abs(top - grid.max(axis=1)) <= 1e-15 * scale).all()
    assert (np.abs(bottom - grid.min(axis=1)) <= 1e-15 * scale).all()


def test_extremes_on_the_finest_grid_are_the_harmonics_peaks():
    """On MAX_PHI_POINTS nodes every phase lies within a vanishing angle of
    a node, so the extremes are a0 + A and a0 - A."""
    series = np.random.default_rng(3301).normal(size=(200, 3))
    amplitude = np.hypot(series[:, 1], series[:, 2])
    top, bottom = _grid_extremes(series, MAX_PHI_POINTS)
    scale = np.abs(series[:, 0]) + amplitude
    assert (np.abs(top - (series[:, 0] + amplitude)) <= 1e-15 * scale).all()
    assert (np.abs(bottom - (series[:, 0] - amplitude)) <= 1e-15 * scale).all()


@pytest.mark.parametrize("length", [1, 2, 5])
def test_extremes_refuse_other_series(length):
    with pytest.raises(ValueError, match=f"first harmonics .* got {length} coefficients"):
        _grid_extremes(np.ones((2, length)), 8)


@pytest.mark.parametrize("bs_convention", ["symmetric", "hadamard"])
@pytest.mark.parametrize("points", POINTS)
def test_visibility_figure_is_the_per_cell_visibility(points, bs_convention, monkeypatch):
    """The one-expression visibility figure equals, bit for bit, the largest
    |visibility(row).value - 4*beta1/5| over the five visibility cells'
    clipped rows of their grid extremes (top, bottom)."""
    rows = []

    def recorded(series, grid):
        found = _grid_extremes(series, grid)
        rows.append(found)
        return found

    monkeypatch.setattr(verification, "_grid_extremes", recorded)
    report = run_verification(phi_points=points, bs_convention=bs_convention)
    counts = np.maximum(np.column_stack(rows[-1]), 0.0)
    assert counts.shape == (len(VISIBILITY_BETAS), 2)
    want = max(abs(visibility(row).value - 4.0 * beta1 / 5.0)
               for row, beta1 in zip(counts, VISIBILITY_BETAS))
    assert report.max_dev_visibility == want
