"""``run_verification`` compares coefficients, and its figures are the grid's.

Each deviation it reports must equal the maximum over the count grid of
|engine count - transcribed form|, computed point by point from scalar
scans, while the transcribed forms themselves are never called.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from qiup import reference, verification
from qiup.observables import fringe_scan
from qiup.plan import fig1_preset
from qiup.verification import DEFAULT_BETAS, DEFAULT_GAMMAS, regime_params, run_verification

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
@pytest.mark.parametrize("phi_points", [1, 2, 3, 4, 7, 64])
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
