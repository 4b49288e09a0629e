"""Engine-versus-closed-form comparison grids used by `qiup verify` and the
acceptance suite.

The comparison runs the built-in two-source circuit in the beta2 = 1,
theta = 45 deg regime over a (beta1, gamma, phi) grid and reports maximum
absolute deviations of the engine counts from both closed-form families in
:mod:`qiup.reference`, plus the vertical-channel visibility error at
gamma = 0.

Every cell's counts are a first-order trigonometric series in phi, so the
(beta1, gamma) count cells and the visibility cells are bound as arrays and
:func:`qiup.observables.harmonic_coefficients` gives each cell's series from
its counts at the 2D + 1 = 3 harmonic sample values of phi.  Those come from
the circuit's count tensor, which the first comparison in a process builds
in one batched run and later ones reuse without running the circuit.  The
series is then summed on the count grid and on the finer visibility grid.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import reference
from .observables import harmonic_coefficients, harmonic_series, visibility
from .plan import FIG1_PARAMETERS, fig1_preset

DEFAULT_PHI_POINTS = 64
DEFAULT_BETAS = tuple(round(0.1 * k, 10) for k in range(11))
DEFAULT_GAMMAS = tuple(k * math.pi / 4 for k in range(8))
VISIBILITY_BETAS = (0.0, 0.25, 0.5, 0.75, 1.0)
COUNT_TOL = 1e-9
VISIBILITY_TOL = 1e-3


@dataclass(frozen=True)
class VerificationReport:
    max_dev_nh: float
    max_dev_nv: float
    max_dev_nh_evolution: float
    max_dev_nv_evolution: float
    max_dev_visibility: float
    grid_points: int
    elapsed_seconds: float

    @property
    def counts_ok(self) -> bool:
        return self.max_dev_nh < COUNT_TOL and self.max_dev_nv < COUNT_TOL

    @property
    def visibility_ok(self) -> bool:
        return self.max_dev_visibility < VISIBILITY_TOL

    @property
    def ok(self) -> bool:
        return self.counts_ok and self.visibility_ok

    def lines(self) -> list[str]:
        return [
            f"count grid: {self.grid_points} points in {self.elapsed_seconds:.2f} s",
            f"max|dN_H| vs reference closed form: {self.max_dev_nh:.6g} (tolerance {COUNT_TOL:g})",
            f"max|dN_V| vs reference closed form: {self.max_dev_nv:.6g} (tolerance {COUNT_TOL:g})",
            f"max|dN_H| vs evolution closed form:   {self.max_dev_nh_evolution:.6g}",
            f"max|dN_V| vs evolution closed form:   {self.max_dev_nv_evolution:.6g}",
            f"max|visibility - 4*beta1/5| at gamma=0: {self.max_dev_visibility:.6g} "
            f"(tolerance {VISIBILITY_TOL:g})",
        ]


def regime_params(beta1: float, gamma: float) -> dict[str, float]:
    """Parameter map for the closed-form regime (beta2 = 1, theta = 45 deg)."""
    return {
        "alpha1": math.sqrt(max(0.0, 1.0 - beta1 * beta1)),
        "beta1": beta1,
        "gamma": gamma,
        "alpha2": 0.0,
        "beta2": 1.0,
        "phi": 0.0,
        "theta": math.pi / 4,
    }


def run_verification(
    phi_points: int = DEFAULT_PHI_POINTS,
    bs_convention: str = "symmetric",
) -> VerificationReport:
    start = time.perf_counter()
    phis = np.linspace(0.0, 2.0 * math.pi, phi_points, endpoint=False)
    vis_phis = np.linspace(0.0, 2.0 * math.pi, max(phi_points, 256), endpoint=False)
    count_cells = [(beta1, gamma) for beta1 in DEFAULT_BETAS for gamma in DEFAULT_GAMMAS]
    vis_cells = [(beta1, 0.0) for beta1 in VISIBILITY_BETAS]

    # every cell's counts at the harmonic sample values of phi
    cells = [regime_params(beta1, gamma) for beta1, gamma in count_cells + vis_cells]
    plan = fig1_preset({name: np.array([cell[name] for cell in cells])
                        for name in FIG1_PARAMETERS})
    plan = replace(plan, bs_convention=bs_convention)
    frequency, coeffs = harmonic_coefficients(plan, "phi")
    counts = harmonic_series(coeffs[:, :len(count_cells)], frequency, phis)
    vis_counts = harmonic_series(coeffs[1, len(count_cells):], frequency, vis_phis)

    # a (cells, 1) column of each parameter against the phi row
    cell_betas = np.array([beta1 for beta1, _ in count_cells]).reshape(-1, 1)
    cell_gammas = np.array([gamma for _, gamma in count_cells]).reshape(-1, 1)

    def max_dev(engine: np.ndarray, closed) -> float:
        deviation = np.abs(engine - closed(cell_betas, cell_gammas, phis))
        return float(np.max(deviation, initial=0.0))

    dev_vis = 0.0
    for (beta1, _), nv in zip(vis_cells, vis_counts):
        vis = visibility(nv, vis_phis)
        dev_vis = max(dev_vis, abs(vis.value - float(reference.visibility_closed(beta1))))

    return VerificationReport(
        max_dev_nh=max_dev(counts[0], reference.nh_closed),
        max_dev_nv=max_dev(counts[1], reference.nv_closed),
        max_dev_nh_evolution=max_dev(counts[0], reference.nh_evolution),
        max_dev_nv_evolution=max_dev(counts[1], reference.nv_evolution),
        max_dev_visibility=dev_vis,
        grid_points=len(count_cells) * len(phis),
        elapsed_seconds=time.perf_counter() - start,
    )
