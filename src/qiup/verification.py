"""Engine-versus-closed-form comparison grids used by `qiup verify` and the
acceptance suite.

The comparison runs the built-in two-source circuit in the beta2 = 1,
theta = 45 deg regime over a (beta1, gamma, phi) grid and reports maximum
absolute deviations of the engine counts from both closed-form families in
:mod:`qiup.reference`, plus the vertical-channel visibility error at
gamma = 0.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import reference
from .observables import fringe_scan, visibility
from .plan import fig1_preset

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
    betas: tuple[float, ...] = DEFAULT_BETAS,
    gammas: tuple[float, ...] = DEFAULT_GAMMAS,
) -> VerificationReport:
    start = time.perf_counter()
    phis = np.linspace(0.0, 2.0 * math.pi, phi_points, endpoint=False)
    dev_nh = dev_nv = dev_nh_evo = dev_nv_evo = 0.0
    grid_points = 0
    for beta1 in betas:
        for gamma in gammas:
            plan = fig1_preset(regime_params(beta1, gamma))
            scan = fringe_scan(plan, "phi", phis, bs_convention=bs_convention)
            nh, nv = scan.column("h"), scan.column("v")
            dev_nh = max(dev_nh, float(np.max(np.abs(nh - reference.nh_closed(beta1, gamma, phis)))))
            dev_nv = max(dev_nv, float(np.max(np.abs(nv - reference.nv_closed(beta1, gamma, phis)))))
            dev_nh_evo = max(
                dev_nh_evo, float(np.max(np.abs(nh - reference.nh_evolution(beta1, gamma, phis))))
            )
            dev_nv_evo = max(
                dev_nv_evo, float(np.max(np.abs(nv - reference.nv_evolution(beta1, gamma, phis))))
            )
            grid_points += len(phis)

    dev_vis = 0.0
    vis_points = max(phi_points, 256)
    vis_phis = np.linspace(0.0, 2.0 * math.pi, vis_points, endpoint=False)
    for beta1 in VISIBILITY_BETAS:
        plan = fig1_preset(regime_params(beta1, 0.0))
        scan = fringe_scan(plan, "phi", vis_phis, bs_convention=bs_convention)
        vis = visibility(scan.column("v"), scan.phis)
        dev_vis = max(dev_vis, abs(vis.value - float(reference.visibility_closed(beta1))))

    return VerificationReport(
        max_dev_nh=dev_nh,
        max_dev_nv=dev_nv,
        max_dev_nh_evolution=dev_nh_evo,
        max_dev_nv_evolution=dev_nv_evo,
        max_dev_visibility=dev_vis,
        grid_points=grid_points,
        elapsed_seconds=time.perf_counter() - start,
    )
