"""Engine-versus-closed-form comparison grids used by `qiup verify` and the
acceptance suite.

The comparison runs the built-in two-source circuit in the beta2 = 1,
theta = 45 deg regime over a (beta1, gamma, phi) grid and reports maximum
absolute deviations of the engine counts from both closed-form families in
:mod:`qiup.reference`, plus the vertical-channel visibility error at
gamma = 0.

Every cell's counts are a first-order trigonometric series in phi, so the
(beta1, gamma) count cells and the visibility cells are bound as arrays of
alpha1, beta1 and gamma, the regime's constants as scalars, and
:func:`qiup.observables.harmonic_coefficients` gives each cell's series in
phi.  It reads the circuit's count tensor, which the first comparison in a
process builds in one batched run and puts into Fourier coefficients in each
angle; later ones reuse it without running the circuit or an FFT.  The
constants' axes (alpha2/beta2 and theta) are contracted first, with one
product over the whole tensor, and only the cells' axes (the alpha1/beta1
pair and gamma) are weighed per cell.

Both closed-form families are first harmonics in phi too, so the comparison
works on coefficients: each family's table in :mod:`qiup.reference` gives
every count cell's coefficients of (1, cos phi, sin phi), those are
subtracted from the engine's, and the deviation series are summed on the
count grid with one product against a basis built once per call.  The
transcribed forms are never evaluated.  The visibility cells' series are
summed on the finer visibility grid, whose maximum and minimum give each
visibility.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import reference
from .observables import harmonic_coefficients, harmonic_series, visibility
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
) -> VerificationReport:
    start = time.perf_counter()
    phis = np.linspace(0.0, 2.0 * math.pi, phi_points, endpoint=False)
    vis_phis = np.linspace(0.0, 2.0 * math.pi, max(phi_points, 256), endpoint=False)
    # the (beta1, gamma) count cells, beta1-major, then the visibility cells
    betas = np.repeat(DEFAULT_BETAS, len(DEFAULT_GAMMAS))
    gammas = np.tile(DEFAULT_GAMMAS, len(DEFAULT_BETAS))
    cells = len(betas)
    beta1 = np.concatenate((betas, VISIBILITY_BETAS))
    gamma = np.concatenate((gammas, np.zeros(len(VISIBILITY_BETAS))))
    # regime_params per cell: the regime's constants bound once, as scalars,
    # and the names that vary from cell to cell as arrays of all cells
    bindings = regime_params(0.0, 0.0)
    bindings.update(alpha1=np.sqrt(np.maximum(0.0, 1.0 - beta1 * beta1)), beta1=beta1, gamma=gamma)
    plan = replace(fig1_preset(bindings), bs_convention=bs_convention)
    frequency, coeffs = harmonic_coefficients(plan, "phi")

    # each count cell's series as coefficients of (1, cos m f phi, sin m f phi),
    # m = 1..D; fig1's phi has f = 1, so the forms' (1, cos phi, sin phi) are
    # the first three and every higher harmonic belongs to the engine alone
    c = coeffs[:, :cells]
    pairs = np.stack((2.0 * c[..., 1:].real, -2.0 * c[..., 1:].imag), axis=-1)
    engine = np.concatenate((c[..., :1].real, pairs.reshape(c.shape[:-1] + (-1,))), axis=-1)
    angles = frequency * np.outer(np.arange(1, c.shape[-1]), phis)
    waves = np.stack((np.cos(angles), np.sin(angles)), axis=1).reshape(-1, len(phis))
    basis = np.concatenate((np.ones((1, len(phis))), waves))
    # reference H, V, then evolution H, V; a deviation is no count, so it is
    # not clipped at 0 as harmonic_series clips counts
    closed = np.zeros((4,) + engine.shape[1:])
    forms = np.concatenate((reference.REFERENCE_FORMS, reference.EVOLUTION_FORMS))
    closed[..., :3] = reference.harmonics(forms, betas, gammas).swapaxes(1, 2)
    deviation = (np.concatenate((engine, engine)) - closed) @ basis
    worst = np.abs(deviation).max(axis=(1, 2), initial=0.0).tolist()

    vis_counts = harmonic_series(coeffs[1, cells:], frequency, vis_phis)
    expected = reference.visibility_closed(beta1[cells:]).tolist()
    dev_vis = 0.0
    for nv, want in zip(vis_counts, expected):
        dev_vis = max(dev_vis, abs(visibility(nv, vis_phis).value - want))

    return VerificationReport(
        max_dev_nh=worst[0],
        max_dev_nv=worst[1],
        max_dev_nh_evolution=worst[2],
        max_dev_nv_evolution=worst[3],
        max_dev_visibility=dev_vis,
        grid_points=cells * len(phis),
        elapsed_seconds=time.perf_counter() - start,
    )
