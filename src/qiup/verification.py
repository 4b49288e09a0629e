"""Engine-versus-closed-form comparison grids used by `qiup verify` and the
acceptance suite: see :func:`run_verification`.

Every cell's counts are a first-order trigonometric series in phi, so the
(beta1, gamma) count cells and the visibility cells are bound as arrays of
alpha1, beta1 and gamma, the regime's constants as scalars, onto a fig1
plan kept per splitter convention, and the circuit's count tensor gives
each cell's coefficients of (1, cos phi, sin phi), the real form in which it
holds every angle.  The first comparison in a process builds the tensor in
one batched run; later ones reuse it, and the kept plan's structure, without
running the circuit or redoing any structural work.  The constants' axes
(alpha2/beta2 and theta) are contracted with one product over the whole
tensor, and the cells' axes (the alpha1/beta1 pair and gamma) with one more,
whose rows are each cell's weights of both, multiplied out.

Both closed-form families are first harmonics in phi too, so the comparison
works on coefficients: each family's table in :mod:`qiup.reference` gives
every count cell's coefficients of (1, cos phi, sin phi), and those are
subtracted from the engine's.  The transcribed forms are never evaluated,
and no series is evaluated on its grid.  A first harmonic
``a0 + A cos(phi - psi)`` takes its largest value on the grid
``2*pi*k/N`` at the node nearest its phase psi, d grid steps away, and its
smallest at the node nearest psi + pi, d' steps away, so both read in
closed form: ``a0 + A cos(2*pi*d/N)`` and ``a0 - A cos(2*pi*d'/N)``.  The
larger magnitude of a deviation series' two is its largest deviation on the
count grid, and each visibility cell's two on the visibility grid, clipped
at 0, give its visibility (top - bottom)/(top + bottom).  The cost of a
comparison does not depend on the number of grid points.
"""
from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from . import reference
from .observables import harmonic_coefficients
from .plan import _fig1_plan

DEFAULT_PHI_POINTS = 64
DEFAULT_BETAS = tuple(round(0.1 * k, 10) for k in range(11))
DEFAULT_GAMMAS = tuple(k * math.pi / 4 for k in range(8))
VISIBILITY_BETAS = (0.0, 0.25, 0.5, 0.75, 1.0)
COUNT_TOL = 1e-9
VISIBILITY_TOL = 1e-3
#: The finest phi grid: on a finer one, the rounding of a phase in grid steps
#: would approach half a step, the most by which a phase misses its nearest node.
MAX_PHI_POINTS = 2**40


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
    """Compare fig1's counts in the beta2 = 1, theta = 45 deg regime with both
    closed-form families of :mod:`qiup.reference` over the (beta1, gamma)
    cells of ``DEFAULT_BETAS`` x ``DEFAULT_GAMMAS`` on the grid
    ``2*pi*k/phi_points``, and its V visibility at gamma = 0 with
    ``4*beta1/5`` over ``VISIBILITY_BETAS`` on the grid of
    ``max(phi_points, 256)`` points.  Each series' largest and smallest
    value on a grid are read in closed form, at the nodes nearest its phase
    and its phase + pi.  ``phi_points`` is an integer: outside 1 to
    :data:`MAX_PHI_POINTS` it raises ``ValueError``, as does a
    ``bs_convention`` other than ``"symmetric"`` and ``"hadamard"``."""
    start = time.perf_counter()
    phi_points = operator.index(phi_points)
    if not 1 <= phi_points <= MAX_PHI_POINTS:
        raise ValueError(f"the phi grid needs 1 to {MAX_PHI_POINTS} points, got {phi_points}")
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
    _, series = harmonic_coefficients(_fig1_plan(bs_convention).bind(bindings), "phi")

    # reference H, V, then evolution H, V; a deviation is no count, so it is
    # not clipped at 0 as counts are
    engine = series[:, :cells]
    forms = np.concatenate((reference.REFERENCE_FORMS, reference.EVOLUTION_FORMS))
    closed = reference.harmonics(forms, betas, gammas).swapaxes(1, 2)
    extremes = _grid_extremes(np.concatenate((engine, engine)) - closed, phi_points)
    worst = np.abs(extremes).max(axis=(0, 2)).tolist()

    top, bottom = np.maximum(_grid_extremes(series[1, cells:], max(phi_points, 256)), 0.0)
    expected = reference.visibility_closed(beta1[cells:])
    dev_vis = np.abs((top - bottom) / (top + bottom) - expected).max()

    return VerificationReport(
        max_dev_nh=worst[0],
        max_dev_nv=worst[1],
        max_dev_nh_evolution=worst[2],
        max_dev_nv_evolution=worst[3],
        max_dev_visibility=float(dev_vis),
        grid_points=cells * phi_points,
        elapsed_seconds=time.perf_counter() - start,
    )


def _grid_extremes(series: np.ndarray, points: int) -> tuple[np.ndarray, np.ndarray]:
    """(top, bottom), each of shape ``series.shape[:-1]``: the largest and
    the smallest value on the grid ``2*pi*k/points`` of each first harmonic
    ``a0 + a1 cos phi + b1 sin phi`` of ``series`` (..., 3).

    With ``a1 cos phi + b1 sin phi = A cos(phi - psi)`` and ``x =
    psi*points/(2*pi)``, the largest value sits at the node nearest psi, d
    grid steps from it, where d is the distance from x to the nearest
    integer, so it is ``a0 + A cos(2*pi*d/points)``; the smallest sits at
    the node nearest psi + pi, d' steps from it for ``x + points/2``, and is
    ``a0 - A cos(2*pi*d'/points)``.  Cosine is even, so the signed distance
    serves as d.  A series of another length is no first harmonic and
    raises ``ValueError``."""
    if series.shape[-1] != 3:
        raise ValueError(
            f"grid extremes need first harmonics (a0, a1, b1), got {series.shape[-1]} coefficients"
        )
    a0, a1, b1 = series[..., 0], series[..., 1], series[..., 2]
    amplitude = np.hypot(a1, b1)
    turn = np.arctan2(b1, a1) * (points / (2.0 * math.pi))
    step = 2.0 * math.pi / points
    top = a0 + amplitude * np.cos(step * (turn - np.rint(turn)))
    turn += points / 2.0
    bottom = a0 - amplitude * np.cos(step * (turn - np.rint(turn)))
    return top, bottom
