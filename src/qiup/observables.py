"""Detection-path counts, conditional states, fringe scans and visibility."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import QiupWarning
from .modes import Band
from .plan import CircuitPlan, PlanError, run_plan
from .state import BiphotonState


@dataclass(frozen=True)
class CountResult:
    """Expectation values of the H and V number operators at a detection path."""

    n_h: float
    n_v: float


@dataclass(frozen=True)
class VisibilityResult:
    value: float
    phi_at_max: float


@dataclass(frozen=True)
class FringeScan:
    """Sampled (phi, counts) records for one detection path.

    ``phis`` holds the values of the swept parameter ``sweep`` and must be
    strictly increasing; fringe analysis needs a ``phi`` sweep and
    additionally assumes it covers a full period within [0, 2pi).
    """

    phis: tuple[float, ...]
    records: tuple[CountResult, ...]
    detect_path: str
    sweep: str = "phi"

    def __post_init__(self) -> None:
        if len(self.phis) != len(self.records):
            raise ValueError("phis and records must have equal length")
        if not all(b > a for a, b in zip(self.phis, self.phis[1:])):  # NaN fails
            raise ValueError("scan grid must be strictly increasing")

    def column(self, channel: str) -> np.ndarray:
        if channel == "h":
            return np.array([r.n_h for r in self.records])
        if channel == "v":
            return np.array([r.n_v for r in self.records])
        raise ValueError(f"unknown channel {channel!r} (use 'h' or 'v')")


def counts(state: BiphotonState, path: str, band: Band) -> CountResult:
    """Incoherent H/V squared-amplitude sums for the band photon at ``path``."""
    n_h, n_v = state.counts_at(path, band)
    return CountResult(n_h, n_v)


def counts_by_path(state: BiphotonState, band: Band) -> dict[str, CountResult]:
    """Counts of the ``band`` photon on every occupied path."""
    return {
        path: counts(state, path, band)
        for path in sorted(state.paths_present())
        if state.path_occupied(path, band)
    }


def conditional_state(state: BiphotonState, path: str, band: Band) -> BiphotonState:
    """Entries whose ``band`` photon propagates along ``path``, unrenormalized."""
    return state.restrict_to(path, band)


def fringe_scan(plan: CircuitPlan, sweep: str, grid: Iterable[float]) -> FringeScan:
    """Evaluate the plan's detect-path counts over a parameter grid.

    The swept name must be a free parameter of the plan, or
    ``E_UNKNOWN_PARAM`` is raised, and an angle: a preparation's ``alpha`` or
    ``beta`` raises ``ValueError``.  Both are refused whatever the grid, before
    any run.  Every other free parameter must already be bound to a scalar (an
    array binding raises ``E_BATCH_SHAPE``).  Records come back in grid order.

    The plan runs once, as one batch: the ``2D + 1`` harmonic samples of
    :func:`harmonic_coefficients`, whose series is then summed at every grid
    point, whatever the grid's length or range.  For fig1 the batch holds 3
    values for ``phi``, 3 for ``gamma`` and 9 for ``theta``.  An empty grid
    makes no run.
    """
    batched = sorted(k for k, v in plan.bindings.items() if isinstance(v, np.ndarray))
    if batched:
        # the sweep's own batch would pair member j with the j-th sample
        raise PlanError(
            "E_BATCH_SHAPE",
            f"fringe_scan needs scalar bindings, got arrays for {', '.join(batched)}",
        )
    phis = [float(value) for value in grid]
    if phis:
        frequency, coeffs = harmonic_coefficients(plan, sweep)
        values = harmonic_series(coeffs, frequency, phis)
    else:
        _harmonics(plan, sweep)  # the refusals of a nonempty grid, without a run
        values = np.empty((2, 0))
    records = [CountResult(h, v) for h, v in zip(*values.tolist())]
    return FringeScan(tuple(phis), tuple(records), plan.detect_path, sweep)


def _harmonics(plan: CircuitPlan, sweep: str) -> tuple[int, int]:
    """(f, D) of :meth:`CircuitPlan.harmonic_degree`, or the refusal of a
    sweep that is not a free angle of the plan."""
    if sweep not in plan.free_parameters:
        raise PlanError("E_UNKNOWN_PARAM", f"not free parameters of this plan: {sweep}")
    harmonics = plan.harmonic_degree(sweep)
    if harmonics is None:
        raise ValueError(
            f"cannot sweep {sweep!r}: only angles sweep, and {sweep!r} sets a "
            "preparation's alpha or beta, whose pair must stay normalized"
        )
    return harmonics


def harmonic_coefficients(plan: CircuitPlan, sweep: str) -> tuple[int, np.ndarray]:
    """(f, c): the harmonic series of the detect-path counts in ``sweep``.

    Each count is ``c_0 + 2 Re sum_m c_m e^{i m f x}`` over harmonics
    m = 0..D, with the frequency f and the degree D of
    :meth:`CircuitPlan.harmonic_degree`.  The sweep is bound to the
    ``2D + 1`` equispaced values ``2*pi*j/((2D + 1)*f)``, which fix the
    series exactly, and the plan runs once; ``c`` holds the ``rfft``
    coefficients, shape (2, D + 1) over the H and V channels.

    When other parameters are bound to arrays of C cells, each cell is
    repeated across the samples, cell-major, in the same single run, and
    ``c`` has shape (2, C, D + 1).  A name that is not free raises
    ``E_UNKNOWN_PARAM``; one that sets a preparation's ``alpha`` or ``beta``
    raises ``ValueError``, since the counts are no such series in it.
    """
    frequency, degree = _harmonics(plan, sweep)
    n = 2 * degree + 1
    samples = 2.0 * math.pi * np.arange(n) / (n * frequency)
    cells = {k: v for k, v in plan.bindings.items()
             if isinstance(v, np.ndarray) and k != sweep}
    size = len(next(iter(cells.values()))) if cells else 1
    bound = {k: np.repeat(v, n) for k, v in cells.items()}
    bound[sweep] = np.tile(samples, size)
    state = run_plan(plan.bind(bound))
    counts = np.empty((2, size * n))
    # a channel that no batched amplitude reaches comes back as one float
    counts[0], counts[1] = state.counts_at(plan.detect_path, plan.detect_band)
    # rfft of n > 2*degree samples gives n * c_m for harmonics m = 0..degree
    # without aliasing
    coeffs = np.fft.rfft(counts.reshape(2, size, n), axis=-1) / n
    return frequency, coeffs if cells else coeffs[:, 0]


def harmonic_series(coeffs: np.ndarray, frequency: int, grid) -> np.ndarray:
    """Counts at ``grid`` from :func:`harmonic_coefficients`' (f, c).

    ``coeffs`` has shape (..., D + 1); the result has shape (..., len(grid)).
    """
    degree = coeffs.shape[-1] - 1
    waves = np.exp(1j * frequency * np.outer(np.arange(1, degree + 1), grid))
    values = coeffs[..., :1].real + 2.0 * (coeffs[..., 1:] @ waves).real
    # squared magnitudes: clip rounding below zero where a count vanishes
    return np.maximum(values, 0.0)


def visibility(
    values: Sequence[float], phis: Sequence[float] | None = None
) -> VisibilityResult:
    """(max - min) / (max + min) of a scanned channel.

    ``phi_at_max`` is the grid point of the maximum (ties resolve to the
    smallest phi); when no grid is supplied the index of the maximum is
    reported instead.  An all-zero channel has visibility 0 by convention.
    """
    if len(values) == 0:
        raise ValueError("visibility needs at least one value")
    arr = np.asarray(values, dtype=float)
    if np.any(arr < 0):
        raise ValueError("count values must be nonnegative")
    top, bottom = float(arr.max()), float(arr.min())
    arg = int(arr.argmax())
    phi_at_max = float(phis[arg]) if phis is not None else float(arg)
    if top + bottom == 0.0:
        warnings.warn("all-zero channel, visibility undefined; reporting 0",
                      QiupWarning, stacklevel=2)
        return VisibilityResult(0.0, phi_at_max)
    return VisibilityResult((top - bottom) / (top + bottom), phi_at_max)


def format_scan_csv(scan: FringeScan) -> str:
    """Scan CSV: header ``<sweep>,n_h,n_v`` (``phi,n_h,n_v`` for a phi scan),
    17 significant digits, LF endings."""
    lines = [f"{scan.sweep},n_h,n_v"]
    for phi, rec in zip(scan.phis, scan.records):
        lines.append(f"{phi:.17g},{rec.n_h:.17g},{rec.n_v:.17g}")
    return "\n".join(lines) + "\n"

