"""Detection-path counts, conditional states, fringe scans and visibility."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

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


def fringe_scan(
    plan: CircuitPlan,
    sweep: str,
    grid: Iterable[float],
    *,
    merge_enabled: bool = True,
    bs_convention: str = "symmetric",
) -> FringeScan:
    """Evaluate the plan's detect-path counts over a parameter grid.

    The swept name must be a free parameter of the plan and every other free
    parameter must already be bound to a scalar (an array binding raises
    ``E_BATCH_SHAPE``).  Records come back in grid order.

    Each count is a real trigonometric polynomial in ``f*sweep`` with
    harmonics 0..D, where :meth:`CircuitPlan.harmonic_degree` reads the
    frequency f and the degree D off the statements that reference the
    sweep: 1 per banded ``phase`` and 2 per ``band=both`` phase, 4 per
    banded wave plate and 8 per ``band=both`` plate (exponents -2..2 of
    ``e^{i*sweep}`` on each photon), 1 per ``prepare ... gamma``; f is 2 when
    only wave plates reference the sweep, else 1, and D is the span over f.
    When the grid has more than ``2D + 1`` points, the sweep is therefore
    bound to the ``2D + 1`` equispaced values ``2*pi*j/((2D + 1)*f)``, which
    fix the series exactly, the plan makes one batched run over them, and
    the series is summed at every grid point, whatever range the grid spans.
    For fig1 that batch holds 3 values for ``phi``, 3 for ``gamma`` and 9
    for ``theta``.  A shorter grid, and a sweep that enters a preparation's
    ``alpha`` or ``beta``, run the plan once per grid point.
    """
    batched = sorted(k for k, v in plan.bindings.items() if isinstance(v, np.ndarray))
    if batched:
        # the sweep's own batch would pair member j with the j-th sample
        raise PlanError(
            "E_BATCH_SHAPE",
            f"fringe_scan needs scalar bindings, got arrays for {', '.join(batched)}",
        )
    phis = [float(value) for value in grid]
    harmonics = plan.harmonic_degree(sweep)
    if harmonics is not None and len(phis) > 2 * harmonics[1] + 1:
        frequency, degree = harmonics
        samples = _harmonic_samples(frequency, degree)
        sampled = _batch_counts(plan.bind({sweep: samples}), len(samples),
                                merge_enabled, bs_convention)
        h_col, v_col = _harmonic_series(sampled, frequency, phis).tolist()
        records = [CountResult(h, v) for h, v in zip(h_col, v_col)]
    else:
        records = [
            CountResult(*_run_counts(plan.bind({sweep: value}), merge_enabled, bs_convention))
            for value in phis
        ]
    return FringeScan(tuple(phis), tuple(records), plan.detect_path, sweep)


def _run_counts(plan: CircuitPlan, merge_enabled: bool, bs_convention: str) -> tuple:
    """(H, V) detect-path counts of one run: floats, or arrays for a batch."""
    state = run_plan(plan, merge_enabled=merge_enabled, bs_convention=bs_convention)
    return state.counts_at(plan.detect_path, plan.detect_band)


def _batch_counts(
    plan: CircuitPlan, size: int, merge_enabled: bool, bs_convention: str
) -> np.ndarray:
    """(2, size) H and V detect-path counts of one run of a batch of ``size``."""
    counts = np.empty((2, size))
    # a channel that no batched amplitude reaches comes back as one float
    counts[0], counts[1] = _run_counts(plan, merge_enabled, bs_convention)
    return counts


def _harmonic_samples(frequency: int, degree: int) -> np.ndarray:
    """The ``2*degree + 1`` equispaced sweep values over one period."""
    n = 2 * degree + 1
    return 2.0 * math.pi * np.arange(n) / (n * frequency)


def _harmonic_series(samples: np.ndarray, frequency: int, phis) -> np.ndarray:
    """Counts at ``phis`` from counts at :func:`_harmonic_samples`.

    ``samples`` has shape (..., 2D + 1), its last axis over the sample
    values; the result has shape (..., len(phis)).
    """
    n = samples.shape[-1]
    degree = n // 2
    # rfft of n > 2*degree samples gives n * c_m for harmonics m = 0..degree
    # without aliasing; the count is c_0 + 2 Re sum_m c_m e^{i m f x}.
    coeffs = np.fft.rfft(samples, axis=-1) / n
    waves = np.exp(1j * frequency * np.outer(np.arange(1, degree + 1), phis))
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


def write_scan_csv(scan: FringeScan, stream: IO[str]) -> None:
    stream.write(format_scan_csv(scan))
