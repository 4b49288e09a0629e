"""Detection-path counts, conditional states, fringe scans and visibility.

Sweeps read a count tensor.  Every detected count is a trigonometric
polynomial of low degree in each free angle, and in ``chi`` for a
preparation whose ``(alpha, beta) = (cos chi, sin chi)`` pair is free, so its
values at a product grid of ``2D + 1`` nodes per parameter fix it everywhere.
The first sweep of a circuit runs it once over that grid, for every free
parameter at once, and puts each angle's axis into Fourier coefficients with
one ``rfft``; every later sweep of the circuit, at any bound values and on
any grid, contracts the cached coefficients and runs nothing, with no FFT.
"""
from __future__ import annotations

import functools
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dsl import ParamRef, PrepareStmt
from .errors import QiupWarning
from .modes import Band
from .plan import CircuitPlan, PlanError, _setting, run_plan
from .state import BiphotonState

#: The most members the count tensor's product grid may hold; a circuit with
#: a larger grid runs once per sweep instead.
TENSOR_MAX_MEMBERS = 8192
#: How many circuits keep their count tensors.
TENSOR_CACHE_SIZE = 4
#: A harmonic m >= 1 at or below this many times the largest count of the
#: tensor or of the sampled run is rounding and reads 0: the scale-free
#: visibility would turn it into a fringe on a channel that has none.
HARMONIC_FLOOR = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class CountResult:
    """Expectation values of the H and V number operators at a detection path."""

    n_h: float
    n_v: float


@dataclass(frozen=True)
class VisibilityResult:
    value: float
    phi_at_max: float


@dataclass(frozen=True, eq=False, init=False)
class FringeScan:
    """Detect-path counts over a swept parameter, as arrays.

    ``phis``, shape (N,), holds the values of the swept parameter ``sweep``
    and must be strictly increasing; ``counts``, shape (2, N), holds the H
    and V expectations at them.  Both are read-only.  Fringe analysis needs
    a ``phi`` sweep and additionally assumes it covers a full period within
    [0, 2pi).

    The constructor takes one :class:`CountResult` per point and converts
    them once; ``records`` rebuilds them from ``counts`` on each access.
    qiup's own producers build the arrays directly.  Arrays have no single
    truth value, so scans compare by identity.
    """

    phis: np.ndarray
    counts: np.ndarray
    detect_path: str
    sweep: str

    def __init__(self, phis: Sequence[float], records: Sequence[CountResult],
                 detect_path: str, sweep: str = "phi") -> None:
        rows = np.array([[r.n_h for r in records], [r.n_v for r in records]], dtype=float)
        _set_scan(self, np.array(phis, dtype=float), rows, "records",
                  detect_path=detect_path, sweep=sweep)

    @classmethod
    def _of(cls, phis: np.ndarray, counts: np.ndarray, detect_path: str,
            sweep: str) -> FringeScan:
        """The scan of arrays it may own and freeze, checked as by the
        constructor."""
        scan = object.__new__(cls)
        _set_scan(scan, phis, counts, "records", detect_path=detect_path, sweep=sweep)
        return scan

    @property
    def records(self) -> tuple[CountResult, ...]:
        """One :class:`CountResult` per point, built from ``counts``."""
        return tuple(map(CountResult, *self.counts.tolist()))

    def column(self, channel: str) -> np.ndarray:
        """The read-only row of ``counts`` for channel ``"h"`` or ``"v"``."""
        if channel == "h":
            return self.counts[0]
        if channel == "v":
            return self.counts[1]
        raise ValueError(f"unknown channel {channel!r} (use 'h' or 'v')")


def _set_scan(scan, phis: np.ndarray, rows, what: str, **fields) -> None:
    """Give ``scan`` the read-only arrays ``phis`` and ``counts`` (the two
    ``rows``, H and V, stacked) and its other ``fields``.

    The one check of every scan type: each row as long as ``phis`` and the
    grid strictly increasing, where NaN fails.  Freezes ``phis`` and an
    array ``rows`` in place, so callers pass arrays they own.
    """
    if not len(rows[0]) == len(rows[1]) == len(phis):
        raise ValueError(f"phis and {what} must have equal length")
    if not (phis[1:] > phis[:-1]).all():
        raise ValueError("scan grid must be strictly increasing")
    counts = np.asarray(rows)
    phis.flags.writeable = counts.flags.writeable = False
    vars(scan).update(fields, phis=phis, counts=counts)


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
    array binding raises ``E_BATCH_SHAPE``).  ``grid`` is any iterable of
    numbers; the scan holds it and the counts at it, in grid order, as
    arrays, and builds no per-point record.

    The counts come from the series of :func:`harmonic_coefficients`,
    summed at every grid point, whatever the grid's length or range: the
    first scan of a circuit runs it once, over the product grid of its count
    tensor, and later scans of that circuit run nothing.  An empty grid makes
    no run.
    """
    batched = sorted(k for k, v in plan.bindings.items() if isinstance(v, np.ndarray))
    if batched:
        # the sweep's own batch would pair member j with the j-th sample
        raise PlanError(
            "E_BATCH_SHAPE",
            f"fringe_scan needs scalar bindings, got arrays for {', '.join(batched)}",
        )
    phis = np.fromiter(grid, dtype=float)
    if len(phis):
        values = _evaluate(*_series(plan, sweep), phis)
    else:
        _harmonics(plan, sweep)  # the refusals of a nonempty grid, without a run
        values = np.empty((2, 0))
    return FringeScan._of(phis, values, plan.detect_path, sweep)


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
    :meth:`CircuitPlan.harmonic_degree`.  The counts at the ``2D + 1``
    equispaced values ``2*pi*j/((2D + 1)*f)`` fix the series exactly; ``c``
    holds their ``rfft`` coefficients, shape (2, D + 1) over the H and V
    channels.  When other parameters are bound to arrays of C cells, ``c``
    has shape (2, C, D + 1), one series per cell.

    The series comes from the circuit's count tensor, built by one batched
    run of the unbound circuit over a product grid of nodes of every free
    parameter and kept for the last :data:`TENSOR_CACHE_SIZE` circuits
    (keyed by sources, pipeline, detect path and band and splitter
    convention).  It holds each angle's axis in the real Fourier form
    ``(a_0, a_1, b_1, ..., a_D, b_D)`` of the counts, and the axis of each
    preparation whose ``alpha`` and ``beta`` are two ``$`` names used
    nowhere else as the counts at nodes in ``chi``, ``(alpha, beta) = (cos
    chi, sin chi)``.  A call weighs every axis but the sweep's at the bound
    values and returns the sweep's real form as ``c_0 = a_0``, ``c_m = (a_m
    - i b_m)/2``, running neither the circuit nor an FFT.  A pair is
    evaluated on the unit circle, at ``(alpha, beta) / sqrt(alpha^2 +
    beta^2)``: one off it by eps (at most 1e-10 passes the checks) may
    differ from a run by about eps times the coefficients.  A circuit
    without a tensor (a free name of neither kind, a grid above
    :data:`TENSOR_MAX_MEMBERS` members, or a run over the grid that raises
    or warns) runs once per call instead, with the sweep bound to its
    ``2D + 1`` values and each cell repeated across them, cell-major, and
    puts the counts there into the same real form.  A circuit with a tensor
    does not repeat the warning of a run whose splitter input cancels at
    the bound values alone.

    The checks of a run hold whichever way the counts come: a name that is
    not free raises ``E_UNKNOWN_PARAM``; one that sets a preparation's
    ``alpha`` or ``beta`` raises ``ValueError``, since the counts are no
    such series in it; a free name left unbound raises ``E_UNBOUND_PARAM``;
    and each preparation checks its bound amplitudes and phase, naming the
    failing cell.

    Either way, a harmonic m >= 1 whose magnitude is at most
    :data:`HARMONIC_FLOOR` times the largest count of the tensor or of the
    run is set to 0: it is interpolation or rounding residue, and a channel
    that vanishes would otherwise show it as a fringe of any visibility.
    """
    frequency, series = _series(plan, sweep)
    waves = (series[..., 1::2] - 1j * series[..., 2::2]) / 2.0
    return frequency, np.concatenate((series[..., :1], waves), axis=-1)


def _series(plan: CircuitPlan, sweep: str) -> tuple[int, np.ndarray]:
    """(f, s): :func:`harmonic_coefficients`' series, checks and floor, with
    ``s`` in the real form ``(a_0, a_1, b_1, ..., a_D, b_D)`` of each count
    a_0 + sum_m a_m cos(m f x) + b_m sin(m f x); |c_m| = hypot(a_m, b_m)/2."""
    frequency, degree = _harmonics(plan, sweep)
    _check_bindings(plan, sweep)
    tensor = _count_tensor(_structure(plan))
    if tensor is None:
        counts = _sample(plan, [_angle_axis(sweep, frequency, degree)])
        largest = counts.max(initial=0.0)
        cells = any(isinstance(v, np.ndarray) for k, v in plan.bindings.items() if k != sweep)
        series = _real_form(counts if cells else counts[:, 0], -1)
    else:
        largest = tensor.largest
        series = tensor.sweep_series(plan.bindings, sweep)
    cosines, sines = series[..., 1::2], series[..., 2::2]
    small = np.hypot(cosines, sines) <= 2.0 * HARMONIC_FLOOR * largest
    cosines[small] = sines[small] = 0.0
    return frequency, series


def _check_bindings(plan: CircuitPlan, sweep: str) -> None:
    """Raise what a run of ``plan`` would raise on its bound values, in
    pipeline order: ``E_UNBOUND_PARAM`` for a name other than ``sweep`` left
    unbound, and each preparation's :class:`~qiup.elements.PreparationSpec`
    checks."""
    bindings = dict(plan.bindings)
    bindings[sweep] = 0.0  # bound to its samples in every run
    for stmt in plan.pipeline:
        _setting(stmt, bindings)


@dataclass(frozen=True, eq=False)
class _Axis:
    """One axis of the count tensor: the names it binds (an angle, or a
    preparation's ``alpha`` and ``beta``) and their values at its nodes, one
    row per name.  The counts are a trigonometric polynomial of degree D in
    t, which is f*x for an angle x and chi for a pair, with ``2D + 1`` nodes
    ``angles`` in t.

    An angle's axis of :attr:`_CountTensor.series` holds that polynomial's
    real Fourier form, so its weights at t are the rows of :func:`_basis`;
    a pair's holds the counts at its nodes, weighed by the Lagrange basis
    prod_{k != j} sin((t - t_k)/2) / sin((t_j - t_k)/2), exact at the nodes.
    """

    names: tuple[str, ...]
    nodes: np.ndarray
    frequency: int  # an angle's f; 0 for a pair
    angles: np.ndarray
    denominators: np.ndarray | None  # a pair's Lagrange denominators

    def __len__(self) -> int:
        return len(self.angles)

    def scalar_weights(self, bindings) -> list[float]:
        """The weights at values bound to scalars, as floats: numpy's per-call
        overhead would cost more than the arithmetic."""
        if self.frequency:
            t = self.frequency * bindings[self.names[0]]
            weights = [1.0]
            for m in range(1, len(self) // 2 + 1):
                weights += (math.cos(m * t), math.sin(m * t))
            return weights
        alpha, beta = (bindings[name] for name in self.names)
        t = math.atan2(beta, alpha)
        half = [math.sin((t - angle) / 2.0) for angle in self.angles.tolist()]
        return [math.prod(half[:j] + half[j + 1:]) / denominator
                for j, denominator in enumerate(self.denominators.tolist())]

    def cell_weights(self, bindings) -> np.ndarray:
        """(C, n): the weights at bound values of which one or both are
        arrays of C cells."""
        if self.frequency:
            return _basis(self.frequency, bindings[self.names[0]], len(self) // 2).T
        alpha, beta = (bindings[name] for name in self.names)
        return _sine_products(np.arctan2(beta, alpha), self.angles) / self.denominators


def _sine_products(t, angles: np.ndarray) -> np.ndarray:
    """prod_{k != j} sin((t - t_k)/2) over the nodes t_k = ``angles``, for
    each j: shape (..., n)."""
    half = np.sin((np.asarray(t)[..., None] - angles) / 2.0)
    others = np.where(_diagonal(len(angles)), 1.0, half[..., None, :])
    return others.prod(axis=-1)


@functools.cache
def _diagonal(n: int) -> np.ndarray:
    """The (n, n) boolean identity that masks k = j out of each product."""
    mask = np.eye(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _axis(names: tuple[str, ...], nodes: np.ndarray, frequency: int,
          angles: np.ndarray, denominators: np.ndarray | None = None) -> _Axis:
    for array in (nodes, angles, denominators):
        if array is not None:
            array.flags.writeable = False
    return _Axis(names, nodes, frequency, angles, denominators)


def _angle_axis(name: str, frequency: int, degree: int) -> _Axis:
    """The ``2D + 1`` equispaced values ``2*pi*j/((2D + 1)*f)``."""
    n = 2 * degree + 1
    angles = 2.0 * math.pi * np.arange(n) / n
    return _axis((name,), angles[None] / frequency, frequency, angles)


def _pair_axis(alpha: str, beta: str) -> _Axis:
    """chi_j = j*pi/8, j = 0..4: a pair's counts have degree 2 in chi (a
    constant, a linear part from the cross term with the other source and a
    quadratic part from its own), and alpha, beta >= 0 puts chi in
    [0, pi/2]."""
    chi = np.arange(5) * (math.pi / 8)
    return _axis((alpha, beta), np.array([np.cos(chi), np.sin(chi)]), 0, chi,
                 np.diagonal(_sine_products(chi, chi)).copy())


def _sample(plan: CircuitPlan, axes: list[_Axis]) -> np.ndarray:
    """Detect-path counts from one batched run of ``plan`` over the product
    grid of the axes' nodes, shape (2, C, n_1, ..., n_K).

    Axis k's node index varies along grid dimension k, and each of the C
    cells bound to arrays (C = 1 without) is repeated across the grid,
    cell-major.
    """
    shape = tuple(len(axis) for axis in axes)
    swept = {name for axis in axes for name in axis.names}
    cells = {k: v for k, v in plan.bindings.items()
             if isinstance(v, np.ndarray) and k not in swept}
    size = len(next(iter(cells.values()))) if cells else 1
    grid = math.prod(shape)
    bound = {k: np.repeat(v, grid) for k, v in cells.items()}
    for axis, index in zip(axes, np.indices(shape).reshape(len(shape), -1)):
        for name, row in zip(axis.names, axis.nodes):
            bound[name] = np.tile(row[index], size)
    state = run_plan(plan.bind(bound))
    counts = np.empty((2, size * grid))
    # a channel that no batched amplitude reaches comes back as one float
    counts[0], counts[1] = state.counts_at(plan.detect_path, plan.detect_band)
    return counts.reshape(2, size, *shape)


@dataclass(frozen=True, eq=False)
class _CountTensor:
    """Detect-path counts at the product grid of ``axes``' nodes, shape
    (2, n_1, ..., n_K), and ``series``, the same with every angle axis in
    real Fourier form (see :class:`_Axis`); both read-only.

    ``layouts`` caches, per order of the axes, ``series`` with its axes in
    that order, flattened to (2, K, n_sweep) and contiguous: built by the
    first sweep that needs it, read-only, at most one per sweep axis and set
    of cell-bound axes.
    """

    axes: tuple[_Axis, ...]
    counts: np.ndarray
    largest: float  # the largest count
    series: np.ndarray
    layouts: dict = field(default_factory=dict)

    def sweep_series(self, bindings, sweep: str) -> np.ndarray:
        """The real Fourier form ``(a_0, a_1, b_1, ..., a_D, b_D)`` of the
        counts in ``sweep``, every other axis contracted with its weights at
        the bound values: shape (2, n_sweep), or (2, C, n_sweep) when names
        are bound to arrays of C cells.

        The axes whose names are all bound to scalars come first in the
        layout, and the Kronecker product of their weights contracts them in
        one product; the axes bound to arrays follow, longest first, which
        leaves the least to contract per cell.
        """
        at = next(k for k, axis in enumerate(self.axes) if axis.names == (sweep,))
        cells, scalars = [], []
        for k, axis in enumerate(self.axes):
            if k != at:
                cell = any(isinstance(bindings[name], np.ndarray) for name in axis.names)
                (cells if cell else scalars).append(k)
        cells.sort(key=lambda k: -len(self.axes[k]))
        layout = self.layout((*scalars, *cells, at))
        weights = _kron([self.axes[k].scalar_weights(bindings) for k in scalars])
        values = weights @ layout.reshape(2, len(weights), -1)
        if not cells:
            return values
        values = values.reshape(2, 1, -1)  # (channel, cell, nodes)
        for k in cells:
            weights = self.axes[k].cell_weights(bindings)
            rows = values.reshape(2, values.shape[1], weights.shape[1], -1)
            # one product for every cell, until cells come in; then per cell
            values = (weights @ rows[:, 0] if values.shape[1] == 1
                      else weights[:, None, :] @ rows)
        return values.reshape(2, -1, len(self.axes[at]))

    def layout(self, order: tuple[int, ...]) -> np.ndarray:
        """``series`` with its axes in ``order``, as (2, K, n_last)."""
        layout = self.layouts.get(order)
        if layout is None:
            layout = np.ascontiguousarray(self.series.transpose(0, *(k + 1 for k in order)))
            layout = layout.reshape(2, -1, layout.shape[-1])
            layout.flags.writeable = False
            self.layouts[order] = layout
        return layout


def _kron(rows: list[list[float]]) -> np.ndarray:
    """The Kronecker product of ``rows``, flat: each half of the rows
    multiplied out in floats, then the halves' outer product in one numpy
    call, which costs less than one call per row."""
    halves = []
    for part in (rows[:len(rows) // 2], rows[len(rows) // 2:]):
        product = [1.0]
        for row in part:
            product = [a * b for a in product for b in row]
        halves.append(product)
    return np.multiply.outer(*halves).reshape(-1)


def _real_form(values: np.ndarray, axis: int) -> np.ndarray:
    """``values`` with their ``axis`` of 2D + 1 samples at t_j = 2*pi*j/(2D + 1)
    replaced by the real form of the trigonometric polynomial through them,
    from one ``rfft`` (exact for harmonics 0..D without aliasing)."""
    spectrum = np.moveaxis(np.fft.rfft(values, axis=axis), axis, -1) / values.shape[axis]
    return np.moveaxis(_real(spectrum), -1, axis)


def _real(coeffs: np.ndarray) -> np.ndarray:
    """The real form of ``c_0 + 2 Re sum_m c_m e^{i m t}``, ``coeffs`` (..., D + 1):
    a_0 = Re c_0, a_m = 2 Re c_m and b_m = -2 Im c_m."""
    form = np.empty(coeffs.shape[:-1] + (2 * coeffs.shape[-1] - 1,))
    form[..., 0] = coeffs[..., 0].real
    form[..., 1::2] = 2.0 * coeffs[..., 1:].real
    form[..., 2::2] = -2.0 * coeffs[..., 1:].imag
    return form


def _basis(frequency: int, grid, degree: int) -> np.ndarray:
    """(2D + 1, N): the rows (1, cos f x, sin f x, ..., cos D f x, sin D f x)
    at the N points x of ``grid``, as powers of each point's phasor e^{i f x}."""
    phasor = np.exp(1j * frequency * np.asarray(grid, dtype=float))
    waves = phasor ** np.arange(1, degree + 1)[:, None]
    rows = np.ones((2 * degree + 1, len(phasor)))
    rows[1::2], rows[2::2] = waves.real, waves.imag
    return rows


def _evaluate(frequency: int, series: np.ndarray, grid) -> np.ndarray:
    """Counts at ``grid`` from :func:`_series`' (f, s): shape (..., len(grid))."""
    values = series @ _basis(frequency, grid, series.shape[-1] // 2)
    # squared magnitudes: clip rounding below zero where a count vanishes
    return np.maximum(values, 0.0)


def _structure(plan: CircuitPlan) -> tuple:
    """What the counts depend on besides the bindings."""
    return (plan.sources, plan.pipeline, plan.detect_path, plan.detect_band,
            plan.bs_convention)


@functools.lru_cache(maxsize=TENSOR_CACHE_SIZE)
def _count_tensor(structure: tuple) -> _CountTensor | None:
    """The count tensor of the circuit with this structure, or ``None``
    where it has none (see :func:`harmonic_coefficients`)."""
    sources, pipeline, detect_path, detect_band, bs_convention = structure
    uses = Counter(value.name for stmt in pipeline for value in stmt.values()
                   if isinstance(value, ParamRef))
    plan = CircuitPlan(sources, pipeline, detect_path, detect_band,
                       frozenset(uses), {}, bs_convention)
    pairs = {}
    for stmt in pipeline:
        if isinstance(stmt, PrepareStmt):
            alpha, beta = stmt.alpha, stmt.beta
            if (isinstance(alpha, ParamRef) and isinstance(beta, ParamRef)
                    and uses[alpha.name] == uses[beta.name] == 1):
                pairs[alpha.name] = pairs[beta.name] = _pair_axis(alpha.name, beta.name)
    axes = []
    for name in uses:  # in order of first use
        if name in pairs:
            if pairs[name].names[0] == name:
                axes.append(pairs[name])
            continue
        harmonics = plan.harmonic_degree(name)
        if harmonics is None:
            return None
        axes.append(_angle_axis(name, *harmonics))
    if math.prod(len(axis) for axis in axes) > TENSOR_MAX_MEMBERS:
        return None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            counts = _sample(plan, axes)[:, 0]
        except ValueError:  # a PlanError, a PreparationConflictError, ...
            return None
    if caught:
        return None
    series = counts
    for k, axis in enumerate(axes):
        if axis.frequency:
            series = _real_form(series, k + 1)
    counts.flags.writeable = series.flags.writeable = False
    return _CountTensor(tuple(axes), counts, float(counts.max(initial=0.0)), series)


def harmonic_series(coeffs: np.ndarray, frequency: int, grid) -> np.ndarray:
    """Counts at ``grid`` from :func:`harmonic_coefficients`' (f, c).

    ``coeffs`` has shape (..., D + 1); the result has shape (..., len(grid)).
    """
    return _evaluate(frequency, _real(coeffs), grid)


def visibility(
    values: Sequence[float], phis: Sequence[float] | None = None
) -> VisibilityResult:
    """(max - min) / (max + min) of a scanned channel.

    ``phi_at_max`` is the grid point of the maximum (ties resolve to the
    smallest phi); when no grid is supplied the index of the maximum is
    reported instead.  An all-zero channel has visibility 0 by convention.
    Values must be finite and nonnegative, and a grid as long as they are.
    """
    if len(values) == 0:
        raise ValueError("visibility needs at least one value")
    if phis is not None and len(phis) != len(values):
        raise ValueError(f"{len(values)} values but {len(phis)} phis")
    arr = np.asarray(values, dtype=float)
    if not (np.isfinite(arr).all() and (arr >= 0).all()):
        raise ValueError("count values must be finite and nonnegative")
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
    rows = map("{:.17g},{:.17g},{:.17g}".format, scan.phis.tolist(), *scan.counts.tolist())
    return "\n".join([f"{scan.sweep},n_h,n_v", *rows]) + "\n"
