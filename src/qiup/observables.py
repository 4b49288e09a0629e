"""Detection-path counts, conditional states, fringe scans and visibility.

Sweeps read a count tensor.  Every detected count is a trigonometric
polynomial of low degree in each free angle, and in ``chi`` for a
preparation whose ``(alpha, beta) = (cos chi, sin chi)`` pair is free, so its
values at a product grid of ``2D + 1`` nodes per parameter fix it everywhere.
The first sweep of a circuit runs it once over that grid, for every free
parameter at once, and puts every axis into real Fourier coefficients, the
counts at its nodes times the inverse of the basis there; every later sweep
of the circuit, at any bound values and on any grid, contracts the cached
coefficients and runs nothing.
"""
from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from .elements import _check_preparation
from .errors import QiupWarning
from .modes import Band, Record
from .plan import CircuitPlan, PlanError, _is_complex, _setting, _Structure, _values, run_plan
from .state import BiphotonState

#: The most members the count tensor's product grid may hold; a circuit with
#: a larger grid runs once per sweep instead.
TENSOR_MAX_MEMBERS = 8192
#: How many circuits keep their count tensors.
TENSOR_CACHE_SIZE = 4
#: A coefficient of a series, a_0 included, at or below twice this many times
#: the largest count of the tensor or of the sampled run is rounding and
#: reads 0: the scale-free visibility would turn it into a fringe on a
#: channel that has none, or a flat channel on one that is empty.
HARMONIC_FLOOR = 64 * np.finfo(float).eps


class CountResult(NamedTuple):
    """Expectation values of the H and V number operators at a detection path."""

    n_h: float
    n_v: float


class VisibilityResult(NamedTuple):
    value: float
    phi_at_max: float


class FringeScan(Record, eq=False):
    """Detect-path counts over a swept parameter, as arrays.

    ``phis``, shape (N,), holds the values of the swept parameter ``sweep``
    and must be strictly increasing; ``counts``, shape (2, N), holds the H
    and V expectations at them.  Both are read-only.  Fringe analysis needs
    a ``phi`` sweep and additionally assumes it covers a full period within
    [0, 2pi).

    The constructor takes one :class:`CountResult` per point and converts
    them once, refusing an expectation that is negative or not finite;
    ``records`` rebuilds them from ``counts`` on each access.  qiup's own
    producers build the arrays directly.  Arrays have no single truth value,
    so scans compare by identity.
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
        if not ((rows >= 0) & (rows < math.inf)).all():  # NaN fails both
            raise ValueError("expectations must be finite and nonnegative")

    @classmethod
    def _of(cls, phis: np.ndarray, counts: np.ndarray, detect_path: str,
            sweep: str) -> FringeScan:
        """The scan of arrays it may own and freeze, which its producer has
        checked as the constructor does."""
        scan = object.__new__(cls)
        phis.flags.writeable = counts.flags.writeable = False
        vars(scan).update(phis=phis, counts=counts, detect_path=detect_path, sweep=sweep)
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

    The checks of the scan constructors: each row as long as ``phis``, then
    :func:`_check_grid`.  Freezes ``phis`` and an array ``rows`` in place, so
    callers pass arrays they own.
    """
    if not len(rows[0]) == len(rows[1]) == len(phis):
        raise ValueError(f"phis and {what} must have equal length")
    _check_grid(phis)
    counts = np.asarray(rows)
    phis.flags.writeable = counts.flags.writeable = False
    vars(scan).update(fields, phis=phis, counts=counts)


def _check_grid(phis: np.ndarray) -> None:
    """Refuse a scan grid that is not strictly increasing or not finite.

    A NaN fails every comparison, so a grid that increases can be infinite
    only at its ends."""
    if not (phis[1:] > phis[:-1]).all():
        raise ValueError("scan grid must be strictly increasing")
    if len(phis) and not (math.isfinite(phis[0]) and math.isfinite(phis[-1])):
        raise ValueError("scan grid values must be finite")


def _grid(grid: Iterable[float]) -> np.ndarray:
    """A new float array of the values of ``grid``, a one-dimensional
    iterable of real numbers, or ``ValueError``: an array is copied whole,
    any other iterable read into one first.  A grid of complex dtype or with
    a complex element is refused, as float conversion would drop its
    imaginary parts."""
    if type(grid) is np.ndarray:
        values = grid
    elif isinstance(grid, Iterable):
        values = np.array(list(grid))
    else:
        raise ValueError(f"grid must be an iterable of numbers, got {type(grid).__name__}")
    if values.ndim != 1 or _is_complex(values):
        raise ValueError("grid must be one-dimensional and real, "
                         f"got {values.dtype} of shape {values.shape}")
    return np.array(values, dtype=float)


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
    ``beta`` raises ``ValueError``.  Both are refused before any run, also for
    an empty grid.  Every other free parameter must already be bound to a
    scalar (an array binding raises ``E_BATCH_SHAPE``).  ``grid`` is any
    iterable of real numbers; the scan holds it and the counts at it, in
    grid order, as arrays, and builds no per-point record.  A grid that is
    not one-dimensional, not strictly increasing, complex or holds a value
    that is not finite raises ``ValueError`` before anything is evaluated,
    and one holding a value x whose f*x overflows, for the sweep's frequency
    f, raises it too: so the counts are finite.

    The counts come from the series of :func:`harmonic_coefficients`,
    summed at every grid point, whatever the grid's length or range: the
    first scan of a circuit runs it once, over the product grid of its count
    tensor, and later scans of that circuit run nothing.  An empty grid makes
    no run, but its bound values pass the same checks.
    """
    batched = sorted(k for k, v in plan.bindings.items() if isinstance(v, np.ndarray))
    if batched:
        # the sweep's own batch would pair member j with the j-th sample
        raise PlanError(
            "E_BATCH_SHAPE",
            f"fringe_scan needs scalar bindings, got arrays for {', '.join(batched)}",
        )
    phis = _grid(grid)
    _check_grid(phis)
    if len(phis):
        values = _evaluate(*harmonic_coefficients(plan, sweep), phis)
    else:
        _checked(plan, sweep)  # the refusals and checks of a nonempty grid, without a run
        values = np.empty((2, 0))
    return FringeScan._of(phis, values, plan.detect_path, sweep)


def _checked(plan: CircuitPlan, sweep: str) -> tuple[int, int]:
    """(f, D) of :meth:`CircuitPlan.harmonic_degree` for ``sweep``, after
    :func:`harmonic_coefficients`' refusals and a run's checks of the other
    bound values, which raise in pipeline order."""
    if sweep not in plan.free_parameters:
        raise PlanError("E_UNKNOWN_PARAM", f"not free parameters of this plan: {sweep}")
    structure = plan._structure
    harmonics = structure.kinds[sweep]
    if harmonics is None or isinstance(harmonics[0], str):
        raise ValueError(
            f"cannot sweep {sweep!r}: only angles sweep, and {sweep!r} sets a "
            "preparation's alpha or beta, whose pair must stay normalized"
        )
    bindings = {**plan.bindings, sweep: 0.0}  # bound to its samples in every run
    if plan.free_parameters <= bindings.keys():
        # with every name bound, only a preparation's checks can fail
        for stmt in structure.preparations:
            _check_preparation(*_values(stmt, bindings))
    else:
        for stmt in plan.pipeline:
            _setting(stmt, bindings)
    return harmonics


def harmonic_coefficients(plan: CircuitPlan, sweep: str) -> tuple[int, np.ndarray]:
    """(f, s): the harmonic series of the detect-path counts in ``sweep``.

    Each count is ``a_0 + sum_m a_m cos(m f x) + b_m sin(m f x)`` over
    harmonics m = 1..D, with the frequency f and the degree D of
    :meth:`CircuitPlan.harmonic_degree`.  The counts at the ``2D + 1``
    equispaced values ``2*pi*j/((2D + 1)*f)`` fix the series exactly; ``s``
    holds its real table ``(a_0, a_1, b_1, ..., a_D, b_D)``, shape
    (2, 2D + 1) over the H and V channels.  When other parameters are bound
    to arrays of C cells, ``s`` has shape (2, C, 2D + 1), one table per
    cell.  A harmonic's amplitude is ``hypot(a_m, b_m)``.

    The series comes from the circuit's count tensor, built by one batched
    run of the unbound circuit over a product grid of nodes of every free
    parameter and kept for the last :data:`TENSOR_CACHE_SIZE` circuits,
    keyed by the plan's structure (sources, pipeline, detect path and band
    and splitter convention): a plan hashes it once and :meth:`~CircuitPlan.bind`
    hands it on, so a re-bound plan reaches its tensor with no rehash or
    pipeline walk.  It holds every axis in the same real form of the counts
    in its t: f*x for an angle x, and ``chi = atan2(beta, alpha)`` for a
    preparation whose ``alpha`` and ``beta`` are two ``$`` names used
    nowhere else.  A call weighs every axis but the sweep's at the bound
    values and returns the sweep's table, without running the circuit.  A
    pair is evaluated on the unit circle, at ``(alpha, beta) /
    sqrt(alpha^2 + beta^2)``: one off it by eps (at most 1e-10 passes the
    checks) may differ from a run by about eps times the coefficients.  A
    circuit without a tensor (a free name of neither kind, a grid above
    :data:`TENSOR_MAX_MEMBERS` members, or a run over the grid that raises
    or warns) runs once per call instead, with the sweep bound to its
    ``2D + 1`` values and each cell repeated across them, cell-major, and
    puts the counts there into the same real form.  A circuit with a tensor
    does not repeat the warning of a run whose splitter input cancels at
    the bound values alone.

    The checks of a run hold whichever way the counts come, also for an
    empty grid of :func:`fringe_scan`: a name that is not free raises
    ``E_UNKNOWN_PARAM``; one that sets a preparation's
    ``alpha`` or ``beta`` raises ``ValueError``, since the counts are no
    such series in it; a free name left unbound raises ``E_UNBOUND_PARAM``;
    and each preparation checks its bound amplitudes and phase, naming the
    failing cell.

    Either way, every coefficient, ``a_0`` included, whose magnitude is at
    most twice :data:`HARMONIC_FLOOR` times the largest count of the tensor
    or of the run is set to 0: it is interpolation or rounding residue, and
    a channel that vanishes would otherwise show it as a fringe of any
    visibility, or as a flat channel that is not empty.
    """
    frequency, degree = _checked(plan, sweep)
    tensor = _count_tensor(plan._structure)
    if tensor is None:
        axis = _angle_axis(sweep, frequency, degree)
        counts = _sample(plan, [axis])
        largest = counts.max(initial=0.0)
        cells = any(isinstance(v, np.ndarray) for k, v in plan.bindings.items() if k != sweep)
        series = _real_form(counts if cells else counts[:, 0], axis, -1)
    else:
        largest = tensor.largest
        series = tensor.sweep_series(plan.bindings, sweep)
    series[np.abs(series) <= 2.0 * HARMONIC_FLOOR * largest] = 0.0
    return frequency, series


class _Axis(Record, eq=False):
    """One axis of the count tensor: the names it binds (an angle, or a
    preparation's ``alpha`` and ``beta``) and their values at its nodes, one
    row per name.  The counts are a trigonometric polynomial of degree D in
    t, which is f*x for an angle x and chi = atan2(beta, alpha) for a pair,
    with ``2D + 1`` nodes ``angles`` in t.

    Every axis of :attr:`_CountTensor.series` holds that polynomial's real
    Fourier form (see :func:`_real_form`), so its weights at t are the rows
    of :func:`_basis`.
    """

    names: tuple[str, ...]
    nodes: np.ndarray
    frequency: int  # an angle's f; 1 for a pair
    angles: np.ndarray

    def __init__(self, names: tuple[str, ...], nodes: np.ndarray, frequency: int,
                 angles: np.ndarray) -> None:
        vars(self).update(names=names, nodes=nodes, frequency=frequency, angles=angles)

    def __len__(self) -> int:
        return len(self.angles)

    def _t(self, bindings, atan2):
        """t at the bound values: ``atan2`` is math's for scalars and
        numpy's for cells."""
        if len(self.names) == 1:
            return self.frequency * bindings[self.names[0]]
        alpha, beta = (bindings[name] for name in self.names)
        return atan2(beta, alpha)

    def scalar_weights(self, bindings) -> list[float]:
        """The weights at values bound to scalars, as floats: numpy's per-call
        overhead would cost more than the arithmetic."""
        t = self._t(bindings, math.atan2)
        weights = [1.0]
        for m in range(1, len(self) // 2 + 1):
            weights += (math.cos(m * t), math.sin(m * t))
        return weights

    def cell_weights(self, bindings) -> np.ndarray:
        """(C, n): the weights at bound values of which one or both are
        arrays of C cells."""
        return _basis(1, self._t(bindings, np.arctan2), len(self) // 2).T


def _axis(names: tuple[str, ...], nodes: np.ndarray, frequency: int,
          angles: np.ndarray) -> _Axis:
    nodes.flags.writeable = angles.flags.writeable = False
    return _Axis(names, nodes, frequency, angles)


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
    return _axis((alpha, beta), np.array([np.cos(chi), np.sin(chi)]), 1, chi)


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


class _CountTensor(Record, eq=False):
    """Detect-path counts at the product grid of ``axes``' nodes, shape
    (2, n_1, ..., n_K), and ``series``, the same with every angle axis in
    real Fourier form (see :class:`_Axis`); both read-only.

    ``sweeps`` caches what a sweep contracts, per swept name and set of
    names bound to arrays, built by the first such sweep: see
    :meth:`contraction`.
    """

    axes: tuple[_Axis, ...]
    counts: np.ndarray
    largest: float  # the largest count
    series: np.ndarray
    sweeps: dict

    def __init__(self, axes: tuple[_Axis, ...], counts: np.ndarray, largest: float,
                 series: np.ndarray, sweeps: dict | None = None) -> None:
        vars(self).update(axes=axes, counts=counts, largest=largest, series=series,
                          sweeps={} if sweeps is None else sweeps)

    def sweep_series(self, bindings, sweep: str) -> np.ndarray:
        """The real Fourier form ``(a_0, a_1, b_1, ..., a_D, b_D)`` of the
        counts in ``sweep``, every other axis contracted with its weights at
        the bound values: shape (2, n_sweep), or (2, C, n_sweep) when names
        are bound to arrays of C cells."""
        key = sweep, frozenset(k for k, v in bindings.items() if isinstance(v, np.ndarray))
        if key not in self.sweeps:
            self.sweeps[key] = self.contraction(*key)
        scalars, cells, layout = self.sweeps[key]
        values = _kron([axis.scalar_weights(bindings) for axis in scalars]) @ layout
        if not cells:
            return values
        # each cell's weights of every cell axis, multiplied out row by row
        weights = cells[0].cell_weights(bindings)
        for axis in cells[1:]:
            row = axis.cell_weights(bindings)
            weights = (weights[:, :, None] * row[:, None, :]).reshape(len(row), -1)
        return weights @ values.reshape(2, weights.shape[1], -1)

    def contraction(self, sweep: str, arrays: frozenset) -> tuple:
        """(scalar axes, cell axes, layout) of a sweep with the names
        ``arrays`` bound to arrays: ``layout`` is ``series`` with the axes
        whose names are all bound to scalars first, flattened to (2, K,
        rest), contiguous and read-only, so that the Kronecker product of
        their weights contracts them in one product.  The axes bound to
        arrays follow, in the tensor's order, so that each cell's product of
        their weights contracts them in one more, and the sweep's comes
        last."""
        at = next(k for k, axis in enumerate(self.axes) if axis.names == (sweep,))
        others = [k for k in range(len(self.axes)) if k != at]
        cells = [k for k in others if arrays.intersection(self.axes[k].names)]
        scalars = [k for k in others if k not in cells]
        order = (*scalars, *cells, at)
        layout = np.ascontiguousarray(self.series.transpose(0, *(k + 1 for k in order)))
        layout = layout.reshape(2, math.prod(len(self.axes[k]) for k in scalars), -1)
        layout.flags.writeable = False
        return [self.axes[k] for k in scalars], [self.axes[k] for k in cells], layout


def _kron(rows: list[list[float]]) -> np.ndarray:
    """The Kronecker product of ``rows``, flat: each half of the rows
    multiplied out in floats, from its first row, then the halves' outer
    product in one numpy call, which costs less than one call per row."""
    halves = []
    for part in (rows[:len(rows) // 2], rows[len(rows) // 2:]):
        product = part[0] if part else [1.0]
        for row in part[1:]:
            product = [a * b for a in product for b in row]
        halves.append(product)
    return np.multiply.outer(*halves).reshape(-1)


def _real_form(values: np.ndarray, axis: _Axis, at: int) -> np.ndarray:
    """``values`` with their dimension ``at``, the counts at ``axis``' nodes,
    replaced by the real form of the trigonometric polynomial through them:
    the counts times the inverse of :func:`_build_basis` at the node angles,
    which on equispaced angles is the ``rfft``'s real form to rounding.

    A pair's basis, on five nodes in [0, pi/2], has a condition number of
    about 420, so one step of refinement follows, which takes the series
    back to summing to the counts within a few eps."""
    basis = _build_basis(1, axis.angles, len(axis) // 2)
    inverse = np.linalg.inv(basis)
    counts = np.moveaxis(values, at, -1)
    series = counts @ inverse
    series += (counts - series @ basis) @ inverse
    return np.moveaxis(series, -1, at)


def _basis(frequency: int, grid, degree: int) -> np.ndarray:
    """(2D + 1, N), read-only: the rows (1, cos f x, sin f x, ..., cos D f x,
    sin D f x) at the N points x of the one-dimensional ``grid``, as powers
    of each point's phasor e^{i f x}.

    The last :data:`TENSOR_CACHE_SIZE` bases are kept, keyed by the grid's
    values, so that sweeps re-bound on one grid build its basis once."""
    return _kept_basis(frequency, np.asarray(grid, dtype=float).tobytes(), degree)


@functools.lru_cache(maxsize=TENSOR_CACHE_SIZE)
def _kept_basis(frequency: int, grid: bytes, degree: int) -> np.ndarray:
    rows = _build_basis(frequency, np.frombuffer(grid), degree)
    rows.flags.writeable = False
    return rows


def _build_basis(frequency: int, grid: np.ndarray, degree: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        angles = frequency * grid
    if not np.isfinite(angles).all():  # a finite x whose f*x overflows has no phasor
        raise ValueError(f"grid values times frequency {frequency} must be finite")
    phasor = np.exp(1j * angles)
    waves = phasor ** np.arange(1, degree + 1)[:, None]
    rows = np.ones((2 * degree + 1, len(phasor)))
    rows[1::2], rows[2::2] = waves.real, waves.imag
    return rows


def _evaluate(frequency: int, series: np.ndarray, grid) -> np.ndarray:
    """Counts at ``grid`` from :func:`harmonic_coefficients`' (f, s): shape
    (..., len(grid))."""
    values = series @ _basis(frequency, grid, series.shape[-1] // 2)
    # squared magnitudes: clip rounding below zero where a count vanishes
    return np.maximum(values, 0.0)


@functools.lru_cache(maxsize=TENSOR_CACHE_SIZE)
def _count_tensor(structure: _Structure) -> _CountTensor | None:
    """The count tensor of the circuit with this structure, or ``None``
    where it has none (see :func:`harmonic_coefficients`)."""
    axes = []
    for name, kind in structure.kinds.items():  # in order of first use
        if kind is None:
            return None
        if isinstance(kind[0], int):
            axes.append(_angle_axis(name, *kind))
        elif kind[0] == name:  # a pair, at its alpha
            axes.append(_pair_axis(*kind))
    if math.prod(len(axis) for axis in axes) > TENSOR_MAX_MEMBERS:
        return None
    sources, pipeline, detect_path, detect_band, bs_convention = structure
    plan = CircuitPlan(sources, pipeline, detect_path, detect_band, {}, bs_convention)
    vars(plan)["_structure"] = structure  # with its table: no second walk
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
        series = _real_form(series, axis, k + 1)
    counts.flags.writeable = series.flags.writeable = False
    return _CountTensor(tuple(axes), counts, float(counts.max(initial=0.0)), series)


def harmonic_series(coeffs: np.ndarray, frequency: int,
                    grid: Iterable[float]) -> np.ndarray:
    """Counts at ``grid`` from :func:`harmonic_coefficients`' (f, s).

    ``coeffs`` is a real table ``(a_0, a_1, b_1, ..., a_D, b_D)`` along its
    last axis, shape (..., 2D + 1); the result has shape (..., N) for a grid
    of N values.  A table that is not of real numbers (complex, strings,
    objects), or whose last axis has even length, raises ``ValueError``.
    ``grid`` is any one-dimensional iterable of real numbers, in any order;
    one that is not, or that holds a value that is not finite, raises
    ``ValueError`` before anything is evaluated, and so does one holding a
    value x whose ``frequency * x`` overflows.
    """
    series = np.asarray(coeffs)
    if series.dtype.kind not in "biuf" or series.ndim == 0 or series.shape[-1] % 2 == 0:
        raise ValueError("harmonic_series needs a real table (a_0, a_1, b_1, ..., a_D, b_D) "
                         f"of odd length, got {series.dtype} of shape {series.shape}")
    phis = _grid(grid)
    if not np.isfinite(phis).all():
        raise ValueError("grid values must be finite")
    return _evaluate(frequency, series, phis)


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
    return f"{scan.sweep},n_h,n_v\n" + _csv_rows("%.17g,%.17g,%.17g", scan.phis, scan.counts)


def _csv_rows(row: str, phis: np.ndarray, counts: np.ndarray) -> str:
    """One line per point, the ``%`` template ``row`` applied to its phi and
    its two counts, each line ended by LF: the body of both scan CSVs.

    One ``%`` over the interleaved columns: ``%.17g`` and ``%d`` write what
    ``{:.17g}`` and ``{}`` write."""
    values = [None] * (3 * len(phis))
    values[0::3] = phis.tolist()
    values[1::3], values[2::3] = counts.tolist()
    return f"{row}\n" * len(phis) % tuple(values)
