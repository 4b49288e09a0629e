"""Optical elements as pure state transformations.

Wave plates, one- and two-input beamsplitters, dichroic mirrors, phase
shifters, beam preparation and the indistinguishability merge.  Every element
returns a new state and preserves ``norm_sq`` (the merge included, as long as
its relabelings are injective on the occupied support).  Each is built from
the single-photon transforms of :class:`~qiup.state.BiphotonState`, which act
on every product term, so no element adds a term.

An angle or amplitude may be a length-B array, one value per member of a
batched state; the element then applies B settings at once, and its checks
must hold for every member.
"""
from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

from .errors import PreparationConflictError, QiupWarning
from .modes import Band, Polarization, Record, WavePlateKind
from .state import BiphotonState, _at_failure, _holds

SQRT_HALF = 1.0 / math.sqrt(2.0)

#: Beamsplitter conventions: mode on in_a maps to col-0, in_b to col-1 of a
#: 2x2 matrix over (out_a, out_b).
BS_CONVENTIONS = {
    "symmetric": np.array([[1.0, 1.0j], [1.0j, 1.0]]) * SQRT_HALF,
    "hadamard": np.array([[1.0, 1.0], [1.0, -1.0]]) * SQRT_HALF,
}
_NORM_TOL = 1e-10


def bs_matrix(convention: str) -> np.ndarray:
    """The splitter matrix named ``convention``; ``ValueError`` for an unknown name."""
    if convention not in BS_CONVENTIONS:
        raise ValueError(
            f"unknown beamsplitter convention {convention!r}; "
            f"use {' or '.join(map(repr, BS_CONVENTIONS))}"
        )
    return BS_CONVENTIONS[convention]


class WavePlateSetting(Record):
    kind: WavePlateKind
    fast_axis_angle: float

    def __init__(self, kind: WavePlateKind, fast_axis_angle: float) -> None:
        vars(self).update(kind=kind, fast_axis_angle=fast_axis_angle % math.pi)

    def matrix(self) -> np.ndarray:
        if self.kind is WavePlateKind.HWP:
            return hwp_matrix(self.fast_axis_angle)
        return qwp_matrix(self.fast_axis_angle)


class PreparationSpec(Record):
    """Map a vertically polarized beam to alpha|H> + beta e^{i rel_phase}|V>."""

    alpha: float
    beta: float
    rel_phase: float

    def __init__(self, alpha: float, beta: float, rel_phase: float = 0.0) -> None:
        _check_preparation(alpha, beta, rel_phase)
        vars(self).update(alpha=alpha, beta=beta, rel_phase=rel_phase)


def _check_preparation(alpha, beta, rel_phase) -> None:
    """:class:`PreparationSpec`'s checks, in order, for callers that need the
    checks without the spec."""
    # written so that NaN fails each check, member by member for a batch
    ok = (alpha >= 0) & (beta >= 0)
    if not _holds(ok):
        raise ValueError("preparation amplitudes must be nonnegative" + _at_failure(ok)[-1])
    norm = alpha**2 + beta**2
    ok = abs(norm - 1.0) <= _NORM_TOL
    if not _holds(ok):
        norm, note = _at_failure(ok, norm)
        raise ValueError(f"alpha^2 + beta^2 must be 1, got {norm!r}{note}")
    ok = abs(rel_phase) < math.inf  # false for NaN and ±inf
    if not _holds(ok):
        rel_phase, note = _at_failure(ok, rel_phase)
        raise ValueError(f"relative phase must be finite, got {rel_phase!r}{note}")


class MergeRule(Record):
    """Drop the source tag of modes matching (path, pol, band)."""

    path: str
    pol: Polarization
    band: Band

    def __init__(self, path: str, pol: Polarization, band: Band) -> None:
        vars(self).update(path=path, pol=pol, band=band)


def _cos_sin(x) -> tuple:
    if isinstance(x, np.ndarray):
        return np.cos(x), np.sin(x)
    return math.cos(x), math.sin(x)


def _expi(x):
    """``e^{ix}``, member by member for a batch."""
    return np.exp(1j * x) if isinstance(x, np.ndarray) else cmath.exp(1j * x)


def _matrix(m00, m01, m10, m11) -> np.ndarray:
    """A 2x2 complex matrix, or 2x2xB when an entry is a batch of B."""
    entries = (m00, m01, m10, m11)
    if any(isinstance(m, np.ndarray) for m in entries):
        return np.array(np.broadcast_arrays(*entries), dtype=complex).reshape(2, 2, -1)
    return np.array([[m00, m01], [m10, m11]], dtype=complex)


def hwp_matrix(h: float | np.ndarray) -> np.ndarray:
    """Half-wave plate with fast axis at angle ``h``: det -1, unitary.

    An array of B angles gives a 2x2xB stack, one matrix per member.
    """
    c, s = _cos_sin(2.0 * h)
    return _matrix(c, -s, -s, -c)


def qwp_matrix(q: float | np.ndarray) -> np.ndarray:
    """Quarter-wave plate with fast axis at angle ``q`` (unitary form)."""
    c, s = _cos_sin(2.0 * q)
    return _matrix(1j - c, s, s, 1j + c) * SQRT_HALF


def apply_waveplate(
    state: BiphotonState,
    path: str,
    setting: WavePlateSetting,
    band: Band | None = None,
) -> BiphotonState:
    return state.apply_pol_unitary(path, setting.matrix(), band)


def prepare_beam(
    state: BiphotonState, path: str, band: Band, spec: PreparationSpec
) -> BiphotonState:
    """Turn each |V> amplitude at (path, band) into the prepared superposition.

    The targeted beam must be purely vertical (the emission convention); an
    existing H occupation raises :class:`PreparationConflictError`.
    """
    if state.path_occupied(path, band, Polarization.H):
        raise PreparationConflictError(
            f"path {path!r} ({band}) already carries a horizontal component"
        )
    bv = spec.beta * _expi(spec.rel_phase)
    # Unitary completion of the V column (alpha, beta e^{i rel_phase}); the H
    # column never acts because the precondition rules out H occupation.
    u = _matrix(bv.conjugate(), spec.alpha, -spec.alpha, bv)
    return state.apply_pol_unitary(path, u, band)


def apply_bs_single(
    state: BiphotonState,
    in_path: str,
    out_t: str,
    out_r: str,
    convention: str = "symmetric",
) -> BiphotonState:
    """Split every mode on ``in_path`` onto (out_t, out_r), both bands."""
    matrix = bs_matrix(convention)
    if out_t == out_r:
        raise ValueError("beamsplitter outputs must be distinct")
    if not state.path_occupied(in_path):
        warnings.warn(
            f"beamsplitter input path {in_path!r} is unoccupied; no-op",
            QiupWarning,
            stacklevel=2,
        )
        return state
    return state.route_two_port(in_path, None, out_t, out_r, matrix)


def apply_bs_dual(
    state: BiphotonState,
    in_a: str,
    in_b: str,
    out_a: str,
    out_b: str,
    convention: str = "symmetric",
) -> BiphotonState:
    """Two-input beamsplitter over (in_a, in_b) -> (out_a, out_b), both bands."""
    matrix = bs_matrix(convention)
    if in_a == in_b:
        raise ValueError("beamsplitter inputs must be distinct")
    if out_a == out_b:
        raise ValueError("beamsplitter outputs must be distinct")
    return state.route_two_port(in_a, in_b, out_a, out_b, matrix)


def apply_dichroic(
    state: BiphotonState, in_path: str, signal_out: str, idler_out: str
) -> BiphotonState:
    """Route by band: signal modes to ``signal_out``, idler modes to ``idler_out``."""
    if signal_out == idler_out:
        raise ValueError("dichroic outputs must be distinct paths")
    out = state.relabel_path(in_path, signal_out, band=Band.SIGNAL)
    return out.relabel_path(in_path, idler_out, band=Band.IDLER)


def apply_phase(
    state: BiphotonState, path: str, phi: float, band: Band | None = None
) -> BiphotonState:
    """Multiply each matching photon's amplitude by e^{i phi}.

    An entry whose two photons both match picks up the factor twice.
    """
    return state.apply_phase_factor(path, _expi(phi), band)


def apply_merge(state: BiphotonState, rules: list[MergeRule]) -> BiphotonState:
    """Drop source tags on every mode matching a rule; collisions sum."""
    for rule in rules:
        state = state.merge_tags(rule.path, rule.pol, rule.band)
    return state
