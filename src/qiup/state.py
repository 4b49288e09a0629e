"""Sparse two-photon state: a map from (signal mode, idler mode) pairs to
complex amplitudes.

States are immutable from the caller's perspective; every operation returns a
new state.  Amplitudes follow the unnormalized source convention: each source
term starts with unit magnitude, so a two-source state has ``norm_sq() == 2``.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import backend
from .errors import UnitarityError
from .modes import (
    IDLER_SHIFT,
    SIGNAL_SHIFT,
    Band,
    ModePair,
    Polarization,
    SourceTag,
    intern_path,
    pack_mode,
)

DEFAULT_PRUNE_EPSILON = 1e-14
UNITARITY_TOL = 1e-10
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SourceSpec:
    """One photon-pair source: emission paths, polarization and phase."""

    source_id: int
    signal_path: str
    idler_path: str
    emitted_pol: Polarization = Polarization.V
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.source_id not in (1, 2):
            raise ValueError(f"source id must be 1 or 2, got {self.source_id}")
        object.__setattr__(self, "phase", self.phase % TWO_PI)


def _shifts(band: Band | None) -> tuple[int, ...]:
    if band is Band.SIGNAL:
        return (SIGNAL_SHIFT,)
    if band is Band.IDLER:
        return (IDLER_SHIFT,)
    return (SIGNAL_SHIFT, IDLER_SHIFT)


class BiphotonState:
    """Amplitude map over :class:`~qiup.modes.ModePair` keys."""

    __slots__ = ("_entries", "prune_epsilon")

    def __init__(
        self,
        amplitudes: Mapping[ModePair, complex] | None = None,
        prune_epsilon: float = DEFAULT_PRUNE_EPSILON,
    ) -> None:
        if prune_epsilon < 0:
            raise ValueError("prune_epsilon must be nonnegative")
        packed: dict[int, complex] = {}
        for pair, amp in (amplitudes or {}).items():
            amp = complex(amp)
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValueError(f"non-finite amplitude for {pair}")
            key = pair.packed()
            packed[key] = packed.get(key, 0j) + amp
        self._entries = backend.kernels.prune(packed, prune_epsilon)
        self.prune_epsilon = prune_epsilon

    @classmethod
    def _wrap(cls, packed: dict[int, complex], eps: float) -> "BiphotonState":
        state = cls.__new__(cls)
        state._entries = packed
        state.prune_epsilon = eps
        return state

    # -- inspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiphotonState):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"BiphotonState({len(self)} entries, norm_sq={self.norm_sq():.6g})"

    def items(self) -> list[tuple[ModePair, complex]]:
        """Entries in canonical mode-pair order."""
        decoded = [(ModePair.from_packed(k), a) for k, a in self._entries.items()]
        decoded.sort(key=lambda item: item[0].sort_key())
        return decoded

    def amplitude(self, pair: ModePair) -> complex:
        return self._entries.get(pair.packed(), 0j)

    def norm_sq(self) -> float:
        return backend.kernels.norm_sq(self._entries)

    def tags_present(self) -> frozenset[SourceTag]:
        tags = set()
        for pair, _ in self.items():
            tags.add(pair.signal.tag)
            tags.add(pair.idler.tag)
        return frozenset(tags)

    def paths_present(self) -> frozenset[str]:
        paths = set()
        for pair, _ in self.items():
            paths.add(pair.signal.path)
            paths.add(pair.idler.path)
        return frozenset(paths)

    def path_occupied(self, path: str, band: Band | None = None) -> bool:
        mask = backend.kernels.path_slots(self._entries, intern_path(path))
        if band is Band.SIGNAL:
            return bool(mask & 1)
        if band is Band.IDLER:
            return bool(mask & 2)
        return mask != 0

    # -- transforms -------------------------------------------------------

    def _map_slots(self, band: Band | None, fn, *args) -> "BiphotonState":
        entries = self._entries
        for shift in _shifts(band):
            entries = fn(entries, shift, *args, self.prune_epsilon)
        return BiphotonState._wrap(entries, self.prune_epsilon)

    def apply_pol_unitary(
        self, path: str, u, band: Band | None = None
    ) -> "BiphotonState":
        """Transform the H/V amplitude pairs of every matching mode by ``u``.

        ``u`` must be 2x2 and unitary within ``UNITARITY_TOL``; tags and all
        non-matching modes are untouched.
        """
        u = np.asarray(u, dtype=complex)
        if u.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
        u00, u01 = complex(u[0, 0]), complex(u[0, 1])
        u10, u11 = complex(u[1, 0]), complex(u[1, 1])
        # |U^H U - I| computed by hand; this sits on the hot path.  Each entry
        # is compared on its own, so that a NaN fails: max() could drop it.
        cross = u00.conjugate() * u01 + u10.conjugate() * u11
        col0 = abs(abs(u00) ** 2 + abs(u10) ** 2 - 1.0)
        col1 = abs(abs(u01) ** 2 + abs(u11) ** 2 - 1.0)
        off = abs(cross)
        if not (col0 <= UNITARITY_TOL and col1 <= UNITARITY_TOL and off <= UNITARITY_TOL):
            raise UnitarityError(
                "matrix is not unitary: |U^H U - I| entries "
                f"{col0:.3e}, {col1:.3e}, {off:.3e}"
            )
        return self._map_slots(
            band,
            backend.kernels.slot_unitary,
            intern_path(path),
            u00,
            u01,
            u10,
            u11,
        )

    def relabel_path(
        self,
        from_path: str,
        to_path: str,
        band: Band | None = None,
        pol: Polarization | None = None,
    ) -> "BiphotonState":
        """Re-key matching modes onto ``to_path``; colliding amplitudes sum."""
        return self._map_slots(
            band,
            backend.kernels.slot_relabel,
            intern_path(from_path),
            intern_path(to_path),
            -1 if pol is None else pol.value,
        )

    def prune(self) -> "BiphotonState":
        return BiphotonState._wrap(
            backend.kernels.prune(self._entries, self.prune_epsilon),
            self.prune_epsilon,
        )

    # -- queries used by observables --------------------------------------

    def restrict_to(self, path: str, band: Band) -> "BiphotonState":
        """Keep only entries whose ``band`` photon sits at ``path``."""
        shift = SIGNAL_SHIFT if band is Band.SIGNAL else IDLER_SHIFT
        return BiphotonState._wrap(
            backend.kernels.slot_select(self._entries, shift, intern_path(path)),
            self.prune_epsilon,
        )

    def counts_at(self, path: str, band: Band) -> tuple[float, float]:
        """(H, V) squared-magnitude sums for the ``band`` photon at ``path``."""
        shift = SIGNAL_SHIFT if band is Band.SIGNAL else IDLER_SHIFT
        return backend.kernels.slot_counts(self._entries, shift, intern_path(path))

    # -- serialization -----------------------------------------------------

    def serialize(self) -> str:
        """Canonical text form, one entry per line.

        ``<sig_path>,<sig_pol>,<sig_tag>|<idl_path>,<idl_pol>,<idl_tag>|<re>,<im>``
        in canonical mode-pair order; floats use 17 significant digits; tags
        render as ``M``, ``1`` or ``2``.
        """
        lines = []
        for pair, amp in self.items():
            s, i = pair.signal, pair.idler
            lines.append(
                f"{s.path},{s.pol},{s.tag}|{i.path},{i.pol},{i.tag}"
                f"|{amp.real:.17g},{amp.imag:.17g}"
            )
        return "\n".join(lines)


def initial_state(
    sources: Iterable[SourceSpec],
    prune_epsilon: float = DEFAULT_PRUNE_EPSILON,
) -> BiphotonState:
    """Sum of one unit-magnitude pair term per source, tagged by source id."""
    sources = list(sources)
    if not sources:
        raise ValueError("at least one source is required")
    seen: set[int] = set()
    packed: dict[int, complex] = {}
    for spec in sources:
        if spec.source_id in seen:
            raise ValueError(f"duplicate source id {spec.source_id}")
        seen.add(spec.source_id)
        sig = pack_mode(intern_path(spec.signal_path), spec.emitted_pol.value,
                        spec.source_id)
        idl = pack_mode(intern_path(spec.idler_path), spec.emitted_pol.value,
                        spec.source_id)
        packed[(sig << SIGNAL_SHIFT) | idl] = cmath.exp(1j * spec.phase)
    return BiphotonState._wrap(packed, prune_epsilon)
