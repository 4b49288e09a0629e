"""Labels for single-photon modes: path, polarization, frequency band, source tag.

A mode is the quadruple (path, polarization, band, tag).  Amplitudes only ever
combine when every one of the four labels matches, so the tag acts as a
which-source mode label until an explicit merge removes it.
"""
from __future__ import annotations

import enum
import threading
from dataclasses import dataclass


class Polarization(enum.Enum):
    H = 0
    V = 1

    def __str__(self) -> str:
        return self.name


class Band(enum.Enum):
    SIGNAL = 0
    IDLER = 1

    def __str__(self) -> str:
        return self.name.lower()


class WavePlateKind(enum.Enum):
    HWP = "hwp"
    QWP = "qwp"


class SourceTag(enum.Enum):
    """Which-source label.  MERGED carries no which-source information."""

    MERGED = 0
    SOURCE_1 = 1
    SOURCE_2 = 2

    @classmethod
    def tagged(cls, source_id: int) -> "SourceTag":
        if source_id not in (1, 2):
            raise ValueError(f"source id must be 1 or 2, got {source_id}")
        return cls(source_id)

    def __str__(self) -> str:
        return "M" if self is SourceTag.MERGED else str(self.value)


# Paths are interned to small integers so states can be packed into int keys.
# The table only grows; indices are process-local and never serialized.
_intern_lock = threading.Lock()
_path_index: dict[str, int] = {}
_path_names: list[str] = []

# Bit layout of a packed mode (band is implied by the slot a mode occupies):
#   bit 0      polarization (0 = H, 1 = V)
#   bits 1-2   tag (0 = merged, 1, 2)
#   bits 3+    path index
POL_MASK = 0x1
TAG_SHIFT = 1
TAG_MASK = 0x3
PATH_SHIFT = 3
MODE_MASK = 0xFFFFFFFF
SIGNAL_SHIFT = 32
IDLER_SHIFT = 0


def intern_path(name: str) -> int:
    if not name:
        raise ValueError("path identifier must be a nonempty string")
    idx = _path_index.get(name)
    if idx is not None:
        return idx
    with _intern_lock:
        idx = _path_index.get(name)
        if idx is None:
            idx = len(_path_names)
            if idx >= (1 << 28):
                raise OverflowError("path intern table exhausted")
            _path_names.append(name)
            _path_index[name] = idx
        return idx


def path_name(idx: int) -> str:
    return _path_names[idx]


def pack_mode(path_idx: int, pol: int, tag: int) -> int:
    return (path_idx << PATH_SHIFT) | (tag << TAG_SHIFT) | pol


@dataclass(frozen=True)
class Mode:
    path: str
    pol: Polarization
    band: Band
    tag: SourceTag = SourceTag.MERGED

    def sort_key(self) -> tuple:
        return (self.path, self.band.value, self.pol.value, self.tag.value)

    def packed(self) -> int:
        return pack_mode(intern_path(self.path), self.pol.value, self.tag.value)

    @classmethod
    def from_packed(cls, packed: int, band: Band) -> "Mode":
        return cls(
            path=path_name(packed >> PATH_SHIFT),
            pol=Polarization(packed & POL_MASK),
            band=band,
            tag=SourceTag((packed >> TAG_SHIFT) & TAG_MASK),
        )


@dataclass(frozen=True)
class ModePair:
    """A signal mode paired with an idler mode; the key of a state entry."""

    signal: Mode
    idler: Mode

    def __post_init__(self) -> None:
        if self.signal.band is not Band.SIGNAL:
            raise ValueError(f"signal slot holds a {self.signal.band} mode")
        if self.idler.band is not Band.IDLER:
            raise ValueError(f"idler slot holds a {self.idler.band} mode")

    def sort_key(self) -> tuple:
        return self.signal.sort_key() + self.idler.sort_key()

    def packed(self) -> int:
        return (self.signal.packed() << SIGNAL_SHIFT) | self.idler.packed()

    @classmethod
    def from_packed(cls, key: int) -> "ModePair":
        return cls(
            signal=Mode.from_packed((key >> SIGNAL_SHIFT) & MODE_MASK, Band.SIGNAL),
            idler=Mode.from_packed(key & MODE_MASK, Band.IDLER),
        )
