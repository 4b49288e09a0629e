"""Labels for single-photon modes: path, polarization, frequency band, source tag.

A mode is the quadruple (path, polarization, band, tag).  Amplitudes only ever
combine when every one of the four labels matches, so the tag acts as a
which-source mode label until an explicit merge removes it.  These classes
hold the labels and nothing else: a state keys its amplitudes by the labels
themselves (see :mod:`qiup.state`), with no index kept anywhere else.
"""
from __future__ import annotations

import enum
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


@dataclass(frozen=True)
class Mode:
    path: str
    pol: Polarization
    band: Band
    tag: SourceTag = SourceTag.MERGED

    def sort_key(self) -> tuple:
        return (self.path, self.band.value, self.pol.value, self.tag.value)


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
