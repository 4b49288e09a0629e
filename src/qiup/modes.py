"""Labels for single-photon modes: path, polarization, frequency band, source tag.

A mode is the quadruple (path, polarization, band, tag).  Amplitudes only ever
combine when every one of the four labels matches, so the tag acts as a
which-source mode label until an explicit merge removes it.  These classes
hold the labels and nothing else: a state keys its amplitudes by the labels
themselves (see :mod:`qiup.state`), with no index kept anywhere else.

:class:`Record` is the frozen base of qiup's small value classes, here and
in the modules that build on this one.
"""
from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError


class Record:
    """An immutable object of the fields its class annotates, base classes'
    fields first, as a frozen dataclass's are.

    ``==`` compares two records of one class field by field, ``hash``
    hashes the same values, and ``repr`` shows them as
    ``Name(field=value, ...)``; a class leaves the fields it names in
    ``_hidden`` out of all three.  A class declared with ``eq=False``
    compares and hashes by identity.  Assigning or deleting an attribute
    raises :class:`dataclasses.FrozenInstanceError`, an ``AttributeError``:
    each class's ``__init__`` stores its fields with ``vars(self).update``.
    The fields live in the instance ``__dict__``, so ``pickle`` and ``copy``
    restore them as they are, without calling ``__init__``.

    The methods are written once, here, and read each class's field names
    from ``_fields``, which a subclass gets when it is defined: no class
    compiles code of its own at import.
    """

    # the compared and shown fields of each class; set by __init_subclass__
    _fields = ()
    _hidden = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = dict.fromkeys(name for base in reversed(cls.__mro__)
                              for name in vars(base).get("__annotations__", ()))
        cls._fields = tuple(name for name in names if name not in cls._hidden)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


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


class Mode(Record):
    path: str
    pol: Polarization
    band: Band
    tag: SourceTag

    def __init__(self, path: str, pol: Polarization, band: Band,
                 tag: SourceTag = SourceTag.MERGED) -> None:
        vars(self).update(path=path, pol=pol, band=band, tag=tag)

    def sort_key(self) -> tuple:
        return (self.path, self.band.value, self.pol.value, self.tag.value)


class ModePair(Record):
    """A signal mode paired with an idler mode; the key of a state entry."""

    signal: Mode
    idler: Mode

    def __init__(self, signal: Mode, idler: Mode) -> None:
        if signal.band is not Band.SIGNAL:
            raise ValueError(f"signal slot holds a {signal.band} mode")
        if idler.band is not Band.IDLER:
            raise ValueError(f"idler slot holds a {idler.band} mode")
        vars(self).update(signal=signal, idler=idler)

    def sort_key(self) -> tuple:
        return self.signal.sort_key() + self.idler.sort_key()
