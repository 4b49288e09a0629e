"""Two-photon state as a sum of signal ⊗ idler product terms.

A state is ``Σ_k u_k ⊗ w_k``: each term pairs a signal amplitude map ``u_k``
with an idler amplitude map ``w_k``, both sparse dicts keyed by single-photon
modes.  A mode key is the label tuple ``(path, pol, tag)``, ``pol`` and ``tag``
the :class:`~qiup.modes.Polarization` and :class:`~qiup.modes.SourceTag`
values; the band is the map's slot.  A key refers to nothing outside the
state, so a state pickled in one process reads back the same in another.
Every element acts on one photon at a time, as a linear map on its modes, so
no element adds a term: a pipeline holds one term per source.  One kernel,
``_linear``, applies every such map from a table that sends each mode it moves
to its ``(mode, coefficient)`` targets; each public transform only builds the
table, over the at most 12 modes (2 polarizations x 3 tags) of its input
paths, and a table whose coefficients are constants (a relabeling or a
merge) is built once per process.  Norms and counts are one contraction,
``_contract``, of the Gram matrix of one photon's term vectors with that of
the other's (``_gram``): ``norm_sq`` contracts the full vectors,
``counts_at`` the ``band`` photon's vectors projected onto one polarization
at the path.  For signal counts the idler Gram ``⟨w_k|w_l⟩`` is the
induced-coherence factor that sets the fringes, and no map on the signal
photon can change it.

Queries that name pair entries (``items``, ``amplitude``, ``len``, ``==``,
``serialize``, ``path_occupied`` and friends) read the pair map
``Σ_k u_k(s) w_k(i)``, keyed by ``(s, i)`` and built on demand; entries at or
below ``PRUNE_EPSILON`` in magnitude are dropped there and only there.  The
transforms keep every mode they write: a cancelled amplitude adds at most
rounding noise to the Gram contractions, and a map holds at most (paths x 2
polarizations x 3 tags) modes.

A state may also carry a batch: a single-photon amplitude is then a complex
scalar or a length-B complex array, one member per batch element (see
:meth:`qiup.plan.CircuitPlan.bind`).  The kernel only multiplies and adds,
so batched amplitudes and table coefficients broadcast as written; pruning
keeps a pair entry while any member is above ``PRUNE_EPSILON``, so the
support is the union over the batch, and ``norm_sq`` and ``counts_at``
return one value per member.

States are immutable from the caller's perspective; every operation returns a
new state.  Amplitudes follow the unnormalized source convention: each source
term starts with unit magnitude, so a two-source state has ``norm_sq() == 2``.
"""
from __future__ import annotations

import cmath
import functools
import math
from typing import Iterable, Mapping

import numpy as np

from .errors import UnitarityError
from .modes import Band, Mode, ModePair, Polarization, Record, SourceTag

PRUNE_EPSILON = 1e-14
UNITARITY_TOL = 1e-10
TWO_PI = 2.0 * math.pi

_PRUNE_EPSILON_SQ = PRUNE_EPSILON * PRUNE_EPSILON


class SourceSpec(Record):
    """One photon-pair source: emission paths, polarization and phase."""

    source_id: int
    signal_path: str
    idler_path: str
    emitted_pol: Polarization
    phase: float

    def __init__(self, source_id: int, signal_path: str, idler_path: str,
                 emitted_pol: Polarization = Polarization.V, phase: float = 0.0) -> None:
        if source_id not in (1, 2):
            raise ValueError(f"source id must be 1 or 2, got {source_id}")
        vars(self).update(source_id=source_id, signal_path=signal_path, idler_path=idler_path,
                          emitted_pol=emitted_pol, phase=phase % TWO_PI)


# -- single-photon transforms --------------------------------------------------
#
# ``_linear`` maps an amplitude map ``dict[tuple, complex]`` over
# ``(path, pol, tag)`` modes to a new one, unpruned; inputs are never mutated.


def _path(name: str) -> str:
    """``name``, or ``ValueError`` if it is no path identifier."""
    if not name:
        raise ValueError("path identifier must be a nonempty string")
    return name


def _key(mode: Mode) -> tuple[str, int, int]:
    """The ``(path, pol, tag)`` key of ``mode``."""
    return (_path(mode.path), mode.pol.value, mode.tag.value)


def _pair(key: tuple) -> ModePair:
    """The mode pair of a pair-map key."""
    (sp, spol, stag), (ip, ipol, itag) = key
    return ModePair(Mode(sp, Polarization(spol), Band.SIGNAL, SourceTag(stag)),
                    Mode(ip, Polarization(ipol), Band.IDLER, SourceTag(itag)))


def _pruned(amps: dict) -> dict:
    """Drop amplitudes at or below ``PRUNE_EPSILON``; a batched one only when
    every member is."""
    eps2 = _PRUNE_EPSILON_SQ
    out = {}
    for k, a in amps.items():
        m = a.real * a.real + a.imag * a.imag
        if m > eps2 if m.__class__ is float else (m > eps2).any():
            out[k] = a
    return out


def _equal(a, b) -> bool:
    """Whether two amplitudes agree in every member; a scalar stands for
    every member, and batches of different sizes differ."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.shape != b.shape:
        return False
    return bool(np.all(a == b))


def _clipped(x):
    """``x`` clipped at 0, member by member for a batch."""
    return np.maximum(x, 0.0) if isinstance(x, np.ndarray) else max(x, 0.0)


def _holds(ok) -> bool:
    """Whether a check holds: a bool, or every member of a batched check."""
    return bool(ok.all()) if isinstance(ok, np.ndarray) else ok


def _at_failure(ok, *values) -> tuple:
    """``values`` at the first member that fails ``ok``, then a note naming it.

    A scalar check hands the values back as they are, with an empty note.
    """
    if not isinstance(ok, np.ndarray):
        return (*values, "")
    i = int(np.argmin(ok))
    picked = (v[i].item() if isinstance(v, np.ndarray) else v for v in values)
    return (*picked, f" (batch member {i})")


def _linear(amps: dict, table: dict) -> dict:
    """Send each mode in ``table`` to its ``(mode, coefficient)`` targets and
    every other mode through; amplitudes that land on one mode sum."""
    out: dict = {}
    get = out.get
    for mode, amp in amps.items():
        targets = table.get(mode)
        if targets is None:
            prev = get(mode)
            out[mode] = amp if prev is None else prev + amp
            continue
        for target, coeff in targets:
            # add only on a collision: a batched 0j + x is one more array op
            x = coeff * amp
            prev = get(target)
            out[target] = x if prev is None else prev + x
    return out


@functools.cache
def _modes(path: str, pols: tuple[int, ...] = (0, 1)) -> tuple[tuple[str, int, int], ...]:
    """The modes at ``path`` with polarization in ``pols``, tag-major (merged
    first), so that two paths' tuples pair up mode by mode."""
    _path(path)
    return tuple((path, pol, tag.value) for tag in SourceTag for pol in pols)


@functools.cache
def _relabel_table(from_path: str, to_path: str, pols: tuple[int, ...]) -> dict:
    """The :func:`_linear` table that re-keys ``from_path``'s modes with
    polarization in ``pols`` onto ``to_path``.  Cached, like every table
    with constant coefficients: :func:`_linear` only reads it."""
    return {k: ((t, 1),) for k, t in zip(_modes(from_path, pols), _modes(to_path, pols))}


@functools.cache
def _merge_table(path: str, pol: int) -> dict:
    """The :func:`_linear` table that drops the source tag of ``path``'s
    modes with polarization ``pol``."""
    merged, *tagged = _modes(path, (pol,))
    return {k: ((merged, 1),) for k in tagged}


@functools.cache
def _port_modes(in_path: str, out_a: str, out_b: str) -> tuple[tuple[tuple, tuple, tuple], ...]:
    """(mode at ``in_path``, its twin at ``out_a``, at ``out_b``) for every
    mode at ``in_path``."""
    return tuple(zip(_modes(in_path), _modes(out_a), _modes(out_b)))


def _select(amps: dict, path: str) -> dict:
    return {m: a for m, a in amps.items() if m[0] == path}


def _inner(x: dict, y: dict) -> complex:
    """⟨x|y⟩."""
    if len(x) > len(y):
        return _inner(y, x).conjugate()
    total = 0j
    get = y.get
    for mode, a in x.items():
        b = get(mode)
        if b is not None:
            total += a.conjugate() * b
    return total


def _gram(vectors: list) -> list:
    """The Gram matrix ``⟨v_k|v_l⟩`` of ``vectors`` as its upper triangle,
    row by row: l = k, k+1, ... for each k; the rest is its conjugate."""
    return [_inner(v, w) for k, v in enumerate(vectors) for w in vectors[k:]]


def _contract(xs: list, gram: list):
    """``‖Σ_k x_k ⊗ y_k‖² = Σ_{k,l} ⟨x_k|x_l⟩⟨y_k|y_l⟩``, given ``gram``, the
    :func:`_gram` of the ``y_k``; clipped at 0, an array for a batch.

    Both Gram matrices are Hermitian, so each pair k < l counts twice its
    real part.
    """
    total = 0.0
    g = iter(gram)
    for k, x in enumerate(xs):
        total += (_inner(x, x) * next(g)).real
        for x_l in xs[k + 1:]:
            total += 2.0 * (_inner(x, x_l) * next(g)).real
    # rounding can push a vanishing sum just below zero
    return _clipped(total)


class BiphotonState:
    """Sum of signal ⊗ idler product terms over single-photon modes."""

    __slots__ = ("_terms", "_pair_map")

    def __init__(self, amplitudes: Mapping[ModePair, complex] | None = None) -> None:
        pairs: dict[tuple, complex] = {}
        for pair, amp in (amplitudes or {}).items():
            amp = complex(amp)
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValueError(f"non-finite amplitude for {pair}")
            key = (_key(pair.signal), _key(pair.idler))
            pairs[key] = pairs.get(key, 0j) + amp
        self._set_pairs(_pruned(pairs))

    def _set_pairs(self, pairs: dict[tuple, complex]) -> None:
        """One product term per (already pruned) pair entry."""
        self._terms = tuple(({s: amp}, {i: 1 + 0j}) for (s, i), amp in pairs.items())
        self._pair_map = pairs

    @classmethod
    def _wrap(cls, terms: tuple) -> "BiphotonState":
        state = cls.__new__(cls)
        state._terms = terms
        state._pair_map = None
        return state

    def _pairs(self) -> dict[tuple, complex]:
        """Pair map ``Σ_k u_k(s) w_k(i)`` keyed by ``(s, i)``, pruned; built
        once per state."""
        if self._pair_map is None:
            out: dict[tuple, complex] = {}
            get = out.get
            for u, w in self._terms:
                for s, a in u.items():
                    for i, b in w.items():
                        key = (s, i)
                        out[key] = get(key, 0j) + a * b
            self._pair_map = _pruned(out)
        return self._pair_map

    # -- inspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pairs())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiphotonState):
            return NotImplemented
        mine, theirs = self._pairs(), other._pairs()
        return mine.keys() == theirs.keys() and all(
            _equal(a, theirs[key]) for key, a in mine.items()
        )

    def __repr__(self) -> str:
        norm = self.norm_sq()
        if isinstance(norm, np.ndarray):
            return f"BiphotonState({len(self)} entries, batch of {norm.size})"
        return f"BiphotonState({len(self)} entries, norm_sq={norm:.6g})"

    def items(self) -> list[tuple[ModePair, complex]]:
        """Entries in canonical mode-pair order: sorted keys, since a key holds
        :meth:`ModePair.sort_key`'s labels in its order."""
        pairs = self._pairs()
        return [(_pair(k), pairs[k]) for k in sorted(pairs)]

    def amplitude(self, pair: ModePair) -> complex:
        return self._pairs().get((_key(pair.signal), _key(pair.idler)), 0j)

    def norm_sq(self):
        """``Σ_{k,l} ⟨u_k|u_l⟩⟨w_k|w_l⟩``, clipped at 0; an array for a batch."""
        return _contract([u for u, _ in self._terms], _gram([w for _, w in self._terms]))

    def tags_present(self) -> frozenset[SourceTag]:
        return frozenset(SourceTag(m[2]) for key in self._pairs() for m in key)

    def paths_present(self) -> frozenset[str]:
        return frozenset(m[0] for key in self._pairs() for m in key)

    def path_occupied(
        self, path: str, band: Band | None = None, pol: Polarization | None = None
    ) -> bool:
        """Whether a pair entry has its ``band`` photon (either, if None) at
        ``path``, with polarization ``pol`` if given."""
        _path(path)
        slots = [slot for slot, b in enumerate((Band.SIGNAL, Band.IDLER)) if band in (None, b)]
        for key in self._pairs():
            for slot in slots:
                mode = key[slot]
                if mode[0] == path and (pol is None or mode[1] == pol.value):
                    return True
        return False

    # -- transforms -------------------------------------------------------

    def _map(self, band: Band | None, table: dict) -> "BiphotonState":
        """Apply a :func:`_linear` table to the ``band`` photon of every term."""
        on_signal = band is not Band.IDLER
        on_idler = band is not Band.SIGNAL
        return BiphotonState._wrap(tuple(
            (_linear(u, table) if on_signal else u, _linear(w, table) if on_idler else w)
            for u, w in self._terms
        ))

    def apply_pol_unitary(
        self, path: str, u, band: Band | None = None
    ) -> "BiphotonState":
        """Transform the H/V amplitude pairs of every matching mode by ``u``.

        ``u`` must be 2x2, or 2x2xB for a batch of B matrices, and unitary
        within ``UNITARITY_TOL`` (every member); tags and all non-matching
        modes are untouched.
        """
        u = np.asarray(u, dtype=complex)
        if u.ndim == 2 and u.shape == (2, 2):
            u00, u01 = complex(u[0, 0]), complex(u[0, 1])
            u10, u11 = complex(u[1, 0]), complex(u[1, 1])
        elif u.ndim == 3 and u.shape[:2] == (2, 2):
            u00, u01, u10, u11 = u[0, 0], u[0, 1], u[1, 0], u[1, 1]
        else:
            raise ValueError(f"expected a 2x2 matrix or a 2x2xB batch, got shape {u.shape}")
        # |U^H U - I| computed by hand; this sits on the hot path.  Each entry
        # is compared on its own, so that a NaN fails: max() could drop it.
        cross = u00.conjugate() * u01 + u10.conjugate() * u11
        col0 = abs(abs(u00) ** 2 + abs(u10) ** 2 - 1.0)
        col1 = abs(abs(u01) ** 2 + abs(u11) ** 2 - 1.0)
        off = abs(cross)
        ok = (col0 <= UNITARITY_TOL) & (col1 <= UNITARITY_TOL) & (off <= UNITARITY_TOL)
        if not _holds(ok):
            col0, col1, off, note = _at_failure(ok, col0, col1, off)
            raise UnitarityError(
                "matrix is not unitary: |U^H U - I| entries "
                f"{col0:.3e}, {col1:.3e}, {off:.3e}{note}"
            )
        modes = _modes(path)
        table = {}
        for h, v in zip(modes[0::2], modes[1::2]):
            table[h] = ((h, u00), (v, u10))
            table[v] = ((h, u01), (v, u11))
        return self._map(band, table)

    def route_two_port(
        self, in_a: str, in_b: str | None, out_a: str, out_b: str, m
    ) -> "BiphotonState":
        """Route both photons through a two-port: ``m`` is 2x2 over (out_a, out_b).

        A mode on ``in_a`` goes to ``m[0,0]·out_a + m[1,0]·out_b``, one on
        ``in_b`` to ``m[0,1]·out_a + m[1,1]·out_b``; ``in_b`` may be None.
        """
        table = {}
        if in_b is not None:
            m_ab, m_bb = complex(m[0, 1]), complex(m[1, 1])
            table.update({k: ((a, m_ab), (b, m_bb)) for k, a, b in _port_modes(in_b, out_a, out_b)})
        # written last, so in_a wins should in_b name the same path
        m_aa, m_ba = complex(m[0, 0]), complex(m[1, 0])
        table.update({k: ((a, m_aa), (b, m_ba)) for k, a, b in _port_modes(in_a, out_a, out_b)})
        return self._map(None, table)

    def relabel_path(
        self,
        from_path: str,
        to_path: str,
        band: Band | None = None,
        pol: Polarization | None = None,
    ) -> "BiphotonState":
        """Re-key matching modes onto ``to_path``; colliding amplitudes sum."""
        pols = (0, 1) if pol is None else (pol.value,)
        return self._map(band, _relabel_table(from_path, to_path, pols))

    def merge_tags(self, path: str, pol: Polarization, band: Band) -> "BiphotonState":
        """Drop the source tag of matching modes; colliding amplitudes sum."""
        return self._map(band, _merge_table(path, pol.value))

    def apply_phase_factor(
        self, path: str, factor: complex, band: Band | None = None
    ) -> "BiphotonState":
        """Multiply each matching photon's amplitude by ``factor``."""
        return self._map(band, {k: ((k, factor),) for k in _modes(path)})

    def prune(self) -> "BiphotonState":
        """A state with one product term per entry of the pruned pair map."""
        state = BiphotonState.__new__(BiphotonState)
        state._set_pairs(self._pairs())
        return state

    # -- queries used by observables --------------------------------------

    def restrict_to(self, path: str, band: Band) -> "BiphotonState":
        """Keep only entries whose ``band`` photon sits at ``path``."""
        _path(path)
        if band is Band.SIGNAL:
            terms = ((_select(u, path), w) for u, w in self._terms)
        else:
            terms = ((u, _select(w, path)) for u, w in self._terms)
        return BiphotonState._wrap(tuple((u, w) for u, w in terms if u and w))

    def counts_at(self, path: str, band: Band) -> tuple:
        """(H, V) squared-magnitude sums for the ``band`` photon at ``path``.

        For a batched state each is an array over the members, or a float
        when no batched amplitude reaches that channel.

        Each is ``Σ_{k,l} ⟨x_k|P x_l⟩⟨y_k|y_l⟩``: ``x`` the ``band`` photon's
        vectors, ``P`` the projector onto one polarization at ``path``, ``y``
        the other photon's vectors, whose Gram matrix both share.  Terms with
        no mode at ``path`` add nothing and are left out of both.
        """
        _path(path)
        mine = 0 if band is Band.SIGNAL else 1
        hs, vs, ys = [], [], []
        for term in self._terms:
            h, v = {}, {}
            for m, a in term[mine].items():
                if m[0] == path:
                    (v if m[1] else h)[m] = a
            if h or v:
                hs.append(h)
                vs.append(v)
                ys.append(term[1 - mine])
        gram = _gram(ys)
        return _contract(hs, gram), _contract(vs, gram)

    # -- serialization -----------------------------------------------------

    def serialize(self) -> str:
        """Canonical text form, one entry per line.

        ``<sig_path>,<sig_pol>,<sig_tag>|<idl_path>,<idl_pol>,<idl_tag>|<re>,<im>``
        in canonical mode-pair order; floats use 17 significant digits; tags
        render as ``M``, ``1`` or ``2``.  A batched state has no single text
        form and raises ``ValueError`` naming its batch size.
        """
        for amp in self._pairs().values():
            if isinstance(amp, np.ndarray):
                raise ValueError(
                    f"cannot serialize a batched state ({amp.size} members); "
                    "serialize a scalar run of each member"
                )
        lines = []
        for pair, amp in self.items():
            s, i = pair.signal, pair.idler
            lines.append(
                f"{s.path},{s.pol},{s.tag}|{i.path},{i.pol},{i.tag}"
                f"|{amp.real:.17g},{amp.imag:.17g}"
            )
        return "\n".join(lines)


def initial_state(sources: Iterable[SourceSpec]) -> BiphotonState:
    """Sum of one unit-magnitude product term per source, tagged by source id."""
    sources = list(sources)
    if not sources:
        raise ValueError("at least one source is required")
    seen: set[int] = set()
    terms = []
    for spec in sources:
        if spec.source_id in seen:
            raise ValueError(f"duplicate source id {spec.source_id}")
        seen.add(spec.source_id)
        pol = spec.emitted_pol.value
        sig = (_path(spec.signal_path), pol, spec.source_id)
        idl = (_path(spec.idler_path), pol, spec.source_id)
        terms.append(({sig: cmath.exp(1j * spec.phase)}, {idl: 1 + 0j}))
    return BiphotonState._wrap(tuple(terms))
