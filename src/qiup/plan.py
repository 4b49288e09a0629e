"""Validated, executable circuit plans and the built-in two-source preset."""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterator, Mapping

import numpy as np

from . import dsl
from .dsl import (
    Bs2Stmt,
    BsStmt,
    CircuitAst,
    DetectStmt,
    Diagnostic,
    DmStmt,
    MergeStmt,
    ParamRef,
    PhaseStmt,
    PrepareStmt,
    READ,
    SourceStmt,
    Statement,
    WRITE,
    WavePlateStmt,
)
from .elements import (
    _NORM_TOL,
    MergeRule,
    PreparationSpec,
    WavePlateSetting,
    apply_bs_dual,
    apply_bs_single,
    apply_dichroic,
    apply_merge,
    apply_phase,
    apply_waveplate,
    bs_matrix,
    prepare_beam,
)
from .modes import Band, Record
from .state import (
    BiphotonState,
    SourceSpec,
    _at_failure,
    _holds,
    initial_state,
)


class PlanError(ValueError):
    """Parameter or normalization failure when building/binding/running a plan."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(message)


@dataclass(frozen=True)
class CircuitPlan:
    """A validated circuit with its bindings and run options: ``bs_convention``
    names every splitter's matrix in :data:`qiup.elements.BS_CONVENTIONS`, and
    an unknown name raises ``ValueError`` even where no splitter uses it."""

    sources: tuple[SourceStmt, ...]
    pipeline: tuple[Statement, ...]
    detect_path: str
    detect_band: Band
    bindings: dict
    bs_convention: str = "symmetric"

    def __post_init__(self) -> None:
        bs_matrix(self.bs_convention)

    def without_merges(self) -> "CircuitPlan":
        """The plan with every ``merge`` statement left out of its pipeline."""
        pipeline = tuple(s for s in self.pipeline if not isinstance(s, MergeStmt))
        return replace(self, pipeline=pipeline)

    def bind(self, params: Mapping[str, float | np.ndarray]) -> "CircuitPlan":
        """Attach parameter values (radians for angles).

        A value may be a 1-D array: the plan then runs as a batch, one member
        per element, and every array bound to the plan must have the same
        length B (scalars broadcast).  A run gives one count per member.

        Unknown names fail with ``E_UNKNOWN_PARAM``; NaN, infinite or
        complex values, in any member, with ``E_NONFINITE_PARAM``, since the
        engine would carry them through to counts that look valid, or drop
        their imaginary parts; and an array that is not 1-D and nonempty,
        or whose length differs from another bound array's, with
        ``E_BATCH_SHAPE``.
        """
        unknown = sorted(set(params) - self.free_parameters)
        if unknown:
            raise PlanError(
                "E_UNKNOWN_PARAM",
                f"not free parameters of this plan: {', '.join(unknown)}",
            )
        merged = dict(self.bindings)
        arrays = set(self._arrays)
        nonfinite = []
        for k, v in params.items():  # one pass: type, finiteness, batch
            v = merged[k] = _binding_value(k, v)
            if type(v) is float:
                arrays.discard(k)
                if not math.isfinite(v):
                    nonfinite.append(f"{k}={v!r}")
            else:
                arrays.add(k)
                bad = np.flatnonzero(~np.isfinite(v))
                nonfinite += [f"{k}[{i}]={v[i].item()!r}" for i in bad]
        if nonfinite:
            raise PlanError(
                "E_NONFINITE_PARAM",
                f"parameter values must be finite: {', '.join(nonfinite)}",
            )
        lengths = {k: len(merged[k]) for k in arrays}
        if len(set(lengths.values())) > 1:
            listed = ", ".join(f"{k}: {n}" for k, n in sorted(lengths.items()))
            raise PlanError(
                "E_BATCH_SHAPE", f"batched parameters must share one length, got {listed}"
            )
        bound = object.__new__(type(self))
        # a copy, not ``replace``: it shares this plan's structure and free names
        vars(bound).update(vars(self), bindings=merged, _arrays=frozenset(arrays))
        return bound

    @functools.cached_property
    def _arrays(self) -> frozenset[str]:
        """The names bound to arrays, which ``bind`` hands on."""
        return frozenset(k for k, v in self.bindings.items() if isinstance(v, np.ndarray))

    @functools.cached_property
    def _structure(self) -> _Structure:
        """What the counts depend on besides the bindings (see :class:`_Structure`)."""
        return _Structure((self.sources, self.pipeline, self.detect_path, self.detect_band,
                           self.bs_convention))

    @functools.cached_property
    def free_parameters(self) -> frozenset[str]:
        """The ``$`` names of the pipeline."""
        return frozenset(self._structure.kinds)

    def harmonic_degree(self, name: str) -> tuple[int, int] | None:
        """(frequency f, degree D) of the detected counts in ``name``.

        Each detected amplitude is a Laurent polynomial in ``z = e^{i*name}``;
        its count ``|A|^2`` holds harmonics up to the amplitude's exponent
        span.  Every ``ANGLE`` field that references ``$name`` widens that
        span by its statement's row in :data:`_RULES`, per photon it acts on
        (two for ``band=both``):

        - ``phase ... value=$name`` puts ``z`` on each matching photon: 1;
        - a wave plate's entries are ``cos 2x``, ``sin 2x`` and constants, so
          exponents -2..2 on each matching photon: 4, in steps of 2;
        - ``prepare ... gamma=$name`` puts ``z`` on the V column only (the H
          column never acts on the purely vertical beam it requires): 1.

        The frequency f is the gcd of the steps and D = span / f, so each
        count is a real trigonometric polynomial in ``f*name`` with
        harmonics 0..D.  Returns ``None`` when ``name`` is not free or
        enters a preparation's ``alpha`` or ``beta``, whose normalized
        amplitudes are not of this form.
        """
        kind = self._structure.kinds.get(name)
        return None if kind is None or isinstance(kind[0], str) else kind


class _Structure(tuple):
    """A plan's (sources, pipeline, detect path, detect band, splitter
    convention), which ``bind`` hands on: its count tensor's key, hashed
    once, and what it fixes for every sweep, ``preparations``, whose bound
    amplitudes a run checks, and ``kinds``, the harmonic structure of each
    ``$`` name."""

    @functools.cached_property
    def preparations(self) -> tuple[PrepareStmt, ...]:
        return tuple(s for s in self[1] if isinstance(s, PrepareStmt))

    @functools.cached_property
    def kinds(self) -> dict[str, tuple | None]:
        """Each ``$`` name of the pipeline, in order of first use, with its
        kind: an angle's ``(f, D)`` (see :meth:`CircuitPlan.harmonic_degree`),
        the ``(alpha, beta)`` of a preparation whose amplitudes are two names
        used nowhere else, or ``None`` for any other amplitude name."""
        uses, spans, steps = Counter(), Counter(), {}
        amplitudes = []
        for stmt in self[1]:
            values = [(getattr(stmt, name), angle) for name, angle in stmt.value_fields]
            amplitudes.append([value for value, angle in values if not angle])
            for value, angle in values:
                if not isinstance(value, ParamRef):
                    continue
                uses[value.name] += 1
                if angle:  # the row's exponent span per photon, and its step
                    span, step = _RULES[type(stmt)][0]
                    spans[value.name] += span if stmt.band is not None else 2 * span
                    steps[value.name] = math.gcd(steps.get(value.name, 2), step)
        kinds = {name: (steps[name], spans[name] // steps[name]) if name in steps else None
                 for name in uses}
        for pair in amplitudes:
            names = tuple(v.name for v in pair if isinstance(v, ParamRef))
            single = len(names) == 2 and uses[names[0]] == uses[names[1]] == 1
            kinds.update(dict.fromkeys(names, names if single else None))
        return kinds

    @functools.cached_property
    def _hash(self) -> int:
        return super().__hash__()

    def __hash__(self) -> int:
        return self._hash


def _is_complex(value) -> bool:
    """Whether ``value`` is complex, or an array of complex dtype or with a
    complex element: float conversion would drop its imaginary parts."""
    if not isinstance(value, np.ndarray):
        return isinstance(value, (complex, np.complexfloating))
    if value.dtype.kind == "O":
        return any(map(_is_complex, value.flat))
    return value.dtype.kind == "c"


def _binding_value(name: str, value) -> float | np.ndarray:
    """A float, or a read-only float copy of a 1-D nonempty array; never the
    real part of a complex value."""
    if type(value) is float:  # the common case, and the cheapest test
        return value
    if _is_complex(value):
        raise PlanError("E_NONFINITE_PARAM",
                        f"parameter values must be finite real numbers, got complex {name}")
    if not isinstance(value, np.ndarray):
        return float(value)
    arr = np.array(value, dtype=float)
    if arr.ndim == 0:
        return float(arr)
    if arr.ndim != 1 or not arr.size:
        raise PlanError(
            "E_BATCH_SHAPE",
            f"a batched parameter must be a nonempty 1-D array, got {name} "
            f"with shape {arr.shape}",
        )
    arr.flags.writeable = False
    return arr


class ValidationResult(Record):
    plan: CircuitPlan | None
    diagnostics: tuple[Diagnostic, ...]

    def __init__(self, plan: CircuitPlan | None, diagnostics: tuple[Diagnostic, ...]) -> None:
        vars(self).update(plan=plan, diagnostics=diagnostics)

    @property
    def ok(self) -> bool:
        return self.plan is not None


#: One row per pipeline statement kind, keyed by its class:
#: - its ``ANGLE`` field's exponent span in ``z = e^{i x}`` per photon it acts
#:   on (two for ``band=both``), and the step of those exponents;
#: - the (code, device noun) of the error when its read paths, or its
#:   written paths, repeat;
#: - what it applies, from the statement and its resolved ``value_fields``;
#: - its run: the public element function, called with the state, the
#:   statement, what it applies and the splitter convention.
#: None marks a kind without an angle, a check or values.  ``source`` and
#: ``detect`` are not pipeline kinds and read ``_NO_RULE``.
_RULES = {
    PrepareStmt: ((1, 1), None, lambda s, *values: PreparationSpec(*values),
                  lambda state, s, spec, _: prepare_beam(state, s.path, s.band, spec)),
    WavePlateStmt: ((4, 2), None, lambda s, angle: WavePlateSetting(s.kind, angle),
                    lambda state, s, plate, _: apply_waveplate(state, s.path, plate, s.band)),
    PhaseStmt: ((1, 1), None, lambda s, phi: phi,
                lambda state, s, phi, _: apply_phase(state, s.path, phi, s.band)),
    BsStmt: (None, ("E_BS_ALIAS", "splitter"), None,
             lambda state, s, _, bs: apply_bs_single(state, s.in_path, s.out_t, s.out_r, bs)),
    Bs2Stmt: (None, ("E_BS_ALIAS", "splitter"), None,
              lambda state, s, _, bs: apply_bs_dual(state, s.in_a, s.in_b, s.out_a, s.out_b, bs)),
    DmStmt: (None, ("E_DM_ALIAS", "dichroic"), None,
             lambda state, s, *_: apply_dichroic(state, s.in_path, s.signal_out, s.idler_out)),
    MergeStmt: (None, None, None,
                lambda state, s, *_: apply_merge(state, [MergeRule(s.path, s.pol, s.band)])),
}
_NO_RULE = (None, None, None, None)


def validate(ast: CircuitAst) -> ValidationResult:
    """Check path flow, source ids and detect uniqueness; build the plan."""
    diags: list[Diagnostic] = []

    def err(stmt: Statement, code: str, message: str) -> None:
        diags.append(Diagnostic("error", stmt.span.line, stmt.span.column, code, message))

    sources: list[SourceStmt] = []
    pipeline: list[Statement] = []
    detects: list[DetectStmt] = []
    groups = {SourceStmt: sources, DetectStmt: detects}
    written: set[str] = set()
    seen_ids: set[int] = set()
    elements_started = False

    for stmt in ast.statements:
        group = groups.get(type(stmt), pipeline)
        group.append(stmt)
        if group is sources:
            if elements_started:
                err(stmt, "E_SOURCE_ORDER", "source statements must precede elements")
            if stmt.source_id not in (1, 2):
                err(stmt, "E_SOURCE_ID", f"source id must be 1 or 2, got {stmt.source_id}")
            elif stmt.source_id in seen_ids:
                err(stmt, "E_DUP_SOURCE", f"duplicate source id {stmt.source_id}")
            else:
                seen_ids.add(stmt.source_id)
        else:
            elements_started = True
        for p in stmt.paths(READ):
            if p not in written:
                err(stmt, "E_UNKNOWN_PATH", f"path '{p}' is never produced before use")
        alias = _RULES.get(type(stmt), _NO_RULE)[1]
        for role, ends in ((READ, "inputs"), (WRITE, "outputs")):
            paths = stmt.paths(role)
            if alias and len(set(paths)) < len(paths):
                err(stmt, alias[0], f"{alias[1]} {ends} must be distinct paths")
        written.update(stmt.paths(WRITE))

    if not sources:
        diags.append(Diagnostic("error", 1, 1, "E_NO_SOURCE", "no source statements"))
    if not detects:
        diags.append(Diagnostic("error", 1, 1, "E_NO_DETECT", "no detect statement"))
    for extra in detects[1:]:
        err(extra, "E_MULTI_DETECT", "more than one detect statement")

    if diags:
        return ValidationResult(None, tuple(diags))
    detect = detects[0]
    plan = CircuitPlan(
        sources=tuple(sources),
        pipeline=tuple(pipeline),
        detect_path=detect.path,
        detect_band=detect.band,
        bindings={},
    )
    return ValidationResult(plan, tuple(diags))


def compile_text(text: str) -> tuple[CircuitPlan | None, tuple[Diagnostic, ...]]:
    """Parse then validate; diagnostics from both stages are concatenated."""
    parsed = dsl.parse(text)
    if not parsed.ok:
        return None, parsed.diagnostics
    validated = validate(parsed.ast)
    return validated.plan, parsed.diagnostics + validated.diagnostics


def _values(stmt: Statement, bindings: Mapping[str, float]) -> list[float]:
    """The values of ``stmt``'s ``value_fields`` at ``bindings``, unchecked,
    in radians for angles: a literal angle is in degrees in the DSL, a bound
    parameter already in radians."""
    values = []
    for name, angle in stmt.value_fields:
        value = getattr(stmt, name)
        if type(value) is ParamRef:
            if value.name not in bindings:
                raise PlanError("E_UNBOUND_PARAM", f"unbound parameter '{value.name}'")
            value = bindings[value.name]
        elif angle:
            value = math.radians(value)
        values.append(value)
    return values


def _setting(stmt: Statement, bindings: Mapping[str, float]):
    """What ``stmt`` applies at ``bindings``, checked, by its row in
    :data:`_RULES`: a :class:`PreparationSpec`, a :class:`WavePlateSetting`,
    a phase, or None for a statement without values."""
    setting = _RULES.get(type(stmt), _NO_RULE)[2]
    return None if setting is None else setting(stmt, *_values(stmt, bindings))


def _source_state(plan: CircuitPlan) -> BiphotonState:
    specs = [
        SourceSpec(s.source_id, s.signal, s.idler, s.pol, math.radians(s.phase or 0.0))
        for s in plan.sources
    ]
    return initial_state(specs)


def _states(plan: CircuitPlan) -> Iterator[BiphotonState]:
    """The state after the sources, then after each pipeline statement, each
    run by its row in :data:`_RULES`."""
    bindings, convention = plan.bindings, plan.bs_convention
    state = _source_state(plan)
    yield state
    for stmt in plan.pipeline:
        run = _RULES.get(type(stmt), _NO_RULE)[3]
        if run is None:
            raise TypeError(f"cannot execute statement {stmt!r}")
        state = run(state, stmt, _setting(stmt, bindings), convention)
        yield state


def iter_plan(plan: CircuitPlan) -> Iterator[tuple[str, BiphotonState]]:
    """Run the plan, yielding (step label, state) after sources and each element."""
    states = _states(plan)
    yield "sources", next(states)
    for stmt, state in zip(plan.pipeline, states):
        yield stmt.pretty(), state


def run_plan(plan: CircuitPlan) -> BiphotonState:
    """Evolve the plan's sources through its full pipeline."""
    for state in _states(plan):
        pass
    return state


#: The built-in two-source circuit: a pair of vertically emitting sources,
#: idler preparation before the beams join, a balanced interferometer stage
#: with a rotatable half-wave plate in one arm, and signal detection behind
#: the final combiner.
FIG1_SOURCE = """\
# Two-source polarization interference circuit (built-in preset "fig1").
# Idler preparation acts on source 1's emission path before the dichroic
# mirror joins both idlers on path r, so source 2's beam stays untouched.
source 1 signal=a idler=a pol=V
source 2 signal=r idler=r pol=V
prepare a idler alpha=$alpha1 beta=$beta1 gamma=$gamma
dm a -> signal: b idler: r
prepare b signal alpha=$alpha2 beta=$beta2 gamma=0
phase r value=$phi band=signal
merge r V idler
merge b V signal
merge r V signal
bs r -> e f
hwp f angle=$theta band=both
bs2 e f -> e' f'
dm f' -> signal: o idler: f'
bs2 o b -> o' b'
detect o' signal
"""

FIG1_PARAMETERS = ("alpha1", "beta1", "gamma", "alpha2", "beta2", "phi", "theta")


@functools.cache
def _fig1_plan(bs_convention: str) -> CircuitPlan:
    """The unbound preset under ``bs_convention``, compiled on first use and
    kept, one plan per convention, so that each hashes its structure once
    and a plan bound from it hands that structure on; ``bind`` never
    mutates it.  An unknown convention raises ``ValueError``."""
    plan, diagnostics = compile_text(FIG1_SOURCE)
    assert plan is not None, diagnostics
    return replace(plan, bs_convention=bs_convention)


def fig1_preset(params: Mapping[str, float]) -> CircuitPlan:
    """The built-in circuit with its seven parameters bound, and no other
    name (angles in radians).

    Values may be 1-D arrays of one length, as for :meth:`CircuitPlan.bind`.
    Raises :class:`PlanError` with code ``E_MISSING_PARAM`` when a parameter
    is absent, ``E_NORM`` when either amplitude pair is not normalized, and
    then what :meth:`CircuitPlan.bind` raises: ``E_UNKNOWN_PARAM`` for a
    name that is not one of the seven.
    """
    missing = [name for name in FIG1_PARAMETERS if name not in params]
    if missing:
        raise PlanError("E_MISSING_PARAM", f"missing parameter(s): {', '.join(missing)}")
    for a, b in (("alpha1", "beta1"), ("alpha2", "beta2")):
        norm = params[a] ** 2 + params[b] ** 2
        ok = abs(norm - 1.0) <= _NORM_TOL  # NaN fails too
        if not _holds(ok):
            norm, note = _at_failure(ok, norm)
            raise PlanError("E_NORM", f"{a}^2 + {b}^2 = {norm!r}, expected 1{note}")
    return _fig1_plan("symmetric").bind(params)
