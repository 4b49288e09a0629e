"""qiup's value classes behave as the frozen dataclasses they replace.

Each class below was a ``@dataclass(frozen=True)``; the figures pinned here
(constructor signatures, ``repr`` texts, ``dsl.pretty`` digests) were taken
from those dataclasses.  Most are now :class:`qiup.modes.Record`\\ s, and
``CountResult``, ``VisibilityResult`` and ``FitResult`` are ``NamedTuple``\\ s.
"""
import copy
import hashlib
import inspect
import math
import pickle

import numpy as np
import pytest

from qiup import dsl, elements, estimation, observables, plan, state
from qiup.modes import Band, Mode, ModePair, Polarization, Record, SourceTag, WavePlateKind

from conftest import CIRCUITS_DIR

SPAN = dsl.Span(3, 1, 20)
OTHER_SPAN = dsl.Span(9, 4, 7)
DIAG = dsl.Diagnostic("error", 3, 5, "E_VALUE", "expected a band")
BS = dsl.BsStmt(SPAN, "a", "b", "c")
DIAG_REPR = ("Diagnostic(severity='error', line=3, column=5, code='E_VALUE', "
             "message='expected a band')")
AST_REPR = "CircuitAst(statements=(BsStmt(in_path='a', out_t='b', out_r='c'),))"
V, H = "<Polarization.V: 1>", "<Polarization.H: 0>"
SIGNAL_MODE = Mode("a", Polarization.V, Band.SIGNAL)
IDLER_MODE = Mode("i", Polarization.V, Band.IDLER)

#: name -> (a factory that gives equal fields on every call, the constructor
#: signature without annotations, the repr, or for a record that holds
#: arrays the repr as a function of the record)
CASES = {
    "Mode": (lambda: Mode("a", Polarization.V, Band.SIGNAL, SourceTag.SOURCE_1),
             "(path, pol, band, tag=<SourceTag.MERGED: 0>)",
             f"Mode(path='a', pol={V}, band=<Band.SIGNAL: 0>, tag=<SourceTag.SOURCE_1: 1>)"),
    "ModePair": (lambda: ModePair(Mode("a", Polarization.V, Band.SIGNAL),
                                  Mode("i", Polarization.H, Band.IDLER)),
                 "(signal, idler)",
                 f"ModePair(signal=Mode(path='a', pol={V}, band=<Band.SIGNAL: 0>, "
                 f"tag=<SourceTag.MERGED: 0>), idler=Mode(path='i', pol={H}, "
                 f"band=<Band.IDLER: 1>, tag=<SourceTag.MERGED: 0>))"),
    "SourceSpec": (lambda: state.SourceSpec(1, "a", "i", Polarization.H, 7.0),
                   f"(source_id, signal_path, idler_path, emitted_pol={V}, phase=0.0)",
                   f"SourceSpec(source_id=1, signal_path='a', idler_path='i', emitted_pol={H}, "
                   f"phase={7.0 % (2 * math.pi)!r})"),
    "WavePlateSetting": (lambda: elements.WavePlateSetting(WavePlateKind.QWP, 4.0),
                         "(kind, fast_axis_angle)",
                         "WavePlateSetting(kind=<WavePlateKind.QWP: 'qwp'>, "
                         f"fast_axis_angle={4.0 % math.pi!r})"),
    "PreparationSpec": (lambda: elements.PreparationSpec(0.6, 0.8, 0.5),
                        "(alpha, beta, rel_phase=0.0)",
                        "PreparationSpec(alpha=0.6, beta=0.8, rel_phase=0.5)"),
    "MergeRule": (lambda: elements.MergeRule("r", Polarization.V, Band.IDLER),
                  "(path, pol, band)", f"MergeRule(path='r', pol={V}, band=<Band.IDLER: 1>)"),
    "Span": (lambda: dsl.Span(3, 1, 20), "(line, column, end_column)",
             "Span(line=3, column=1, end_column=20)"),
    "Diagnostic": (lambda: dsl.Diagnostic("error", 3, 5, "E_VALUE", "expected a band"),
                   "(severity, line, column, code, message)", DIAG_REPR),
    "ParamRef": (lambda: dsl.ParamRef("theta"), "(name)", "ParamRef(name='theta')"),
    "Statement": (lambda: dsl.Statement(SPAN), "(span)", "Statement()"),
    "SourceStmt": (lambda: dsl.SourceStmt(SPAN, 1, "a", "i", Polarization.V, 45.0),
                   f"(span, source_id=0, signal='', idler='', pol={V}, phase=None)",
                   f"SourceStmt(source_id=1, signal='a', idler='i', pol={V}, phase=45.0)"),
    "PrepareStmt": (lambda: dsl.PrepareStmt(SPAN, "i", Band.IDLER, dsl.ParamRef("alpha1"),
                                            dsl.ParamRef("beta1"), 30.0),
                    "(span, path='', band=<Band.IDLER: 1>, alpha=0.0, beta=1.0, gamma=0.0)",
                    "PrepareStmt(path='i', band=<Band.IDLER: 1>, alpha=ParamRef(name='alpha1'), "
                    "beta=ParamRef(name='beta1'), gamma=30.0)"),
    "WavePlateStmt": (lambda: dsl.WavePlateStmt(SPAN, WavePlateKind.QWP, "f", 22.5, Band.SIGNAL),
                      "(span, kind=<WavePlateKind.HWP: 'hwp'>, path='', angle=0.0, band=None)",
                      "WavePlateStmt(kind=<WavePlateKind.QWP: 'qwp'>, path='f', angle=22.5, "
                      "band=<Band.SIGNAL: 0>)"),
    "BsStmt": (lambda: dsl.BsStmt(SPAN, "a", "b", "c"), "(span, in_path='', out_t='', out_r='')",
               "BsStmt(in_path='a', out_t='b', out_r='c')"),
    "Bs2Stmt": (lambda: dsl.Bs2Stmt(SPAN, "a", "b", "c", "d"),
                "(span, in_a='', in_b='', out_a='', out_b='')",
                "Bs2Stmt(in_a='a', in_b='b', out_a='c', out_b='d')"),
    "DmStmt": (lambda: dsl.DmStmt(SPAN, "a", "s", "i"),
               "(span, in_path='', signal_out='', idler_out='')",
               "DmStmt(in_path='a', signal_out='s', idler_out='i')"),
    "PhaseStmt": (lambda: dsl.PhaseStmt(SPAN, "b", dsl.ParamRef("phi")),
                  "(span, path='', value=0.0, band=None)",
                  "PhaseStmt(path='b', value=ParamRef(name='phi'), band=None)"),
    "MergeStmt": (lambda: dsl.MergeStmt(SPAN, "r", Polarization.V, Band.IDLER),
                  f"(span, path='', pol={V}, band=<Band.IDLER: 1>)",
                  f"MergeStmt(path='r', pol={V}, band=<Band.IDLER: 1>)"),
    "DetectStmt": (lambda: dsl.DetectStmt(SPAN, "o'", Band.SIGNAL),
                   "(span, path='', band=<Band.SIGNAL: 0>)",
                   "DetectStmt(path=\"o'\", band=<Band.SIGNAL: 0>)"),
    "CircuitAst": (lambda: dsl.CircuitAst((BS,)), "(statements)", AST_REPR),
    "ParseResult": (lambda: dsl.ParseResult(dsl.CircuitAst((BS,)), (DIAG,)),
                    "(ast, diagnostics)",
                    f"ParseResult(ast={AST_REPR}, diagnostics=({DIAG_REPR},))"),
    "ValidationResult": (lambda: plan.ValidationResult(None, (DIAG,)), "(plan, diagnostics)",
                         f"ValidationResult(plan=None, diagnostics=({DIAG_REPR},))"),
    "CountResult": (lambda: observables.CountResult(0.25, 0.5), "(n_h, n_v)",
                    "CountResult(n_h=0.25, n_v=0.5)"),
    "VisibilityResult": (lambda: observables.VisibilityResult(0.64, 1.5), "(value, phi_at_max)",
                         "VisibilityResult(value=0.64, phi_at_max=1.5)"),
    "FringeScan": (lambda: observables.FringeScan(
        (0.0, 1.0), (observables.CountResult(0.1, 0.2), observables.CountResult(0.3, 0.4)), "o'"),
        "(phis, records, detect_path, sweep='phi')",
        lambda s: f"FringeScan(phis={s.phis!r}, counts={s.counts!r}, detect_path=\"o'\", "
                  "sweep='phi')"),
    "_Axis": (lambda: observables._angle_axis("theta", 2, 1),
              "(names, nodes, frequency, angles)",
              lambda a: f"_Axis(names=('theta',), nodes={a.nodes!r}, frequency=2, "
                        f"angles={a.angles!r})"),
    # the dataclass's default was a factory of a new dict; None gives one
    "_CountTensor": (lambda: observables._CountTensor(
        (observables._angle_axis("theta", 2, 1),), np.zeros((2, 3)), 0.0, np.ones((2, 3))),
        "(axes, counts, largest, series, sweeps=None)",
        lambda t: f"_CountTensor(axes=({t.axes[0]!r},), counts={t.counts!r}, largest=0.0, "
                  f"series={t.series!r}, sweeps={{}})"),
    "NoisyScan": (lambda: estimation.NoisyScan((0.0, 1.0), (1, 2), (3, 4), shots=10, seed=0),
                  "(phis, counts_h, counts_v, shots, seed, sweep='phi')",
                  lambda s: f"NoisyScan(phis={s.phis!r}, counts={s.counts!r}, shots=10, seed=0, "
                            "sweep='phi')"),
    "FitResult": (lambda: estimation.FitResult(0.5, 1.0, 0.8, 1e-3, True),
                  "(beta1_hat, gamma_hat, alpha1_hat, residual_sum_sq, converged, "
                  "gamma_unidentifiable=False, model_rejected=False)",
                  "FitResult(beta1_hat=0.5, gamma_hat=1.0, alpha1_hat=0.8, "
                  "residual_sum_sq=0.001, converged=True, gamma_unidentifiable=False, "
                  "model_rejected=False)"),
}
#: Scans and the count tensor hold arrays, which have no single truth
#: value: they compare and hash by identity.
BY_IDENTITY = {"FringeScan", "_Axis", "_CountTensor", "NoisyScan"}
NAMED_TUPLES = {"CountResult", "VisibilityResult", "FitResult"}


def signature(cls) -> str:
    return "(" + ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                           for p in inspect.signature(cls).parameters.values()) + ")"


def field_of(record) -> str:
    """A field of ``record``: the first shown, or a bare statement's span."""
    return record._fields[0] if record._fields else "span"


@pytest.mark.parametrize("name", CASES)
class TestParity:
    def test_signature_and_repr(self, name):
        make, expected_signature, expected_repr = CASES[name]
        record = make()
        assert type(record).__qualname__ == name
        assert signature(type(record)) == expected_signature
        if callable(expected_repr):  # arrays: their own repr, in the fields' places
            expected_repr = expected_repr(record)
        assert repr(record) == expected_repr
        if name in NAMED_TUPLES:
            assert isinstance(record, tuple) and record == tuple(record)
        else:
            assert isinstance(record, Record)

    def test_equality_and_hash(self, name):
        a, b = CASES[name][0](), CASES[name][0]()
        assert a == a and not a != a
        if name in BY_IDENTITY:
            assert a != b and hash(a) == object.__hash__(a)
        else:
            assert a == b and not a != b and hash(a) == hash(b)
            assert a != object() and a != None  # noqa: E711

    def test_frozen(self, name):
        record = CASES[name][0]()
        field = field_of(record)
        value = getattr(record, field)
        for change in (lambda: setattr(record, field, value), lambda: delattr(record, field),
                       lambda: setattr(record, "extra", 1)):
            with pytest.raises(AttributeError):
                change()
        assert getattr(record, field) is value and not hasattr(record, "extra")

    @pytest.mark.parametrize("copier", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy,
                                        copy.copy], ids=["pickle", "deepcopy", "copy"])
    def test_round_trip(self, name, copier):
        record = CASES[name][0]()
        again = copier(record)
        assert type(again) is type(record) and repr(again) == repr(record)
        if name not in BY_IDENTITY:
            assert again == record and hash(again) == hash(record)
        with pytest.raises(AttributeError):
            setattr(again, field_of(again), None)


@pytest.mark.parametrize("make, message", [
    (lambda: state.SourceSpec(3, "a", "i"), "source id must be 1 or 2, got 3"),
    (lambda: ModePair(IDLER_MODE, IDLER_MODE), "signal slot holds a idler mode"),
    (lambda: ModePair(SIGNAL_MODE, SIGNAL_MODE), "idler slot holds a signal mode"),
    (lambda: elements.PreparationSpec(-0.6, 0.8), "preparation amplitudes must be nonnegative"),
    (lambda: elements.PreparationSpec(0.6, 0.9), "alpha\\^2 \\+ beta\\^2 must be 1, got 1.17"),
    (lambda: elements.PreparationSpec(0.6, 0.8, math.inf),
     "relative phase must be finite, got inf"),
])
def test_constructor_checks(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("angle", [4.0, -0.5, math.pi, 0.3])
def test_normalizations(angle):
    assert elements.WavePlateSetting(WavePlateKind.HWP, angle).fast_axis_angle == angle % math.pi
    assert state.SourceSpec(2, "r", "i", phase=3 * angle).phase == (3 * angle) % (2 * math.pi)


def test_a_statements_span_is_no_part_of_its_value():
    a, b = dsl.PhaseStmt(SPAN, "b", 0.5), dsl.PhaseStmt(OTHER_SPAN, "b", 0.5)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "PhaseStmt(path='b', value=0.5, band=None)"
    assert a.span == SPAN and b.span == OTHER_SPAN
    assert a != dsl.PhaseStmt(SPAN, "b", 0.25)


def test_statements_of_two_kinds_differ_with_equal_fields():
    bs, dm = dsl.BsStmt(SPAN, "a", "b", "c"), dsl.DmStmt(SPAN, "a", "b", "c")
    assert bs != dm and dm != bs and len({bs, dm}) == 2


def test_named_tuples_unpack_and_equal_their_fields():
    n_h, n_v = observables.CountResult(0.25, 0.5)
    assert (n_h, n_v) == (0.25, 0.5) == observables.CountResult(0.25, 0.5)
    result = estimation.FitResult(0.5, 1.0, 0.8, 1e-3, True)
    assert result[4] is True and result.model_rejected is False


#: sha256 of ``dsl.pretty`` of each shipped circuit, from the dataclass statements.
PRETTY_SHA256 = {
    "compensated_mzi.qiup":
        "b3f48b17d2e7163392bf2a69fb61d773db6f2d9106c24140ca75053ea582c003",
    "distinguishable_mzi.qiup":
        "7e5c477872aa565633359aab303a1120fe904bfc6bf8dbb848b7dc157fc1421c",
    "fig1.qiup":
        "6ab832beaaaf35a3d0c0378e2789602dd5ddb0ffcadc4ca260ea23594287af8e",
    "mini.qiup":
        "1585865cc33252912ab04af224e80e7d7b0bcca11164272a038dbb42fe7c91b5",
    "waveplate_prep.qiup":
        "b0ff41ebd6a32b21e9b14b77af1328854e00b9b7b09656f2da90e8f2b845bd31",
}


@pytest.mark.parametrize("circuit", sorted(PRETTY_SHA256))
def test_pretty_text_is_unchanged(circuit):
    ast = dsl.parse((CIRCUITS_DIR / circuit).read_text()).ast
    text = dsl.pretty(ast)
    assert hashlib.sha256(text.encode()).hexdigest() == PRETTY_SHA256[circuit]
    assert dsl.parse(text).ast == ast
