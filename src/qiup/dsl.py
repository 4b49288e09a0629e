"""Line-oriented circuit description language.

One statement per line, ``#`` starts a comment, arguments are ``key=value``
tokens.  Literal angles and phases are given in degrees; ``$name`` references
a free parameter, which is always bound in radians (or as a plain amplitude).
Parsing never raises: it returns an AST plus a list of diagnostics with
1-based line/column positions.
"""
from __future__ import annotations

import math
import re
from typing import NoReturn, Union

from .modes import Band, Polarization, Record, WavePlateKind

_TOKEN_RE = re.compile(r"\S+")

BAND_WORDS = {"signal": Band.SIGNAL, "idler": Band.IDLER}
BAND_OR_BOTH = {"signal": Band.SIGNAL, "idler": Band.IDLER, "both": None}
POL_WORDS = {"H": Polarization.H, "V": Polarization.V}


class Span(Record):
    line: int
    column: int
    end_column: int

    def __init__(self, line: int, column: int, end_column: int) -> None:
        vars(self).update(line=line, column=column, end_column=end_column)


class Diagnostic(Record):
    severity: str  # "error" | "warning"
    line: int
    column: int
    code: str
    message: str

    def __init__(self, severity: str, line: int, column: int, code: str, message: str) -> None:
        vars(self).update(severity=severity, line=line, column=column, code=code, message=message)

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}[{self.code}]: {self.message}"


class ParamRef(Record):
    name: str

    def __init__(self, name: str) -> None:
        vars(self).update(name=name)

    def __str__(self) -> str:
        return f"${self.name}"


#: A literal number (degrees in an ``ANGLE`` field) or a named free parameter.
Value = Union[float, ParamRef]


def _fmt_value(v: Value) -> str:
    return str(v) if isinstance(v, ParamRef) else f"{v:.17g}"


# A statement's ``syntax`` lists the tokens after its keyword, in order: a
# string is a literal token, any other entry a tuple (form, field, reader, what).
# - form: ``POS`` a bare token, ``KEY`` a required ``field=...``, ``OPT`` an
#   optional one (absent: the field keeps its default, None), ``DEFAULTED`` an
#   optional ``band=`` that warns ``W_DEFAULT_BAND`` when absent;
# - reader: ``READ``/``WRITE`` a path the statement reads/writes, ``VALUE`` a
#   number or ``$name``, ``ANGLE`` the same, read as an angle in degrees when
#   literal and in radians when bound, ``NUMBER`` a number, ``ID`` an integer,
#   or a word table;
# - what: how an error names the token ("expected a path identifier",
#   "malformed number for alpha").
# Parsing, printing, validation and a plan's run (through ``value_fields``)
# all read this one declaration.  Entries are plain tuples: a class per entry
# would cost import time.
POS, KEY, OPT, DEFAULTED = "pos", "key", "opt", "defaulted"
READ, WRITE, VALUE, ANGLE, NUMBER, ID = "read", "write", "value", "angle", "number", "id"
_PATH = (POS, "path", READ, "a path identifier")
_BAND = (POS, "band", BAND_WORDS, "a band")
_BAND_OR_BOTH = (DEFAULTED, "band", BAND_OR_BOTH, "a band")
_POL = (POS, "pol", POL_WORDS, "a polarization")
_FORMATS = {VALUE: _fmt_value, ANGLE: _fmt_value, NUMBER: "{:.17g}".format}


class Statement(Record):
    """A parsed statement.  Its ``span`` locates it in the source and is
    left out of ``==``, ``hash`` and ``repr``."""

    span: Span

    _hidden = ("span",)
    syntax = ()
    #: The fields read as ``VALUE`` or ``ANGLE``, in ``syntax`` order, each with
    #: whether it is an angle; each class sets it from its ``syntax``.
    value_fields = ()

    def __init__(self, span: Span) -> None:
        vars(self).update(span=span)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.value_fields = tuple((s[1], s[2] == ANGLE) for s in cls.syntax
                                 if type(s) is tuple and s[2] in (VALUE, ANGLE))

    def paths(self, role: str) -> tuple[str, ...]:
        """The paths this statement reads (``READ``) or writes (``WRITE``)."""
        return tuple(getattr(self, s[1]) for s in self.syntax if type(s) is tuple and s[2] == role)

    def pretty(self) -> str:
        """Canonical text of the statement; parsing it gives an equal one."""
        words = [next(word for word, (cls, fixed) in STATEMENTS.items()
                      if cls is type(self) and fixed.items() <= vars(self).items())]
        for spec in self.syntax:
            if isinstance(spec, str):
                words.append(spec)
                continue
            form, name, reader, _ = spec
            value = getattr(self, name)
            if form == OPT and value is None:
                continue
            if isinstance(reader, dict):
                text = next(word for word, v in reader.items() if v == value)
            else:
                text = _FORMATS.get(reader, str)(value)
            words.append(text if form == POS else f"{name}={text}")
        return " ".join(words)


class SourceStmt(Statement):
    source_id: int
    signal: str
    idler: str
    pol: Polarization
    phase: float | None  # degrees

    syntax = (
        (POS, "source_id", ID, "a source id"),
        (KEY, "signal", WRITE, "a signal path identifier"),
        (KEY, "idler", WRITE, "an idler path identifier"),
        (KEY, "pol", POL_WORDS, "a polarization"),
        (OPT, "phase", NUMBER, "phase"),
    )

    def __init__(self, span: Span, source_id: int = 0, signal: str = "", idler: str = "",
                 pol: Polarization = Polarization.V, phase: float | None = None) -> None:
        vars(self).update(span=span, source_id=source_id, signal=signal, idler=idler, pol=pol,
                          phase=phase)


class PrepareStmt(Statement):
    path: str
    band: Band
    alpha: Value
    beta: Value
    gamma: Value

    syntax = (
        _PATH,
        _BAND,
        (KEY, "alpha", VALUE, "alpha"),
        (KEY, "beta", VALUE, "beta"),
        (KEY, "gamma", ANGLE, "gamma"),
    )

    def __init__(self, span: Span, path: str = "", band: Band = Band.IDLER, alpha: Value = 0.0,
                 beta: Value = 1.0, gamma: Value = 0.0) -> None:
        vars(self).update(span=span, path=path, band=band, alpha=alpha, beta=beta, gamma=gamma)


class WavePlateStmt(Statement):
    kind: WavePlateKind
    path: str
    angle: Value
    band: Band | None  # None = both bands

    syntax = (_PATH, (KEY, "angle", ANGLE, "angle"), _BAND_OR_BOTH)

    def __init__(self, span: Span, kind: WavePlateKind = WavePlateKind.HWP, path: str = "",
                 angle: Value = 0.0, band: Band | None = None) -> None:
        vars(self).update(span=span, kind=kind, path=path, angle=angle, band=band)


class BsStmt(Statement):
    in_path: str
    out_t: str
    out_r: str

    syntax = (
        (POS, "in_path", READ, "a path identifier"),
        "->",
        (POS, "out_t", WRITE, "a transmitted output path"),
        (POS, "out_r", WRITE, "a reflected output path"),
    )

    def __init__(self, span: Span, in_path: str = "", out_t: str = "", out_r: str = "") -> None:
        vars(self).update(span=span, in_path=in_path, out_t=out_t, out_r=out_r)


class Bs2Stmt(Statement):
    in_a: str
    in_b: str
    out_a: str
    out_b: str

    syntax = (
        (POS, "in_a", READ, "a path identifier"),
        (POS, "in_b", READ, "a second input path"),
        "->",
        (POS, "out_a", WRITE, "an output path"),
        (POS, "out_b", WRITE, "a second output path"),
    )

    def __init__(self, span: Span, in_a: str = "", in_b: str = "", out_a: str = "",
                 out_b: str = "") -> None:
        vars(self).update(span=span, in_a=in_a, in_b=in_b, out_a=out_a, out_b=out_b)


class DmStmt(Statement):
    in_path: str
    signal_out: str
    idler_out: str

    syntax = (
        (POS, "in_path", READ, "a path identifier"),
        "->",
        "signal:",
        (POS, "signal_out", WRITE, "the signal output path"),
        "idler:",
        (POS, "idler_out", WRITE, "the idler output path"),
    )

    def __init__(self, span: Span, in_path: str = "", signal_out: str = "",
                 idler_out: str = "") -> None:
        vars(self).update(span=span, in_path=in_path, signal_out=signal_out, idler_out=idler_out)


class PhaseStmt(Statement):
    path: str
    value: Value
    band: Band | None

    syntax = (_PATH, (KEY, "value", ANGLE, "value"), _BAND_OR_BOTH)

    def __init__(self, span: Span, path: str = "", value: Value = 0.0,
                 band: Band | None = None) -> None:
        vars(self).update(span=span, path=path, value=value, band=band)


class MergeStmt(Statement):
    path: str
    pol: Polarization
    band: Band

    syntax = (_PATH, _POL, _BAND)

    def __init__(self, span: Span, path: str = "", pol: Polarization = Polarization.V,
                 band: Band = Band.IDLER) -> None:
        vars(self).update(span=span, path=path, pol=pol, band=band)


class DetectStmt(Statement):
    path: str
    band: Band

    syntax = (_PATH, _BAND)

    def __init__(self, span: Span, path: str = "", band: Band = Band.SIGNAL) -> None:
        vars(self).update(span=span, path=path, band=band)


#: Statement keyword -> (class, fields the keyword fixes).
STATEMENTS = {
    "source": (SourceStmt, {}),
    "prepare": (PrepareStmt, {}),
    "hwp": (WavePlateStmt, {"kind": WavePlateKind.HWP}),
    "qwp": (WavePlateStmt, {"kind": WavePlateKind.QWP}),
    "bs": (BsStmt, {}),
    "bs2": (Bs2Stmt, {}),
    "dm": (DmStmt, {}),
    "phase": (PhaseStmt, {}),
    "merge": (MergeStmt, {}),
    "detect": (DetectStmt, {}),
}


class CircuitAst(Record):
    statements: tuple[Statement, ...]

    def __init__(self, statements: tuple[Statement, ...]) -> None:
        vars(self).update(statements=statements)


class ParseResult(Record):
    ast: CircuitAst | None
    diagnostics: tuple[Diagnostic, ...]

    def __init__(self, ast: CircuitAst | None, diagnostics: tuple[Diagnostic, ...]) -> None:
        vars(self).update(ast=ast, diagnostics=diagnostics)

    @property
    def ok(self) -> bool:
        return self.ast is not None

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]


class _StatementError(Exception):
    def __init__(self, diag: Diagnostic) -> None:
        self.diag = diag
        super().__init__(str(diag))


def _parse_statement(tokens: list[tuple[str, int]], line: int, warn) -> Statement:
    """Read a line's ``(text, column)`` tokens as its keyword's class's
    ``syntax`` declares; the first fault raises :class:`_StatementError`."""

    def fail(code: str, message: str, column: int) -> NoReturn:
        raise _StatementError(Diagnostic("error", line, column, code, message))

    keyword, start = tokens[0]
    if keyword not in STATEMENTS:
        fail("E_KEYWORD", f"unknown statement keyword '{keyword}'", start)
    cls, fixed = STATEMENTS[keyword]
    fields = dict(fixed)
    last, end = tokens[-1]
    end += len(last)
    at = 1
    for spec in cls.syntax:
        if type(spec) is str:  # a literal: a bare token equal to itself
            form, name, reader, what = POS, None, None, f"'{spec}'"
        else:
            form, name, reader, what = spec
        key = "" if form == POS else name + "="
        if at < len(tokens) and tokens[at][0].startswith(key):
            text, column = tokens[at]
            at += 1
        elif form == OPT or form == DEFAULTED:
            if form == DEFAULTED:
                warn(Diagnostic("warning", line, start, "W_DEFAULT_BAND",
                                f"{keyword} without band= defaults to both bands"))
            continue
        elif at == len(tokens):
            expected = what if form == POS else f"'{key}...'"
            fail("E_ARITY", f"expected {expected} after '{last}'", end)
        else:
            fail("E_ARITY", f"expected '{key}...', got '{tokens[at][0]}'", tokens[at][1])
        if text == key:  # never for a bare token, which is not empty
            fail("E_VALUE", f"empty value for '{key}'", column)
        text, column = text[len(key):], column + len(key)
        if isinstance(reader, dict):
            if text not in reader:
                fail("E_VALUE", f"expected {what} ({'|'.join(reader)}), got '{text}'", column)
            fields[name] = reader[text]
        elif reader == ID:
            try:
                fields[name] = int(text)
            except ValueError:
                fail("E_NUMBER", f"source id must be an integer, got '{text}'", column)
        elif (reader == VALUE or reader == ANGLE) and text.startswith("$"):
            if not text[1:].isidentifier():
                fail("E_NUMBER", f"malformed parameter reference '{text}'", column)
            fields[name] = ParamRef(text[1:])
        elif reader == VALUE or reader == ANGLE or reader == NUMBER:
            try:
                number = float(text)
            except ValueError:
                number = math.nan
            if not math.isfinite(number):
                fail("E_NUMBER", f"malformed number for {what}: '{text}'", column)
            fields[name] = number
        elif reader is None:
            if text != spec:
                fail("E_ARITY", f"expected {what}, got '{text}'", column)
        elif "=" in text or text == "->":  # READ or WRITE: a path, bare or after its key
            fail("E_ARITY", f"expected {what}, got '{text}'", column)
        else:
            fields[name] = text
    if at < len(tokens):
        text, column = tokens[at]
        fail("E_ARITY", f"unexpected trailing token '{text}'", column)
    return cls(Span(line, start, end), **fields)


def parse(text: str) -> ParseResult:
    """Parse circuit text; on any error the result carries no AST."""
    diagnostics: list[Diagnostic] = []
    statements: list[Statement] = []
    detect_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]
        if not tokens:
            continue
        try:
            stmt = _parse_statement(tokens, lineno, diagnostics.append)
        except _StatementError as exc:
            diagnostics.append(exc.diag)
            continue
        if isinstance(stmt, DetectStmt):
            if detect_seen:
                diagnostics.append(Diagnostic("error", lineno, tokens[0][1], "E_MULTI_DETECT",
                                              "more than one detect statement"))
                continue
            detect_seen = True
        statements.append(stmt)
    errors = [d for d in diagnostics if d.severity == "error"]
    ast = None if errors else CircuitAst(tuple(statements))
    return ParseResult(ast, tuple(diagnostics))


def pretty(ast: CircuitAst) -> str:
    """Canonical text form; parsing it back yields an equal AST."""
    return "\n".join(stmt.pretty() for stmt in ast.statements) + "\n"
