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
from dataclasses import dataclass, field
from typing import NoReturn, Union

from .modes import Band, Polarization, WavePlateKind

_TOKEN_RE = re.compile(r"\S+")

BAND_WORDS = {"signal": Band.SIGNAL, "idler": Band.IDLER}
BAND_OR_BOTH = {"signal": Band.SIGNAL, "idler": Band.IDLER, "both": None}
POL_WORDS = {"H": Polarization.H, "V": Polarization.V}


@dataclass(frozen=True)
class Span:
    line: int
    column: int
    end_column: int


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    line: int
    column: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}[{self.code}]: {self.message}"


@dataclass(frozen=True)
class ParamRef:
    name: str

    def __str__(self) -> str:
        return f"${self.name}"


#: A literal number (degrees for angle-like fields) or a named free parameter.
Value = Union[float, ParamRef]


def _fmt_value(v: Value) -> str:
    return str(v) if isinstance(v, ParamRef) else f"{v:.17g}"


# A statement's ``syntax`` lists the tokens after its keyword, in order: a
# string is a literal token, any other entry a tuple (form, field, reader, what).
# - form: ``POS`` a bare token, ``KEY`` a required ``field=...``, ``OPT`` an
#   optional one (absent: the field keeps its default, None), ``DEFAULTED`` an
#   optional ``band=`` that warns ``W_DEFAULT_BAND`` when absent;
# - reader: ``READ``/``WRITE`` a path the statement reads/writes, ``VALUE`` a
#   number or ``$name``, ``NUMBER`` a number, ``ID`` an integer, or a word table;
# - what: how an error names the token ("expected a path identifier",
#   "malformed number for alpha").
# Parsing, printing and validation all read this one declaration.  Entries
# are plain tuples: a class or dataclass per entry would cost import time.
POS, KEY, OPT, DEFAULTED = "pos", "key", "opt", "defaulted"
READ, WRITE, VALUE, NUMBER, ID = "read", "write", "value", "number", "id"
_PATH = (POS, "path", READ, "a path identifier")
_BAND = (POS, "band", BAND_WORDS, "a band")
_BAND_OR_BOTH = (DEFAULTED, "band", BAND_OR_BOTH, "a band")
_POL = (POS, "pol", POL_WORDS, "a polarization")
_FORMATS = {VALUE: _fmt_value, NUMBER: "{:.17g}".format}


@dataclass(frozen=True)
class Statement:
    span: Span = field(compare=False, repr=False)

    syntax = ()

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


@dataclass(frozen=True)
class SourceStmt(Statement):
    source_id: int = 0
    signal: str = ""
    idler: str = ""
    pol: Polarization = Polarization.V
    phase: float | None = None  # degrees

    syntax = (
        (POS, "source_id", ID, "a source id"),
        (KEY, "signal", WRITE, "a signal path identifier"),
        (KEY, "idler", WRITE, "an idler path identifier"),
        (KEY, "pol", POL_WORDS, "a polarization"),
        (OPT, "phase", NUMBER, "phase"),
    )


@dataclass(frozen=True)
class PrepareStmt(Statement):
    path: str = ""
    band: Band = Band.IDLER
    alpha: Value = 0.0
    beta: Value = 1.0
    gamma: Value = 0.0  # degrees when literal

    syntax = (
        _PATH,
        _BAND,
        (KEY, "alpha", VALUE, "alpha"),
        (KEY, "beta", VALUE, "beta"),
        (KEY, "gamma", VALUE, "gamma"),
    )


@dataclass(frozen=True)
class WavePlateStmt(Statement):
    kind: WavePlateKind = WavePlateKind.HWP
    path: str = ""
    angle: Value = 0.0  # degrees when literal
    band: Band | None = None  # None = both bands

    syntax = (_PATH, (KEY, "angle", VALUE, "angle"), _BAND_OR_BOTH)


@dataclass(frozen=True)
class BsStmt(Statement):
    in_path: str = ""
    out_t: str = ""
    out_r: str = ""

    syntax = (
        (POS, "in_path", READ, "a path identifier"),
        "->",
        (POS, "out_t", WRITE, "a transmitted output path"),
        (POS, "out_r", WRITE, "a reflected output path"),
    )


@dataclass(frozen=True)
class Bs2Stmt(Statement):
    in_a: str = ""
    in_b: str = ""
    out_a: str = ""
    out_b: str = ""

    syntax = (
        (POS, "in_a", READ, "a path identifier"),
        (POS, "in_b", READ, "a second input path"),
        "->",
        (POS, "out_a", WRITE, "an output path"),
        (POS, "out_b", WRITE, "a second output path"),
    )


@dataclass(frozen=True)
class DmStmt(Statement):
    in_path: str = ""
    signal_out: str = ""
    idler_out: str = ""

    syntax = (
        (POS, "in_path", READ, "a path identifier"),
        "->",
        "signal:",
        (POS, "signal_out", WRITE, "the signal output path"),
        "idler:",
        (POS, "idler_out", WRITE, "the idler output path"),
    )


@dataclass(frozen=True)
class PhaseStmt(Statement):
    path: str = ""
    value: Value = 0.0  # degrees when literal
    band: Band | None = None

    syntax = (_PATH, (KEY, "value", VALUE, "value"), _BAND_OR_BOTH)


@dataclass(frozen=True)
class MergeStmt(Statement):
    path: str = ""
    pol: Polarization = Polarization.V
    band: Band = Band.IDLER

    syntax = (_PATH, _POL, _BAND)


@dataclass(frozen=True)
class DetectStmt(Statement):
    path: str = ""
    band: Band = Band.SIGNAL

    syntax = (_PATH, _BAND)


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


@dataclass(frozen=True)
class CircuitAst:
    statements: tuple[Statement, ...]


@dataclass(frozen=True)
class ParseResult:
    ast: CircuitAst | None
    diagnostics: tuple[Diagnostic, ...]

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
        elif reader == VALUE and text.startswith("$"):
            if not text[1:].isidentifier():
                fail("E_NUMBER", f"malformed parameter reference '{text}'", column)
            fields[name] = ParamRef(text[1:])
        elif reader == VALUE or reader == NUMBER:
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
