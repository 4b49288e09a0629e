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
from typing import Union

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

    def values(self) -> tuple[Value, ...]:
        """The fields that may name a free parameter."""
        return self.paths(VALUE)

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


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int

    @property
    def end(self) -> int:
        return self.column + len(self.text)


class _Cursor:
    """Token stream for one statement line."""

    def __init__(self, tokens: list[_Token], line: int) -> None:
        self.tokens = tokens
        self.line = line
        self.pos = 0

    @property
    def keyword(self) -> _Token:
        return self.tokens[0]

    def span(self) -> Span:
        return Span(self.line, self.tokens[0].column, self.tokens[-1].end)

    def exhausted(self) -> bool:
        return self.pos >= len(self.tokens)

    def _fail(self, code: str, message: str, token: _Token | None = None) -> None:
        col = token.column if token else self.tokens[-1].end
        raise _StatementError(Diagnostic("error", self.line, col, code, message))

    def take(self, what: str) -> _Token:
        if self.exhausted():
            self._fail("E_ARITY", f"expected {what} after '{self.tokens[-1].text}'")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def take_literal(self, literal: str) -> _Token:
        tok = self.take(f"'{literal}'")
        if tok.text != literal:
            self._fail("E_ARITY", f"expected '{literal}', got '{tok.text}'", tok)
        return tok

    def path(self, tok: _Token, what: str) -> str:
        if "=" in tok.text or tok.text == "->":
            self._fail("E_ARITY", f"expected {what}, got '{tok.text}'", tok)
        return tok.text

    def take_kv(self, key: str) -> _Token:
        tok = self.take(f"'{key}=...'")
        prefix = key + "="
        if not tok.text.startswith(prefix):
            self._fail("E_ARITY", f"expected '{key}=...', got '{tok.text}'", tok)
        if len(tok.text) == len(prefix):
            self._fail("E_VALUE", f"empty value for '{key}='", tok)
        return _Token(tok.text[len(prefix):], tok.line, tok.column + len(prefix))

    def opt_kv(self, key: str) -> _Token | None:
        if self.exhausted():
            return None
        tok = self.tokens[self.pos]
        if tok.text.startswith(key + "="):
            return self.take_kv(key)
        return None

    def number(self, tok: _Token, what: str) -> float:
        try:
            value = float(tok.text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            self._fail("E_NUMBER", f"malformed number for {what}: '{tok.text}'", tok)
        return value

    def value(self, tok: _Token, what: str) -> Value:
        if tok.text.startswith("$"):
            name = tok.text[1:]
            if not name.isidentifier():
                self._fail("E_NUMBER", f"malformed parameter reference '{tok.text}'", tok)
            return ParamRef(name)
        return self.number(tok, what)

    def choice(self, tok: _Token, table: dict, what: str):
        if tok.text not in table:
            expected = "|".join(table)
            self._fail("E_VALUE", f"expected {what} ({expected}), got '{tok.text}'", tok)
        return table[tok.text]

    def finish(self) -> None:
        if not self.exhausted():
            tok = self.tokens[self.pos]
            self._fail("E_ARITY", f"unexpected trailing token '{tok.text}'", tok)


def _parse_statement(c: _Cursor, warn) -> Statement:
    """Read the tokens after the keyword as its class's ``syntax`` declares."""
    keyword = c.keyword
    if keyword.text not in STATEMENTS:
        c._fail("E_KEYWORD", f"unknown statement keyword '{keyword.text}'", keyword)
    cls, fixed = STATEMENTS[keyword.text]
    fields = dict(fixed)
    for spec in cls.syntax:
        if isinstance(spec, str):
            c.take_literal(spec)
            continue
        form, name, reader, what = spec
        if form == POS:
            tok = c.take(what)
        elif form == KEY:
            tok = c.take_kv(name)
        else:
            tok = c.opt_kv(name)
            if tok is None:
                if form == DEFAULTED:
                    warn(Diagnostic("warning", c.line, keyword.column, "W_DEFAULT_BAND",
                                    f"{keyword.text} without band= defaults to both bands"))
                continue
        if isinstance(reader, dict):
            fields[name] = c.choice(tok, reader, what)
        elif reader == VALUE:
            fields[name] = c.value(tok, what)
        elif reader == NUMBER:
            fields[name] = c.number(tok, what)
        elif reader == ID:
            try:
                fields[name] = int(tok.text)
            except ValueError:
                c._fail("E_NUMBER", f"source id must be an integer, got '{tok.text}'", tok)
        else:  # READ or WRITE, bare or after its key
            fields[name] = c.path(tok, what)
    c.finish()
    return cls(c.span(), **fields)


def parse(text: str) -> ParseResult:
    """Parse circuit text; on any error the result carries no AST."""
    diagnostics: list[Diagnostic] = []
    statements: list[Statement] = []
    detect_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [
            _Token(m.group(), lineno, m.start() + 1) for m in _TOKEN_RE.finditer(line)
        ]
        if not tokens:
            continue
        cursor = _Cursor(tokens, lineno)
        cursor.pos = 1
        try:
            stmt = _parse_statement(cursor, diagnostics.append)
            if isinstance(stmt, DetectStmt) and detect_seen:
                cursor._fail("E_MULTI_DETECT", "more than one detect statement", tokens[0])
            detect_seen = detect_seen or isinstance(stmt, DetectStmt)
        except _StatementError as exc:
            diagnostics.append(exc.diag)
            continue
        statements.append(stmt)
    errors = [d for d in diagnostics if d.severity == "error"]
    ast = None if errors else CircuitAst(tuple(statements))
    return ParseResult(ast, tuple(diagnostics))


def pretty(ast: CircuitAst) -> str:
    """Canonical text form; parsing it back yields an equal AST."""
    return "\n".join(stmt.pretty() for stmt in ast.statements) + "\n"
