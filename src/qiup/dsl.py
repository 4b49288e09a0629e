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

from .elements import WavePlateKind
from .modes import Band, Polarization

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


@dataclass(frozen=True)
class Statement:
    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class SourceStmt(Statement):
    source_id: int = 0
    signal: str = ""
    idler: str = ""
    pol: Polarization = Polarization.V
    phase: float | None = None  # degrees

    def pretty(self) -> str:
        out = (
            f"source {self.source_id} signal={self.signal} "
            f"idler={self.idler} pol={self.pol}"
        )
        if self.phase is not None:
            out += f" phase={self.phase:.17g}"
        return out


@dataclass(frozen=True)
class PrepareStmt(Statement):
    path: str = ""
    band: Band = Band.IDLER
    alpha: Value = 0.0
    beta: Value = 1.0
    gamma: Value = 0.0  # degrees when literal

    def pretty(self) -> str:
        return (
            f"prepare {self.path} {self.band} alpha={_fmt_value(self.alpha)} "
            f"beta={_fmt_value(self.beta)} gamma={_fmt_value(self.gamma)}"
        )


@dataclass(frozen=True)
class WavePlateStmt(Statement):
    kind: WavePlateKind = WavePlateKind.HWP
    path: str = ""
    angle: Value = 0.0  # degrees when literal
    band: Band | None = None  # None = both bands

    def pretty(self) -> str:
        band = "both" if self.band is None else str(self.band)
        return f"{self.kind.value} {self.path} angle={_fmt_value(self.angle)} band={band}"


@dataclass(frozen=True)
class BsStmt(Statement):
    in_path: str = ""
    out_t: str = ""
    out_r: str = ""

    def pretty(self) -> str:
        return f"bs {self.in_path} -> {self.out_t} {self.out_r}"


@dataclass(frozen=True)
class Bs2Stmt(Statement):
    in_a: str = ""
    in_b: str = ""
    out_a: str = ""
    out_b: str = ""

    def pretty(self) -> str:
        return f"bs2 {self.in_a} {self.in_b} -> {self.out_a} {self.out_b}"


@dataclass(frozen=True)
class DmStmt(Statement):
    in_path: str = ""
    signal_out: str = ""
    idler_out: str = ""

    def pretty(self) -> str:
        return f"dm {self.in_path} -> signal: {self.signal_out} idler: {self.idler_out}"


@dataclass(frozen=True)
class PhaseStmt(Statement):
    path: str = ""
    value: Value = 0.0  # degrees when literal
    band: Band | None = None

    def pretty(self) -> str:
        band = "both" if self.band is None else str(self.band)
        return f"phase {self.path} value={_fmt_value(self.value)} band={band}"


@dataclass(frozen=True)
class MergeStmt(Statement):
    path: str = ""
    pol: Polarization = Polarization.V
    band: Band = Band.IDLER

    def pretty(self) -> str:
        return f"merge {self.path} {self.pol} {self.band}"


@dataclass(frozen=True)
class DetectStmt(Statement):
    path: str = ""
    band: Band = Band.SIGNAL

    def pretty(self) -> str:
        return f"detect {self.path} {self.band}"


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

    def take_path(self, what: str = "a path identifier") -> str:
        tok = self.take(what)
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


def _parse_source(c: _Cursor) -> SourceStmt:
    id_tok = c.take("a source id")
    try:
        source_id = int(id_tok.text)
    except ValueError:
        c._fail("E_NUMBER", f"source id must be an integer, got '{id_tok.text}'", id_tok)
    signal = c.take_kv("signal").text
    idler = c.take_kv("idler").text
    pol_tok = c.take_kv("pol")
    pol = c.choice(pol_tok, POL_WORDS, "a polarization")
    phase = None
    phase_tok = c.opt_kv("phase")
    if phase_tok is not None:
        phase = c.number(phase_tok, "phase")
    c.finish()
    return SourceStmt(c.span(), source_id, signal, idler, pol, phase)


def _parse_prepare(c: _Cursor) -> PrepareStmt:
    path = c.take_path()
    band = c.choice(c.take("a band"), BAND_WORDS, "a band")
    alpha_tok = c.take_kv("alpha")
    beta_tok = c.take_kv("beta")
    gamma_tok = c.take_kv("gamma")
    stmt = PrepareStmt(
        c.span(),
        path,
        band,
        c.value(alpha_tok, "alpha"),
        c.value(beta_tok, "beta"),
        c.value(gamma_tok, "gamma"),
    )
    c.finish()
    return stmt


def _optional_band(c: _Cursor, keyword: str, warn) -> Band | None:
    """An optional ``band=``; without one, warn that ``keyword`` acts on both
    bands and return None."""
    band_tok = c.opt_kv("band")
    if band_tok is not None:
        return c.choice(band_tok, BAND_OR_BOTH, "a band")
    warn(Diagnostic("warning", c.line, c.keyword.column, "W_DEFAULT_BAND",
                    f"{keyword} without band= defaults to both bands"))
    return None


def _parse_waveplate(c: _Cursor, kind: WavePlateKind, warn) -> WavePlateStmt:
    path = c.take_path()
    angle_tok = c.take_kv("angle")
    angle = c.value(angle_tok, "angle")
    band = _optional_band(c, kind.value, warn)
    c.finish()
    return WavePlateStmt(c.span(), kind, path, angle, band)


def _parse_bs(c: _Cursor) -> BsStmt:
    in_path = c.take_path()
    c.take_literal("->")
    out_t = c.take_path("a transmitted output path")
    out_r = c.take_path("a reflected output path")
    c.finish()
    return BsStmt(c.span(), in_path, out_t, out_r)


def _parse_bs2(c: _Cursor) -> Bs2Stmt:
    in_a = c.take_path()
    in_b = c.take_path("a second input path")
    c.take_literal("->")
    out_a = c.take_path("an output path")
    out_b = c.take_path("a second output path")
    c.finish()
    return Bs2Stmt(c.span(), in_a, in_b, out_a, out_b)


def _parse_dm(c: _Cursor) -> DmStmt:
    in_path = c.take_path()
    c.take_literal("->")
    c.take_literal("signal:")
    signal_out = c.take_path("the signal output path")
    c.take_literal("idler:")
    idler_out = c.take_path("the idler output path")
    c.finish()
    return DmStmt(c.span(), in_path, signal_out, idler_out)


def _parse_phase(c: _Cursor, warn) -> PhaseStmt:
    path = c.take_path()
    value_tok = c.take_kv("value")
    value = c.value(value_tok, "value")
    band = _optional_band(c, "phase", warn)
    c.finish()
    return PhaseStmt(c.span(), path, value, band)


def _parse_merge(c: _Cursor) -> MergeStmt:
    path = c.take_path()
    pol = c.choice(c.take("a polarization"), POL_WORDS, "a polarization")
    band = c.choice(c.take("a band"), BAND_WORDS, "a band")
    c.finish()
    return MergeStmt(c.span(), path, pol, band)


def _parse_detect(c: _Cursor) -> DetectStmt:
    path = c.take_path()
    band = c.choice(c.take("a band"), BAND_WORDS, "a band")
    c.finish()
    return DetectStmt(c.span(), path, band)


def parse(text: str) -> ParseResult:
    """Parse circuit text; on any error the result carries no AST."""
    diagnostics: list[Diagnostic] = []
    statements: list[Statement] = []
    detect_seen: Statement | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [
            _Token(m.group(), lineno, m.start() + 1) for m in _TOKEN_RE.finditer(line)
        ]
        if not tokens:
            continue
        cursor = _Cursor(tokens, lineno)
        cursor.pos = 1
        keyword = tokens[0].text
        try:
            if keyword == "source":
                stmt: Statement = _parse_source(cursor)
            elif keyword == "prepare":
                stmt = _parse_prepare(cursor)
            elif keyword in ("hwp", "qwp"):
                stmt = _parse_waveplate(
                    cursor, WavePlateKind(keyword), diagnostics.append
                )
            elif keyword == "bs":
                stmt = _parse_bs(cursor)
            elif keyword == "bs2":
                stmt = _parse_bs2(cursor)
            elif keyword == "dm":
                stmt = _parse_dm(cursor)
            elif keyword == "phase":
                stmt = _parse_phase(cursor, diagnostics.append)
            elif keyword == "merge":
                stmt = _parse_merge(cursor)
            elif keyword == "detect":
                stmt = _parse_detect(cursor)
                if detect_seen is not None:
                    raise _StatementError(
                        Diagnostic(
                            "error",
                            lineno,
                            tokens[0].column,
                            "E_MULTI_DETECT",
                            "more than one detect statement",
                        )
                    )
                detect_seen = stmt
            else:
                raise _StatementError(
                    Diagnostic(
                        "error",
                        lineno,
                        tokens[0].column,
                        "E_KEYWORD",
                        f"unknown statement keyword '{keyword}'",
                    )
                )
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
