from pathlib import Path

import pytest

from conftest import CIRCUITS_DIR
from qiup import dsl
from qiup.dsl import ParamRef, PhaseStmt, WavePlateStmt
from qiup.modes import Band

POSITIVE_FILES = sorted(CIRCUITS_DIR.glob("*.qiup"))
NEGATIVE_FILES = sorted((CIRCUITS_DIR / "negative").glob("*.qiup"))


def test_corpus_exists():
    assert any(f.name == "fig1.qiup" for f in POSITIVE_FILES)
    assert len(NEGATIVE_FILES) >= 10


def test_fig1_parses_clean():
    result = dsl.parse((CIRCUITS_DIR / "fig1.qiup").read_text())
    assert result.ok
    assert not result.diagnostics
    kinds = [type(s).__name__ for s in result.ast.statements]
    assert kinds.count("SourceStmt") == 2
    assert kinds.count("DetectStmt") == 1


def test_missing_band_defaults_with_warning():
    for line, stmt_type in (("hwp f angle=45", WavePlateStmt),
                            ("qwp f angle=45", WavePlateStmt),
                            ("phase f value=45", PhaseStmt)):
        result = dsl.parse(line + "\n")
        assert result.ok
        (diag,) = result.diagnostics
        assert diag.code == "W_DEFAULT_BAND"
        keyword = line.split()[0]
        assert diag.message == f"{keyword} without band= defaults to both bands"
        stmt = result.ast.statements[0]
        assert isinstance(stmt, stmt_type)
        assert stmt.band is None
        # literal angles stay in degrees inside the AST
        assert (stmt.angle if stmt_type is WavePlateStmt else stmt.value) == 45.0


def test_explicit_band_no_warning():
    result = dsl.parse("qwp f angle=45 band=idler\n")
    assert result.ok and not result.diagnostics
    assert result.ast.statements[0].band is Band.IDLER


def test_one_output_bs_is_arity_error():
    result = dsl.parse("bs r -> e\n")
    assert not result.ok
    (diag,) = result.errors()
    assert diag.code == "E_ARITY"
    assert (diag.line, diag.column) == (1, 10)


def test_unknown_keyword():
    result = dsl.parse("polerizer x angle=3\n")
    (diag,) = result.errors()
    assert diag.code == "E_KEYWORD"
    assert diag.column == 1


def test_malformed_number():
    result = dsl.parse("phase r value=abc band=signal\n")
    (diag,) = result.errors()
    assert diag.code == "E_NUMBER"


def test_malformed_param_ref():
    result = dsl.parse("phase r value=$9bad band=signal\n")
    (diag,) = result.errors()
    assert diag.code == "E_NUMBER"


def test_duplicate_detect_at_parse():
    result = dsl.parse("detect a signal\ndetect b signal\n")
    (diag,) = result.errors()
    assert diag.code == "E_MULTI_DETECT"
    assert diag.line == 2


def test_param_refs_parse():
    result = dsl.parse("phase r value=$phi band=signal\n")
    assert result.ok
    assert result.ast.statements[0].value == ParamRef("phi")


def test_comments_and_blank_lines_ignored():
    result = dsl.parse("\n# a comment\n   \ndetect a signal  # trailing\n")
    assert result.ok
    assert len(result.ast.statements) == 1


@pytest.mark.parametrize("path", POSITIVE_FILES, ids=lambda p: p.name)
def test_pretty_roundtrip(path: Path):
    first = dsl.parse(path.read_text())
    assert first.ok
    printed = dsl.pretty(first.ast)
    second = dsl.parse(printed)
    assert second.ok
    assert second.ast == first.ast
    assert dsl.pretty(second.ast) == printed


@pytest.mark.parametrize("path", NEGATIVE_FILES, ids=lambda p: p.name)
def test_diagnostic_spans_inside_text(path: Path):
    text = path.read_text()
    lines = text.splitlines()
    result = dsl.parse(text)
    for diag in result.diagnostics:
        assert 1 <= diag.line <= len(lines)
        assert 1 <= diag.column <= len(lines[diag.line - 1]) + 2


def test_statement_spans_recorded():
    result = dsl.parse("# lead\nsource 1 signal=a idler=a pol=V\ndetect a signal\n")
    spans = [s.span for s in result.ast.statements]
    assert spans[0].line == 2 and spans[0].column == 1
    assert spans[1].line == 3
    assert spans[0].end_column == len("source 1 signal=a idler=a pol=V") + 1


def test_numeric_literal_forms():
    result = dsl.parse("hwp f angle=-22.5 band=both\nqwp g angle=1e1 band=idler\n")
    assert result.ok
    assert result.ast.statements[0].angle == -22.5
    assert result.ast.statements[1].angle == 10.0


def test_empty_key_value():
    result = dsl.parse("source 1 signal= idler=a pol=V\n")
    (diag,) = result.errors()
    assert diag.code == "E_VALUE"
