import ast
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CIRCUITS_DIR, REPO_ROOT
from qiup import dsl
from qiup.dsl import ParamRef, PhaseStmt, WavePlateStmt
from qiup.elements import WavePlateKind
from qiup.modes import Band, Polarization

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


@pytest.mark.parametrize("key, value, what", [("idler", "->", "an idler path identifier"),
                                              ("signal", "a=b", "a signal path identifier")])
def test_source_path_is_a_path_identifier(key, value, what):
    # the rule of every other path: no '->' and no '=', reported at the value
    paths = {"signal": "s", "idler": "i", key: value}
    text = f"source 1 signal={paths['signal']} idler={paths['idler']} pol=V\ndetect s signal\n"
    result = dsl.parse(text)
    assert not result.ok
    (diag,) = result.errors()
    assert diag.code == "E_ARITY"
    assert diag.message == f"expected {what}, got '{value}'"
    assert (diag.line, diag.column) == (1, text.index(f"{key}=") + len(key) + 2)


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


def test_value_fields_follow_syntax():
    # VALUE and ANGLE fields, in syntax order, each with whether it is an angle
    assert dsl.PrepareStmt.value_fields == (("alpha", False), ("beta", False), ("gamma", True))
    assert WavePlateStmt.value_fields == (("angle", True),)
    assert PhaseStmt.value_fields == (("value", True),)
    others = {cls for cls, _ in dsl.STATEMENTS.values()} - {
        dsl.PrepareStmt, WavePlateStmt, PhaseStmt}
    assert len(others) == 6 and all(cls.value_fields == () for cls in others)


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


# --- properties over every statement kind --------------------------------

_PATHS = st.from_regex(r"[a-z][a-z0-9_']{0,3}", fullmatch=True)
_NUMBERS = st.floats(allow_nan=False, allow_infinity=False)
_VALUES = _NUMBERS | st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True).map(ParamRef)
_BANDS = st.sampled_from(list(Band))
_BAND_OR_BOTH = st.none() | _BANDS
_POLS = st.sampled_from(list(Polarization))
_SPAN = dsl.Span(1, 1, 1)

_STATEMENTS = st.one_of(
    st.builds(dsl.SourceStmt, st.just(_SPAN), st.integers(-10**6, 10**6), _PATHS, _PATHS,
              _POLS, st.none() | _NUMBERS),
    st.builds(dsl.PrepareStmt, st.just(_SPAN), _PATHS, _BANDS, _VALUES, _VALUES, _VALUES),
    st.builds(WavePlateStmt, st.just(_SPAN), st.sampled_from(list(WavePlateKind)), _PATHS,
              _VALUES, _BAND_OR_BOTH),
    st.builds(dsl.BsStmt, st.just(_SPAN), _PATHS, _PATHS, _PATHS),
    st.builds(dsl.Bs2Stmt, st.just(_SPAN), _PATHS, _PATHS, _PATHS, _PATHS),
    st.builds(dsl.DmStmt, st.just(_SPAN), _PATHS, _PATHS, _PATHS),
    st.builds(PhaseStmt, st.just(_SPAN), _PATHS, _VALUES, _BAND_OR_BOTH),
    st.builds(dsl.MergeStmt, st.just(_SPAN), _PATHS, _POLS, _BANDS),
    st.builds(dsl.DetectStmt, st.just(_SPAN), _PATHS, _BANDS),
)


@settings(max_examples=300)
@given(_STATEMENTS)
def test_every_statement_kind_round_trips(stmt):
    printed = stmt.pretty()
    result = dsl.parse(printed + "\n")
    assert result.ok, result.diagnostics
    (back,) = result.ast.statements
    assert type(back) is type(stmt)
    assert back == stmt
    assert back.pretty() == printed
    assert back.span == dsl.Span(1, 1, len(printed) + 1)


# Fig1's lines, mutated a token at a time.  The replacement tokens mix every
# keyword, literal and key of the grammar with malformed forms of each.
_FIG1_LINES = [
    line for line in (CIRCUITS_DIR / "fig1.qiup").read_text().splitlines()
    if line and not line.startswith("#")
]
_VOCABULARY = [
    "source", "prepare", "hwp", "qwp", "bs", "bs2", "dm", "phase", "merge", "detect",
    "->", "signal:", "idler:", "signal", "idler", "both", "H", "V", "Q", "1", "3", "x",
    "a", "e'", "signal=a", "idler=", "pol=V", "pol=Q", "phase=10", "phase=nan",
    "alpha=$a", "alpha=x", "beta=1", "gamma=0", "angle=45", "angle=$9bad", "value=$phi",
    "value=inf", "band=both", "band=idler", "band=up", "$phi", "1e400", "-0",
]


@st.composite
def _mutated_fig1(draw):
    lines = [line.split() for line in _FIG1_LINES]
    for _ in range(draw(st.integers(1, 4))):
        tokens = lines[draw(st.integers(0, len(lines) - 1))]
        op = draw(st.sampled_from(["delete", "replace", "insert"]))
        if op == "insert":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_VOCABULARY)))
        elif tokens:
            i = draw(st.integers(0, len(tokens) - 1))
            if op == "delete":
                del tokens[i]
            else:
                tokens[i] = draw(st.sampled_from(_VOCABULARY))
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@settings(max_examples=400)
@given(_mutated_fig1())
def test_mutated_text_parses_to_diagnostics(text):
    lines = text.splitlines()
    result = dsl.parse(text)
    errors = result.errors()
    error_lines = [d.line for d in errors]
    assert len(error_lines) == len(set(error_lines))
    for diag in result.diagnostics:
        assert 1 <= diag.line <= len(lines)
        assert 1 <= diag.column <= len(lines[diag.line - 1]) + 1
    assert result.ok == (not errors)


def test_leftmost_fault_of_a_line_is_reported():
    result = dsl.parse("prepare a idler alpha=x beta=1\n")
    (diag,) = result.errors()
    assert (diag.line, diag.column, diag.code) == (1, 23, "E_NUMBER")


# --- every parser branch, pinned by its full diagnostic text --------------

_BRANCHES = [
    ("keyword", "polerizer x angle=3",
     ["1:1: error[E_KEYWORD]: unknown statement keyword 'polerizer'"]),
    ("keyword-alone", "detect",
     ["1:7: error[E_ARITY]: expected a path identifier after 'detect'"]),
    ("missing-positional", "bs r -> e",
     ["1:10: error[E_ARITY]: expected a reflected output path after 'e'"]),
    ("missing-literal", "bs r",
     ["1:5: error[E_ARITY]: expected '->' after 'r'"]),
    ("wrong-literal", "bs r e f",
     ["1:6: error[E_ARITY]: expected '->', got 'e'"]),
    ("wrong-colon-literal", "dm a -> signal: b idler r",
     ["1:19: error[E_ARITY]: expected 'idler:', got 'idler'"]),
    ("missing-key", "prepare a idler alpha=0 beta=1",
     ["1:31: error[E_ARITY]: expected 'gamma=...' after 'beta=1'"]),
    ("missing-first-key", "prepare a idler",
     ["1:16: error[E_ARITY]: expected 'alpha=...' after 'idler'"]),
    ("wrong-key", "prepare a idler alpha=0 gamma=0 beta=1",
     ["1:25: error[E_ARITY]: expected 'beta=...', got 'gamma=0'"]),
    ("path-with-equals", "bs r=1 -> e f",
     ["1:4: error[E_ARITY]: expected a path identifier, got 'r=1'"]),
    ("path-is-arrow", "detect -> signal",
     ["1:8: error[E_ARITY]: expected a path identifier, got '->'"]),
    ("key-path-with-equals", "source 1 signal=a=b idler=c pol=V",
     ["1:17: error[E_ARITY]: expected a signal path identifier, got 'a=b'"]),
    ("trailing-token", "bs r -> e f g",
     ["1:13: error[E_ARITY]: unexpected trailing token 'g'"]),
    ("empty-key", "source 1 signal= idler=a pol=V",
     ["1:10: error[E_VALUE]: empty value for 'signal='"]),
    ("empty-optional-key", "source 1 signal=a idler=b pol=V phase=",
     ["1:33: error[E_VALUE]: empty value for 'phase='"]),
    ("empty-band", "hwp f angle=45 band=",
     ["1:16: error[E_VALUE]: empty value for 'band='"]),
    ("word-outside-table", "merge r Q idler",
     ["1:9: error[E_VALUE]: expected a polarization (H|V), got 'Q'"]),
    ("key-word-outside-table", "hwp f angle=45 band=up",
     ["1:21: error[E_VALUE]: expected a band (signal|idler|both), got 'up'"]),
    ("malformed-number", "phase r value=abc band=signal",
     ["1:15: error[E_NUMBER]: malformed number for value: 'abc'"]),
    ("nan-literal", "phase r value=nan band=signal",
     ["1:15: error[E_NUMBER]: malformed number for value: 'nan'"]),
    ("inf-literal", "hwp f angle=inf band=both",
     ["1:13: error[E_NUMBER]: malformed number for angle: 'inf'"]),
    ("overflowing-literal", "phase r value=1e400 band=signal",
     ["1:15: error[E_NUMBER]: malformed number for value: '1e400'"]),
    ("optional-number", "source 1 signal=a idler=b pol=V phase=-inf",
     ["1:39: error[E_NUMBER]: malformed number for phase: '-inf'"]),
    ("reference-in-a-number", "source 1 signal=a idler=b pol=V phase=$x",
     ["1:39: error[E_NUMBER]: malformed number for phase: '$x'"]),
    ("malformed-reference", "phase r value=$9bad band=signal",
     ["1:15: error[E_NUMBER]: malformed parameter reference '$9bad'"]),
    ("source-id-word", "source x signal=a idler=b pol=V",
     ["1:8: error[E_NUMBER]: source id must be an integer, got 'x'"]),
    ("source-id-fraction", "source 1.5 signal=a idler=b pol=V",
     ["1:8: error[E_NUMBER]: source id must be an integer, got '1.5'"]),
    ("default-band", "hwp f angle=45",
     ["1:1: warning[W_DEFAULT_BAND]: hwp without band= defaults to both bands"]),
    ("default-band-then-error", "hwp f angle=45 extra",
     ["1:1: warning[W_DEFAULT_BAND]: hwp without band= defaults to both bands",
      "1:16: error[E_ARITY]: unexpected trailing token 'extra'"]),
    ("multi-detect", "detect a signal\ndetect b signal",
     ["2:1: error[E_MULTI_DETECT]: more than one detect statement"]),
    ("second-detect-own-error", "detect a signal\ndetect b up",
     ["2:10: error[E_VALUE]: expected a band (signal|idler), got 'up'"]),
    ("failed-detect-not-counted", "detect a up\ndetect b signal",
     ["1:10: error[E_VALUE]: expected a band (signal|idler), got 'up'"]),
]


@pytest.mark.parametrize("text, expected", [case[1:] for case in _BRANCHES],
                         ids=[case[0] for case in _BRANCHES])
def test_every_parser_branch_message(text, expected):
    result = dsl.parse(text + "\n")
    assert [str(diag) for diag in result.diagnostics] == expected
    assert result.ok == all(" warning[" in line for line in expected)


@pytest.mark.parametrize("module", ["dsl", "modes"])
def test_front_end_imports_only_the_standard_library(module):
    """``qiup check`` parses and validates with no numpy: the parser and
    the mode labels it reads import nothing else of qiup, nor any
    third-party package."""
    tree = ast.parse((REPO_ROOT / "src" / "qiup" / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert (node.level, node.module) == (1, "modes"), ast.unparse(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, ast.unparse(node)
