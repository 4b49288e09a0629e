"""README's printed examples, run and compared line by line.

Every ``$ qiup ...`` command in a README code block runs, in README order,
through :func:`qiup.cli.main` in a temporary directory that holds
``circuits/fig1.qiup`` and the ``data.csv`` that the README describes.  The
lines after a command, up to the next command or the end of its block, must
be what it prints: its stdout, then its stderr.  The Python blocks run in one
namespace, and each ``# `` comment line in them is the next printed line,
without its ``  -> ...`` annotation.

Lines compare as text with the numbers taken out: the text must be equal and
each number within 1e-9 relative.  A README number that ends in ``...`` is a
prefix of the printed digits.  The fields that the README calls rounding
level are compared as the tests and the benchmark compare them: every number
also passes within 1e-12 absolute, which covers the ``evolution`` lines of
``verify`` and an exact fit's rss.  The elapsed time of ``verify`` is not
compared, and a rejected fit's gamma, whose refinement stops some 1e-8 from
its minimum, only within 1e-6.
"""
import math
import re
import shlex
import shutil

import numpy as np
import pytest

from conftest import CIRCUITS_DIR, REPO_ROOT
from qiup import cli
from qiup.estimation import format_counts_csv
from qiup.observables import FringeScan
from qiup.reference import nh_closed, nv_closed

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
#: A number not inside a name (the 1 of ``beta1``), with an optional ``...``.
NUMBER = re.compile(r"(?<![\w.])[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?(?:\.\.\.)?")
ELAPSED = re.compile(r" in \S+ s$")


def readme_commands() -> list[tuple[list[str], list[str]]]:
    """(argv, expected lines) of every ``$`` command, in README order."""
    commands = []
    for language, body in BLOCKS:
        if language == "python":
            continue
        expected = None  # a block's lines before its first command are no output
        for line in body.replace("\\\n", " ").splitlines():
            if line.startswith("$ "):
                expected = []
                commands.append((shlex.split(line[2:]), expected))
            elif expected is not None and line:
                expected.append(line)
    return commands


def assert_lines_match(printed: list[str], expected: list[str], what: str) -> None:
    assert len(printed) == len(expected), f"{what}: printed {printed}, README {expected}"
    for got, want in zip(printed, expected):
        got, want = ELAPSED.sub(" in <elapsed> s", got), ELAPSED.sub(" in <elapsed> s", want)
        message = f"{what}: printed {got!r}, README {want!r}"
        texts = NUMBER.split(want)
        assert NUMBER.split(got) == texts, message
        rejected_fit = want.endswith("model_rejected=true")
        for text, g, w in zip(texts, NUMBER.findall(got), NUMBER.findall(want)):
            if w.endswith("..."):
                assert g.startswith(w[:-3]), message
                continue
            rel = 1e-6 if rejected_fit and text.endswith("gamma=") else 1e-9
            assert math.isclose(float(g), float(w), rel_tol=rel, abs_tol=1e-12), message


def test_command_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QIUP_SEED", raising=False)
    (tmp_path / "circuits").mkdir()
    shutil.copy(CIRCUITS_DIR / "fig1.qiup", tmp_path / "circuits")
    # "data.csv holds 64 noiseless points of that model at beta1 = 0.6, gamma = 1"
    phis = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    counts = np.array([nh_closed(0.6, 1.0, phis), nv_closed(0.6, 1.0, phis)])
    (tmp_path / "data.csv").write_text(format_counts_csv(FringeScan._of(phis, counts, "o'", "phi")))

    commands = readme_commands()
    assert [argv[:2] for argv, _ in commands] == [
        ["qiup", name] for name in ("run", "scan", "fit", "scan", "fit", "check", "verify")
    ]
    for argv, expected in commands:
        cli.main(argv[1:])
        captured = capsys.readouterr()
        printed = captured.out.splitlines() + captured.err.splitlines()
        assert_lines_match(printed, expected, shlex.join(argv))


def test_library_examples(capsys):
    bodies = [body for language, body in BLOCKS if language == "python"]
    assert len(bodies) == 2
    namespace: dict = {}
    for k, body in enumerate(bodies):
        exec(compile(body, f"README.md python block {k + 1}", "exec"), namespace)
        expected = [line[2:].split("  -> ")[0] for line in body.splitlines()
                    if line.startswith("# ")]
        assert_lines_match(capsys.readouterr().out.splitlines(), expected,
                           f"python block {k + 1}")


@pytest.mark.parametrize("printed,readme,matches", [
    ("value=0.6398930004", "value=0.639893...", True),
    ("value=0.6398940004", "value=0.639893...", False),
    ("rss=4.2e-31 converged=true", "rss=5.36e-31 converged=true", True),
    ("beta1=0.6000001", "beta1=0.6", False),
    ("count grid: 5632 points in 0.03 s", "count grid: 5632 points in 0.01 s", True),
    ("count grid: 5631 points in 0.01 s", "count grid: 5632 points in 0.01 s", False),
    ("beta1=1 gamma=1.4992035 model_rejected=true",
     "beta1=1 gamma=1.49920314983 model_rejected=true", True),
    ("beta1=1 gamma=1.4992035 converged=true", "beta1=1 gamma=1.49920314983 converged=true",
     False),
    ("n_h=0.125 n_v=1.125", "n_h=0.125 n_w=1.125", False),
])
def test_line_comparison(printed, readme, matches):
    if matches:
        assert_lines_match([printed], [readme], "case")
    else:
        with pytest.raises(AssertionError):
            assert_lines_match([printed], [readme], "case")
