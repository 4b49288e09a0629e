import ast
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import CIRCUITS_DIR, REPO_ROOT
from engine_helpers import record_runs
from qiup import cli
from qiup.estimation import fit, format_counts_csv, read_counts_csv, simulate_measurement
from qiup.observables import CountResult, FringeScan, fringe_scan
from qiup.plan import fig1_preset, run_plan
from qiup.reference import nh_closed, nv_closed

FIG1 = str(CIRCUITS_DIR / "fig1.qiup")

REGIME = [
    "--param", "alpha1=0", "--param", "beta1=1", "--param", "gamma=0",
    "--param", "alpha2=0", "--param", "beta2=1",
    "--param", f"theta={math.pi / 4}",
]


def oracle_csv(tmp_path, beta1=0.6, gamma=1.0, points=64, shots=None, seed=0):
    """Reference-model data: expectations, or Poisson counts with ``shots``."""
    phis = np.linspace(0.0, 2 * math.pi, points, endpoint=False)
    records = tuple(
        CountResult(float(nh_closed(beta1, gamma, p)), float(nv_closed(beta1, gamma, p)))
        for p in phis
    )
    scan = FringeScan(tuple(float(p) for p in phis), records, "o'")
    path = tmp_path / "data.csv"
    if shots is None:
        path.write_text(format_counts_csv(scan))
    else:
        path.write_text(format_counts_csv(simulate_measurement(scan, shots, seed)))
    return path


class TestCheck:
    def test_clean_file(self, capsys):
        assert cli.main(["check", FIG1]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_error_file_reports_position(self, capsys):
        bad = str(CIRCUITS_DIR / "negative" / "bad_arity_bs.qiup")
        assert cli.main(["check", bad]) == 1
        out = capsys.readouterr().out
        assert "3:10" in out and "E_ARITY" in out

    def test_missing_file(self, capsys):
        assert cli.main(["check", "no/such/file.qiup"]) == 2

    def test_distinguishable_mzi_is_clean(self, capsys):
        path = str(CIRCUITS_DIR / "distinguishable_mzi.qiup")
        assert cli.main(["check", path]) == 0
        assert capsys.readouterr().out == "0 error(s), 0 warning(s)\n"

    def test_default_band_warns_and_exits_0(self, tmp_path, capsys):
        path = tmp_path / "plate.qiup"
        path.write_text("source 1 signal=a idler=a pol=V\nhwp a angle=45\ndetect a signal\n")
        assert cli.main(["check", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{path}:2:1: warning[W_DEFAULT_BAND]: hwp without band= defaults to both bands",
            "0 error(s), 1 warning(s)",
        ]

    @pytest.mark.parametrize("line,ends", [
        ("bs r -> e e", "outputs"), ("bs2 e e -> x y", "inputs"), ("bs2 e f -> x x", "outputs"),
    ])
    def test_aliased_splitter_paths_exit_1(self, line, ends, tmp_path, capsys):
        path = tmp_path / "alias.qiup"
        path.write_text(f"source 1 signal=e idler=f pol=V\nsource 2 signal=r idler=r pol=V\n"
                        f"{line}\ndetect x signal\n")
        assert cli.main(["check", str(path)]) == 1
        assert (f"{path}:3:1: error[E_BS_ALIAS]: splitter {ends} must be distinct paths"
                in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("command", ["check", "run", "fit"])
def test_non_utf8_file_exits_2_naming_it(tmp_path, capsys, command):
    # a decode error is a ValueError, which used to map to exit 1
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# caf\xe9\nphi,n_h,n_v\n\xff\n")
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path} is not UTF-8 text" in err


class TestRun:
    def test_preset_pretty_counts(self, capsys):
        code = cli.main(["run", "--preset", "fig1", *REGIME, "--param", "phi=0"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "n_h=0.125 n_v=1.125"

    def test_unbound_parameter(self, capsys):
        code = cli.main(["run", "--preset", "fig1", *REGIME])
        assert code == 1
        assert "phi" in capsys.readouterr().err

    def test_circuit_file_and_csv_format(self, capsys):
        code = cli.main(["run", str(CIRCUITS_DIR / "mini.qiup"), "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n_h,n_v"
        nh, nv = map(float, lines[1].split(","))
        assert (nh, nv) == pytest.approx((0.0, 0.5), abs=1e-12)

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "counts.txt"
        code = cli.main(
            ["run", "--preset", "fig1", *REGIME, "--param", "phi=0", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().strip() == "n_h=0.125 n_v=1.125"

    @pytest.mark.parametrize("param,message", [
        ("phi", "expected name=value, got 'phi'"),
        ("phi=abc", "malformed value in 'phi=abc'"),
    ])
    def test_malformed_param_exits_2(self, param, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--preset", "fig1", "--param", param])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_no_circuit_and_no_preset_exits_1(self, capsys):
        assert cli.main(["run"]) == 1
        assert "give a circuit file or --preset fig1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "scan"])
    def test_out_into_a_missing_directory_exits_2(self, command, tmp_path, capsys):
        out = tmp_path / "missing" / "out.txt"
        code = cli.main([command, "--preset", "fig1", *REGIME, "--param", "phi=0",
                         "--out", str(out)])
        assert code == 2
        assert f"error: cannot write {out}: " in capsys.readouterr().err

    def test_bad_circuit_file_exit1(self, tmp_path, capsys):
        bad = tmp_path / "broken.qiup"
        bad.write_text("bs r -> e\n")
        assert cli.main(["run", str(bad)]) == 1
        assert "E_ARITY" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_phase_exit1(self, value, capsys):
        # NaN amplitudes used to be pruned away, printing n_h=0 n_v=0.5
        code = cli.main(["run", "--preset", "fig1", *REGIME, "--param", f"phi={value}"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"parameter values must be finite: phi={float(value)!r}" in captured.err

    def test_nonfinite_amplitude_exit1(self, capsys):
        # used to print n_h=0.121389 n_v=0.585507
        code = cli.main(
            ["run", "--preset", "fig1", "--param", "alpha1=nan", "--param", "beta1=0.8",
             "--param", "gamma=0", "--param", "alpha2=0", "--param", "beta2=1",
             "--param", "theta=0.7", "--param", "phi=0"]
        )
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "parameter values must be finite: alpha1=nan" in captured.err


class TestScan:
    def test_phi_sweep_visibility(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = cli.main(
            ["scan", "--preset", "fig1", *REGIME, "--points", "64", "--out", str(out)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "visibility=0.8" in err and "phi_at_max=0" in err
        lines = out.read_text().splitlines()
        assert lines[0] == "phi,n_h,n_v"
        assert len(lines) == 65

    def test_no_merge_kills_visibility(self, capsys):
        code = cli.main(
            ["scan", "--preset", "fig1", *REGIME, "--points", "32", "--no-merge",
             "--out", "/dev/null"]
        )
        assert code == 0
        err = capsys.readouterr().err
        vis = float(err.split("visibility=")[1].split()[0])
        assert vis < 1e-9

    @pytest.mark.parametrize("pol", ["H", "V"])
    def test_distinguishable_sources_do_not_fringe(self, pol, tmp_path, capsys):
        # the paper's no-go: source 1 emitting H leaves no phi fringe; its
        # pol=V twin, the same network, fringes
        path = tmp_path / "mzi.qiup"
        text = (CIRCUITS_DIR / "distinguishable_mzi.qiup").read_text()
        path.write_text(text.replace("pol=H", f"pol={pol}"))
        code = cli.main(["scan", str(path), "--param", "theta=0.4",
                         "--out", str(tmp_path / "scan.csv")])
        assert code == 0
        vis = float(capsys.readouterr().err.split("visibility=")[1].split()[0])
        if pol == "H":
            assert vis <= 1e-12
        else:
            assert vis == pytest.approx(0.2965, abs=1e-4)

    def test_theta_sweep_has_no_visibility_line(self, tmp_path, capsys):
        out = tmp_path / "theta.csv"
        code = cli.main(
            ["scan", "--preset", "fig1",
             "--param", "alpha1=0", "--param", "beta1=1", "--param", "gamma=0",
             "--param", "alpha2=0", "--param", "beta2=1", "--param", "phi=0",
             "--sweep", "theta", "--from", "0", "--to", "1.5", "--points", "10",
             "--out", str(out)]
        )
        assert code == 0
        assert "visibility" not in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 11

    def test_theta_scan_rows_equal_single_runs(self, capsys):
        general = [
            "--param", "alpha1=0.8", "--param", "beta1=0.6", "--param", "gamma=1.1",
            "--param", "alpha2=0.6", "--param", "beta2=0.8", "--param", "phi=0.4",
        ]
        assert cli.main(["scan", "--preset", "fig1", *general,
                         "--sweep", "theta", "--points", "64"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 64
        for row in (rows[5], rows[23], rows[47]):
            theta, n_h, n_v = (float(x) for x in row.split(","))
            assert cli.main(["run", "--preset", "fig1", *general,
                             "--param", f"theta={theta!r}", "--format", "csv"]) == 0
            run_h, run_v = (float(x) for x in capsys.readouterr().out.splitlines()[1].split(","))
            assert n_h == pytest.approx(run_h, abs=1e-12)
            assert n_v == pytest.approx(run_v, abs=1e-12)

    def test_too_few_points(self, capsys):
        assert cli.main(["scan", "--preset", "fig1", "--points", "1"]) == 1

    @pytest.mark.parametrize("bounds", [["--from", "nan"], ["--to", "inf"],
                                        ["--from=-inf", "--to", "0"]])
    def test_nonfinite_range_exit1(self, bounds, capsys):
        # --from nan used to print rows of nan,nan,nan and visibility=nan
        code = cli.main(["scan", "--preset", "fig1", *REGIME, *bounds])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "--from and --to must be finite" in captured.err

    @pytest.mark.parametrize("argv, env, message", [
        (["--shots", "100", "--seed", "-1"], None, "--seed must be a non-negative integer"),
        (["--shots", "100"], "-3", "QIUP_SEED must be a non-negative integer, got '-3'"),
        (["--shots", "100"], "x", "QIUP_SEED must be a non-negative integer, got 'x'"),
        (["--from", "2", "--to", "1"], None, "--to must be greater than --from"),
        (["--from", "1", "--to", "1"], None, "--to must be greater than --from"),
        (["--shots", "0"], None, "--shots must be a positive integer, got 0"),
        (["--shots", "-3"], None, "--shots must be a positive integer, got -3"),
    ], ids=["negative-seed", "negative-env-seed", "non-integer-env-seed",
            "reversed-range", "empty-range", "zero-shots", "negative-shots"])
    def test_bad_option_is_named(self, argv, env, message, monkeypatch, capsys):
        # these used to exit 1 with numpy's or int()'s message, naming no
        # option; a bad --shots used to fail only after the whole scan
        if env is None:
            monkeypatch.delenv("QIUP_SEED", raising=False)
        else:
            monkeypatch.setenv("QIUP_SEED", env)
        calls = record_runs(monkeypatch)
        code = cli.main(["scan", "--preset", "fig1", *REGIME, "--points", "4", *argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and calls == []
        assert message in captured.err

    def test_preparation_sweep_exit1(self, capsys):
        # used to fail inside the run: "alpha^2 + beta^2 must be 1, got 1.0625"
        code = cli.main(["scan", "--preset", "fig1", *REGIME, "--param", "phi=0",
                         "--sweep", "alpha2", "--from", "0", "--to", "1", "--points", "4"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "cannot sweep 'alpha2': only angles sweep" in captured.err

    def test_shots_emit_measurement_csv(self, tmp_path, capsys):
        out = tmp_path / "noisy.csv"
        code = cli.main(
            ["scan", "--preset", "fig1", *REGIME, "--points", "32",
             "--shots", "5000", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        data = read_counts_csv(out.read_text())
        assert data.shots == 5000
        assert len(data.phis) == 32

    def test_default_seed_is_0(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("QIUP_SEED", raising=False)
        args = ["scan", "--preset", "fig1", *REGIME, "--shots", "50"]
        unseeded, seeded = tmp_path / "unseeded.csv", tmp_path / "seeded.csv"
        assert cli.main([*args, "--out", str(unseeded)]) == 0
        assert cli.main([*args, "--seed", "0", "--out", str(seeded)]) == 0
        assert unseeded.read_bytes() == seeded.read_bytes()

    def test_seed_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QIUP_SEED", "77")
        args = ["scan", "--preset", "fig1", *REGIME, "--points", "16",
                "--shots", "1000"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main([*args, "--out", str(a)]) == 0
        assert cli.main([*args, "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
        monkeypatch.setenv("QIUP_SEED", "78")
        c = tmp_path / "c.csv"
        assert cli.main([*args, "--out", str(c)]) == 0
        assert c.read_text() != a.read_text()


GENERAL_PARAMS = {"alpha1": 0.8, "beta1": 0.6, "gamma": 1.1, "alpha2": 0.6, "beta2": 0.8,
                  "phi": 0.4, "theta": 0.3}
RUN_OPTIONS = [
    ([], False, "symmetric"),
    (["--no-merge"], True, "symmetric"),
    (["--bs-convention", "hadamard"], False, "hadamard"),
    (["--no-merge", "--bs-convention", "hadamard"], True, "hadamard"),
]
RUN_OPTION_IDS = ["default", "no-merge", "hadamard", "no-merge-hadamard"]


class TestRunOptions:
    """``--no-merge`` and ``--bs-convention`` each set the loaded plan once."""

    @staticmethod
    def options_plan(no_merge, convention):
        plan = replace(fig1_preset(GENERAL_PARAMS), bs_convention=convention)
        return plan.without_merges() if no_merge else plan

    @staticmethod
    def argv(command):
        params = [f"--param={k}={v!r}" for k, v in GENERAL_PARAMS.items()]
        return [command, "--preset", "fig1", *params]

    @pytest.mark.parametrize("flags, no_merge, convention", RUN_OPTIONS, ids=RUN_OPTION_IDS)
    def test_run_csv_equals_the_plan_transforms(self, flags, no_merge, convention, capsys):
        assert cli.main([*self.argv("run"), "--format", "csv", *flags]) == 0
        got = [float(x) for x in capsys.readouterr().out.splitlines()[1].split(",")]
        plan = self.options_plan(no_merge, convention)
        want = run_plan(plan).counts_at(plan.detect_path, plan.detect_band)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # each flag moves these counts, so a flag left unapplied would show
        default = run_plan(self.options_plan(False, "symmetric"))
        moved = not np.allclose(want, default.counts_at(plan.detect_path, plan.detect_band),
                                rtol=0, atol=1e-3)
        assert moved == bool(flags)

    @pytest.mark.parametrize("flags, no_merge, convention", RUN_OPTIONS, ids=RUN_OPTION_IDS)
    def test_scan_equals_the_plan_transforms(self, flags, no_merge, convention, capsys):
        assert cli.main([*self.argv("scan"), "--points", "16", *flags]) == 0
        rows = [[float(x) for x in line.split(",")]
                for line in capsys.readouterr().out.splitlines()[1:]]
        grid = 2 * math.pi * np.arange(16) / 16
        scan = fringe_scan(self.options_plan(no_merge, convention), "phi", grid)
        np.testing.assert_allclose(
            rows, np.column_stack([grid, scan.column("h"), scan.column("v")]),
            rtol=0, atol=1e-12,
        )


class TestFit:
    def test_noiseless_roundtrip(self, tmp_path, capsys):
        path = oracle_csv(tmp_path, beta1=0.6, gamma=1.0)
        assert cli.main(["fit", str(path)]) == 0
        out = capsys.readouterr().out
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["beta1"]) == pytest.approx(0.6, abs=1e-6)
        assert float(fields["gamma"]) == pytest.approx(1.0, abs=1e-6)
        assert float(fields["alpha1"]) == pytest.approx(0.8, abs=1e-6)
        assert fields["converged"] == "true"
        assert "model_rejected" not in fields

    def test_malformed_csv_exit2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("# shots=10\nphi,counts_h,counts_v\n0,oops,3\n")
        assert cli.main(["fit", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exit2(self):
        assert cli.main(["fit", "nope.csv"]) == 2

    @pytest.mark.parametrize("text, line, match", [
        ("# shots=10\nphi,counts_h,counts_v\n0,1,2\n1,-1,3\n2,1,2\n", 4, "negative count"),
        ("phi,n_h,n_v\n0,0.1,0.2\n1,0.1,-0.2\n2,0.1,0.2\n", 3, "negative count"),
        ("# shots=10\nphi,counts_h,counts_v\n0,1,2\n2,1,3\n1,1,2\n", 5, "does not increase"),
        ("# shots=0\nphi,counts_h,counts_v\n0,1,2\n1,1,3\n2,1,2\n", 1, "shots"),
    ])
    def test_invalid_counts_exit2(self, tmp_path, capsys, text, line, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert cli.main(["fit", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"line {line}" in err and match in err

    @pytest.mark.parametrize("shots, header", [
        ([], "theta,n_h,n_v"),
        (["--shots", "100000", "--seed", "4"], "theta,counts_h,counts_v"),
    ])
    def test_theta_scan_is_not_fitted_as_a_phi_fringe(self, tmp_path, capsys, shots, header):
        # the theta column used to be labelled phi, and fit printed
        # beta1=1 gamma=2.8198... converged=true with exit 0
        out = tmp_path / "theta.csv"
        code = cli.main(
            ["scan", "--preset", "fig1",
             "--param", "alpha1=0.6", "--param", "beta1=0.8", "--param", "gamma=1",
             "--param", "alpha2=0", "--param", "beta2=1", "--param", "phi=0.3",
             "--sweep", "theta", *shots, "--out", str(out)]
        )
        assert code == 0
        assert header in out.read_text().splitlines()
        capsys.readouterr()
        assert cli.main(["fit", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(header) in captured.err

    @pytest.mark.parametrize("shots", [[], ["--shots", "100000", "--seed", "3"]])
    def test_engine_scan_is_rejected_by_the_reference_model(self, tmp_path, capsys, shots):
        # the engine obeys the evolution forms, not the reference forms the
        # fit inverts; fit used to print beta1=1 ... rss=10.44 converged=true
        # and exit 0
        out = tmp_path / "scan.csv"
        code = cli.main(
            ["scan", "--preset", "fig1",
             "--param", "alpha1=0.6", "--param", "beta1=0.8", "--param", "gamma=1",
             "--param", "alpha2=0", "--param", "beta2=1", "--param", f"theta={math.pi / 4}",
             *shots, "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        assert cli.main(["fit", str(out)]) == 1
        line = capsys.readouterr().out
        assert line.startswith("beta1=1 ")
        assert line.split()[-2:] == ["converged=true", "model_rejected=true"]

    @pytest.mark.parametrize("weighting", ["equal", "inverse_variance"])
    def test_reference_model_counts_are_accepted(self, tmp_path, capsys, weighting):
        path = oracle_csv(tmp_path, shots=100_000, seed=3)
        assert cli.main(["fit", str(path), "--weighting", weighting]) == 0
        assert "model_rejected" not in capsys.readouterr().out

    def test_phases_that_coincide_modulo_2pi_exit1(self, tmp_path, capsys):
        # used to print beta1=0.253537586888 gamma=1.06887832741 ... rss=0
        # converged=true and exit 0
        path = tmp_path / "one_phase.csv"
        rows = "".join(f"{p!r},{float(nh_closed(0.2, 0.5, p))!r},"
                       f"{float(nv_closed(0.2, 0.5, p))!r}\n"
                       for p in (0.0, 2 * math.pi, 4 * math.pi))
        path.write_text("# shots=1\nphi,counts_h,counts_v\n" + rows)
        assert cli.main(["fit", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least 3 distinct phases modulo 2*pi, got 1" in captured.err

    def test_small_beta1_flags_gamma_and_exits_0(self, tmp_path, capsys):
        path = oracle_csv(tmp_path, beta1=0.01)
        assert cli.main(["fit", str(path)]) == 0
        line = capsys.readouterr().out
        assert line.startswith("beta1=0.01 ")
        assert line.split()[-2:] == ["converged=true", "gamma_unidentifiable=true"]

    @pytest.mark.parametrize("rows", [1, 2])
    def test_fewer_than_three_phis_exit1(self, tmp_path, capsys, rows):
        path = tmp_path / "short.csv"
        body = "".join(f"{k},{k + 1},{k + 2}\n" for k in range(rows))
        path.write_text("# shots=10\nphi,counts_h,counts_v\n" + body)
        assert cli.main(["fit", str(path)]) == 1
        assert "at least 3 distinct phases modulo 2*pi" in capsys.readouterr().err


# Runs in a fresh interpreter: calls cli.main for each argv on stdin and
# reports its exit code, its stdout and whether scipy has been imported.
COLD_SCRIPT = """
import contextlib, io, json, sys
import qiup, qiup.cli
report = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qiup.cli.main(argv)
    report.append([code, out.getvalue(), "scipy" in sys.modules])
print(json.dumps(report))
"""


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def cold_cli(commands):
    proc = subprocess.run(
        [sys.executable, "-c", COLD_SCRIPT], input=json.dumps(commands),
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestColdImport:
    def test_no_command_loads_scipy(self, tmp_path):
        # off the fit's grid, with noise, so the refinement runs
        data = oracle_csv(tmp_path, shots=10000, seed=3)
        out = str(tmp_path / "scan.csv")
        scan = ["scan", "--preset", "fig1", *REGIME, "--out", out]
        commands = [
            ["check", FIG1],
            ["run", "--preset", "fig1", *REGIME, "--param", "phi=0"],
            scan,
            [*scan, "--shots", "1000", "--seed", "1"],
            ["verify", "--grid-points", "4"],
            ["fit", str(data)],
        ]
        report = cold_cli(commands)
        assert [code for code, _, _ in report] == [0, 0, 0, 0, 3, 0]
        assert [loaded for _, _, loaded in report] == [False] * 6
        fit_line = report[-1][1].strip()
        assert fit_line == fit(read_counts_csv(data.read_text())).summary()
        # pinned figures, as scipy's least_squares gave them
        fields = dict(kv.split("=") for kv in fit_line.split())
        assert float(fields["beta1"]) == pytest.approx(0.59776446, abs=1e-9)
        assert float(fields["gamma"]) == pytest.approx(0.994396383166, abs=1e-9)
        assert float(fields["rss"]) == pytest.approx(0.00387559832187, rel=1e-9)
        assert fields["converged"] == "true"

    def test_only_verify_loads_the_verification_module(self):
        script = ("import sys, qiup.cli\n"
                  "print('qiup.verification' in sys.modules)\n"
                  "qiup.cli.main(['check', sys.argv[1]])\n"
                  "print('qiup.verification' in sys.modules)\n"
                  "qiup.cli.main(['verify', '--grid-points', '1'])\n"
                  "print('qiup.verification' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script, FIG1], capture_output=True,
                              text=True, env=src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert [line for line in proc.stdout.splitlines() if line in ("True", "False")] == [
            "False", "False", "True"]

    def test_exact_grid_fit_skips_the_solver(self, tmp_path):
        # a noiseless scan on a grid node returns before the refinement
        data = oracle_csv(tmp_path, beta1=0.6, gamma=0.0)
        [[code, out, loaded]] = cold_cli([["fit", str(data)]])
        assert code == 0 and out.startswith("beta1=0.6 gamma=0 ") and not loaded


def qiup_imports(path):
    """Every import statement of a Python file that names qiup, as source text."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[0] == "qiup" for name in names):
            yield ast.unparse(node)


class TestBenchmarkImportContract:
    """What perfbench's traced run reads from the package: a change that
    breaks it fails here, not only in a benchmark run."""

    def test_cold_import_lists_qiup_and_estimation(self):
        # perfbench/worker.py import_times reads both entries
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qiup"],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        names = {line.rsplit("|", 1)[-1].strip()
                 for line in proc.stderr.splitlines() if line.count("|") == 2}
        assert {"qiup", "qiup.estimation"} <= names

    def test_backend_name_is_a_string(self):
        # perfbench/worker.py environment() records it
        from qiup import backend
        assert isinstance(backend.name, str)

    @pytest.mark.parametrize("weighting", ["equal", "inverse_variance"])
    def test_scans_built_from_records(self, weighting):
        # perfbench/worker.py builds the fit workload's scan from tuples of
        # CountResult and reads theta scans through scan.records[k]
        phis = tuple((np.arange(64) * (2 * math.pi / 64)).tolist())
        records = tuple(CountResult(float(nh_closed(0.7, 2.0, p)), float(nv_closed(0.7, 2.0, p)))
                        for p in phis)
        scan = FringeScan(phis, records, "o'")
        assert scan.phis.tolist() == list(phis) and scan.records == records
        for k in (0, 17, 63):
            assert scan.records[k].n_h == scan.column("h")[k]
            assert scan.records[k].n_v == scan.column("v")[k]
        data = read_counts_csv(format_counts_csv(scan))
        exact = fit(data)
        assert abs(exact.beta1_hat - 0.7) < 1e-9 and abs(exact.gamma_hat - 2.0) < 1e-9
        result = fit(simulate_measurement(data, 1_000_000, 5), weighting=weighting)
        assert result.converged and not result.model_rejected
        assert abs(result.beta1_hat - 0.7) < 0.01 and abs(result.gamma_hat - 2.0) < 0.05
        theta = fringe_scan(fig1_preset({"alpha1": 0.6, "beta1": 0.8, "gamma": 1.0,
                                         "alpha2": 0.8, "beta2": 0.6, "phi": 0.4,
                                         "theta": 0.0}), "theta", phis)
        for k in (0, 17, 63):
            assert theta.records[k].n_h == theta.column("h")[k]
            assert theta.records[k].n_v == theta.column("v")[k]

    @pytest.mark.parametrize("script", ["worker.py", "selftest.py"])
    def test_every_imported_name_resolves(self, script):
        statements = list(qiup_imports(REPO_ROOT / "perfbench" / script))
        assert statements
        for statement in statements:
            exec(statement, {})


class TestVerify:
    def test_reports_mismatch_with_exit_3(self, capsys):
        code = cli.main(["verify", "--grid-points", "4"])
        out = capsys.readouterr().out
        assert code == 3
        assert "count grid: 352 points in " in out
        assert "max|dN_H| vs reference closed form" in out
        assert "max|dN_V| vs reference closed form" in out
        assert "MISMATCH" in out
        # the engine agrees with its own closed forms to near machine precision
        evolution_line = [ln for ln in out.splitlines() if "evolution" in ln][0]
        assert float(evolution_line.rsplit(" ", 1)[-1]) < 1e-12

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_nonpositive_grid_points_rejected(self, points, capsys):
        assert cli.main(["verify", "--grid-points", points]) == 1
        err = capsys.readouterr().err
        assert "--grid-points must be at least 1" in err
        assert "zero-size array" not in err

    def test_hadamard_convention_also_mismatches(self, capsys):
        assert cli.main(["verify", "--grid-points", "4",
                         "--bs-convention", "hadamard"]) == 3
