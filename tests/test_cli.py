import math

import numpy as np
import pytest

from conftest import CIRCUITS_DIR
from qiup import cli
from qiup.estimation import format_counts_csv, read_counts_csv
from qiup.observables import CountResult, FringeScan
from qiup.reference import nh_closed, nv_closed

FIG1 = str(CIRCUITS_DIR / "fig1.qiup")

REGIME = [
    "--param", "alpha1=0", "--param", "beta1=1", "--param", "gamma=0",
    "--param", "alpha2=0", "--param", "beta2=1",
    "--param", f"theta={math.pi / 4}",
]


def oracle_csv(tmp_path, beta1=0.6, gamma=1.0, points=64):
    phis = np.linspace(0.0, 2 * math.pi, points, endpoint=False)
    records = tuple(
        CountResult(float(nh_closed(beta1, gamma, p)), float(nv_closed(beta1, gamma, p)))
        for p in phis
    )
    scan = FringeScan(tuple(float(p) for p in phis), records, "o'")
    path = tmp_path / "data.csv"
    path.write_text(format_counts_csv(scan, shots=1))
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

    def test_bad_circuit_file_exit1(self, tmp_path, capsys):
        bad = tmp_path / "broken.qiup"
        bad.write_text("bs r -> e\n")
        assert cli.main(["run", str(bad)]) == 1
        assert "E_ARITY" in capsys.readouterr().err


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

    @pytest.mark.parametrize("rows", [1, 2])
    def test_fewer_than_three_phis_exit1(self, tmp_path, capsys, rows):
        path = tmp_path / "short.csv"
        body = "".join(f"{k},{k + 1},{k + 2}\n" for k in range(rows))
        path.write_text("# shots=10\nphi,counts_h,counts_v\n" + body)
        assert cli.main(["fit", str(path)]) == 1
        assert "at least 3 distinct phi" in capsys.readouterr().err


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
