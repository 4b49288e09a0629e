"""Self-test of the benchmark's output checks.

Each check must accept the program's real output and reject it once
perturbed: an n_v off by 1e-6, an added harmonic, a fit result off by 0.05.
Run from the root of a checkout:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import math
import random
import sys
import unittest
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
from dense_model import run_fig1  # noqa: E402
from qiup import fig1_preset, fit, fringe_scan, simulate_measurement  # noqa: E402
from qiup.estimation import format_counts_csv, read_counts_csv  # noqa: E402
from qiup.observables import format_scan_csv, visibility  # noqa: E402
from qiup.verification import run_verification  # noqa: E402

import checks  # noqa: E402
from checks import TWO_PI, CheckFailed  # noqa: E402

BETA1, GAMMA = 0.7, 2.1
POINTS = 64
PHIS = np.arange(POINTS) * (TWO_PI / POINTS)


def regime_plan(beta1: float = BETA1, gamma: float = GAMMA, phi: float = 0.0):
    return fig1_preset({
        "alpha1": math.sqrt(1 - beta1**2), "beta1": beta1, "gamma": gamma,
        "alpha2": 0.0, "beta2": 1.0, "phi": phi, "theta": math.pi / 4,
    })


def perturb_field(csv: str, row: int, column: int, delta: float) -> str:
    lines = csv.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    fields = lines[header + 1 + row].split(",")
    fields[column] = repr(float(fields[column]) + delta)
    lines[header + 1 + row] = ",".join(fields)
    return "\n".join(lines) + "\n"


class CliChecks(unittest.TestCase):
    def setUp(self) -> None:
        scan = fringe_scan(regime_plan(), "phi", PHIS)
        self.csv = format_scan_csv(scan)
        vis = visibility(scan.column("v"), scan.phis)
        self.stderr = f"visibility={vis.value:.6g} phi_at_max={vis.phi_at_max:.6g}\n"

    def test_scan_rows_reject_nv_offset(self) -> None:
        checks.check_scan_csv(0, self.csv, self.stderr, BETA1, GAMMA, POINTS)
        bad = perturb_field(self.csv, 17, 2, 1e-6)
        with self.assertRaises(CheckFailed):
            checks.check_scan_csv(0, bad, self.stderr, BETA1, GAMMA, POINTS)

    def test_scan_rejects_nonzero_exit_and_short_output(self) -> None:
        with self.assertRaises(CheckFailed):
            checks.check_scan_csv(1, self.csv, self.stderr, BETA1, GAMMA, POINTS)
        short = "\n".join(self.csv.splitlines()[:-1]) + "\n"
        with self.assertRaises(CheckFailed):
            checks.check_scan_csv(0, short, self.stderr, BETA1, GAMMA, POINTS)

    def test_visibility_line(self) -> None:
        with self.assertRaises(CheckFailed):
            checks.check_scan_csv(0, self.csv, "visibility=0.5 phi_at_max=0\n",
                                  BETA1, GAMMA, POINTS)

    def test_run_rejects_nv_offset(self) -> None:
        phi = 1.3
        state_counts = fringe_scan(regime_plan(phi=phi), "phi", [phi]).records[0]
        good = f"n_h,n_v\n{state_counts.n_h:.17g},{state_counts.n_v:.17g}\n"
        checks.check_run_csv(0, good, BETA1, GAMMA, phi)
        bad = f"n_h,n_v\n{state_counts.n_h:.17g},{state_counts.n_v + 1e-6:.17g}\n"
        with self.assertRaises(CheckFailed):
            checks.check_run_csv(0, bad, BETA1, GAMMA, phi)

    def test_shot_counts(self) -> None:
        scan = fringe_scan(regime_plan(), "phi", PHIS)
        csv = format_counts_csv(simulate_measurement(scan, 100_000, 5))
        checks.check_shots_csv(0, csv, BETA1, GAMMA, POINTS, 100_000)
        negative = csv.replace("\n0,", "\n0,-", 1)
        fractional = perturb_field(csv, 3, 1, 0.5)
        # 6 sigma of the total vertical count, added to one row
        shifted = perturb_field(csv, 3, 2, round(6 * math.sqrt(0.6 * POINTS * 100_000)))
        for bad in (negative, fractional, shifted):
            with self.assertRaises(CheckFailed):
                checks.check_shots_csv(0, bad, BETA1, GAMMA, POINTS, 100_000)

    def test_negative_circuit(self) -> None:
        text = (ROOT / "circuits/negative/bad_pol.qiup").read_text(encoding="utf-8")
        code, pos = checks.parse_expect(text)
        out = f"circuits/negative/bad_pol.qiup:{pos}: error[{code}]: bad\n1 error(s), 0 warning(s)\n"
        checks.check_negative(1, out, code, pos)
        with self.assertRaises(CheckFailed):
            checks.check_negative(1, out.replace(pos, "1:1"), code, pos)
        with self.assertRaises(CheckFailed):
            checks.check_negative(0, out, code, pos)

    def test_cli_fit_line(self) -> None:
        good = f"beta1={BETA1:.12g} gamma={GAMMA:.12g} alpha1=0.7 rss=1e-30 converged=true\n"
        checks.check_cli_fit(0, good, BETA1, GAMMA)
        for bad in (good.replace("converged=true", "converged=false"),
                    good.replace(f"beta1={BETA1:.12g}", f"beta1={BETA1 + 0.05:.12g}"),
                    good.replace(f"gamma={GAMMA:.12g}", f"gamma={GAMMA - 0.05:.12g}")):
            with self.assertRaises(CheckFailed):
                checks.check_cli_fit(0, bad, BETA1, GAMMA)

    def test_reference_csv_fits_exactly(self) -> None:
        result = fit(read_counts_csv(checks.reference_csv(BETA1, GAMMA, POINTS)))
        checks.check_fit_exact(result.beta1_hat, result.gamma_hat, BETA1, GAMMA)


class ThetaChecks(unittest.TestCase):
    def setUp(self) -> None:
        self.params = {"alpha1": 0.6, "beta1": 0.8, "gamma": 1.0, "alpha2": 0.8,
                       "beta2": 0.6, "phi": 0.4, "theta": 0.0}
        self.scan = fringe_scan(fig1_preset(self.params), "theta", PHIS)

    def test_harmonics_reject_added_harmonic(self) -> None:
        for channel in "hv":
            values = self.scan.column(channel)
            checks.check_theta_harmonics(values)
            with self.assertRaises(CheckFailed):
                checks.check_theta_harmonics(values + 1e-9 * np.cos(12 * PHIS))

    def test_dense_oracle(self) -> None:
        k = 11
        dense_h, dense_v = run_fig1(**dict(self.params, theta=float(PHIS[k]))).counts("o'")
        record = self.scan.records[k]
        checks.check_close(record.n_h, dense_h, "n_h")
        checks.check_close(record.n_v, dense_v, "n_v")
        with self.assertRaises(CheckFailed):
            checks.check_close(record.n_v + 1e-6, dense_v, "n_v")


class FitChecks(unittest.TestCase):
    def test_noiseless_fit_rejects_offset(self) -> None:
        checks.check_fit_exact(BETA1, GAMMA + TWO_PI, BETA1, GAMMA)
        for db, dg in ((0.05, 0.0), (0.0, 0.05), (0.0, -0.05)):
            with self.assertRaises(CheckFailed):
                checks.check_fit_exact(BETA1 + db, GAMMA + dg, BETA1, GAMMA)

    def test_noisy_tolerance_below_offset_everywhere(self) -> None:
        worst = max(
            max(checks.noisy_fit_tolerance(b, g, POINTS, 1_000_000))
            for b in np.linspace(0.3, 1.0, 15) for g in np.linspace(0.0, TWO_PI, 37)
        )
        self.assertLess(worst, 0.05)

    def test_noisy_fits_pass_and_offsets_fail(self) -> None:
        rng = random.Random(3)
        for trial in range(20):
            beta1, gamma = rng.uniform(0.3, 1.0), rng.uniform(0.0, TWO_PI)
            scan = read_counts_csv(checks.reference_csv(beta1, gamma, POINTS))
            noisy = simulate_measurement(scan, 1_000_000, trial)
            tol = checks.noisy_fit_tolerance(beta1, gamma, POINTS, 1_000_000)
            for weighting in ("equal", "inverse_variance"):
                r = fit(noisy, weighting=weighting)
                checks.check_fit_noisy(r.beta1_hat, r.gamma_hat, beta1, gamma, tol)
                for db, dg in ((0.05, 0.0), (-0.05, 0.0), (0.0, 0.05)):
                    with self.assertRaises(CheckFailed):
                        checks.check_fit_noisy(r.beta1_hat + db, r.gamma_hat + dg,
                                               beta1, gamma, tol)


class VerifyChecks(unittest.TestCase):
    def test_report(self) -> None:
        report = run_verification()
        betas = tuple(round(0.1 * k, 10) for k in range(11))
        gammas = tuple(k * math.pi / 4 for k in range(8))
        expected = checks.expected_reference_deviations(betas, gammas, POINTS)
        self.assertEqual(f"{expected[0]:.6g} {expected[1]:.6g}", "0.435533 0.8125")
        checks.check_verification(report, 88 * 64, expected)
        for bad in (replace(report, max_dev_nv_evolution=1e-6),
                    replace(report, max_dev_visibility=2e-3),
                    replace(report, grid_points=88 * 63),
                    replace(report, max_dev_nh=report.max_dev_nh + 1e-6),
                    replace(report, max_dev_nh=0.0, max_dev_nv=0.0)):
            with self.assertRaises(CheckFailed):
                checks.check_verification(bad, 88 * 64, expected)


if __name__ == "__main__":
    unittest.main()
