"""Output checks for the benchmark, written apart from the program.

Nothing here imports qiup.  The count formulas are the benchmark's own copies:

* the evolution forms, n_h = 1/8 and n_v = (5 + 4 b1 cos(g - phi)) / 8, which
  the engine must reproduce for fig1 at beta2 = 1, theta = 45 deg;
* the reference forms (``nh_ref``/``nv_ref``), which the fit inverts.  Fit
  inputs are written from these and never from engine scans, because the
  engine obeys the evolution forms (README of the repository, "Known
  discrepancies").

Every check raises :class:`CheckFailed` with a message naming what differed.
"""
from __future__ import annotations

import math
import re

import numpy as np

TWO_PI = 2.0 * math.pi
EXACT_TOL = 1e-12
FIT_EXACT_TOL = 1e-6
HARMONIC_REL_TOL = 1e-12
#: An amplitude is at most quadratic in (cos 2 theta, sin 2 theta), so a
#: count, its squared magnitude, holds no harmonic of theta above 8.
MAX_THETA_HARMONIC = 8
SIGMAS = 5.0
FIT_SIGMAS = 6.0


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own expectation."""


def nh_evo(beta1: float, gamma: float, phi: float) -> float:
    return 0.125


def nv_evo(beta1: float, gamma: float, phi: float) -> float:
    return (5.0 + 4.0 * beta1 * math.cos(gamma - phi)) / 8.0


def nh_ref(beta1, gamma, phi):
    return (
        8.0
        - 3.0 * beta1**2
        + beta1 * (np.sin(gamma - phi) - np.cos(gamma - phi))
        - 2.0 * beta1 * np.cos(phi)
    ) / 16.0


def nv_ref(beta1, gamma, phi):
    return (5.0 + 2.0 * beta1 * (np.cos(gamma - phi) + np.cos(phi))) / 16.0


def angle_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle."""
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- fig1 counts in the beta2 = 1, theta = 45 deg regime ----------------------


def check_counts(n_h: float, n_v: float, beta1: float, gamma: float, phi: float) -> None:
    want_h, want_v = nh_evo(beta1, gamma, phi), nv_evo(beta1, gamma, phi)
    _require(abs(n_h - want_h) <= EXACT_TOL, f"n_h={n_h!r} at phi={phi!r}, expected {want_h!r}")
    _require(abs(n_v - want_v) <= EXACT_TOL, f"n_v={n_v!r} at phi={phi!r}, expected {want_v!r}")


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    _require(bool(lines) and lines[0] == header, f"expected header {header!r}, got {lines[:1]}")
    return [line.split(",") for line in lines[1:]]


def check_run_csv(code: int, stdout: str, beta1: float, gamma: float, phi: float) -> None:
    _require(code == 0, f"run exited {code}")
    rows = _csv_rows(stdout, "n_h,n_v")
    _require(len(rows) == 1, f"run printed {len(rows)} rows")
    check_counts(float(rows[0][0]), float(rows[0][1]), beta1, gamma, phi)


def check_scan_csv(
    code: int, stdout: str, stderr: str, beta1: float, gamma: float, points: int
) -> None:
    """Rows follow the evolution forms; the printed visibility matches them."""
    _require(code == 0, f"scan exited {code}")
    rows = _csv_rows(stdout, "phi,n_h,n_v")
    _require(len(rows) == points, f"scan printed {len(rows)} rows, expected {points}")
    phis = [float(r[0]) for r in rows]
    for k, (phi, row) in enumerate(zip(phis, rows)):
        _require(abs(phi - TWO_PI * k / points) <= EXACT_TOL, f"row {k} has phi={phi!r}")
        check_counts(float(row[1]), float(row[2]), beta1, gamma, phi)
    check_visibility_line(stderr, [nv_evo(beta1, gamma, p) for p in phis])


def check_visibility_line(stderr: str, nv: list[float]) -> None:
    match = re.search(r"visibility=(\S+)", stderr)
    _require(match is not None, f"no visibility line in {stderr!r}")
    printed = float(match.group(1))
    want = (max(nv) - min(nv)) / (max(nv) + min(nv))
    # the CLI prints 6 significant digits
    _require(
        abs(printed - want) <= 5e-6 * abs(want) + EXACT_TOL,
        f"visibility={printed!r}, expected {want!r}",
    )


def check_shots_csv(
    code: int, stdout: str, beta1: float, gamma: float, points: int, shots: int
) -> None:
    """Integer counts >= 0 whose totals lie within 5 sigma of their expectation."""
    _require(code == 0, f"scan --shots exited {code}")
    _require(stdout.startswith(f"# shots={shots}\n"), "missing '# shots=' header")
    rows = _csv_rows(stdout, "phi,counts_h,counts_v")
    _require(len(rows) == points, f"scan --shots printed {len(rows)} rows")
    totals = [0, 0]
    expected = [0.0, 0.0]
    for row in rows:
        phi = float(row[0])
        for ch, (text, model) in enumerate(zip(row[1:], (nh_evo, nv_evo))):
            _require(text.isdigit(), f"count {text!r} is not an integer >= 0")
            totals[ch] += int(text)
            expected[ch] += shots * model(beta1, gamma, phi)
    for ch, name in enumerate("hv"):
        sigma = math.sqrt(expected[ch])
        _require(
            abs(totals[ch] - expected[ch]) <= SIGMAS * sigma,
            f"total counts_{name}={totals[ch]}, expected {expected[ch]:.1f} +- {sigma:.1f}",
        )


def fig1_check_ok(code: int, stdout: str) -> None:
    _require(code == 0, f"check fig1 exited {code}")
    last = stdout.strip().splitlines()[-1:]
    _require(last == ["0 error(s), 0 warning(s)"], f"check fig1 printed {last}")


def parse_expect(text: str) -> tuple[str, str]:
    """(code, 'line:column') from a negative circuit's '# expect:' line."""
    match = re.match(r"#\s*expect:\s*(\w+)\s+(\d+:\d+)", text)
    if match is None:
        raise ValueError("negative circuit has no '# expect: CODE line:col' line")
    return match.group(1), match.group(2)


def check_negative(code: int, stdout: str, want_code: str, want_pos: str) -> None:
    _require(code == 1, f"check on a negative circuit exited {code}")
    hit = any(
        f":{want_pos}: error[{want_code}]" in line for line in stdout.splitlines()
    )
    _require(hit, f"no {want_code} at {want_pos} in {stdout!r}")


def parse_fit_line(stdout: str) -> dict[str, str]:
    return dict(field.split("=", 1) for field in stdout.split() if "=" in field)


def check_fit_exact(beta1_hat: float, gamma_hat: float, beta1: float, gamma: float) -> None:
    _require(abs(beta1_hat - beta1) <= FIT_EXACT_TOL, f"beta1={beta1_hat!r}, expected {beta1!r}")
    _require(
        angle_distance(gamma_hat, gamma) <= FIT_EXACT_TOL,
        f"gamma={gamma_hat!r}, expected {gamma!r} (mod 2pi)",
    )


def check_cli_fit(code: int, stdout: str, beta1: float, gamma: float) -> None:
    _require(code == 0, f"fit exited {code}")
    fields = parse_fit_line(stdout)
    _require(fields.get("converged") == "true", f"fit printed {stdout!r}")
    check_fit_exact(float(fields["beta1"]), float(fields["gamma"]), beta1, gamma)


def reference_csv(beta1: float, gamma: float, points: int) -> str:
    """Noiseless counts CSV of the reference forms, as ``qiup fit`` reads it."""
    lines = ["# shots=1", "phi,counts_h,counts_v"]
    for k in range(points):
        phi = TWO_PI * k / points
        lines.append(
            f"{phi:.17g},{float(nh_ref(beta1, gamma, phi)):.17g},"
            f"{float(nv_ref(beta1, gamma, phi)):.17g}"
        )
    return "\n".join(lines) + "\n"


# -- verify -------------------------------------------------------------------


def expected_reference_deviations(
    betas: tuple[float, ...], gammas: tuple[float, ...], points: int
) -> tuple[float, float]:
    """max |evolution - reference| over the verify grid, for n_h and n_v.

    The engine equals the evolution forms, so these are the deviations
    ``qiup verify`` must report against the reference forms (README of the
    repository: 0.435533 and 0.8125 at the default grid).
    """
    b = np.asarray(betas)[:, None, None]
    g = np.asarray(gammas)[None, :, None]
    p = (np.arange(points) * (TWO_PI / points))[None, None, :]
    nv = (5.0 + 4.0 * b * np.cos(g - p)) / 8.0
    dev_h = np.abs(0.125 - nh_ref(b, g, p)).max()
    dev_v = np.abs(nv - nv_ref(b, g, p)).max()
    return float(dev_h), float(dev_v)


def check_verification(report, expected_points: int, expected_dev: tuple[float, float]) -> None:
    _require(report.grid_points == expected_points,
             f"grid_points={report.grid_points}, expected {expected_points}")
    _require(report.max_dev_nh_evolution <= EXACT_TOL,
             f"n_h evolution deviation {report.max_dev_nh_evolution!r}")
    _require(report.max_dev_nv_evolution <= EXACT_TOL,
             f"n_v evolution deviation {report.max_dev_nv_evolution!r}")
    _require(report.max_dev_visibility < 1e-3,
             f"visibility deviation {report.max_dev_visibility!r}")
    for got, want, name in zip(
        (report.max_dev_nh, report.max_dev_nv), expected_dev, ("n_h", "n_v")
    ):
        _require(abs(got - want) <= 1e-9,
                 f"{name} reference deviation {got!r}, expected {want!r}")
    _require(not report.ok, "verify reported PASS; the documented verdict is MISMATCH")


# -- theta sweeps ---------------------------------------------------------------


def check_theta_harmonics(values) -> None:
    """No DFT harmonic of a full-period theta scan above 8 beyond 1e-12 of its scale."""
    spectrum = np.abs(np.fft.rfft(np.asarray(values, dtype=float)))
    scale = spectrum.max()
    high = spectrum[MAX_THETA_HARMONIC + 1:]
    _require(
        high.size > 0 and high.max() <= HARMONIC_REL_TOL * scale,
        f"harmonic above {MAX_THETA_HARMONIC} at {high.max() / scale:.3g} of scale",
    )


def check_close(got: float, want: float, what: str) -> None:
    _require(abs(got - want) <= EXACT_TOL, f"{what}={got!r}, expected {want!r}")


# -- fits -------------------------------------------------------------------------


def noisy_fit_tolerance(beta1: float, gamma: float, points: int, shots: int) -> tuple[float, float]:
    """6-sigma tolerances on (beta1, gamma) for a fit to Poisson counts.

    Each normalized count has standard deviation sqrt(n / shots) <=
    sigma_max = sqrt(max n / shots).  For least squares, equal or
    inverse-variance weighted, the covariance of the estimate is at most
    sigma_max^2 (J^T J)^-1, with J the 2 * points x 2 Jacobian of the
    reference forms at the true parameters.
    """
    phi = np.arange(points) * (TWO_PI / points)
    d = gamma - phi
    jac = np.concatenate([
        np.stack([(-6.0 * beta1 + np.sin(d) - np.cos(d) - 2.0 * np.cos(phi)) / 16.0,
                  beta1 * (np.cos(d) + np.sin(d)) / 16.0], axis=1),
        np.stack([(np.cos(d) + np.cos(phi)) / 8.0,
                  -beta1 * np.sin(d) / 8.0], axis=1),
    ])
    n_max = max(float(nh_ref(beta1, gamma, phi).max()), float(nv_ref(beta1, gamma, phi).max()))
    sigma_max = math.sqrt(n_max / shots)
    cov = np.linalg.inv(jac.T @ jac) * sigma_max**2
    return FIT_SIGMAS * math.sqrt(cov[0, 0]), FIT_SIGMAS * math.sqrt(cov[1, 1])


def check_fit_noisy(
    beta1_hat: float, gamma_hat: float, beta1: float, gamma: float, tol: tuple[float, float]
) -> None:
    _require(abs(beta1_hat - beta1) <= tol[0],
             f"beta1={beta1_hat!r}, expected {beta1!r} +- {tol[0]:.3g}")
    _require(angle_distance(gamma_hat, gamma) <= tol[1],
             f"gamma={gamma_hat!r}, expected {gamma!r} +- {tol[1]:.3g} (mod 2pi)")
