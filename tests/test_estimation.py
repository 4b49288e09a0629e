import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qiup import estimation, observables, reference
from qiup.errors import DataFormatError
from qiup.estimation import (
    GRID_BETA_STEP,
    GRID_GAMMA_POINTS,
    MODEL_RMS_TOL,
    FitResult,
    NoisyScan,
    fit,
    format_counts_csv,
    infer_alpha1,
    read_counts_csv,
    simulate_measurement,
    _chi2_log_sf,
)
from qiup.observables import CountResult, FringeScan, format_scan_csv, fringe_scan
from qiup.plan import fig1_preset
from qiup.reference import (
    REFERENCE_FORMS,
    harmonics,
    nh_closed,
    nh_evolution,
    nv_closed,
    nv_evolution,
)
from qiup.verification import regime_params

import csv_oracle

TWO_PI = 2.0 * math.pi
#: The forms the engine obeys, which the fit does not invert.
EVOLUTION = (nh_evolution, nv_evolution)


def oracle_scan(beta1: float, gamma: float, points: int = 64,
                forms=(nh_closed, nv_closed), phis=None) -> FringeScan:
    """Noiseless fringe data generated straight from the closed forms, at
    ``points`` phases over one period unless ``phis`` are given."""
    nh, nv = forms
    if phis is None:
        phis = np.linspace(0.0, TWO_PI, points, endpoint=False)
    records = tuple(
        CountResult(float(nh(beta1, gamma, p)), float(nv(beta1, gamma, p))) for p in phis
    )
    return FringeScan(tuple(float(p) for p in phis), records, "o'")


def chi2_survival(x: float, dof: int) -> float:
    """P(chi^2_dof > x) for even dof: the chance of fewer than dof/2 Poisson
    events at mean x/2."""
    term = total = math.exp(-x / 2.0)
    for j in range(1, dof // 2):
        term *= x / 2.0 / j
        total += term
    return total


def model_counts(beta1: float, gamma: float, points: int) -> np.ndarray:
    """(nh_closed, nv_closed) on ``oracle_scan``'s phases, concatenated."""
    phis = np.asarray(oracle_scan(beta1, gamma, points=points).phis)
    return np.concatenate((nh_closed(beta1, gamma, phis), nv_closed(beta1, gamma, phis)))


def counts_off_the_model(beta1: float, gamma: float, points: int, shots: int,
                         chi2: float) -> np.ndarray:
    """Counts whose Pearson chi^2 from the model at (beta1, gamma) is ``chi2``.

    The deviation is orthogonal, as counts, to the model's tangent plane
    there, so an equal-weight fit moves only at second order.
    """
    expected, step = shots * model_counts(beta1, gamma, points), 1e-6
    tangent = np.stack([model_counts(beta1 + step, gamma, points)
                        - model_counts(beta1 - step, gamma, points),
                        model_counts(beta1, gamma + step, points)
                        - model_counts(beta1, gamma - step, points)], axis=1)
    q, _ = np.linalg.qr(tangent)
    deviation = np.sqrt(expected) * (-1.0) ** np.arange(2 * points)
    deviation -= q @ (q.T @ deviation)
    deviation *= math.sqrt(chi2 / np.sum(deviation ** 2 / expected))
    return np.rint(expected + deviation).astype(int)


def circular_distance(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def weighted_channels(data, weighting):
    """(phis, h, v, wh, wv) as ``fit`` weights them."""
    phis = np.asarray(data.phis)
    if isinstance(data, NoisyScan):
        h = np.asarray(data.counts_h, dtype=float) / data.shots
        v = np.asarray(data.counts_v, dtype=float) / data.shots
    else:
        h, v = data.column("h"), data.column("v")
    if weighting == "equal":
        return phis, h, v, np.ones_like(h), np.ones_like(v)
    wh = data.shots / np.maximum(np.asarray(data.counts_h, dtype=float), 1.0)
    wv = data.shots / np.maximum(np.asarray(data.counts_v, dtype=float), 1.0)
    return phis, h, v, wh, wv


def brute_force_grid_node(data, weighting="equal") -> tuple[float, float]:
    """The coarse-grid node of least weighted rss, from the closed forms at every phi."""
    phis, h, v, wh, wv = weighted_channels(data, weighting)
    betas = np.arange(0.0, 1.0 + GRID_BETA_STEP / 2, GRID_BETA_STEP)
    gammas = np.arange(GRID_GAMMA_POINTS) * (TWO_PI / GRID_GAMMA_POINTS)
    b, g, p = betas[:, None, None], gammas[None, :, None], phis[None, None, :]
    cost = np.sum(wh * (h - nh_closed(b, g, p)) ** 2, axis=2)
    cost += np.sum(wv * (v - nv_closed(b, g, p)) ** 2, axis=2)
    i, j = np.unravel_index(int(cost.argmin()), cost.shape)
    return float(betas[i]), float(gammas[j])


def newton_polished(phis, y, sqrt_w, beta1, gamma, steps=4) -> tuple[float, float]:
    """(beta1, gamma) after Newton steps with the exact Hessian on the
    weighted residuals ``sqrt_w * (y - model)``, from a nearby point.

    scipy's ``least_squares`` stops up to about 5e-8 short of the minimum in
    gamma at small beta1, whatever its tolerances: its cost comparisons do
    not resolve the last steps.  Newton's steps need no comparison.  Left
    where beta1 lies on a bound of [0, 1], where the minimum is no
    stationary point.
    """
    if not 0.0 < beta1 < 1.0:
        return beta1, gamma
    basis = np.stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    b, g = beta1, gamma
    for _ in range(steps):
        c, s = math.cos(g), math.sin(g)
        # the features, their two first and three second derivatives
        features = np.array([[1.0, b, b * b, b * c, b * s], [0.0, 1.0, 2.0 * b, c, s],
                             [0.0, 0.0, 0.0, -b * s, b * c], [0.0, 0.0, 2.0, 0.0, 0.0],
                             [0.0, 0.0, 0.0, -s, c], [0.0, 0.0, 0.0, -b * c, -b * s]])
        model = np.einsum("ckf,df,kn->dcn", REFERENCE_FORMS, features, basis) * sqrt_w
        r = (sqrt_w * y - model[0]).ravel()
        jb, jg, hbb, hbg, hgg = (m.ravel() for m in model[1:])
        hessian = np.array([[jb @ jb - r @ hbb, jb @ jg - r @ hbg],
                            [jb @ jg - r @ hbg, jg @ jg - r @ hgg]])
        step = np.linalg.solve(hessian, [jb @ r, jg @ r])
        b, g = b + step[0], g + step[1]
    return b, g


def assert_fit_at_the_minimum(noisy, weighting):
    """The fit converges, to within 1e-9 of the least-squares minimum that
    scipy's ``least_squares`` finds and Newton's steps finish, and reports
    the rss of the closed forms at its answer."""
    least_squares = pytest.importorskip("scipy.optimize").least_squares
    phis, h, v, wh, wv = weighted_channels(noisy, weighting)
    beta0, gamma0 = brute_force_grid_node(noisy, weighting)

    def residuals(x):
        return np.concatenate((np.sqrt(wh) * (h - nh_closed(x[0], x[1], phis)),
                               np.sqrt(wv) * (v - nv_closed(x[0], x[1], phis))))

    ref = least_squares(residuals, x0=np.array([beta0, gamma0]),
                        bounds=([0.0, gamma0 - math.pi], [1.0, gamma0 + math.pi]),
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    beta_min, gamma_min = newton_polished(
        phis, np.stack([h, v]), np.sqrt(np.stack([wh, wv])), *ref.x)
    result = fit(noisy, weighting=weighting)
    assert result.converged
    assert abs(result.beta1_hat - beta_min) <= 1e-9
    if beta_min > 0.0:  # at beta1 = 0, gamma has no say
        assert circular_distance(result.gamma_hat, gamma_min) <= 1e-9
    assert result.residual_sum_sq == pytest.approx(
        full_rss(noisy, weighting, result.beta1_hat, result.gamma_hat), rel=1e-12)


def full_rss(data, weighting, beta1, gamma) -> float:
    """Weighted residual sum of squares against the closed forms at every phi."""
    phis, h, v, wh, wv = weighted_channels(data, weighting)
    return float(np.sum(wh * (h - nh_closed(beta1, gamma, phis)) ** 2)
                 + np.sum(wv * (v - nv_closed(beta1, gamma, phis)) ** 2))


class TestSimulateMeasurement:
    def test_deterministic_for_fixed_seed(self):
        scan = oracle_scan(0.8, 0.5)
        a = simulate_measurement(scan, shots=1000, seed=42)
        b = simulate_measurement(scan, shots=1000, seed=42)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.phis, b.phis)
        assert (a.shots, a.seed, a.sweep) == (b.shots, b.seed, b.sweep)

    def test_different_seeds_differ(self):
        scan = oracle_scan(0.8, 0.5)
        a = simulate_measurement(scan, shots=1000, seed=1)
        b = simulate_measurement(scan, shots=1000, seed=2)
        assert not np.array_equal(a.counts_v, b.counts_v)

    def test_zero_expectation_gives_zero_counts(self):
        scan = FringeScan(
            (0.0, 1.0), (CountResult(0.0, 0.0), CountResult(0.0, 0.0)), "o'"
        )
        noisy = simulate_measurement(scan, shots=10_000, seed=3)
        np.testing.assert_array_equal(noisy.counts_h, (0, 0))
        np.testing.assert_array_equal(noisy.counts_v, (0, 0))

    def test_poisson_concentration(self):
        # constant expectation 0.5625; the grid-averaged rate is within 3 sigma
        scan = FringeScan(
            tuple(np.linspace(0, TWO_PI, 64, endpoint=False)),
            tuple(CountResult(0.125, 0.5625) for _ in range(64)),
            "o'",
        )
        shots = 1_000_000
        noisy = simulate_measurement(scan, shots=shots, seed=7)
        mean_rate = np.mean(np.asarray(noisy.counts_v) / shots)
        sigma = math.sqrt(0.5625 / (shots * 64))
        assert abs(mean_rate - 0.5625) < 3 * sigma

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            simulate_measurement(oracle_scan(0.5, 0.0), shots=0, seed=1)

    @pytest.mark.parametrize("shots", [2.5, 3.0, np.float64(3.0), "3"],
                             ids=["2.5", "float", "float64", "str"])
    def test_non_integer_shots_refused_before_any_draw(self, shots, monkeypatch):
        monkeypatch.setattr(np.random, "Generator", lambda *args: pytest.fail("drew counts"))
        with pytest.raises(ValueError, match="shots must be a positive integer"):
            simulate_measurement(oracle_scan(0.5, 0.0), shots=shots, seed=0)

    @pytest.mark.parametrize("shots", [10**20, 10**400], ids=["1e20", "1e400"])
    def test_shots_beyond_the_poisson_range_refused_before_any_draw(self, shots, monkeypatch):
        monkeypatch.setattr(np.random, "Generator", lambda *args: pytest.fail("drew counts"))
        with pytest.raises(ValueError, match=f"shots={shots} is beyond the Poisson sampler"):
            simulate_measurement(oracle_scan(0.5, 0.0), shots=shots, seed=0)

    def test_shots_beyond_a_float_refused_on_a_scan_of_zeros(self, monkeypatch):
        # shots times a zero expectation is 0, but numpy cannot take the int
        scan = FringeScan((0.0, 1.0), (CountResult(0.0, 0.0),) * 2, "o")
        monkeypatch.setattr(np.random, "Generator", lambda *args: pytest.fail("drew counts"))
        with pytest.raises(ValueError, match=f"shots={10**400} is beyond the Poisson sampler"):
            simulate_measurement(scan, shots=10**400, seed=0)
        monkeypatch.undo()
        assert simulate_measurement(scan, shots=10**300, seed=0).counts.tolist() == [[0, 0]] * 2

    @pytest.mark.parametrize("expectation", [0.5, 0.0], ids=["counts", "zeros"])
    def test_shots_beyond_the_string_conversion_limit_refused(self, expectation, monkeypatch):
        # Python refuses to convert an int of more than 4300 digits to a string
        scan = FringeScan((0.0, 1.0), (CountResult(expectation, expectation),) * 2, "o")
        monkeypatch.setattr(np.random, "Generator", lambda *args: pytest.fail("drew counts"))
        with pytest.raises(ValueError, match=r"shots=~10\^5000 is beyond the Poisson sampler's range"):
            simulate_measurement(scan, shots=10**5000, seed=0)

    def test_shots_within_the_poisson_range_draw(self):
        scan = FringeScan((0.0, 1.0), (CountResult(1.0, 0.0), CountResult(0.5, 0.25)), "o'")
        noisy = simulate_measurement(scan, shots=2**62, seed=5)
        assert noisy.counts[1, 0] == 0
        np.testing.assert_allclose(noisy.counts / 2**62, scan.counts, rtol=1e-8)

    def test_csv_round_trip(self):
        noisy = simulate_measurement(oracle_scan(0.8, 0.5), shots=np.int64(1000), seed=4)
        assert type(noisy.shots) is int
        back = read_counts_csv(format_counts_csv(noisy))
        assert isinstance(back, NoisyScan) and back.shots == 1000
        np.testing.assert_array_equal(back.phis, noisy.phis)
        np.testing.assert_array_equal(back.counts, noisy.counts)

    def test_counts_are_not_drawn_again(self):
        # a NoisyScan has counts, not expectations, in its (2, N) array
        noisy = simulate_measurement(oracle_scan(0.5, 0.0), shots=10, seed=1)
        with pytest.raises(TypeError, match="needs a FringeScan, got NoisyScan"):
            simulate_measurement(noisy, shots=10, seed=1)


class TestScansHoldFiniteValues:
    """``fit`` reads a scan's arrays with no finiteness pass of its own, so
    every public way to make a scan refuses NaN and inf, or cannot make them."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_constructors_refuse(self, bad):
        good = (CountResult(0.1, 0.2), CountResult(0.3, 0.4))
        with pytest.raises(ValueError, match="expectations must be finite"):
            FringeScan((0.0, 1.0), (good[0], CountResult(0.1, bad)), "o'")
        with pytest.raises(ValueError, match="scan grid"):
            FringeScan((0.0, bad), good, "o'")
        with pytest.raises(ValueError, match="counts must be nonnegative integers"):
            NoisyScan((0.0, 1.0), (1, bad), (1, 2), shots=10, seed=0)
        with pytest.raises(ValueError, match="scan grid"):
            NoisyScan((bad, 1.0), (1, 1), (1, 2), shots=10, seed=0)

    @pytest.mark.parametrize("header", ["# shots=10\nphi,counts_h,counts_v", "phi,n_h,n_v"])
    @pytest.mark.parametrize("row", ["nan,1,2", "0,inf,2", "0,1,-inf", "inf,1,2"])
    def test_read_counts_csv_refuses(self, header, row):
        with pytest.raises(DataFormatError, match="non-finite value"):
            read_counts_csv(f"{header}\n-1,1,2\n{row}\n")

    def test_simulate_measurement_draws_integers_on_a_checked_grid(self):
        scan = oracle_scan(0.8, 0.5)
        noisy = simulate_measurement(scan, shots=2**40, seed=3)
        assert noisy.counts.dtype == np.int64 and noisy.phis is scan.phis

    def test_fringe_scan_refuses_an_overflowing_grid(self):
        # theta enters at frequency 2: 2 * 1e308 overflows, and its phasor
        # would be NaN
        plan = fig1_preset(regime_params(0.6, 1.0))
        with pytest.raises(ValueError, match="times frequency 2 must be finite"):
            fringe_scan(plan, "theta", [0.0, 1e308])
        scan = fringe_scan(plan, "phi", [-1.7e308, 0.0, 1.7e308])
        assert np.isfinite(scan.counts).all()


class TestScanLayout:
    def test_no_per_point_records(self, monkeypatch):
        # producers and readers of scans work on arrays: a CountResult is
        # built only when ``records`` is read
        plan = fig1_preset(regime_params(0.6, 1.0))
        reference = read_counts_csv(format_counts_csv(oracle_scan(0.6, 1.0)))
        built = []
        new = CountResult.__new__  # a NamedTuple is built by __new__
        monkeypatch.setattr(CountResult, "__new__",
                            lambda cls, *args: (built.append(args), new(cls, *args))[1])
        scan = fringe_scan(plan, "phi", np.linspace(0.0, TWO_PI, 64, endpoint=False))
        data = read_counts_csv(format_counts_csv(scan))
        noisy = read_counts_csv(format_counts_csv(simulate_measurement(data, 10_000, 1)))
        format_scan_csv(scan)
        for weighting in ("equal", "inverse_variance"):
            fit(noisy, weighting=weighting)
        fit(data)
        fit(reference)
        assert built == []
        assert len(scan.records) == 64 and len(built) == 64

    def test_count_rows_are_read_only_views(self):
        noisy = simulate_measurement(oracle_scan(0.8, 0.5), shots=1000, seed=4)
        assert noisy.counts.shape == (2, 64) and noisy.counts.dtype == np.int64
        for k, row in enumerate((noisy.counts_h, noisy.counts_v)):
            assert not row.flags.writeable and np.shares_memory(row, noisy.counts)
            np.testing.assert_array_equal(row, noisy.counts[k])

    def test_constructors_leave_the_callers_arrays_writeable(self):
        phis, counts = np.array([0.0, 1.0]), np.array([3, 4])
        NoisyScan(phis, counts, counts, shots=10, seed=0)
        FringeScan(phis, (CountResult(0.1, 0.2), CountResult(0.3, 0.4)), "o'")
        assert phis.flags.writeable and counts.flags.writeable


class TestNoisyScan:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="phis and count columns must have equal length"):
            NoisyScan((0.0, 1.0), (1,), (1, 2), shots=10, seed=0)

    def test_shots_positive(self):
        with pytest.raises(ValueError, match="shots must be a positive integer"):
            NoisyScan((0.0,), (1,), (1,), shots=0, seed=0)

    @pytest.mark.parametrize("shots", [2.5, 10.0, np.float64(10.0), "10", None],
                             ids=["2.5", "float", "float64", "str", "None"])
    def test_shots_must_be_an_integer(self, shots):
        with pytest.raises(ValueError, match="shots must be a positive integer"):
            NoisyScan((0.0,), (1,), (1,), shots=shots, seed=0)

    # the first was once accepted, fitted with converged=true and written to
    # a CSV that read_counts_csv refused with "negative count"
    @pytest.mark.parametrize("counts_h, counts_v", [
        ((0.5, 1, 1), (1, -3, 1)), ((1, 1, 1), (1, -3, 1)), ((1, 1, 1), (1, 0.5, 1)),
        ((1, 1, 1), (1, math.nan, 1)), ((1, 1, 1), (1, math.inf, 1)), ((1, 1, 1), (1, 2.0**63, 1)),
    ], ids=["fraction-and-negative", "negative", "fraction", "nan", "inf", "2**63"])
    def test_counts_must_be_nonnegative_integers(self, counts_h, counts_v):
        with pytest.raises(ValueError, match="counts must be nonnegative integers"):
            NoisyScan((0, 2, 4), counts_h, counts_v, shots=10, seed=0)

    def test_negative_int64_counts_refused(self):
        with pytest.raises(ValueError, match="counts must be nonnegative integers"):
            NoisyScan._of(np.array([0.0, 1.0]), np.array([[1, 2], [3, -4]]), 10, 0, "phi")

    def test_integral_counts_are_stored_as_int64(self):
        noisy = NoisyScan((0.0, 1.0), (1.0, 2.0), np.array([3, 4], dtype=np.int32),
                          shots=10, seed=0)
        assert noisy.counts.dtype == np.int64 and not noisy.counts.flags.writeable
        np.testing.assert_array_equal(noisy.counts, ((1, 2), (3, 4)))
        back = read_counts_csv(format_counts_csv(noisy))
        np.testing.assert_array_equal(back.counts, noisy.counts)
        assert back.shots == 10

    @pytest.mark.parametrize("phis", [(math.nan,), (math.inf,), (0.0, math.inf), (-math.inf, 0.0)])
    def test_non_finite_grid_refused(self, phis):
        ones = (1,) * len(phis)
        with pytest.raises(ValueError, match="scan grid values must be finite"):
            NoisyScan(phis, ones, ones, shots=10, seed=0)

    @pytest.mark.parametrize("phis", [
        (0.0, 1.0, 0.5), (0.0, 1.0, 1.0), (0.0, math.nan, 2.0), (math.nan, math.nan, math.nan),
    ])
    def test_phi_must_increase(self, phis):
        with pytest.raises(ValueError, match="strictly increasing"):
            NoisyScan(phis, (1, 1, 1), (1, 1, 1), shots=10, seed=0)


class TestFit:
    def test_noiseless_recovery(self):
        result = fit(oracle_scan(0.6, 1.0))
        assert result.converged
        assert abs(result.beta1_hat - 0.6) < 1e-6
        assert circular_distance(result.gamma_hat, 1.0) < 1e-6
        assert result.residual_sum_sq < 1e-18
        assert result.alpha1_hat == pytest.approx(0.8, abs=1e-6)

    def test_noiseless_recovery_near_gamma_wrap(self):
        result = fit(oracle_scan(0.8, 6.2))
        assert circular_distance(result.gamma_hat, 6.2) < 1e-6

    def test_beta1_zero_flags_gamma(self):
        result = fit(oracle_scan(0.0, 1.234))
        assert result.converged
        assert result.beta1_hat < 1e-6
        assert result.gamma_unidentifiable

    def test_identifiable_case_not_flagged(self):
        assert not fit(oracle_scan(0.5, 0.7)).gamma_unidentifiable

    def test_poisson_recovery_single_seed(self):
        noisy = simulate_measurement(oracle_scan(0.8, 0.5), shots=100_000, seed=5)
        result = fit(noisy)
        assert result.converged
        assert abs(result.beta1_hat - 0.8) < 0.02
        assert circular_distance(result.gamma_hat, 0.5) < 0.05

    def test_inverse_variance_weighting(self):
        noisy = simulate_measurement(oracle_scan(0.8, 0.5), shots=100_000, seed=9)
        result = fit(noisy, weighting="inverse_variance")
        assert abs(result.beta1_hat - 0.8) < 0.02

    def test_inverse_variance_needs_counts(self):
        with pytest.raises(ValueError):
            fit(oracle_scan(0.5, 0.5), weighting="inverse_variance")

    def test_unknown_weighting(self):
        with pytest.raises(ValueError):
            fit(oracle_scan(0.5, 0.5), weighting="magic")

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            fit(FringeScan((), (), "o'"))

    @pytest.mark.parametrize("weighting", ["equal", "inverse_variance"])
    @pytest.mark.parametrize("phis,phases", [
        pytest.param([0.0, TWO_PI, 2 * TWO_PI], 1, id="one-phase"),
        pytest.param([0.3, 1.1, 0.3 + TWO_PI, 1.1 + TWO_PI, 1.1 + 3 * TWO_PI], 2,
                     id="two-phases"),
    ])
    def test_phases_that_coincide_modulo_2pi_are_refused(self, phis, phases, weighting):
        # the model sees phi modulo 2*pi, so these scans do not determine it
        data = oracle_scan(0.2, 0.5, phis=phis)
        if weighting == "inverse_variance":
            data = simulate_measurement(data, shots=100_000, seed=1)
        message = rf"at least 3 distinct phases modulo 2\*pi, got {phases}$"
        with pytest.raises(ValueError, match=message):
            fit(data, weighting=weighting)

    def test_random_single_phase_scans_are_refused(self):
        # p0 + 2*pi*k differ from p0 by rounding after the reduction modulo 2*pi
        rng = np.random.default_rng(2024)
        for _ in range(100):
            turns = np.sort(rng.choice(40, size=int(rng.integers(3, 12)), replace=False))
            data = oracle_scan(rng.uniform(), rng.uniform(0, TWO_PI),
                               phis=rng.uniform(-20, 20) + TWO_PI * turns)
            with pytest.raises(ValueError, match="got 1$"):
                fit(data)

    def test_two_periods_still_fit(self):
        phis = np.linspace(0.0, 2 * TWO_PI, 64, endpoint=False)
        result = fit(oracle_scan(0.6, 1.0, phis=phis))
        assert result.converged and not result.model_rejected
        assert abs(result.beta1_hat - 0.6) < 1e-6
        assert circular_distance(result.gamma_hat, 1.0) < 1e-6
        noisy = simulate_measurement(oracle_scan(0.6, 1.0, phis=phis), shots=100_000, seed=4)
        result = fit(noisy, weighting="inverse_variance")
        assert not result.model_rejected
        assert abs(result.beta1_hat - 0.6) < 0.02

    def test_scan_of_another_parameter_rejected(self):
        scan = oracle_scan(0.5, 0.5)
        theta_scan = FringeScan(scan.phis, scan.records, "o'", sweep="theta")
        for data in (theta_scan, simulate_measurement(theta_scan, shots=1000, seed=1)):
            assert data.sweep == "theta"
            assert format_counts_csv(data).splitlines()[1] == "theta,counts_h,counts_v"
            with pytest.raises(ValueError, match="needs a phi scan, got a theta scan"):
                fit(data)

    def test_non_finite_rejected(self):
        # before fit sees it: fit itself makes no finiteness pass (see
        # TestScansHoldFiniteValues)
        records = (CountResult(0.1, math.inf), CountResult(0.1, 0.2))
        with pytest.raises(ValueError, match="expectations must be finite and nonnegative"):
            FringeScan((0.0, 1.0), records, "o'")

    def test_estimator_bias_bounded(self):
        # spec-level invariant: mean recovered beta1 over 100 seeds stays
        # within 3 standard errors of the truth at shots = 1e5
        scan = oracle_scan(0.8, 0.5)
        estimates = [
            fit(simulate_measurement(scan, shots=100_000, seed=seed)).beta1_hat
            for seed in range(100)
        ]
        mean = float(np.mean(estimates))
        sem = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
        assert abs(mean - 0.8) <= 3 * sem

    @pytest.mark.parametrize("beta1", [0.0, 0.1, 0.37, 0.999, 1.0])
    @pytest.mark.parametrize("gamma", [1.234, 6.2])
    def test_noiseless_fit_is_exact(self, beta1, gamma):
        result = fit(oracle_scan(beta1, gamma))
        assert result.converged and not result.model_rejected
        assert abs(result.beta1_hat - beta1) < 1e-12
        if beta1 > 0.0:
            assert circular_distance(result.gamma_hat, gamma) < 1e-10
        assert result.residual_sum_sq < 1e-26

    def test_grid_node_matches_brute_force_search(self, monkeypatch):
        # with no evaluation left for the refinement, fit returns its grid node
        monkeypatch.setattr(estimation, "MAX_REFINE_EVALS", 1)
        cases = [(oracle_scan(11 * 0.05, 13 * TWO_PI / 72), "equal"),
                 (oracle_scan(0.0, 1.234), "equal"),
                 (oracle_scan(1.0, 1.234), "equal"),
                 (oracle_scan(0.33, 4.0, points=5), "equal"),
                 (oracle_scan(0.8, 1.0, forms=EVOLUTION), "equal")]
        rng = np.random.default_rng(11)
        for seed in range(40):
            scan = oracle_scan(rng.uniform(0.0, 1.0), rng.uniform(0.0, TWO_PI))
            noisy = simulate_measurement(scan, shots=int(rng.choice([10**3, 10**6])), seed=seed)
            cases += [(noisy, "equal"), (noisy, "inverse_variance")]
        for data, weighting in cases:
            result = fit(data, weighting=weighting)
            node = brute_force_grid_node(data, weighting)
            assert (result.beta1_hat, result.gamma_hat) == node
            on_grid = result.residual_sum_sq < 1e-24
            assert result.converged == on_grid

    @given(
        beta1=st.one_of(st.floats(0.0, 1.0), st.just(0.0),
                        st.integers(0, 20).map(lambda k: k * GRID_BETA_STEP)),
        gamma=st.one_of(st.floats(0.0, TWO_PI, exclude_max=True),
                        st.integers(0, GRID_GAMMA_POINTS - 1).map(
                            lambda k: k * (TWO_PI / GRID_GAMMA_POINTS))),
        shots=st.sampled_from([None, 10**3, 10**6]),
        weighting=st.sampled_from(["equal", "inverse_variance"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_grid_score_is_the_brute_force_search(self, beta1, gamma, shots, weighting, seed):
        # noiseless data (shots None) have no counts to weight by
        assume(shots is not None or weighting == "equal")
        scan = oracle_scan(beta1, gamma)
        data = scan if shots is None else simulate_measurement(scan, shots=shots, seed=seed)
        # with no evaluation left for the refinement, fit returns its grid node
        with mock.patch.object(estimation, "MAX_REFINE_EVALS", 1):
            result = fit(data, weighting=weighting)
        node = brute_force_grid_node(data, weighting)
        assert (result.beta1_hat, result.gamma_hat) == node
        expected = full_rss(data, weighting, *node)
        if shots is None and expected < 1e-24:  # noiseless data on a node
            assert result.residual_sum_sq < 1e-24
        else:
            # each weighted residual is rounded at the level of the weighted
            # data, which bounds the difference where the residuals are tiny
            phis, h, v, wh, wv = weighted_channels(data, weighting)
            scale = float(np.sum(wh * h ** 2) + np.sum(wv * v ** 2))
            floor = 1e-14 * math.sqrt(expected * scale)
            assert result.residual_sum_sq == pytest.approx(expected, rel=1e-12, abs=floor)

    def test_fit_never_evaluates_the_transcribed_forms(self, monkeypatch):
        # after whitening, fit reads the data through its sufficient
        # statistics and the model through the reference table alone
        expectations = [oracle_scan(0.35, 2.0), oracle_scan(0.6, 15 * TWO_PI / 72),
                        oracle_scan(0.8, 1.0, forms=EVOLUTION)]
        counts = [simulate_measurement(scan, shots=100_000, seed=4) for scan in expectations]

        def transcribed(*args):
            raise AssertionError("fit evaluated a transcribed form")

        for module in (reference, estimation):
            for name in ("nh_closed", "nv_closed"):
                monkeypatch.setattr(module, name, transcribed, raising=False)
        for data in expectations:
            fit(data)
        for data in counts:
            fit(data)
            fit(data, weighting="inverse_variance")

    def test_refinement_budget_exhausted_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(estimation, "MAX_REFINE_EVALS", 3)
        noisy = simulate_measurement(oracle_scan(0.8, 0.5), shots=100_000, seed=5)
        assert not fit(noisy).converged

    def test_beta1_above_one_is_held_at_the_bound(self):
        # a V fringe 5% deeper than beta1 = 1 allows: the least-squares
        # beta1 of these counts lies above 1
        scan = oracle_scan(1.0, 2.0)
        deeper = tuple(
            CountResult(r.n_h, 5.0 / 16.0 + 1.05 * (r.n_v - 5.0 / 16.0)) for r in scan.records
        )
        boosted = FringeScan(scan.phis, deeper, "o'")
        result = fit(boosted)
        assert result.converged and result.beta1_hat == 1.0 and result.alpha1_hat == 0.0
        assert circular_distance(result.gamma_hat, 2.0) < 0.05

    def test_fit_matches_scipy_least_squares(self):
        # the refinement that fit used to delegate to scipy: every fit lands
        # on the minimum that scipy's answer, finished by Newton's steps, gives
        rng = np.random.default_rng(2024)
        for seed in range(100):
            scan = oracle_scan(rng.uniform(0.3, 0.95), rng.uniform(0.0, TWO_PI))
            noisy = simulate_measurement(scan, shots=1_000_000, seed=seed)
            for weighting in ("equal", "inverse_variance"):
                assert_fit_at_the_minimum(noisy, weighting)

    @pytest.mark.parametrize("beta1", [5e-4, 0.034, 0.05, 0.3])
    def test_converged_fits_sit_at_the_minimum(self, beta1):
        # small beta1 leaves gamma in a flat valley, where damping alone can
        # shrink a trial step below REFINE_TOL far from the minimum
        for seed in range(20):
            noisy = simulate_measurement(oracle_scan(beta1, 1.0), shots=100_000, seed=seed)
            assert_fit_at_the_minimum(noisy, "inverse_variance")

    @pytest.mark.parametrize("beta1, shots, weighting, seed", [
        (0.002, 1_000_000, "equal", 12), (0.01, 10_000, "inverse_variance", 9)])
    def test_no_stop_where_the_residuals_curve_the_cost(self, beta1, shots, weighting, seed):
        # steps that shrink only by linear convergence: a stop rule on
        # Gauss-Newton's step (J^T J, without the residuals' curvature)
        # stopped these 1e-9 to 2.3e-9 short of the minimum
        noisy = simulate_measurement(oracle_scan(beta1, 2.0), shots=shots, seed=seed)
        assert_fit_at_the_minimum(noisy, weighting)

    def test_equal_weight_fits_on_a_seen_grid_build_no_qr(self, monkeypatch):
        rng = np.random.default_rng(280)
        scans = [simulate_measurement(oracle_scan(rng.uniform(0.1, 1.0), rng.uniform(0.0, TWO_PI)),
                                      shots=100_000, seed=seed) for seed in range(100)]
        fit(scans[0])
        qr, factored = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda *args: (factored.append(args), qr(*args))[1])
        for scan in scans:
            fit(scan)
        assert factored == []
        fit(scans[0], weighting="inverse_variance")  # its weights are the scan's own
        assert len(factored) == 1

    def test_kept_factors_are_the_equal_weight_whitening(self):
        rng = np.random.default_rng(281)
        for k in range(200):
            points = (5, 16, 64)[k % 3]
            phis = np.sort(rng.uniform(0.0, TWO_PI, points)) if k % 2 else None
            scan = oracle_scan(rng.uniform(0.0, 1.0), rng.uniform(0.0, TWO_PI), points, phis=phis)
            if k % 4 < 2:
                scan = simulate_measurement(scan, shots=int(10 ** rng.integers(3, 7)), seed=k)
            phis, y = estimation._channels(scan)
            _, basis, q, r = estimation._fit_grid(phis)
            want_r, want_z = estimation._whiten(basis.T, y, np.ones_like(y))
            assert r.tobytes() == want_r.tobytes()
            assert np.einsum("cni,cn->ci", q, y).tobytes() == want_z.tobytes()

    def test_kept_grid_facts_are_read_only(self):
        phases, *arrays = estimation._fit_grid(np.linspace(0.0, TWO_PI, 16, endpoint=False))
        assert phases == 16
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 2.0
        assert estimation._kept_fit_grid.cache_info().maxsize == observables.TENSOR_CACHE_SIZE

    def test_a_grid_rewritten_in_place_gets_its_own_entry(self):
        estimation._kept_fit_grid.cache_clear()
        grid = np.linspace(0.0, TWO_PI, 16, endpoint=False)
        first = estimation._fit_grid(grid)
        assert estimation._fit_grid(grid.copy()) is first  # the key is the grid's values
        grid[:] = np.linspace(0.5, 3.0, 16)
        phases, basis, q, r = estimation._fit_grid(grid)
        assert phases == 16
        np.testing.assert_array_equal(basis, observables._build_basis(1, grid, 1))
        np.testing.assert_allclose(q[0] @ r[0], basis.T, rtol=0, atol=1e-14)
        grid[:] = np.arange(16) * TWO_PI  # one phase modulo 2*pi, and no factors
        assert estimation._fit_grid(grid)[0::2] == (1, None)
        assert estimation._kept_fit_grid.cache_info().currsize == 3

    def test_summary_format(self):
        result = FitResult(0.6, 1.0, 0.8, 1e-20, True)
        line = result.summary()
        assert line.startswith("beta1=0.6 ")
        assert "converged=true" in line


class TestHarmonics:
    def test_basis_expansion_is_the_transcribed_forms(self):
        rng = np.random.default_rng(15)
        betas = np.concatenate(([0.0, 1.0, 0.0, 1.0], rng.uniform(0.0, 1.0, 60)))
        gammas = rng.uniform(-TWO_PI, 2.0 * TWO_PI, betas.size)
        phis = rng.uniform(-TWO_PI, 2.0 * TWO_PI, 50)
        basis = np.stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
        for beta1, gamma in zip(betas, gammas):
            model = harmonics(REFERENCE_FORMS, float(beta1), float(gamma)) @ basis
            assert np.max(np.abs(model[0] - nh_closed(beta1, gamma, phis))) <= 1e-15
            assert np.max(np.abs(model[1] - nv_closed(beta1, gamma, phis))) <= 1e-15
        # arrays of (beta1, gamma), as the grid uses them, give the scalars'
        # coefficients
        stacked = harmonics(REFERENCE_FORMS, betas, gammas)
        assert stacked.shape == (2, 3, betas.size)
        for k in range(betas.size):
            scalar = harmonics(REFERENCE_FORMS, float(betas[k]), float(gammas[k]))
            assert np.max(np.abs(stacked[..., k] - scalar)) <= 1e-15


class TestModelRejection:
    def test_default_keeps_constructor_calls(self):
        assert not FitResult(0.6, 1.0, 0.8, 1e-20, True).model_rejected

    @pytest.mark.parametrize("weighting", ["equal", "inverse_variance"])
    @pytest.mark.parametrize("shots", [1_000, 100_000, 1_000_000])
    def test_reference_counts_accepted(self, weighting, shots):
        for seed in range(5):
            noisy = simulate_measurement(oracle_scan(0.8, 0.5), shots=shots, seed=seed)
            assert not fit(noisy, weighting=weighting).model_rejected

    @pytest.mark.parametrize("weighting", ["equal", "inverse_variance"])
    def test_evolution_counts_rejected(self, weighting):
        noisy = simulate_measurement(oracle_scan(0.8, 1.0, forms=EVOLUTION), shots=100_000, seed=3)
        result = fit(noisy, weighting=weighting)
        assert result.converged and result.model_rejected

    def test_evolution_expectations_rejected(self):
        result = fit(oracle_scan(0.8, 1.0, forms=EVOLUTION))
        assert result.converged and result.model_rejected

    @pytest.mark.parametrize("scale", [0.98, 1.02])
    def test_count_chi2_threshold(self, scale):
        # the gate rejects when P(chi^2_dof > chi^2) < 0.5 erfc(6 / sqrt 2),
        # a one-sided 6 sigma tail; its limit on chi^2 comes from bisection
        shots, tail = 1_000_000, 0.5 * math.erfc(6.0 / math.sqrt(2.0))
        for n, limit_per_dof in ((3, 11.98), (64, 1.95)):
            dof = 2 * n - 2
            lo, hi = 0.0, 100.0 * dof
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if chi2_survival(mid, dof) > tail else (lo, mid)
            limit = lo / dof
            assert limit == pytest.approx(limit_per_dof, abs=0.005)
            counts = counts_off_the_model(0.6, 1.0, n, shots, scale ** 2 * limit * dof)
            noisy = NoisyScan(tuple(oracle_scan(0.6, 1.0, points=n).phis),
                              tuple(counts[:n].tolist()), tuple(counts[n:].tolist()),
                              shots=shots, seed=0)
            result = fit(noisy)
            fitted = shots * model_counts(result.beta1_hat, result.gamma_hat, n)
            chi2 = float(np.sum((counts - fitted) ** 2 / fitted))
            assert chi2 / dof == pytest.approx(scale ** 2 * limit, rel=0.01)
            assert (chi2 / dof > limit) == (scale > 1.0)
            assert result.converged and result.model_rejected == (scale > 1.0)

    @pytest.mark.parametrize("dof", [2, 4, 126, 1000])
    def test_chi2_survival_in_log_space(self, dof):
        for x in np.linspace(0.0, 20.0 * dof, 41):
            want = chi2_survival(x, dof)
            if want > 0.0:  # the linear-space sum underflows beyond x = 1490
                assert math.exp(_chi2_log_sf(x, dof)) == pytest.approx(want, rel=1e-10)
        # far past that, the log-space sum still gives a finite tail
        assert -math.inf < _chi2_log_sf(1e5, dof) < -4e4

    @pytest.mark.parametrize("rms, rejected", [(0.8 * MODEL_RMS_TOL, False),
                                               (1.25 * MODEL_RMS_TOL, True)])
    def test_expectation_residual_rms_threshold(self, rms, rejected):
        # the fit cannot absorb an offset on the V channel, whose constant
        # term is 5/16 for every beta1 and gamma: residual RMS = offset/sqrt(2)
        scan = oracle_scan(0.6, 1.0)
        offset = math.sqrt(2.0) * rms
        shifted = FringeScan(
            scan.phis, tuple(CountResult(r.n_h, r.n_v + offset) for r in scan.records), "o'"
        )
        result = fit(shifted)
        assert math.sqrt(result.residual_sum_sq / 128) == pytest.approx(rms, rel=1e-3)
        assert result.model_rejected == rejected


class TestInferAlpha1:
    @pytest.mark.parametrize("beta1,expected", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)])
    def test_values(self, beta1, expected):
        assert infer_alpha1(beta1) == pytest.approx(expected, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            infer_alpha1(1.2)
        with pytest.raises(ValueError):
            infer_alpha1(-0.1)


class TestMeasurementCsv:
    def test_noisy_roundtrip(self):
        noisy = simulate_measurement(oracle_scan(0.7, 0.3), shots=5000, seed=11)
        back = read_counts_csv(format_counts_csv(noisy))
        assert isinstance(back, NoisyScan)
        np.testing.assert_array_equal(back.counts_h, noisy.counts_h)
        np.testing.assert_array_equal(back.counts_v, noisy.counts_v)
        assert back.shots == noisy.shots
        np.testing.assert_allclose(back.phis, noisy.phis, rtol=1e-15)

    def test_noiseless_roundtrip_yields_fringe_scan(self):
        scan = oracle_scan(0.6, 1.0)
        back = read_counts_csv(format_counts_csv(scan))
        assert isinstance(back, FringeScan)
        np.testing.assert_allclose(back.column("v"), scan.column("v"), rtol=1e-12)

    @pytest.mark.parametrize(
        "text,match",
        [
            ("phi,counts_h,counts_v\n0,1,2\n", "shots"),
            ("# shots=10\nwrong,header\n0,1,2\n", "header"),
            ("# shots=10\nphi,counts_h,counts_v\n0,1\n", "3 comma-separated"),
            ("# shots=10\nphi,counts_h,counts_v\n0,x,2\n", "malformed number"),
            ("# shots=10\nphi,counts_h,counts_v\n0,inf,2\n", "non-finite"),
            ("# shots=oops\nphi,counts_h,counts_v\n0,1,2\n", "shots"),
            ("# shots=10\nphi,counts_h,counts_v\n0,1,2\n1,1e19,3\n", "below 2\\*\\*63"),
            ("", "no data"),
        ],
    )
    def test_malformed_inputs(self, text, match):
        with pytest.raises(DataFormatError, match=match):
            read_counts_csv(text)

    def test_error_carries_line_number(self):
        try:
            read_counts_csv("# shots=10\nphi,counts_h,counts_v\n0,1,2\n1,zz,3\n")
        except DataFormatError as err:
            assert err.line == 4
        else:
            pytest.fail("expected DataFormatError")

    @pytest.mark.parametrize("text, line", [
        ("# shots=10\n# shots=10\nphi,counts_h,counts_v\n0,1,2\n", 2),
        ("# shots=10\nphi,counts_h,counts_v\n0,1,2\n# shots=20\n1,1,2\n", 4),
        ("phi,n_h,n_v\n0,0.1,0.2\n# shots=1\n#shots= 2\n", 4),
    ])
    def test_a_second_shots_comment_is_refused(self, text, line):
        with pytest.raises(DataFormatError, match="duplicate '# shots=' comment") as err:
            read_counts_csv(text)
        assert err.value.line == line

    @pytest.mark.parametrize("text, line, match", [
        # the first faulty line wins, whichever check it fails
        ("# shots=10\nphi,counts_h,counts_v\n0,1,2\n1,x,2\n# shots=0\n", 4, "malformed"),
        ("# shots=10\nphi,counts_h,counts_v\n0,1,2\n1,1\n# shots=oops\n", 4, "3 comma"),
        ("# shots=10\nphi,counts_h,counts_v\n0,1,2\n# shots=-1\n1,x,2\n", 4, "at least 1"),
        ("# shots=10\nphi,counts_h,counts_v\n0,1,2\n0,-1,2\n1,x\n", 4, "negative"),
        ("# shots=10\nphi,counts_h,counts_v\n0,1,2\n0,1,2\n1,x\n", 4, "does not increase"),
        ("# shots=10\nphi,counts_h,counts_v\n0,1,2\n1,1,2\n2,nan,x\n", 5, "malformed"),
        ("# shots=10\nphi,counts_h,counts_v\n0,1,2\nnan,1,2\n-1,1,2\n", 4, "non-finite"),
    ])
    def test_the_first_faulty_line_is_reported(self, text, line, match):
        with pytest.raises(DataFormatError, match=match) as err:
            read_counts_csv(text)
        assert err.value.line == line

    @settings(max_examples=1000)
    @given(st.integers(0, 2**64 - 1))
    def test_reader_agrees_with_the_per_line_oracle(self, seed):
        text = mutated_csv(random.Random(seed))
        assert read_outcome(read_counts_csv, text) == expected_read_outcome(text)

    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    def test_writers_round_trip_bytes(self, noisy):
        rng = np.random.default_rng(28)
        for _ in range(50):
            if noisy:
                shots, seed = int(rng.integers(1, 10**9)), int(rng.integers(2**32))
                scan = simulate_measurement(random_scan(rng, decades=0), shots, seed)
            else:
                scan = random_scan(rng)
            back = read_counts_csv(format_counts_csv(scan))
            assert type(back) is type(scan)
            assert back.phis.tobytes() == scan.phis.tobytes()
            assert back.counts.dtype == scan.counts.dtype
            assert back.counts.tobytes() == scan.counts.tobytes()
            if noisy:
                assert back.shots == scan.shots
            else:
                again = read_counts_csv(format_scan_csv(scan))
                assert again.phis.tobytes() == scan.phis.tobytes()
                assert again.counts.tobytes() == scan.counts.tobytes()

    def test_writers_write_what_str_format_writes(self):
        rng = np.random.default_rng(29)
        specials = np.array([0.0, -0.0, 5e-324, 1e-310, 1.0, 2.0**63, 1.7976931348623157e308])
        for k in range(60):
            scan = random_scan(rng)
            if k % 3 == 0:  # the extremes of a float's digits
                counts = rng.choice(specials, size=scan.counts.shape)
                scan = FringeScan._of(scan.phis.copy(), counts, "o'", "phi")
            assert format_scan_csv(scan) == braces_scan_csv(scan)
            assert format_counts_csv(scan) == braces_counts_csv(scan)
            shots = int(rng.integers(1, 10**6))
            noisy = simulate_measurement(random_scan(rng, decades=3), shots, k)
            assert format_counts_csv(noisy) == braces_counts_csv(noisy)
        big = NoisyScan([0.0, 1.0], [2**63 - 1, 0], [7, 2**62], shots=10**30, seed=0)
        assert format_counts_csv(big) == braces_counts_csv(big)
        empty = FringeScan._of(np.zeros(0), np.zeros((2, 0)), "o'", "theta")
        assert format_scan_csv(empty) == braces_scan_csv(empty) == "theta,n_h,n_v\n"
        assert format_counts_csv(empty) == braces_counts_csv(empty)


def random_scan(rng, decades: int = 300) -> FringeScan:
    """Expectations below 10**decades at up to 70 random increasing phases."""
    phis = np.unique(rng.uniform(-10.0, 10.0, int(rng.integers(1, 70))))
    exponents = rng.integers(-decades, decades, (2, len(phis)), endpoint=True)
    counts = rng.uniform(0.0, 1.0, (2, len(phis))) * 10.0 ** exponents
    return FringeScan._of(phis, counts, "o'", "phi")


def braces_counts_csv(data) -> str:
    """format_counts_csv as str.format writes it, a line at a time."""
    if isinstance(data, NoisyScan):
        shots, row = data.shots, "{:.17g},{},{}"
    else:
        shots, row = 1, "{:.17g},{:.17g},{:.17g}"
    body = map(row.format, data.phis.tolist(), *data.counts.tolist())
    return "\n".join([f"# shots={shots}", f"{data.sweep},counts_h,counts_v", *body]) + "\n"


def braces_scan_csv(scan) -> str:
    """format_scan_csv as str.format writes it, a line at a time."""
    rows = map("{:.17g},{:.17g},{:.17g}".format, scan.phis.tolist(), *scan.counts.tolist())
    return "\n".join([f"{scan.sweep},n_h,n_v", *rows]) + "\n"


#: Fields that break a row, or nearly do.
ODD_FIELDS = ("x", "", "inf", "-inf", "nan", "NaN", "-1", "-2.5", "-1e-300", "-0", "-0.0",
              "1e19", "9.3e18", "1_0", " 7 ", "0x1", "1e400", "+3", "\u0663", "1e-400")
#: Lines that the reader skips, or reads as a shots comment.
ODD_LINES = ("", "   ", "#", "# note", "# shots=5", "# shots=oops", "# shots=0", "#shots= 12",
             "# shots=-4", "# shots = 3", "# shots=1_000", "\t# shots=7\t")


def mutated_csv(rng: random.Random) -> str:
    """A counts or scan CSV, sound or broken by up to four random edits: a
    field dropped, added or replaced by an odd one, phis swapped or made
    equal, a blank or comment line put anywhere, the header changed; with
    LF, CRLF or CR endings and spaces around fields."""
    noisy = rng.random() < 0.5
    phi_format = rng.choice(("%.17g", "%.2g", "%r"))  # %.2g can repeat a phi
    rows = []
    for phi in sorted(rng.uniform(-1.0, 7.0) for _ in range(rng.randint(0, 6))):
        if noisy:
            counts = [str(rng.randint(0, 10**6)) for _ in range(2)]
        else:
            counts = ["%.17g" % rng.uniform(0.0, 1.0) for _ in range(2)]
        rows.append([phi_format % phi, *counts])
    header = "phi,n_h,n_v" if not noisy and rng.random() < 0.5 else "phi,counts_h,counts_v"
    head = [f"# shots={rng.randint(1, 10**6)}"] if rng.random() < 0.9 else []
    head.append(header)
    extra = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choices(range(7), weights=(1, 1, 4, 2, 2, 3, 1))[0]
        row = rng.choice(rows) if rows else None
        if kind == 0 and row:
            del row[rng.randrange(len(row))]
        elif kind == 1 and row is not None:
            row.insert(rng.randint(0, len(row)), rng.choice(("1", "2.5", "x")))
        elif kind == 2 and row:
            row[rng.randrange(len(row))] = rng.choice(ODD_FIELDS)
        elif kind == 3 and len(rows) >= 2:
            i, j = rng.sample(range(len(rows)), 2)
            if rows[i] and rows[j]:
                rows[i][0], rows[j][0] = rows[j][0], rows[i][0]
        elif kind == 4 and len(rows) >= 2:
            i = rng.randrange(1, len(rows))
            if rows[i] and rows[i - 1]:
                rows[i][0] = rows[i - 1][0]
        elif kind == 5:
            extra.append(rng.choice(ODD_LINES))
        elif kind == 6:
            head[-1] = rng.choice(("phi, counts_h, counts_v", "theta,counts_h,counts_v",
                                   "phi,counts_h", "phi,n_h,n_v", "phi,counts_h,counts_v"))
    lines = head + [rng.choice(("", " ")) + rng.choice((",", " ,", ", ", " , ")).join(row)
                    for row in rows]
    for line in extra:
        lines.insert(rng.randint(0, len(lines)), line)
    if rng.random() < 0.3:  # a broken shots comment at the end, below any faulty row
        lines.append(rng.choice(("# shots=oops", "# shots=0", "# shots=12")))
    ending = rng.choice(("\n", "\r\n", "\r"))
    return ending.join(lines) + rng.choice(("", ending))


def read_outcome(reader, text: str) -> tuple:
    """What ``reader`` makes of ``text``: the scan's type, arrays and shots,
    or its error's type, message and line."""
    try:
        scan = reader(text)
    except ValueError as err:
        return type(err).__name__, str(err), getattr(err, "line", None)
    return (type(scan).__name__, scan.phis.dtype.str, scan.phis.tobytes(),
            scan.counts.dtype.str, scan.counts.shape, scan.counts.tobytes(),
            getattr(scan, "shots", None))


def expected_read_outcome(text: str) -> tuple:
    """The per-line oracle's outcome, except that a second ``# shots=``
    comment is refused at its line unless an earlier line is at fault."""
    want = read_outcome(csv_oracle.read_counts_csv, text)
    shots_lines = [lineno for lineno, raw in enumerate(text.splitlines(), start=1)
                   if raw.strip().startswith("#") and raw.strip()[1:].strip().startswith("shots=")]
    if len(shots_lines) < 2:
        return want
    second = shots_lines[1]
    if want[0] == "DataFormatError" and want[2] is not None and want[2] <= second:
        return want
    return "DataFormatError", f"line {second}: duplicate '# shots=' comment", second
