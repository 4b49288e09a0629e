import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dense_model
from conftest import CIRCUITS_DIR
from engine_helpers import assert_fig1_tensor_run, count_calls, manual_fig1, record_runs
from qiup.errors import PreparationConflictError, QiupWarning
from qiup.estimation import read_counts_csv
from qiup.modes import Band, Mode, ModePair, Polarization, SourceTag
from qiup.observables import (
    CountResult,
    FringeScan,
    conditional_state,
    counts,
    counts_by_path,
    format_scan_csv,
    fringe_scan,
    harmonic_coefficients,
    harmonic_series,
    visibility,
)
from qiup import observables
from qiup.dsl import STATEMENTS, ParamRef, PhaseStmt, PrepareStmt
from qiup.plan import (
    FIG1_SOURCE, CircuitPlan, PlanError, compile_text, fig1_preset, run_plan,
)
from qiup.verification import regime_params

H, V = Polarization.H, Polarization.V
S1 = SourceTag.SOURCE_1
ROOT8 = 1.0 / (2.0 * math.sqrt(2.0))
FULL_PERIOD = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
#: Grids that pass the increasing check but not the finite one.
NON_FINITE_GRIDS = [(math.nan,), (math.inf,), (0.0, math.inf), (-math.inf, 0.0)]
#: Makers of one increasing grid in each form a caller may pass.
GRID_KINDS = {
    "list": lambda: np.linspace(0.0, 6.0, 40).tolist(),
    "tuple": lambda: tuple(np.linspace(0.0, 6.0, 40).tolist()),
    "generator": lambda: (0.15 * k for k in range(40)),
    "int": lambda: np.arange(-3, 9),
    "float32": lambda: np.linspace(0.0, 6.0, 40, dtype=np.float32),
    "strided": lambda: np.linspace(0.0, 6.0, 120)[::3],
}

#: Source 1 emits both photons on path a, where the swept phase reaches both;
#: the idlers share one merged mode, so the signal fringe carries cos(2 phi).
BOTH_BANDS_CIRCUIT = """\
source 1 signal=a idler=a pol=V
source 2 signal=r idler=i pol=V
{phases}
dm a -> signal: s idler: i
merge i V idler
merge s V signal
merge r V signal
bs2 s r -> c d
hwp c angle=$theta band=signal
detect c signal
"""


def regime_state(beta1, gamma, phi, theta=math.pi / 4):
    return manual_fig1(
        math.sqrt(1 - beta1**2), beta1, gamma, 0.0, 1.0, phi, theta
    )


class TestCounts:
    def test_reference_regime_at_zero_phase(self):
        result = counts(regime_state(1.0, 0.0, 0.0), "o'", Band.SIGNAL)
        assert result.n_h == pytest.approx(0.125, abs=1e-12)
        assert result.n_v == pytest.approx(1.125, abs=1e-12)

    def test_reference_regime_at_pi(self):
        result = counts(regime_state(1.0, 0.0, math.pi), "o'", Band.SIGNAL)
        assert result.n_h == pytest.approx(0.125, abs=1e-12)
        assert result.n_v == pytest.approx(0.125, abs=1e-12)

    def test_beta1_zero_is_flat(self):
        for phi in (0.0, 1.0, 2.5):
            for gamma in (0.0, 2.0):
                result = counts(regime_state(0.0, gamma, phi), "o'", Band.SIGNAL)
                assert result.n_h == pytest.approx(0.125, abs=1e-12)
                assert result.n_v == pytest.approx(0.625, abs=1e-12)

    def test_engine_matches_dense_oracle_general_parameters(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            beta1, beta2 = rng.uniform(0, 1, size=2)
            args = (
                math.sqrt(1 - beta1**2), beta1, rng.uniform(0, 2 * math.pi),
                math.sqrt(1 - beta2**2), beta2, rng.uniform(0, 2 * math.pi),
                rng.uniform(0, math.pi),
            )
            engine = manual_fig1(*args)
            dense = dense_model.run_fig1(*args)
            for path in ("o'", "b'", "e'"):
                got = counts(engine, path, Band.SIGNAL)
                want_h, want_v = dense.counts(path)
                assert got.n_h == pytest.approx(want_h, abs=1e-12)
                assert got.n_v == pytest.approx(want_v, abs=1e-12)


class TestConditionalState:
    def test_coefficient_spot_check(self):
        state = manual_fig1(1.0, 0.0, 0.0, 1.0, 0.0, 0.0, math.pi / 4)
        cond = conditional_state(state, "o'", Band.SIGNAL)
        target = ModePair(
            Mode("o'", H, Band.SIGNAL, S1), Mode("f'", V, Band.IDLER, S1)
        )
        amp = cond.amplitude(target)
        assert abs(amp) == pytest.approx(ROOT8, abs=1e-12)
        assert amp.real == pytest.approx(ROOT8, abs=1e-12)
        assert amp.imag == pytest.approx(0.0, abs=1e-12)

    def test_entry_budget_in_reference_regime(self):
        cond = conditional_state(regime_state(0.5, 0.8, 0.9), "o'", Band.SIGNAL)
        assert 0 < len(cond) <= 16

    def test_every_entry_has_signal_on_path(self):
        cond = conditional_state(regime_state(0.5, 0.8, 0.9), "o'", Band.SIGNAL)
        assert all(p.signal.path == "o'" for p, _ in cond.items())

    def test_unoccupied_path_gives_empty_state(self):
        cond = conditional_state(regime_state(0.5, 0.8, 0.9), "nowhere", Band.SIGNAL)
        assert len(cond) == 0

    def test_no_renormalization(self):
        state = regime_state(0.5, 0.8, 0.9)
        cond = conditional_state(state, "o'", Band.SIGNAL)
        nh, nv = state.counts_at("o'", Band.SIGNAL)
        assert cond.norm_sq() == pytest.approx(nh + nv, abs=1e-12)


class TestFringeScan:
    def test_vertical_column_fringe_shape(self):
        beta1 = 0.7
        plan = fig1_preset(regime_params(beta1, 0.0))
        phis = np.linspace(0.0, 2 * math.pi, 65, endpoint=False)
        scan = fringe_scan(plan, "phi", phis)
        expected = (5.0 + 4.0 * beta1 * np.cos(phis)) / 8.0
        np.testing.assert_allclose(scan.column("v"), expected, atol=1e-12)
        np.testing.assert_allclose(scan.column("h"), 0.125, atol=1e-12)

    def test_empty_grid(self):
        plan = fig1_preset(regime_params(0.5, 0.0))
        scan = fringe_scan(plan, "phi", [])
        assert scan.phis.shape == (0,) and scan.counts.shape == (2, 0)
        assert scan.records == ()

    @pytest.mark.parametrize("phis", [(0.0, math.nan, 2.0), (math.nan, math.nan)])
    def test_nan_grid_rejected(self, phis):
        records = tuple(CountResult(0.1, 0.2) for _ in phis)
        with pytest.raises(ValueError, match="strictly increasing"):
            FringeScan(phis, records, "o'")

    def test_sweeping_other_parameters_is_allowed(self):
        plan = fig1_preset(regime_params(0.5, 0.0)).bind({"phi": 0.3})
        scan = fringe_scan(plan, "theta", np.linspace(0.1, 1.2, 5))
        assert len(scan.records) == 5

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            FringeScan((1.0, 0.5), (CountResult(0, 0), CountResult(0, 0)), "o'")

    @pytest.mark.parametrize("grid", [(0.0, math.nan, 2.0), (0.0, 1.0, 1.0), (0.5, 0.2)])
    def test_scan_of_a_bad_grid_refused(self, grid):
        plan = fig1_preset(regime_params(0.5, 0.0))
        with pytest.raises(ValueError, match="scan grid must be strictly increasing"):
            fringe_scan(plan, "phi", grid)

    @pytest.mark.parametrize("grid", NON_FINITE_GRIDS)
    def test_non_finite_grid_refused_before_any_evaluation(self, grid, monkeypatch):
        plan = fig1_preset(regime_params(0.5, 0.0))
        monkeypatch.setattr(observables, "harmonic_coefficients",
                            lambda *args: pytest.fail("evaluated"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="scan grid values must be finite"):
                fringe_scan(plan, "phi", grid)

    @pytest.mark.parametrize("grid", NON_FINITE_GRIDS)
    def test_non_finite_grid_refused_by_the_constructor(self, grid):
        records = tuple(CountResult(0.1, 0.2) for _ in grid)
        with pytest.raises(ValueError, match="scan grid values must be finite"):
            FringeScan(grid, records, "o'")

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_negative_or_non_finite_expectations_refused(self, bad):
        records = (CountResult(0.1, 0.2), CountResult(0.1, bad), CountResult(0.3, 0.2))
        with pytest.raises(ValueError, match="expectations must be finite and nonnegative"):
            FringeScan((0.0, 1.0, 2.0), records, "o'")
        with pytest.raises(ValueError, match="expectations must be finite and nonnegative"):
            FringeScan((0.0, 1.0, 2.0), [CountResult(r.n_v, r.n_h) for r in records], "o'")

    @pytest.mark.parametrize("params, message", [
        pytest.param({"alpha1": 0.6, "beta1": 0.8}, "unbound parameter 'gamma'", id="unbound"),
        pytest.param(dict(regime_params(0.5, 0.0), alpha1=0.6, beta1=0.9),
                     "alpha^2 + beta^2 must be 1, got 1.17", id="not-normalized"),
    ])
    def test_empty_grid_checks_the_bound_values(self, params, message, monkeypatch):
        # the refusal of a one-point grid, without a run or a tensor
        plan = fig1_unbound(**params)
        want = outcome(lambda: fringe_scan(plan, "theta", [0.1]))
        assert message in want[1]
        calls = record_runs(monkeypatch)
        assert outcome(lambda: fringe_scan(plan, "theta", [])) == want
        assert calls == [] and observables._count_tensor.cache_info().currsize == 0

    def test_records_must_match_the_grid(self):
        with pytest.raises(ValueError, match="phis and records must have equal length"):
            FringeScan((0.0, 1.0), (CountResult(0, 0),), "o'")

    def test_generator_grid_scans(self):
        plan = fig1_preset(regime_params(0.5, 0.0))
        scan = fringe_scan(plan, "phi", (float(p) for p in FULL_PERIOD))
        np.testing.assert_array_equal(scan.phis, FULL_PERIOD)
        np.testing.assert_array_equal(scan.counts, fringe_scan(plan, "phi", FULL_PERIOD).counts)

    @pytest.mark.parametrize("kind", GRID_KINDS)
    def test_every_grid_kind_reads_as_fromiter(self, kind):
        plan = fig1_preset(regime_params(0.5, 0.0))
        grid, want = GRID_KINDS[kind](), np.fromiter(GRID_KINDS[kind](), dtype=float)
        scan = fringe_scan(plan, "theta", grid)
        assert scan.phis.dtype == np.float64 and scan.phis.tobytes() == want.tobytes()
        np.testing.assert_array_equal(scan.counts, fringe_scan(plan, "theta", want).counts)
        if isinstance(grid, np.ndarray):  # copied, not frozen
            assert grid.flags.writeable and not np.shares_memory(grid, scan.phis)

    @pytest.mark.parametrize("grid", [np.zeros((2, 3)), np.array(0.5), 0.5])
    def test_grid_must_be_one_dimensional(self, grid):
        with pytest.raises(ValueError, match="grid must be"):
            fringe_scan(fig1_preset(regime_params(0.5, 0.0)), "phi", grid)

    @pytest.mark.parametrize("grid", [
        pytest.param(np.array([0.1 + 2j, 0.5]), id="complex-array"),
        pytest.param([np.complex128(0.1 + 2j), 0.5], id="numpy-complex-list"),
        pytest.param([0.1 + 2j, 0.5], id="python-complex-list"),
        pytest.param((0.1 + 0j, 0.5 + 0j), id="zero-imaginary-tuple"),
    ])
    def test_complex_grid_refused_before_any_evaluation(self, grid, monkeypatch):
        # float conversion would keep the real parts, with at most numpy's warning
        plan = fig1_preset(regime_params(0.5, 0.0))
        monkeypatch.setattr(observables, "_evaluate", lambda *args: pytest.fail("evaluated"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="grid must be one-dimensional and real"):
                fringe_scan(plan, "phi", grid)

    def test_scan_is_read_only_arrays(self):
        grid = FULL_PERIOD.copy()
        scan = fringe_scan(fig1_preset(regime_params(0.5, 0.0)), "theta", grid)
        assert scan.phis.shape == (64,) and scan.counts.shape == (2, 64)
        assert grid.flags.writeable  # the caller's grid is copied, not frozen
        for k, channel in enumerate("hv"):
            column = scan.column(channel)
            assert not column.flags.writeable and np.shares_memory(column, scan.counts)
            np.testing.assert_array_equal(column, scan.counts[k])
        with pytest.raises(ValueError, match="read-only"):
            scan.phis[0] = 1.0
        # records is derived from the arrays on each access
        assert scan.records == tuple(map(CountResult, *scan.counts.tolist()))


def general_fig1_params(rng):
    beta1, beta2 = rng.uniform(0, 1, size=2)
    return {
        "alpha1": math.sqrt(1 - beta1**2), "beta1": beta1,
        "gamma": rng.uniform(0, 2 * math.pi),
        "alpha2": math.sqrt(1 - beta2**2), "beta2": beta2,
        "phi": rng.uniform(0, 2 * math.pi), "theta": rng.uniform(0, math.pi),
    }


def both_bands_plan(phases="phase a value=$phi band=both"):
    plan, diagnostics = compile_text(BOTH_BANDS_CIRCUIT.format(phases=phases))
    assert plan is not None, diagnostics
    return plan.bind({"theta": 0.3})


def with_options(plan, merge_enabled, bs_convention):
    """The plan with the run options that ``--no-merge`` and
    ``--bs-convention`` set."""
    plan = replace(plan, bs_convention=bs_convention)
    return plan if merge_enabled else plan.without_merges()


def loop_scan(plan, sweep, grid):
    """Reference: the full plan run at every grid point."""
    rows = []
    for value in grid:
        state = run_plan(plan.bind({sweep: float(value)}))
        result = counts(state, plan.detect_path, plan.detect_band)
        rows.append((result.n_h, result.n_v))
    return np.array(rows).reshape(-1, 2)


def scan_columns(scan):
    return np.column_stack([scan.column("h"), scan.column("v")]).reshape(-1, 2)


#: fig1 edited so that the swept name reaches more statements: a
#: quarter-wave plate, theta also in the phase, a second plate on theta, and
#: gamma also in a phase on both photons of source 1 (before the dichroic).
FIG1_VARIANTS = {
    "qwp": ("hwp f angle=$theta band=both", "qwp f angle=$theta band=both"),
    "theta_phase": ("phase r value=$phi", "phase r value=$theta"),
    "two_plates": ("hwp f angle=$theta band=both",
                   "hwp f angle=$theta band=both\nhwp e angle=$theta band=signal"),
    "gamma_both": ("dm a ->", "phase a value=$gamma band=both\ndm a ->"),
}
PARTIAL_GRID = np.linspace(0.3, 1.1, 23)


def fig1_variant(name, params):
    old, new = FIG1_VARIANTS[name]
    assert old in FIG1_SOURCE
    plan, diagnostics = compile_text(FIG1_SOURCE.replace(old, new, 1))
    assert plan is not None, diagnostics
    return plan.bind({k: v for k, v in params.items() if k in plan.free_parameters})


class TestHarmonicScan:
    """Sweeps evaluated from 2D + 1 runs against the point loop."""

    @pytest.mark.parametrize("bs_convention", ["symmetric", "hadamard"])
    @pytest.mark.parametrize("merge_enabled", [True, False])
    def test_fig1_general_parameters(self, bs_convention, merge_enabled):
        rng = np.random.default_rng(41)
        for _ in range(5):
            plan = with_options(fig1_preset(general_fig1_params(rng)),
                                merge_enabled, bs_convention)
            scan = fringe_scan(plan, "phi", FULL_PERIOD)
            np.testing.assert_allclose(
                scan_columns(scan), loop_scan(plan, "phi", FULL_PERIOD),
                rtol=0, atol=1e-12,
            )

    @pytest.mark.parametrize("phases", [
        "phase a value=$phi band=both",
        "phase a value=$phi band=signal\nphase a value=$phi band=idler",
    ])
    def test_degree_two_circuits(self, phases):
        plan = both_bands_plan(phases)
        assert plan.harmonic_degree("phi") == (1, 2)
        want = loop_scan(plan, "phi", FULL_PERIOD)
        second = np.abs(np.fft.rfft(want[:, 1]))[2] / len(FULL_PERIOD)
        assert second > 0.1
        got = scan_columns(fringe_scan(plan, "phi", FULL_PERIOD))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert got.min() >= 0.0

    def test_grid_not_spanning_a_period(self):
        grid = np.linspace(0.3, 1.1, 7)
        fig1 = fig1_preset(general_fig1_params(np.random.default_rng(8)))
        for plan in (both_bands_plan(), fig1):
            np.testing.assert_allclose(
                scan_columns(fringe_scan(plan, "phi", grid)),
                loop_scan(plan, "phi", grid), rtol=0, atol=1e-12,
            )

    def test_runs_only_the_sample_points(self, monkeypatch):
        # the first scan of a circuit runs it once, at its count tensor's
        # nodes: each angle's 2D + 1 samples, and 5 values of each alpha/beta
        # pair; later scans of that circuit run nothing
        calls = record_runs(monkeypatch)
        fringe_scan(fig1_preset(regime_params(0.5, 0.0)), "phi", FULL_PERIOD)
        assert_fig1_tensor_run(calls)
        calls.clear()
        fringe_scan(both_bands_plan(), "phi", FULL_PERIOD)
        assert len(calls) == 1
        # phi (phase band=both): 5 samples 2*pi*j/5; theta (hwp band=signal):
        # 5 samples pi*j/5
        phi, theta = np.meshgrid(2 * math.pi * np.arange(5) / 5,
                                 math.pi * np.arange(5) / 5, indexing="ij")
        np.testing.assert_allclose(calls[0]["phi"], phi.ravel(), rtol=0, atol=1e-15)
        np.testing.assert_allclose(calls[0]["theta"], theta.ravel(), rtol=0, atol=1e-15)
        calls.clear()
        fringe_scan(fig1_preset(general_fig1_params(np.random.default_rng(2))),
                    "theta", PARTIAL_GRID)
        fringe_scan(both_bands_plan().bind({"theta": 1.2}), "phi", PARTIAL_GRID)
        assert calls == []

    @staticmethod
    def assert_short_grids_make_one_harmonic_run(plan, members, monkeypatch):
        calls = record_runs(monkeypatch)
        for grid in ([2.5], [0.2, 4.0], [0.2, 1.0, 2.5], [0.2, 1.0, 2.5, 4.0]):
            got = scan_columns(fringe_scan(plan, "phi", grid))
            np.testing.assert_allclose(
                got, loop_scan(plan, "phi", grid), rtol=0, atol=1e-12
            )
        # the first grid's scan builds the count tensor; the others run nothing
        assert [len(c["phi"]) for c in calls] == [members]

    def test_grid_shorter_than_sample_count_makes_one_harmonic_run(self, monkeypatch):
        self.assert_short_grids_make_one_harmonic_run(both_bands_plan(), 25, monkeypatch)

    def test_short_fig1_grid_makes_one_harmonic_run(self, monkeypatch):
        fig1 = fig1_preset(general_fig1_params(np.random.default_rng(5)))
        self.assert_short_grids_make_one_harmonic_run(fig1, 2025, monkeypatch)

    def test_empty_grid_makes_no_run(self, monkeypatch):
        calls = record_runs(monkeypatch)
        scan = fringe_scan(fig1_preset(regime_params(0.5, 0.0)), "phi", [])
        assert calls == [] and scan.phis.shape == (0,) and scan.records == ()
        assert observables._count_tensor.cache_info().currsize == 0

    @pytest.mark.parametrize("bs_convention", ["symmetric", "hadamard"])
    @pytest.mark.parametrize("merge_enabled", [True, False])
    @pytest.mark.parametrize("circuit, sweep, harmonics", [
        pytest.param("fig1", "theta", (2, 4), id="fig1-theta"),
        pytest.param("fig1", "gamma", (1, 1), id="fig1-gamma"),
        pytest.param("qwp", "theta", (2, 4), id="qwp-theta"),
        pytest.param("theta_phase", "theta", (1, 9), id="theta_phase-theta"),
        pytest.param("two_plates", "theta", (2, 6), id="two_plates-theta"),
        pytest.param("gamma_both", "gamma", (1, 3), id="gamma_both-gamma"),
    ])
    def test_angle_sweeps_equal_the_loop(
        self, circuit, sweep, harmonics, merge_enabled, bs_convention
    ):
        rng = np.random.default_rng(17)
        for _ in range(3):
            params = general_fig1_params(rng)
            plan = fig1_preset(params) if circuit == "fig1" else fig1_variant(circuit, params)
            plan = with_options(plan, merge_enabled, bs_convention)
            assert plan.harmonic_degree(sweep) == harmonics
            for grid in (FULL_PERIOD, PARTIAL_GRID):
                np.testing.assert_allclose(
                    scan_columns(fringe_scan(plan, sweep, grid)),
                    loop_scan(plan, sweep, grid),
                    rtol=0, atol=1e-12,
                )

    def test_wave_plate_reaches_its_top_harmonic(self):
        plan, _ = compile_text(
            BOTH_BANDS_CIRCUIT.format(phases="phase a value=$phi band=both")
        )
        plan = plan.bind({"phi": 0.7})
        assert plan.harmonic_degree("theta") == (2, 2)
        want = loop_scan(plan, "theta", FULL_PERIOD)
        fourth = np.abs(np.fft.rfft(want[:, 0]))[4] / len(FULL_PERIOD)
        assert fourth > 0.1
        np.testing.assert_allclose(
            scan_columns(fringe_scan(plan, "theta", FULL_PERIOD)), want, rtol=0, atol=1e-12
        )

    def test_angle_sweeps_run_only_the_sample_points(self, monkeypatch):
        # theta's 9 samples pi*j/9 and gamma's 3 samples 2*pi*j/3 are axes of
        # the one tensor run, which the second sweep reuses
        calls = record_runs(monkeypatch)
        plan = fig1_preset(general_fig1_params(np.random.default_rng(3)))
        fringe_scan(plan, "theta", FULL_PERIOD)
        assert_fig1_tensor_run(calls)
        calls.clear()
        fringe_scan(plan, "gamma", FULL_PERIOD)
        assert calls == []

    def test_preparation_sweep_is_refused(self, monkeypatch):
        # the other amplitude of the pair is fixed, so no two points of an
        # alpha sweep are normalized: refused at every grid length, unrun
        plan, diagnostics = compile_text(
            BOTH_BANDS_CIRCUIT.format(phases="prepare a idler alpha=$alpha beta=0.8 gamma=0")
        )
        assert plan is not None, diagnostics
        plan = plan.bind({"theta": 0.3})
        assert plan.harmonic_degree("alpha") is None
        calls = record_runs(monkeypatch)
        refusal = "cannot sweep 'alpha': only angles sweep"
        for grid in ([], [0.6], [0.6, 0.7], FULL_PERIOD):
            with pytest.raises(ValueError, match=refusal):
                fringe_scan(plan, "alpha", grid)
        with pytest.raises(ValueError, match=refusal):
            harmonic_coefficients(plan, "alpha")
        assert calls == []

    @pytest.mark.parametrize("sweep", ["phi", "theta", "gamma"])
    def test_cell_batched_coefficients_equal_scalar_scans(self, sweep, monkeypatch):
        rng = np.random.default_rng(13)
        cells = [general_fig1_params(rng) for _ in range(4)]
        plan = fig1_preset({name: np.array([cell[name] for cell in cells])
                            for name in cells[0]})
        calls = record_runs(monkeypatch)
        frequency, coeffs = harmonic_coefficients(plan, sweep)
        degree = plan.harmonic_degree(sweep)[1]
        assert coeffs.shape == (2, len(cells), 2 * degree + 1)
        assert_fig1_tensor_run(calls)
        for i, cell in enumerate(cells):
            want = scan_columns(fringe_scan(fig1_preset(cell), sweep, FULL_PERIOD))
            got = harmonic_series(coeffs[:, i], frequency, FULL_PERIOD).T
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert len(calls) == 1

    def test_theta_sweep_matches_the_dense_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            params = general_fig1_params(rng)
            scan = fringe_scan(fig1_preset(params), "theta", FULL_PERIOD)
            for k in rng.choice(len(FULL_PERIOD), size=4, replace=False):
                dense = dense_model.run_fig1(**dict(params, theta=float(FULL_PERIOD[k])))
                want_h, want_v = dense.counts("o'")
                assert scan.records[k].n_h == pytest.approx(want_h, abs=1e-12)
                assert scan.records[k].n_v == pytest.approx(want_v, abs=1e-12)

    def test_unknown_sweep_name(self):
        plan = fig1_preset(regime_params(0.5, 0.0))
        for grid in (FULL_PERIOD, []):  # an empty grid still names the sweep
            with pytest.raises(PlanError) as err:
                fringe_scan(plan, "bogus", grid)
            assert err.value.code == "E_UNKNOWN_PARAM"

    def test_unbound_parameter_still_surfaces(self):
        plan, _ = compile_text(
            BOTH_BANDS_CIRCUIT.format(phases="phase a value=$phi band=both")
        )
        with pytest.raises(PlanError) as err:
            fringe_scan(plan, "phi", FULL_PERIOD)
        assert err.value.code == "E_UNBOUND_PARAM"
        assert "theta" in str(err.value)


def sampled_coefficients(plan, sweep):
    """``harmonic_coefficients`` with every count tensor refused: one run
    with the sweep alone bound to its samples."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(observables, "TENSOR_MAX_MEMBERS", 0)
        observables._count_tensor.cache_clear()
        try:
            return harmonic_coefficients(plan, sweep)
        finally:
            observables._count_tensor.cache_clear()


def tensor_of(plan):
    return observables._count_tensor(plan._structure)


def outcome(call):
    """(type, message, code) of the exception that ``call`` raises."""
    with pytest.raises(Exception) as err:
        call()
    return type(err.value), str(err.value), getattr(err.value, "code", None)


#: Raises QiupWarning at every run: path a is empty once the dichroic
#: mirror has routed both photons off it.
EMPTY_SPLITTER_CIRCUIT = """\
source 1 signal=a idler=a pol=V
dm a -> signal: s idler: i
bs a -> c d
phase s value=$phi band=signal
detect s signal
"""

#: The second preparation needs a purely vertical idler on a, which the
#: first leaves only at alpha = 0.
TWO_PREPARATIONS_CIRCUIT = """\
source 1 signal=a idler=a pol=V
prepare a idler alpha=$alpha beta=$beta gamma=0
prepare a idler alpha=0 beta=1 gamma=0
phase a value=$phi band=signal
detect a signal
"""

#: Nine angles of 3 samples each: a product grid of 3^9 = 19683 members.
NINE_PHASES_CIRCUIT = "source 1 signal=a idler=a pol=V\n" + "".join(
    f"phase a value=$p{k} band=signal\n" for k in range(9)
) + "detect a signal\n"


def compiled(text, **params):
    plan, diagnostics = compile_text(text)
    assert plan is not None, diagnostics
    return plan.bind(params)


class TestCountTensor:
    """Sweeps read each circuit's count tensor, built in one run and cached."""

    @pytest.mark.parametrize("bs_convention", ["symmetric", "hadamard"])
    @pytest.mark.parametrize("merge_enabled", [True, False])
    @pytest.mark.parametrize("circuit, sweep", [
        ("fig1", "phi"), ("fig1", "theta"), ("fig1", "gamma"), ("qwp", "theta"),
        ("theta_phase", "theta"), ("two_plates", "theta"), ("gamma_both", "gamma"),
    ])
    def test_equals_the_sampled_run(self, circuit, sweep, merge_enabled, bs_convention):
        rng = np.random.default_rng(19)
        rows = [general_fig1_params(rng) for _ in range(4)]
        cells = {name: np.array([row[name] for row in rows]) for name in rows[0]}
        for params in rows[:3] + [cells]:
            plan = fig1_preset(params) if circuit == "fig1" else fig1_variant(circuit, params)
            plan = with_options(plan, merge_enabled, bs_convention)
            want = sampled_coefficients(plan, sweep)
            frequency, got = harmonic_coefficients(plan, sweep)
            assert tensor_of(plan) is not None
            assert frequency == want[0] and got.shape == want[1].shape
            np.testing.assert_allclose(got, want[1], rtol=0, atol=1e-12)

    def test_fig1_matches_the_dense_oracle(self):
        rng = np.random.default_rng(31)
        rows = [general_fig1_params(rng) for _ in range(200)]
        plan = fig1_preset({name: np.array([row[name] for row in rows]) for name in rows[0]})
        frequency, coeffs = harmonic_coefficients(plan, "phi")
        assert tensor_of(plan) is not None
        phis = plan.bindings["phi"]
        # each cell's series at its own phi
        got = (coeffs[..., 0] + coeffs[..., 1] * np.cos(frequency * phis)
               + coeffs[..., 2] * np.sin(frequency * phis))
        for i, row in enumerate(rows):
            want = dense_model.run_fig1(**row).counts("o'")
            np.testing.assert_allclose(got[:, i], want, rtol=0, atol=1e-12)

    def test_fig1_h_channel_never_fringes(self):
        # the paper's no-go at every node of every other parameter: source
        # 1's H amplitudes keep their which-source tag, so the H count is
        # constant in phi; without the merges neither channel fringes
        fig1 = fig1_preset(regime_params(0.5, 0.0))
        for plan, channels in ((fig1, [0]), (fig1.without_merges(), [0, 1])):
            tensor = tensor_of(plan)
            phi = [axis.names for axis in tensor.axes].index(("phi",))
            spread = np.ptp(tensor.counts, axis=phi + 1)
            assert spread[channels].max() < 1e-13
        assert spread_of_v(fig1) > 0.1

    def test_a_pair_at_the_normalization_edge(self):
        # off the unit circle by 0.9e-10, which the checks pass: evaluated on
        # the circle, within about that much of the run
        scale = math.sqrt(1.0 + 0.9e-10)
        params = dict(general_fig1_params(np.random.default_rng(7)))
        for name in ("alpha1", "beta1", "alpha2", "beta2"):
            params[name] *= scale
        plan = fig1_preset(params)
        np.testing.assert_allclose(
            scan_columns(fringe_scan(plan, "theta", FULL_PERIOD)),
            loop_scan(plan, "theta", FULL_PERIOD), rtol=0, atol=1e-9,
        )

    @pytest.mark.parametrize("plan, sweep, members", [
        # alpha is neither an angle nor half of an alpha/beta pair
        pytest.param(
            compiled(BOTH_BANDS_CIRCUIT.format(
                phases="prepare a idler alpha=$alpha beta=0.8 gamma=0"), alpha=0.6, theta=0.3),
            "theta", 5, id="not-a-pair"),
        pytest.param(compiled(NINE_PHASES_CIRCUIT, **{f"p{k}": 0.1 * k for k in range(9)}),
                     "p4", 3, id="over-the-cap"),
        pytest.param(compiled(TWO_PREPARATIONS_CIRCUIT, alpha=0.0, beta=1.0),
                     "phi", 3, id="build-raises"),
    ])
    def test_a_refused_circuit_runs_once_per_sweep(self, plan, sweep, members, monkeypatch):
        calls = record_runs(monkeypatch)
        for grid in (FULL_PERIOD, PARTIAL_GRID):
            np.testing.assert_allclose(
                scan_columns(fringe_scan(plan, sweep, grid)),
                loop_scan(plan, sweep, grid), rtol=0, atol=1e-12,
            )
        assert tensor_of(plan) is None
        # a build that raised counts as one more run
        assert [len(c[sweep]) for c in calls][-2:] == [members, members]

    def test_a_build_that_raises_keeps_the_error_at_its_values(self):
        plan = compiled(TWO_PREPARATIONS_CIRCUIT, alpha=0.6, beta=0.8)
        want = outcome(lambda: run_plan(plan.bind({"phi": 0.0})))
        assert want[0] is PreparationConflictError
        assert outcome(lambda: fringe_scan(plan, "phi", FULL_PERIOD)) == want

    def test_a_build_that_warns_leaves_the_warning_to_every_scan(self, monkeypatch):
        plan = compiled(EMPTY_SPLITTER_CIRCUIT)
        calls = record_runs(monkeypatch)
        for _ in range(2):
            with pytest.warns(QiupWarning, match="unoccupied"):
                fringe_scan(plan, "phi", FULL_PERIOD)
        assert tensor_of(plan) is None
        # the build that warned, then one run per scan
        assert [len(c["phi"]) for c in calls] == [3, 3, 3]

    def test_cache_is_bounded_and_read_only(self, monkeypatch):
        calls = record_runs(monkeypatch)
        fig1 = fig1_preset(regime_params(0.5, 0.0))
        plans = [with_options(fig1, merge, convention)
                 for merge in (True, False) for convention in ("symmetric", "hadamard")]
        plans.append(fig1_variant("qwp", regime_params(0.5, 0.0)))
        assert len(plans) > observables.TENSOR_CACHE_SIZE
        for plan in plans:
            fringe_scan(plan, "phi", FULL_PERIOD)
        assert observables._count_tensor.cache_info().currsize == observables.TENSOR_CACHE_SIZE
        assert len(calls) == len(plans)
        fringe_scan(plans[0], "phi", FULL_PERIOD)  # the least recently used, dropped
        assert len(calls) == len(plans) + 1
        tensor = tensor_of(plans[0])
        for array in (tensor.counts, tensor.series, *(axis.nodes for axis in tensor.axes)):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1.0

    def test_later_sweeps_neither_run_nor_transform(self, monkeypatch):
        # after the first sweep of each name, sweeps at new scalar and cell
        # values contract the layouts that it cut, built once and read-only,
        # with the axes it sorted
        rng = np.random.default_rng(43)

        def plans():
            rows = [general_fig1_params(rng) for _ in range(3)]
            cells = dict(rows[0], **{name: np.array([row[name] for row in rows])
                                     for name in ("alpha1", "beta1", "theta")})
            return [fig1_preset(rows[0]), fig1_preset(cells)]

        sweeps = ("phi", "theta", "gamma")
        later = plans()
        wants = [sampled_coefficients(plan, sweep) for plan in later for sweep in sweeps]
        for plan in plans():
            for sweep in sweeps:
                harmonic_coefficients(plan, sweep)
        tensor = tensor_of(later[0])
        contractions = dict(tensor.sweeps)
        # per sweep: every name a scalar, and alpha1, beta1 (and theta) cells
        assert len(contractions) == 2 * len(sweeps)

        def refuse(*args, **kwargs):
            raise AssertionError("a later sweep ran the circuit or transformed counts")

        monkeypatch.setattr(observables, "run_plan", refuse)
        monkeypatch.setattr(observables, "_real_form", refuse)
        gots = [harmonic_coefficients(plan, sweep) for plan in later for sweep in sweeps]
        fringe_scan(later[0], "theta", FULL_PERIOD)
        for (frequency, got), (want_frequency, want) in zip(gots, wants):
            assert frequency == want_frequency and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert tensor_of(later[1]) is tensor
        assert tensor.sweeps.keys() == contractions.keys()
        for key, contraction in contractions.items():
            assert tensor.sweeps[key] is contraction
            layout = contraction[-1]
            assert layout.flags.c_contiguous
            with pytest.raises(ValueError, match="read-only"):
                layout[0, 0, 0] = 1.0

    @pytest.mark.parametrize("edges", [
        pytest.param(dict(alpha1=1.0, beta1=0.0), id="pair-at-1-0"),
        pytest.param(dict(alpha2=0.0, beta2=1.0), id="pair-at-0-1"),
        pytest.param(dict(alpha1=math.cos(math.pi / 8), beta1=math.sin(math.pi / 8),
                          alpha2=math.cos(3 * math.pi / 8), beta2=math.sin(3 * math.pi / 8)),
                     id="pairs-on-chi-nodes"),
        pytest.param(dict(theta=2.0 * math.pi * 3 / 9 / 2, gamma=2.0 * math.pi / 3),
                     id="angles-on-nodes"),
        pytest.param(dict(theta=-7.3, gamma=40.0, phi=-7.3), id="angles-below-0"),
        pytest.param(dict(theta=40.0, gamma=-7.3, phi=40.0), id="angles-above-2pi"),
    ])
    @pytest.mark.parametrize("sweep", ["phi", "theta", "gamma"])
    def test_edge_bindings_equal_the_sampled_run(self, edges, sweep):
        rng = np.random.default_rng(47)
        rows = [dict(general_fig1_params(rng), **edges) for _ in range(3)]
        cells = {name: np.array([row[name] for row in rows]) for name in rows[0]}
        for params in (rows[0], dict(cells, **edges), cells):
            plan = fig1_preset(params)
            want = sampled_coefficients(plan, sweep)
            frequency, got = harmonic_coefficients(plan, sweep)
            assert tensor_of(plan) is not None
            assert frequency == want[0] and got.shape == want[1].shape
            np.testing.assert_allclose(got, want[1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sweep", ["theta", "phi", "gamma"])
    def test_sign_rule_on_fig1s_tensor(self, sweep):
        # (beta1, gamma) and (-beta1, gamma + pi) prepare the same state.  The
        # engine refuses a negative amplitude, but the tensor's chi axis is a
        # polynomial in chi = atan2(beta1, alpha1), defined at -chi
        rng = np.random.default_rng(71)
        fig1 = fig1_preset(general_fig1_params(rng))
        tensor, (frequency, _) = tensor_of(fig1), fig1.harmonic_degree(sweep)
        grid = rng.uniform(0.0, 2.0 * math.pi, 16)
        shift = math.pi if sweep == "gamma" else 0.0  # the sweep carries gamma's shift
        for _ in range(200):
            params = general_fig1_params(rng)
            mirrored = dict(params, beta1=-params["beta1"], gamma=params["gamma"] + math.pi)
            values = []
            for bindings, at in ((params, grid), (mirrored, grid + shift)):
                series = tensor.sweep_series(bindings, sweep)
                values.append(series @ observables._basis(frequency, at, series.shape[-1] // 2))
            np.testing.assert_allclose(values[1], values[0], rtol=0, atol=1e-12)


def spread_of_v(plan):
    scan = fringe_scan(plan, "phi", FULL_PERIOD)
    return np.ptp(scan.column("v"))


def fig1_unbound(**params):
    """fig1 with ``params`` bound as given, past fig1_preset's E_NORM check."""
    return compiled(FIG1_SOURCE, **params)


BAD_CELL = dict(regime_params(0.5, 0.0), phi=0.0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: fringe_scan(fig1_preset(regime_params(0.5, 0.0)), "bogus", FULL_PERIOD),
                 id="unknown-param"),
    pytest.param(lambda: fringe_scan(fig1_preset(regime_params(0.5, 0.0)), "alpha2", FULL_PERIOD),
                 id="alpha-beta-sweep"),
    pytest.param(lambda: fringe_scan(
        fig1_preset(dict(regime_params(0.5, 0.0), theta=np.array([0.1, 0.5]))), "phi", FULL_PERIOD),
        id="batch-shape"),
    pytest.param(lambda: fringe_scan(fig1_unbound(**{
        k: v for k, v in regime_params(0.5, 0.0).items() if k != "theta"}), "phi", FULL_PERIOD),
        id="unbound"),
    pytest.param(lambda: fringe_scan(fig1_unbound(**dict(BAD_CELL, alpha1=-0.6, beta1=0.8)),
                                     "theta", FULL_PERIOD), id="negative"),
    pytest.param(lambda: fringe_scan(fig1_unbound(**dict(BAD_CELL, alpha2=0.6, beta2=0.81)),
                                     "phi", FULL_PERIOD), id="not-normalized"),
    pytest.param(lambda: fringe_scan(replace(fig1_preset(regime_params(0.5, 0.0)),
                                             bindings=dict(BAD_CELL, gamma=math.inf)),
                                     "theta", FULL_PERIOD), id="infinite-phase"),
    pytest.param(lambda: harmonic_coefficients(fig1_unbound(**dict(
        BAD_CELL, alpha1=np.array([0.6, 0.6, 0.6]), beta1=np.array([0.8, 0.8, 0.9]))), "phi"),
        id="cell-not-normalized"),
])
def test_checks_hold_on_a_cached_tensor(call):
    """Each refusal and each check raises the same before a tensor is built
    and after, and builds none."""
    observables._count_tensor.cache_clear()
    fresh = outcome(call)
    assert observables._count_tensor.cache_info().currsize == 0
    fringe_scan(fig1_preset(regime_params(0.5, 0.0)), "phi", FULL_PERIOD)
    assert tensor_of(fig1_preset(regime_params(0.5, 0.0))) is not None
    assert outcome(call) == fresh


@pytest.mark.parametrize("params, message", [
    ({k: v for k, v in BAD_CELL.items() if k != "theta"}, "unbound parameter 'theta'"),
    (dict(BAD_CELL, alpha1=-0.6, beta1=0.8), "preparation amplitudes must be nonnegative"),
    (dict(BAD_CELL, alpha2=0.6, beta2=0.81), "alpha^2 + beta^2 must be 1, got 1.0161"),
    (dict(BAD_CELL, alpha1=np.array([0.6, 0.6, 0.6]), beta1=np.array([0.8, 0.8, 0.9])),
     "alpha^2 + beta^2 must be 1, got 1.17 (batch member 2)"),
])
def test_checks_raise_what_a_run_raises(params, message):
    plan = fig1_unbound(**params)
    for call in (lambda: run_plan(plan), lambda: harmonic_coefficients(plan, "phi")):
        with pytest.raises(ValueError) as err:
            call()
        assert message in str(err.value)


class TestStructure:
    """A re-bound plan reaches its structure's table and tensor without a
    pipeline walk or a rehash, and a new structure gets its own."""

    def test_no_structural_work_per_call(self, monkeypatch):
        rng = np.random.default_rng(53)
        plans = [fig1_preset(general_fig1_params(rng)) for _ in range(100)]
        wants = [sampled_coefficients(plan, "theta") for plan in plans]
        fringe_scan(fig1_preset(regime_params(0.5, 0.0)), "theta", FULL_PERIOD)
        degrees = count_calls(monkeypatch, CircuitPlan, "harmonic_degree")
        hashes = [count_calls(monkeypatch, cls, "__hash__")
                  for cls in {cls for cls, _ in STATEMENTS.values()}]
        # fresh plans at fresh values, each bound from the preset
        rng = np.random.default_rng(53)
        gots = [harmonic_coefficients(fig1_preset(general_fig1_params(rng)), "theta")
                for _ in plans]
        assert degrees == [] and all(calls == [] for calls in hashes)
        for (frequency, got), (want_frequency, want) in zip(gots, wants):
            assert frequency == want_frequency
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_the_grid_is_paid_once(self, monkeypatch):
        rng = np.random.default_rng(61)
        plans = [fig1_preset(general_fig1_params(rng)) for _ in range(100)]
        wants = [sampled_coefficients(plan, "theta") for plan in plans]
        grid, written = FULL_PERIOD.copy(), np.linspace(0.05, 6.0, 64)
        expected = [[harmonic_series(coeffs, frequency, points) for points in (grid, written)]
                    for frequency, coeffs in wants]
        observables._kept_basis.cache_clear()
        fringe_scan(plans[0], "theta", grid)
        builds = count_calls(monkeypatch, observables, "_build_basis")
        scans = [fringe_scan(plan, "theta", grid) for plan in plans]
        for scan, (want, _) in zip(scans, expected):
            np.testing.assert_allclose(scan.counts, want, rtol=0, atol=1e-12)
        frequency, coeffs = wants[0]
        basis = observables._basis(frequency, grid, coeffs.shape[-1] // 2)
        assert builds == []
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0] = 2.0
        # the key is the grid's values, not the array that holds them
        grid[:] = written
        for k in (0, 1):
            scan = fringe_scan(plans[k], "theta", grid)
            np.testing.assert_array_equal(scan.phis, written)
            np.testing.assert_allclose(scan.counts, expected[k][1], rtol=0, atol=1e-12)
        assert len(builds) == 1

    def test_a_new_structure_gets_its_own_table_and_tensor(self):
        bound = fig1_preset(general_fig1_params(np.random.default_rng(59)))
        edited, _ = compile_text(FIG1_SOURCE.replace("hwp f", "qwp f"))
        others = [replace(bound, bs_convention="hadamard"), bound.without_merges(),
                  edited.bind(bound.bindings)]
        wants = [sampled_coefficients(plan, sweep)
                 for plan in [bound, *others] for sweep in ("theta", "phi")]
        gots = [harmonic_coefficients(plan, sweep)
                for plan in [bound, *others] for sweep in ("theta", "phi")]
        for (frequency, got), (want_frequency, want) in zip(gots, wants):
            assert frequency == want_frequency
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for other in others:
            assert other._structure is not bound._structure
            assert tensor_of(other) is not tensor_of(bound)
        for k in range(2, len(gots), 2):  # each structure's theta series differs
            assert np.abs(gots[k][1] - gots[0][1]).max() > 1e-3
        # a structurally equal plan, compiled separately, finds the tensor
        twin = compiled(FIG1_SOURCE, **bound.bindings)
        assert twin._structure is not bound._structure
        before = observables._count_tensor.cache_info()
        harmonic_coefficients(twin, "theta")
        after = observables._count_tensor.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert tensor_of(twin) is tensor_of(bound)

    def test_a_replaced_pipeline_has_its_own_names(self, monkeypatch):
        # fig1 without its phase statement, by ``replace`` on a plan whose
        # names, degrees and tensor have all been read: none of them carries over
        plan = fig1_preset(regime_params(0.5, 0.0))
        harmonic_coefficients(plan, "phi")
        assert "phi" in plan.free_parameters and plan.harmonic_degree("phi") == (1, 1)
        pipeline = tuple(s for s in plan.pipeline if not isinstance(s, PhaseStmt))
        stale = replace(plan, pipeline=pipeline,
                        bindings={k: v for k, v in plan.bindings.items() if k != "phi"})
        assert stale.free_parameters == plan.free_parameters - {"phi"}
        assert stale.harmonic_degree("phi") is None
        calls = record_runs(monkeypatch)
        for call in (lambda: stale.bind({"phi": 0.1}),
                     lambda: fringe_scan(stale, "phi", FULL_PERIOD),
                     lambda: fringe_scan(stale, "phi", []),
                     lambda: harmonic_coefficients(stale, "phi")):
            with pytest.raises(PlanError) as err:
                call()
            assert err.value.code == "E_UNKNOWN_PARAM" and "phi" in str(err.value)
        assert calls == []

    def test_the_swept_names_own_binding_is_not_checked(self):
        # the sweep binds gamma to its samples, so an infinite gamma, which
        # only replace can put there, reads as any other
        plan = fig1_preset(regime_params(0.5, 0.0))
        stale = replace(plan, bindings=dict(plan.bindings, gamma=math.inf))
        for _ in range(2):  # a fresh table, then the same
            np.testing.assert_array_equal(harmonic_coefficients(stale, "gamma")[1],
                                          harmonic_coefficients(plan, "gamma")[1])

    @pytest.mark.parametrize("params, sweep, code, message", [
        pytest.param({}, "bogus", "E_UNKNOWN_PARAM", "not free parameters of this plan: bogus",
                     id="unknown-param"),
        pytest.param({}, "beta2", None, "cannot sweep 'beta2'", id="alpha-beta-sweep"),
        pytest.param({"theta": np.array([0.1, 0.5])}, "phi", "E_BATCH_SHAPE",
                     "fringe_scan needs scalar bindings", id="batch-shape"),
        pytest.param({"theta": None}, "phi", "E_UNBOUND_PARAM", "unbound parameter 'theta'",
                     id="unbound"),
        pytest.param({"alpha2": -0.6, "beta2": 0.8}, "theta", None,
                     "preparation amplitudes must be nonnegative", id="negative"),
        pytest.param({"alpha1": 0.6, "beta1": 0.81}, "phi", None,
                     "alpha^2 + beta^2 must be 1, got 1.0161", id="not-normalized"),
        pytest.param({"gamma": math.inf}, "theta", None,
                     "relative phase must be finite, got inf", id="infinite-phase"),
        pytest.param({"alpha1": np.array([0.6, 0.6, 0.6]), "beta1": np.array([0.8, 0.8, 0.9])},
                     "phi", None, "alpha^2 + beta^2 must be 1, got 1.17 (batch member 2)",
                     id="cell-not-normalized"),
        # the first prepare fails and the wave plate's name is unbound: the
        # prepare comes first in the pipeline, so its error wins
        pytest.param({"alpha1": -0.6, "beta1": 0.8, "theta": None}, "phi", None,
                     "preparation amplitudes must be nonnegative", id="earlier-failure"),
    ])
    def test_same_refusals_first_and_later(self, params, sweep, code, message):
        """A refusal reads the same on a plan's first sweep, on later ones,
        on a plan bound afresh after a sibling has swept, and, where a run
        would raise it, as the run does."""
        values = {k: v for k, v in dict(BAD_CELL, **params).items() if v is not None}
        finite = {k: v for k, v in values.items() if not np.isinf(v).any()}
        parent = compiled(FIG1_SOURCE)
        if finite != values:  # past bind's finite check, as replace puts it
            parent = replace(parent, bindings=values)
        cells = any(isinstance(v, np.ndarray) for v in values.values())
        sweeps = harmonic_coefficients if cells and code is None else (
            lambda plan, sweep: fringe_scan(plan, sweep, FULL_PERIOD))
        plan = parent.bind(finite)
        first = outcome(lambda: sweeps(plan, sweep))
        assert first[2] == code and message in first[1]
        assert outcome(lambda: sweeps(plan, sweep)) == first
        harmonic_coefficients(parent.bind(BAD_CELL), "theta")  # the table and the tensor
        assert tensor_of(parent.bind(BAD_CELL)) is not None
        assert outcome(lambda: sweeps(plan, sweep)) == first
        assert outcome(lambda: sweeps(parent.bind(finite), sweep)) == first
        if message.startswith(("unbound", "preparation", "alpha^2", "relative")):
            assert outcome(lambda: run_plan(plan.bind({sweep: 0.0}))) == first


#: fig1's free names, a preparation's pair as one unit.
FIG1_UNITS = (("alpha1", "beta1"), ("gamma",), ("alpha2", "beta2"), ("phi",), ("theta",))
#: waveplate_prep with its three wave-plate angles freed: four angle axes.
WAVEPLATE_TEXT = (CIRCUITS_DIR / "waveplate_prep.qiup").read_text().replace(
    "hwp a angle=22.5", "hwp a angle=$h").replace(
    "qwp a angle=0", "qwp a angle=$q").replace("hwp f angle=45", "hwp f angle=$t")
CELL_CIRCUITS = {
    "fig1": (FIG1_UNITS, ("phi", "theta", "gamma")),
    "distinguishable_mzi": ((("phi",), ("theta",)), ("phi", "theta")),
    "waveplate_prep": ((("phi",), ("h",), ("q",), ("t",)), ("phi", "h", "q", "t")),
}


def draw_unit(unit, rng):
    """Values for one unit: a pair on the unit circle's first quadrant, or
    an angle."""
    if len(unit) == 2:
        chi = rng.uniform(0.0, math.pi / 2)
        return {unit[0]: math.cos(chi), unit[1]: math.sin(chi)}
    return {unit[0]: rng.uniform(0.0, 2.0 * math.pi)}


def cell_bindings(units, kinds, size, rng):
    """(bindings, rows): each unit bound per its kind to ``size`` cells of
    its own values ("cells"), to one value as scalars ("scalar"), or to one
    value with its first name an array that repeats it ("repeated"); and the
    scalar bindings of every cell."""
    bindings, rows = {}, [{} for _ in range(size)]
    for unit, kind in zip(units, kinds):
        if kind == "cells":
            values = [draw_unit(unit, rng) for _ in range(size)]
            bindings.update({name: np.array([v[name] for v in values]) for name in unit})
        else:
            values = [draw_unit(unit, rng)] * size
            bindings.update(values[0])
            if kind == "repeated":
                bindings[unit[0]] = np.full(size, values[0][unit[0]])
        for row, value in zip(rows, values):
            row.update(value)
    return bindings, rows


def circuit_plan(circuit, bindings):
    if circuit == "fig1":
        return fig1_preset(bindings)
    text = WAVEPLATE_TEXT if circuit == "waveplate_prep" else TestDistinguishableMzi.TEXT
    return compiled(text, **bindings)


@given(circuit=st.sampled_from(sorted(CELL_CIRCUITS)), data=st.data())
def test_scalar_axes_first_gives_each_cells_counts(circuit, data):
    """Any names bound to any number of cells, one included, the rest
    scalars: the count tensor folds the scalar axes first, then weighs every
    cell at once, and each cell's series is still its own."""
    units, sweeps = CELL_CIRCUITS[circuit]
    sweep = data.draw(st.sampled_from(sweeps), label="sweep")
    others = [unit for unit in units if unit != (sweep,)]
    kinds = data.draw(st.lists(st.sampled_from(["scalar", "cells", "repeated"]),
                               min_size=len(others), max_size=len(others)), label="kinds")
    size = data.draw(st.sampled_from([1, 3, 7]), label="cells")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    bindings, rows = cell_bindings(others, kinds, size, rng)
    bindings[sweep] = 0.0
    plan = circuit_plan(circuit, bindings)
    frequency, coeffs = harmonic_coefficients(plan, sweep)
    assert tensor_of(plan) is not None
    cells = any(isinstance(v, np.ndarray) for v in bindings.values())
    coeffs = coeffs if cells else coeffs[:, None]
    assert coeffs.shape[1] == (size if cells else 1)
    grid = rng.uniform(0.0, 2.0 * math.pi, 4)
    for i in range(coeffs.shape[1]):
        cell = dict(rows[i], **{sweep: 0.0})
        np.testing.assert_allclose(
            coeffs[:, i], harmonic_coefficients(circuit_plan(circuit, cell), sweep)[1],
            rtol=0, atol=1e-13)
        if circuit == "fig1":
            got = harmonic_series(coeffs[:, i], frequency, grid)
            for k, x in enumerate(grid):
                want = dense_model.run_fig1(**dict(cell, **{sweep: x})).counts("o'")
                np.testing.assert_allclose(got[:, k], want, rtol=0, atol=1e-12)
    if circuit != "fig1":  # no dense model: the engine's own run
        want = sampled_coefficients(plan, sweep)[1]
        np.testing.assert_allclose(coeffs, want if cells else want[:, None], rtol=0, atol=1e-12)


class TestHarmonicSeries:
    @pytest.mark.parametrize("grid", [
        [0.0, math.nan], [math.inf, 1.0], (-math.inf,), np.zeros((2, 3)),
        1.5, np.float64(1.5), np.array(1.5),
    ])
    def test_bad_grid_refused_before_any_evaluation(self, grid, monkeypatch):
        frequency, coeffs = harmonic_coefficients(fig1_preset(regime_params(0.5, 0.0)), "phi")
        monkeypatch.setattr(observables, "_evaluate", lambda *args: pytest.fail("evaluated"))
        with pytest.raises(ValueError, match="grid"):
            harmonic_series(coeffs, frequency, grid)

    @pytest.mark.parametrize("table", [
        pytest.param(lambda s: s.astype(complex), id="complex"),
        pytest.param(lambda s: (s[:, :1] + 1j * s[:, 1:2]) / 2, id="complex-waves"),
        pytest.param(lambda s: s.astype(str), id="strings"),
        pytest.param(lambda s: s.astype(object), id="objects"),
        pytest.param(lambda s: s[:, :2], id="even-length"),
        pytest.param(lambda s: np.float64(s[0, 0]), id="scalar"),
    ])
    def test_bad_table_refused_before_any_evaluation(self, table, monkeypatch):
        frequency, coeffs = harmonic_coefficients(fig1_preset(regime_params(0.5, 0.3)), "phi")
        monkeypatch.setattr(observables, "_evaluate", lambda *args: pytest.fail("evaluated"))
        with pytest.raises(ValueError, match="real table"):
            harmonic_series(table(coeffs), frequency, FULL_PERIOD)

    @pytest.mark.parametrize("sweep", ["phi", "theta", "gamma"])
    def test_sums_what_the_scan_sums(self, sweep):
        rng = np.random.default_rng(97)
        for _ in range(20):
            plan = fig1_preset(general_fig1_params(rng))
            grid = np.sort(rng.uniform(-7.0, 14.0, 33))
            frequency, coeffs = harmonic_coefficients(plan, sweep)
            assert coeffs.dtype == float and coeffs.shape[-1] % 2 == 1
            np.testing.assert_array_equal(harmonic_series(coeffs, frequency, grid),
                                          fringe_scan(plan, sweep, grid).counts)

    def test_any_iterable_in_any_order(self):
        frequency, coeffs = harmonic_coefficients(fig1_preset(regime_params(0.5, 0.3)), "phi")
        want = harmonic_series(coeffs, frequency, FULL_PERIOD.tolist())
        got = harmonic_series(coeffs, frequency, (float(x) for x in FULL_PERIOD))
        np.testing.assert_array_equal(got, want)
        backwards = harmonic_series(coeffs, frequency, FULL_PERIOD[::-1])
        np.testing.assert_allclose(backwards, want[:, ::-1], rtol=0, atol=1e-15)


class TestDistinguishableMzi:
    """``circuits/distinguishable_mzi.qiup``: fig1 with source 1 emitting H,
    the paper's no-go.  Its free names are phi and theta."""

    TEXT = (CIRCUITS_DIR / "distinguishable_mzi.qiup").read_text()

    def test_count_tensor_is_flat_in_phi_at_every_node(self):
        plan = compiled(self.TEXT, theta=0.4)
        tensor = tensor_of(plan)
        assert sorted(axis.names for axis in tensor.axes) == [("phi",), ("theta",)]
        phi = [axis.names for axis in tensor.axes].index(("phi",))
        assert np.ptp(tensor.counts, axis=phi + 1).max() < 1e-13
        assert tensor.counts[1].max() > 0.1  # the V channel is not empty

    def test_no_fringe_at_any_theta(self):
        rng = np.random.default_rng(19)
        for theta in rng.uniform(0.1, math.pi / 2 - 0.1, 8):
            scan = fringe_scan(compiled(self.TEXT, theta=theta), "phi", FULL_PERIOD)
            for channel in ("h", "v"):
                assert visibility(scan.column(channel)).value <= 1e-12

    @pytest.mark.parametrize("tensor", [True, False], ids=["tensor", "sampled"])
    def test_no_fringe_at_vanishing_theta(self, tensor, monkeypatch):
        # the V channel vanishes like theta^4: the rounding residue of its
        # harmonics must not read as a fringe, whichever way the counts come
        if not tensor:
            monkeypatch.setattr(observables, "TENSOR_MAX_MEMBERS", 0)
        rng = np.random.default_rng(37)
        thetas = [1e-9, 1e-6, 1e-4, 0.01, 0.4, *10.0 ** rng.uniform(-12.0, -3.0, 12)]
        observables._count_tensor.cache_clear()
        try:
            for theta in thetas:
                plan = compiled(self.TEXT, theta=theta)
                assert (tensor_of(plan) is not None) == tensor
                scan = fringe_scan(plan, "phi", FULL_PERIOD)
                for channel in ("h", "v"):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", QiupWarning)  # an all-zero V
                        assert visibility(scan.column(channel)).value == 0.0
        finally:
            observables._count_tensor.cache_clear()

    def test_v_channel_is_empty_at_theta_zero(self):
        scan = fringe_scan(compiled(self.TEXT, theta=0.0), "phi", FULL_PERIOD)
        assert np.all(scan.column("v") == 0.0)
        with pytest.warns(QiupWarning, match="all-zero"):
            assert visibility(scan.column("v")).value == 0.0

    def test_the_same_network_fringes_with_pol_v(self):
        text = self.TEXT.replace("pol=H", "pol=V")
        assert text != self.TEXT
        scan = fringe_scan(compiled(text, theta=0.4), "phi", FULL_PERIOD)
        assert visibility(scan.column("v")).value == pytest.approx(0.2965, abs=1e-4)


class TestCompensatedMzi:
    """``circuits/compensated_mzi.qiup``: distinguishable_mzi with a
    half-wave plate at angle x on both photons of source 1 before the
    dichroic mirror, where the no-go ends.  Its free names are x, phi and
    theta."""

    TEXT = (CIRCUITS_DIR / "compensated_mzi.qiup").read_text()

    def test_v_fringe_amplitude_and_flat_h(self):
        plan = compiled(self.TEXT, x=0.0, theta=0.0)
        tensor = tensor_of(plan)
        phi = [axis.names for axis in tensor.axes].index(("phi",))
        assert np.ptp(tensor.counts[0], axis=phi).max() < 1e-13
        rng = np.random.default_rng(73)
        for x, theta in rng.uniform(0.0, math.pi, (200, 2)):
            _, coeffs = harmonic_coefficients(plan.bind({"x": x, "theta": theta}), "phi")
            amplitude = math.sin(2 * x) ** 2 * (1 - math.cos(2 * theta)) / 2
            assert abs(math.hypot(coeffs[1, 1], coeffs[1, 2]) - amplitude) <= 1e-12
            assert np.abs(coeffs[0, 1:]).max() <= 1e-12

    def test_at_45_degrees_the_counts_are_the_pol_v_twins(self):
        twin = TestDistinguishableMzi.TEXT.replace("pol=H", "pol=V")
        for theta in np.random.default_rng(79).uniform(0.0, math.pi, 20):
            got = fringe_scan(compiled(self.TEXT, x=math.pi / 4, theta=theta), "phi", FULL_PERIOD)
            want = fringe_scan(compiled(twin, theta=theta), "phi", FULL_PERIOD)
            np.testing.assert_allclose(got.counts, want.counts, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("plate, after", [
        ("hwp a angle=$x band=idler", "source 2 signal=r idler=r pol=V"),
        ("hwp a angle=$x band=signal", "source 2 signal=r idler=r pol=V"),
        ("hwp r angle=$x band=idler", "dm a -> signal: b idler: r"),
    ], ids=["idler", "signal", "after-the-join"])
    def test_a_plate_on_one_photon_restores_nothing(self, plate, after):
        text = TestDistinguishableMzi.TEXT.replace(after, f"{after}\n{plate}")
        for x, theta in np.random.default_rng(89).uniform(0.0, math.pi, (20, 2)):
            scan = fringe_scan(compiled(text, x=x, theta=theta), "phi", FULL_PERIOD)
            assert np.ptp(scan.counts, axis=1).max() <= 1e-12

    def test_the_rotation_is_a_mixture(self):
        # counts(x) = (1 - p) counts(0) + p counts(45 degrees), p = sin^2 2x:
        # the fringes cannot tell a coherent polarization offset at the source
        # from an incoherent H/V emission mixture
        def scan(x, theta):
            return fringe_scan(compiled(self.TEXT, x=x, theta=theta), "phi", FULL_PERIOD).counts

        for x, theta in np.random.default_rng(83).uniform(0.0, math.pi, (100, 2)):
            p = math.sin(2 * x) ** 2
            np.testing.assert_allclose(
                scan(x, theta), (1 - p) * scan(0.0, theta) + p * scan(math.pi / 4, theta),
                rtol=0, atol=1e-12)


class TestVisibility:
    def test_engine_visibility_meets_prediction(self):
        for beta1, expected in ((1.0, 0.8), (0.5, 0.4)):
            plan = fig1_preset(regime_params(beta1, 0.0))
            phis = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
            scan = fringe_scan(plan, "phi", phis)
            vis = visibility(scan.column("v"), scan.phis)
            assert vis.value == pytest.approx(expected, abs=1e-12)
            assert vis.phi_at_max == pytest.approx(0.0, abs=1e-15)

    def test_v_visibility_is_constant_in_gamma(self):
        # the phase rule: only V modes merge, so gamma is a phase on the part
        # of source 1's idler that overlaps source 2's, and shifts the phi
        # fringe without changing its amplitude or its mean
        rng = np.random.default_rng(61)
        for _ in range(100):
            params = general_fig1_params(rng)
            ratios = []
            for gamma in rng.uniform(0.0, 2 * math.pi, 4):
                _, coeffs = harmonic_coefficients(fig1_preset(dict(params, gamma=gamma)), "phi")
                ratios.append(math.hypot(coeffs[1, 1], coeffs[1, 2]) / coeffs[1, 0])
            assert np.ptp(ratios) <= 1e-12

    def test_v_channel_attains_the_coherence_bound_only_at_theta_90_beta2_1(self):
        # the idlers' normalized overlap, beta1, bounds every signal-side
        # fringe.  The exact visibility hypot(a_1, b_1)/a_0 of the V channel
        # reaches it at theta = pi/2 and beta2 = 1 and stays below it
        # elsewhere; the H channel never fringes.  Read from the coefficients:
        # a sampled grid misses the maximum at phi = gamma
        rng = np.random.default_rng(23)
        for _ in range(200):
            beta1, gamma = rng.uniform(0.0, 1.0), rng.uniform(0.0, 2 * math.pi)
            beta2, theta = rng.uniform(0.0, 1.0), rng.uniform(0.0, math.pi)
            source1 = {"alpha1": math.sqrt(1 - beta1**2), "beta1": beta1, "gamma": gamma,
                       "phi": 0.0}
            for params, attained in (({"alpha2": 0.0, "beta2": 1.0, "theta": math.pi / 2}, True),
                                     ({"alpha2": math.sqrt(1 - beta2**2), "beta2": beta2,
                                       "theta": theta}, False)):
                _, coeffs = harmonic_coefficients(fig1_preset(dict(source1, **params)), "phi")
                assert np.all(coeffs[0, 1:] == 0.0)
                v_visibility = math.hypot(coeffs[1, 1], coeffs[1, 2]) / coeffs[1, 0]
                if attained:
                    assert v_visibility == pytest.approx(beta1, abs=1e-12)
                else:
                    assert v_visibility < beta1

    def test_a_vanishing_channel_reads_exactly_zero(self):
        # theta = 0 and source 2's signal prepared H: N_V is exactly 0, so
        # every coefficient of its series is rounding, a_0 included, and the
        # channel reads as empty rather than flat
        params = {"alpha1": 0.6, "beta1": 0.8, "gamma": 1.0, "alpha2": 1.0, "beta2": 0.0,
                  "phi": 0.0, "theta": 0.0}
        plan = fig1_preset(params)
        _, coeffs = harmonic_coefficients(plan, "phi")
        assert np.all(coeffs[1] == 0.0) and coeffs[0, 0] > 0.1
        scan = fringe_scan(plan, "phi", FULL_PERIOD)
        assert np.all(scan.column("v") == 0.0)
        with pytest.warns(QiupWarning, match="all-zero"):
            assert visibility(scan.column("v")).value == 0.0

    def test_constant_channel(self):
        vis = visibility([0.3, 0.3, 0.3], [0.0, 1.0, 2.0])
        assert vis.value == 0.0

    def test_all_zero_warns(self):
        with pytest.warns(QiupWarning):
            vis = visibility([0.0, 0.0], [0.0, 1.0])
        assert vis.value == 0.0

    def test_tie_resolves_to_smallest_phi(self):
        vis = visibility([1.0, 2.0, 2.0, 1.0], [0.0, 0.5, 1.0, 1.5])
        assert vis.phi_at_max == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            visibility([])

    @pytest.mark.parametrize("phis", [[0.0], [0.0, 1.0, 2.0, 3.0]])
    def test_grid_of_another_length_rejected(self, phis):
        with pytest.raises(ValueError, match=f"3 values but {len(phis)} phis"):
            visibility([1.0, 2.0, 1.5], phis)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_non_finite_or_negative_value_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            visibility([1.0, bad, 1.5], [0.0, 1.0, 2.0])


class TestAggregates:
    def test_signal_completeness_sums_to_two(self):
        state = regime_state(0.8, 1.2, 0.7)
        by_path = counts_by_path(state, Band.SIGNAL)
        total = sum(c.n_h + c.n_v for c in by_path.values())
        assert total == pytest.approx(2.0, abs=1e-12)

    def test_alpha1_phase_leaves_counts_invariant(self):
        base = counts(regime_state(0.7, 0.9, 1.7), "o'", Band.SIGNAL)
        for chi in (0.1, 1.0, 2.5):
            state = manual_fig1(
                math.sqrt(1 - 0.49), 0.7, 0.9, 0.0, 1.0, 1.7, math.pi / 4,
                alpha1_phase=chi,
            )
            shifted = counts(state, "o'", Band.SIGNAL)
            assert shifted.n_h == pytest.approx(base.n_h, abs=1e-12)
            assert shifted.n_v == pytest.approx(base.n_v, abs=1e-12)

    def test_merge_disabled_kills_fringes(self):
        values = []
        for phi in np.linspace(0, 2 * math.pi, 16, endpoint=False):
            state = manual_fig1(
                0.6, 0.8, 0.3, 0.0, 1.0, phi, math.pi / 4, merge=False
            )
            values.append(counts(state, "o'", Band.SIGNAL).n_v)
        vis = visibility(values)
        assert vis.value < 1e-12


class TestScanCsv:
    def test_golden_format(self):
        scan = FringeScan(
            (0.0, 0.5), (CountResult(0.125, 1.125), CountResult(0.125, 0.25)), "o'"
        )
        assert format_scan_csv(scan) == (
            "phi,n_h,n_v\n"
            "0,0.125,1.125\n"
            "0.5,0.125,0.25\n"
        )

    def test_seventeen_significant_digits(self):
        scan = FringeScan((1 / 3,), (CountResult(2 / 3, 1 / 7),), "o'")
        text = format_scan_csv(scan)
        assert "0.33333333333333331" in text
        assert "0.66666666666666663" in text

    def test_roundtrip_through_measurement_reader(self):
        plan = fig1_preset(regime_params(0.7, 0.0))
        phis = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
        scan = fringe_scan(plan, "phi", phis)
        back = read_counts_csv(format_scan_csv(scan))
        assert isinstance(back, FringeScan)
        np.testing.assert_allclose(back.column("v"), scan.column("v"), rtol=1e-15)
        np.testing.assert_allclose(back.phis, scan.phis, rtol=1e-15)


class TestStructureTable:
    """Each ``$`` name's kind, read from one table per structure: an angle's
    (f, D), an alpha/beta pair, or another amplitude name."""

    def test_fig1_kinds_in_order_of_first_use(self):
        plan, _ = compile_text(FIG1_SOURCE)
        pair1, pair2 = ("alpha1", "beta1"), ("alpha2", "beta2")
        assert list(plan._structure.kinds.items()) == [
            ("alpha1", pair1), ("beta1", pair1), ("gamma", (1, 1)),
            ("alpha2", pair2), ("beta2", pair2), ("phi", (1, 1)), ("theta", (2, 4)),
        ]
        assert plan.free_parameters == frozenset(plan._structure.kinds)
        # the tensor's axes, in the same order
        assert [axis.names for axis in tensor_of(plan).axes] == [
            pair1, ("gamma",), pair2, ("phi",), ("theta",)]

    @pytest.mark.parametrize("phases, params", [
        pytest.param("prepare a idler alpha=$a beta=$a gamma=0",
                     dict(a=math.sqrt(0.5)), id="one-name-twice"),
        pytest.param("prepare a idler alpha=$a beta=0.8 gamma=0",
                     dict(a=0.6), id="one-name-and-a-literal"),
        pytest.param("prepare a idler alpha=$a beta=$b gamma=0\nphase a value=$a band=signal",
                     dict(a=0.6, b=0.8), id="a-name-also-in-a-phase"),
    ])
    def test_an_amplitude_that_is_no_pair(self, phases, params):
        plan = compiled(BOTH_BANDS_CIRCUIT.format(
            phases=f"{phases}\nphase a value=$phi band=signal"), theta=0.3, **params)
        for name in params:
            assert plan._structure.kinds[name] is None
            assert plan.harmonic_degree(name) is None
        assert plan.harmonic_degree("phi") == (1, 1)
        assert tensor_of(plan) is None
        np.testing.assert_allclose(
            scan_columns(fringe_scan(plan, "phi", FULL_PERIOD)),
            loop_scan(plan, "phi", FULL_PERIOD), rtol=0, atol=1e-12,
        )


# --- the declared harmonic degree on every shipped circuit -----------------

def _shipped_free_angles():
    for path in sorted(CIRCUITS_DIR.glob("*.qiup")):
        plan, _ = compile_text(path.read_text())
        for name in sorted(plan.free_parameters):
            if plan.harmonic_degree(name) is not None:
                yield pytest.param(path, name, id=f"{path.stem}-{name}")


@pytest.mark.parametrize("path", sorted(CIRCUITS_DIR.glob("*.qiup")), ids=lambda path: path.stem)
def test_shipped_circuit_series_sums_back_to_the_counts(path):
    """Every axis of the count tensor, an angle's or a pair's, holds the
    real Fourier form in its t: summed at the node angles it gives back the
    counts the build ran.  A circuit with no free name sweeps nothing and
    has no tensor."""
    plan, _ = compile_text(path.read_text())
    tensor = tensor_of(plan)
    assert (tensor is None) == (not plan.free_parameters)
    if tensor is None:
        return
    values = tensor.series
    for k, axis in enumerate(tensor.axes):
        basis = observables._basis(1, axis.angles, len(axis) // 2)
        values = np.moveaxis(np.moveaxis(values, k + 1, -1) @ basis, -1, k + 1)
    np.testing.assert_allclose(values, tensor.counts, rtol=0, atol=1e-13)


@pytest.mark.parametrize("path, sweep", list(_shipped_free_angles()))
def test_shipped_circuit_counts_stay_within_the_declared_degree(path, sweep):
    """The count tensor's node count comes from ``harmonic_degree``: a loop
    of single runs over one period of f*x holds no harmonic above the
    declared D (which may be loose, so not equal to it), and ``fringe_scan``
    through the tensor equals that loop."""
    plan, _ = compile_text(path.read_text())
    rng = np.random.default_rng(13)
    bindings = {}
    for stmt in plan.pipeline:
        if isinstance(stmt, PrepareStmt) and isinstance(stmt.alpha, ParamRef):
            chi = rng.uniform(0.0, math.pi / 2)  # a nonnegative pair on the unit circle
            bindings[stmt.alpha.name], bindings[stmt.beta.name] = math.cos(chi), math.sin(chi)
    for name in sorted(plan.free_parameters - set(bindings) - {sweep}):
        bindings[name] = rng.uniform(0.0, 2 * math.pi)
    plan = plan.bind(bindings)
    frequency, degree = plan.harmonic_degree(sweep)
    points = 16 * (degree + 1)
    grid = 2 * math.pi * np.arange(points) / (points * frequency)
    loop = np.array([run_plan(plan.bind({sweep: x})).counts_at(plan.detect_path, plan.detect_band)
                     for x in grid]).T
    spectrum = np.abs(np.fft.rfft(loop, axis=-1, norm="forward"))
    assert spectrum[:, degree + 1:].max() <= 1e-12 * loop.max()
    np.testing.assert_allclose(fringe_scan(plan, sweep, grid).counts, loop, rtol=0, atol=1e-12)
