"""One benchmark workload in one process.

The process sets up (imports, circuit compilation, input generation and one
untimed warm-up operation), then runs operations in a closed loop with one
client for ``--seconds``.  Each output is checked with :mod:`checks` after its
operation's timed part.  The process prints one JSON line.  ``run.py`` starts it from the root of a checkout with ``src`` on
``PYTHONPATH``:

    PYTHONPATH=src python3 perfbench/worker.py --workload fit --seed 1 --seconds 10 --trace 0

With ``--trace 1`` it records spans around the benchmark's calls into each
qiup module, runs one extra round that reaches every layer, and reports the
per-layer metrics derived from the spans instead of the end-to-end ones.
"""
from __future__ import annotations

import time

# Set-up is timed from here: after interpreter start, before numpy or qiup load.
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from checks import TWO_PI, CheckFailed  # noqa: E402

WORKLOADS = ("cli_cold", "verify", "theta_sweeps", "fit")
POINTS = 64
CLI_SHOTS = 100_000
FIT_SHOTS = 1_000_000
PARAM_SETS = 64
#: Share of operations whose output is also checked against the slower
#: oracle (dense model, noiseless fit), drawn from the workload seed.
SAMPLE_RATE = 1 / 16
LAYER_REPEATS = 20
SCAN_REPEATS = 3
IMPORT_REPEATS = 3
CLI_TIMEOUT_S = 60
#: Machine speed.  On a shared host, other tenants' load changes its speed by up to
#: half between runs minutes apart, so operation times are scaled by
#: CAL_REF_MS / (median duration of calibration_unit, which runs between
#: operations for CAL_DUTY of the loop's time): they read as if the unit took
#: CAL_REF_MS.  Set-up is too short and too early to gauge this way.
CAL_REF_MS = 2.0
CAL_DUTY = 0.10
MAX_REPORTED_FAILURES = 20

#: The verify grid of the CLI default: 11 beta1 x 8 gamma cells, 64 phi each.
VERIFY_BETAS = tuple(round(0.1 * k, 10) for k in range(11))
VERIFY_GAMMAS = tuple(k * math.pi / 4 for k in range(8))

#: Per-layer metrics.  A name ending in _ms or _us is the median duration of
#: the spans named by the rest of it; any other name is a recorded count.
PER_LAYER = (
    "import.qiup_ms", "import.estimation_ms",
    "cli.check_ms", "cli.run_ms", "cli.scan_ms", "cli.scan_shots_ms", "cli.fit_ms",
    "cli.verify_ms",
    "dsl.parse_us", "plan.validate_us", "plan.bind_us", "plan.fig1_preset_us",
    "plan.run_plan_us", "plan.steps",
    "elements.prepare_us", "elements.dm_us", "elements.phase_us", "elements.merge_us",
    "elements.bs_us", "elements.hwp_us", "elements.bs2_us",
    "state.norm_sq_us", "state.counts_at_us", "state.entries_max",
    "observables.scan_phi_ms", "observables.scan_theta_ms", "observables.visibility_us",
    "estimation.simulate_us", "estimation.read_csv_us", "estimation.format_csv_us",
    "estimation.fit_ms", "estimation.fit_iv_ms", "estimation.fit_grid_exact_ms",
    "verification.run_ms", "verification.evaluations",
    "trace.op_ms",
)
_SCALE = {"ms": 1e3, "us": 1e6}


class Tracer:
    """Spans (name, start, end, parent) and counts, kept in memory.

    A disabled tracer hands out one shared no-op context, so untraced runs
    pay a method call per span and nothing else.
    """

    _NULL = nullcontext()

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent]; index is the id
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    def span(self, name: str):
        return _Span(self, name) if self.enabled else self._NULL

    def add(self, name: str, start: float, duration: float) -> None:
        """A span whose duration another tool measured, under the open span."""
        if self.enabled:
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, start, start + duration, parent])

    def now(self) -> float:
        return time.perf_counter() - self._t0

    def count(self, name: str, value: int) -> None:
        if self.enabled:
            self.counts[name] = max(self.counts.get(name, value), value)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, (n, s, e, p) in enumerate(self.spans)
            ],
            "counts": self.counts,
        }


class _Span:
    __slots__ = ("tracer", "name", "id")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> None:
        tr = self.tracer
        self.id = len(tr.spans)
        tr.spans.append([self.name, tr.now(), None, tr._open[-1] if tr._open else -1])
        tr._open.append(self.id)

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        tr.spans[self.id][2] = tr.now()
        tr._open.pop()


def calibration_unit() -> None:
    """Fixed pure-Python work, independent of qiup, that gauges machine speed."""
    table = {}
    for i in range(3000):
        table[(i * 7919) % 4099] = complex(i, -i)
    acc = 0j
    for key, value in sorted(table.items()):
        acc += value * (1j if key & 1 else 1.0)


class Calibration:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.total = 0.0

    def keep_up(self, elapsed: float) -> None:
        """Run the unit until it has had CAL_DUTY of ``elapsed``."""
        while self.total < CAL_DUTY * elapsed:
            t0 = time.perf_counter()
            calibration_unit()
            self.samples.append(time.perf_counter() - t0)
            self.total += self.samples[-1]

    def scale(self) -> float:
        """Factor that turns a measured time into one at the reference speed."""
        return CAL_REF_MS * 1e-3 / statistics.median(self.samples)


def collect(failures: list[str], label: str, check, *args) -> None:
    try:
        check(*args)
    except CheckFailed as exc:
        failures.append(f"{label}: {exc}")


def unit_pair(rng: random.Random, low: float = 0.0, high: float = 1.0) -> tuple[float, float]:
    """(alpha, beta) with beta drawn uniformly and alpha^2 + beta^2 = 1."""
    beta = rng.uniform(low, high)
    return math.sqrt(1.0 - beta * beta), beta


# -- workloads ------------------------------------------------------------------


class CliCold:
    """Cold ``python -m qiup.cli`` processes, one after another.

    One round is the fixed cycle in KINDS; each process is one operation.
    Cycle c uses parameter set c mod PARAM_SETS (beta2 = 1, theta = 45 deg,
    beta1 in [0.3, 1], gamma and phi in [0, 2pi)) and negative circuit c mod
    the size of circuits/negative.
    """

    KINDS = ("check", "check_negative", "run", "scan", "scan_shots", "fit")
    SPANS = ("cli.check", "cli.check", "cli.run", "cli.scan", "cli.scan_shots", "cli.fit")
    round_size = len(KINDS)

    def __init__(self, seed: int, root: Path, out_dir: Path) -> None:
        rng = random.Random(seed)
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.params = []
        for _ in range(PARAM_SETS):
            alpha1, beta1 = unit_pair(rng, 0.3, 1.0)
            self.params.append({
                "alpha1": alpha1, "beta1": beta1, "gamma": rng.uniform(0.0, TWO_PI),
                "phi": rng.uniform(0.0, TWO_PI), "noise_seed": rng.randrange(2**31),
            })
        self.negatives = []
        for path in sorted((root / "circuits" / "negative").glob("*.qiup")):
            text = path.read_text(encoding="utf-8")
            self.negatives.append((str(path.relative_to(root)), *checks.parse_expect(text)))
        if not self.negatives:
            raise FileNotFoundError("circuits/negative holds no .qiup files")
        self.fit_files = []
        for k, p in enumerate(self.params):
            path = out_dir / f"cli-fit-{k}.csv"
            path.write_text(checks.reference_csv(p["beta1"], p["gamma"], POINTS), encoding="utf-8")
            self.fit_files.append(str(path))

    def _bindings(self, p: dict, with_phi: bool) -> list[str]:
        names = {"alpha1": p["alpha1"], "beta1": p["beta1"], "gamma": p["gamma"],
                 "alpha2": 0.0, "beta2": 1.0, "theta": math.pi / 4}
        if with_phi:
            names["phi"] = p["phi"]
        out = []
        for name, value in names.items():
            out += ["--param", f"{name}={value!r}"]
        return out

    def argv(self, i: int) -> list[str]:
        cycle, kind = divmod(i, self.round_size)
        p = self.params[cycle % PARAM_SETS]
        kind = self.KINDS[kind]
        if kind == "check":
            return ["check", "circuits/fig1.qiup"]
        if kind == "check_negative":
            return ["check", self.negatives[cycle % len(self.negatives)][0]]
        if kind == "run":
            return ["run", "--preset", "fig1", "--format", "csv", *self._bindings(p, True)]
        if kind == "scan":
            return ["scan", "--preset", "fig1", "--points", str(POINTS), *self._bindings(p, False)]
        if kind == "scan_shots":
            return ["scan", "--preset", "fig1", "--points", str(POINTS), *self._bindings(p, False),
                    "--shots", str(CLI_SHOTS), "--seed", str(p["noise_seed"])]
        return ["fit", self.fit_files[cycle % PARAM_SETS]]

    def call(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "qiup.cli", *argv], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )

    def op(self, i: int, tr: Tracer):
        argv = self.argv(i)
        with tr.span(self.SPANS[i % self.round_size]):
            return self.call(argv)

    def check(self, i: int, proc: subprocess.CompletedProcess) -> list[str]:
        cycle, kind = divmod(i, self.round_size)
        p = self.params[cycle % PARAM_SETS]
        b, g, code, out = p["beta1"], p["gamma"], proc.returncode, proc.stdout
        failures: list[str] = []
        label = f"op {i} ({self.KINDS[kind]})"
        if kind == 0:
            collect(failures, label, checks.fig1_check_ok, code, out)
        elif kind == 1:
            _, want_code, want_pos = self.negatives[cycle % len(self.negatives)]
            collect(failures, label, checks.check_negative, code, out, want_code, want_pos)
        elif kind == 2:
            collect(failures, label, checks.check_run_csv, code, out, b, g, p["phi"])
        elif kind == 3:
            collect(failures, label, checks.check_scan_csv, code, out, proc.stderr, b, g, POINTS)
        elif kind == 4:
            collect(failures, label, checks.check_shots_csv, code, out, b, g, POINTS, CLI_SHOTS)
        else:
            collect(failures, label, checks.check_cli_fit, code, out, b, g)
        return failures


class Verify:
    """One in-process ``run_verification()`` at the CLI's default grid per operation."""

    round_size = 1

    def __init__(self, seed: int, root: Path, out_dir: Path) -> None:
        from qiup.verification import run_verification

        self.run_verification = run_verification
        self.expected_dev = checks.expected_reference_deviations(
            VERIFY_BETAS, VERIFY_GAMMAS, POINTS
        )

    def op(self, i: int, tr: Tracer):
        with tr.span("verification.run"):
            report = self.run_verification()
        tr.count("verification.evaluations", report.grid_points)
        return report

    def check(self, i: int, report) -> list[str]:
        failures: list[str] = []
        points = len(VERIFY_BETAS) * len(VERIFY_GAMMAS) * POINTS
        collect(failures, f"op {i}", checks.check_verification, report, points,
                self.expected_dev)
        return failures


class ThetaSweeps:
    """Bind fig1 at a general parameter set, then one 64-point scan over theta.

    Parameter set i mod PARAM_SETS: beta1 in [0, 1], beta2 in [0.05, 0.95],
    gamma and phi in [0, 2pi); theta runs over [0, 2pi).
    """

    round_size = 1

    def __init__(self, seed: int, root: Path, out_dir: Path) -> None:
        import numpy as np
        from qiup import counts_by_path, fig1_preset, fringe_scan, run_plan
        from qiup.modes import Band

        sys.path.insert(0, str(root / "tests"))
        from dense_model import run_fig1

        self.fig1_preset, self.fringe_scan = fig1_preset, fringe_scan
        self.run_plan, self.counts_by_path, self.signal = run_plan, counts_by_path, Band.SIGNAL
        self.run_fig1 = run_fig1
        self.sample_rng = random.Random(seed + 1)
        rng = random.Random(seed)
        self.params = []
        for _ in range(PARAM_SETS):
            alpha1, beta1 = unit_pair(rng)
            alpha2, beta2 = unit_pair(rng, 0.05, 0.95)
            self.params.append({
                "alpha1": alpha1, "beta1": beta1, "gamma": rng.uniform(0.0, TWO_PI),
                "alpha2": alpha2, "beta2": beta2, "phi": rng.uniform(0.0, TWO_PI),
                "theta": 0.0,
            })
        self.grid = np.arange(POINTS) * (TWO_PI / POINTS)

    def op(self, i: int, tr: Tracer):
        with tr.span("plan.fig1_preset"):
            plan = self.fig1_preset(self.params[i % PARAM_SETS])
        with tr.span("observables.scan_theta"):
            return self.fringe_scan(plan, "theta", self.grid)

    def check(self, i: int, scan) -> list[str]:
        failures: list[str] = []
        for channel in "hv":
            collect(failures, f"op {i} n_{channel}", checks.check_theta_harmonics,
                    scan.column(channel))
        if self.sample_rng.random() >= SAMPLE_RATE:
            return failures
        k = self.sample_rng.randrange(POINTS)
        params = dict(self.params[i % PARAM_SETS], theta=float(self.grid[k]))
        dense_h, dense_v = self.run_fig1(**params).counts("o'")
        label = f"op {i} point {k}"
        collect(failures, label, checks.check_close, scan.records[k].n_h, dense_h, "n_h vs dense")
        collect(failures, label, checks.check_close, scan.records[k].n_v, dense_v, "n_v vs dense")
        state = self.run_plan(self.fig1_preset(params))
        total = sum(c.n_h + c.n_v for c in self.counts_by_path(state, self.signal).values())
        collect(failures, label, checks.check_close, total, state.norm_sq(), "signal counts")
        collect(failures, label, checks.check_close, state.norm_sq(), 2.0, "norm_sq")
        return failures


class Fit:
    """Reference-model scan, CSV round trip, Poisson counts, two fits.

    Parameter set i mod PARAM_SETS: beta1 in [0.3, 1], gamma in [0, 2pi) and a
    noise seed; 64 phi points over [0, 2pi) and FIT_SHOTS shots per point.
    """

    round_size = 1

    def __init__(self, seed: int, root: Path, out_dir: Path) -> None:
        import numpy as np
        from qiup import CountResult, FringeScan, fit, nh_closed, nv_closed, simulate_measurement
        from qiup.estimation import format_counts_csv, read_counts_csv

        self.CountResult, self.FringeScan = CountResult, FringeScan
        self.nh_closed, self.nv_closed = nh_closed, nv_closed
        self.format_counts_csv, self.read_counts_csv = format_counts_csv, read_counts_csv
        self.simulate_measurement, self.fit = simulate_measurement, fit
        self.sample_rng = random.Random(seed + 1)
        rng = random.Random(seed)
        self.params = [
            (rng.uniform(0.3, 1.0), rng.uniform(0.0, TWO_PI), rng.randrange(2**32))
            for _ in range(PARAM_SETS)
        ]
        self.phis = np.arange(POINTS) * (TWO_PI / POINTS)

    def model_scan(self, beta1: float, gamma: float):
        h, v = self.nh_closed(beta1, gamma, self.phis), self.nv_closed(beta1, gamma, self.phis)
        records = tuple(self.CountResult(float(a), float(b)) for a, b in zip(h, v))
        return self.FringeScan(tuple(float(p) for p in self.phis), records, "o'")

    def op(self, i: int, tr: Tracer):
        beta1, gamma, noise_seed = self.params[i % PARAM_SETS]
        scan = self.model_scan(beta1, gamma)
        with tr.span("estimation.format_csv"):
            text = self.format_counts_csv(scan)
        with tr.span("estimation.read_csv"):
            data = self.read_counts_csv(text)
        with tr.span("estimation.simulate"):
            noisy = self.simulate_measurement(data, FIT_SHOTS, noise_seed)
        with tr.span("estimation.fit"):
            equal = self.fit(noisy)
        with tr.span("estimation.fit_iv"):
            weighted = self.fit(noisy, weighting="inverse_variance")
        return data, equal, weighted

    def check(self, i: int, output) -> list[str]:
        data, *results = output
        beta1, gamma, _ = self.params[i % PARAM_SETS]
        tolerance = checks.noisy_fit_tolerance(beta1, gamma, POINTS, FIT_SHOTS)
        failures: list[str] = []
        for name, result in zip(("equal", "inverse_variance"), results):
            label = f"op {i} {name}"
            if not result.converged:
                failures.append(f"{label}: converged=false")
            collect(failures, label, checks.check_fit_noisy, result.beta1_hat,
                    result.gamma_hat, beta1, gamma, tolerance)
        if self.sample_rng.random() < SAMPLE_RATE:
            exact = self.fit(data)
            collect(failures, f"op {i} noiseless", checks.check_fit_exact,
                    exact.beta1_hat, exact.gamma_hat, beta1, gamma)
        return failures


WORKLOAD_CLASSES = {
    "cli_cold": CliCold, "verify": Verify, "theta_sweeps": ThetaSweeps, "fit": Fit,
}


# -- traced round over every layer -------------------------------------------------


def import_times(tr: Tracer, root: Path) -> None:
    """Cumulative ``-X importtime`` entries of qiup and qiup.estimation, cold."""
    with tr.span("import.child"):
        start = tr.now()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qiup"], cwd=root,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True,
        )
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in ("qiup", "qiup.estimation"):
                tr.add(f"import.{fields[2].strip().removeprefix('qiup.')}", start,
                       int(fields[1]) * 1e-6)


def element_call(stmt, bindings):
    """(span name, call) applying ``stmt``'s public element function to a state."""
    from qiup import dsl, elements as el

    def value(v, degrees):
        if isinstance(v, dsl.ParamRef):
            return bindings[v.name]
        return math.radians(v) if degrees else v

    if isinstance(stmt, dsl.PrepareStmt):
        spec = el.PreparationSpec(value(stmt.alpha, False), value(stmt.beta, False),
                                  value(stmt.gamma, True))
        return "elements.prepare", lambda s: el.prepare_beam(s, stmt.path, stmt.band, spec)
    if isinstance(stmt, dsl.DmStmt):
        return "elements.dm", lambda s: el.apply_dichroic(
            s, stmt.in_path, stmt.signal_out, stmt.idler_out)
    if isinstance(stmt, dsl.PhaseStmt):
        phi = value(stmt.value, True)
        return "elements.phase", lambda s: el.apply_phase(s, stmt.path, phi, stmt.band)
    if isinstance(stmt, dsl.MergeStmt):
        rules = [el.MergeRule(stmt.path, stmt.pol, stmt.band)]
        return "elements.merge", lambda s: el.apply_merge(s, rules)
    if isinstance(stmt, dsl.BsStmt):
        return "elements.bs", lambda s: el.apply_bs_single(s, stmt.in_path, stmt.out_t, stmt.out_r)
    if isinstance(stmt, dsl.WavePlateStmt):
        setting = el.WavePlateSetting(stmt.kind, value(stmt.angle, True))
        return "elements.hwp", lambda s: el.apply_waveplate(s, stmt.path, setting, stmt.band)
    if isinstance(stmt, dsl.Bs2Stmt):
        return "elements.bs2", lambda s: el.apply_bs_dual(
            s, stmt.in_a, stmt.in_b, stmt.out_a, stmt.out_b)
    raise TypeError(f"fig1 has no element {stmt!r}")


def layer_round(tr: Tracer, seed: int, root: Path, out_dir: Path) -> list[str]:
    """Reach every layer once (cheap layers LAYER_REPEATS times); return failures."""
    from qiup import dsl, iter_plan, run_plan, visibility
    from qiup import plan as plan_mod
    from qiup.plan import FIG1_SOURCE

    failures: list[str] = []
    for _ in range(IMPORT_REPEATS):
        import_times(tr, root)

    cli = CliCold(seed, root, out_dir)
    for i in range(cli.round_size):
        failures += cli.check(i, cli.op(i, tr))
    with tr.span("cli.verify"):
        proc = cli.call(["verify"])
    if proc.returncode != 3 or "verification: MISMATCH" not in proc.stdout:
        failures.append(f"cli verify: exit {proc.returncode}, expected the documented 3 (MISMATCH)")

    theta = ThetaSweeps(seed, root, out_dir)
    # a general point: at theta = 0 the wave plate splits nothing
    params = dict(theta.params[0], theta=float(theta.grid[5]))
    for _ in range(LAYER_REPEATS):
        with tr.span("dsl.parse"):
            parsed = dsl.parse(FIG1_SOURCE)
        with tr.span("plan.validate"):
            validated = plan_mod.validate(parsed.ast)
        with tr.span("plan.bind"):
            plan = validated.plan.bind(params)
        with tr.span("plan.fig1_preset"):
            theta.fig1_preset(params)
        with tr.span("plan.run_plan"):
            state = run_plan(plan)
        with tr.span("state.norm_sq"):
            state.norm_sq()
        with tr.span("state.counts_at"):
            state.counts_at(plan.detect_path, plan.detect_band)
        states = [s for _, s in iter_plan(plan)]
        tr.count("plan.steps", len(states))
        tr.count("state.entries_max", max(len(s) for s in states))
        for stmt, before, after in zip(plan.pipeline, states, states[1:]):
            name, call = element_call(stmt, plan.bindings)
            with tr.span(name):
                out = call(before)
            if out != after:
                failures.append(f"{name}: replay differs from iter_plan at {stmt.pretty()}")

    for i in range(SCAN_REPEATS):
        failures += theta.check(i, theta.op(i, tr))
        with tr.span("observables.scan_phi"):
            scan = theta.fringe_scan(theta.fig1_preset(params), "phi", theta.grid)
        for _ in range(LAYER_REPEATS):
            with tr.span("observables.visibility"):
                visibility(scan.column("v"), scan.phis)

    fits = Fit(seed, root, out_dir)
    for i in range(SCAN_REPEATS):
        failures += fits.check(i, fits.op(i, tr))
    # beta1 and gamma on nodes of the fit's coarse grid, so fit skips refinement
    beta1, gamma = 11 * 0.05, 13 * (TWO_PI / 72)
    on_grid = fits.model_scan(beta1, gamma)
    for _ in range(SCAN_REPEATS):
        with tr.span("estimation.fit_grid_exact"):
            result = fits.fit(on_grid)
        collect(failures, "fit on a grid node", checks.check_fit_exact,
                result.beta1_hat, result.gamma_hat, beta1, gamma)

    verify = Verify(seed, root, out_dir)
    failures += verify.check(0, verify.op(0, tr))
    return failures


def layer_metrics(tr: Tracer) -> dict:
    metrics = {}
    for name in PER_LAYER:
        span, _, unit = name.rpartition("_")
        if unit in _SCALE:
            samples = tr.durations(span)
            if not samples:
                raise RuntimeError(f"no spans named {span}")
            metrics[name] = {"value": statistics.median(samples) * _SCALE[unit], "unit": unit}
        else:
            metrics[name] = {"value": tr.counts[name], "unit": "count"}
    return metrics


def environment(seed: int) -> dict:
    import numpy
    import scipy
    from qiup import backend

    return {
        "backend": backend.name, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time")
    args = parser.parse_args()
    root = Path.cwd()
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)

    workload = WORKLOAD_CLASSES[args.workload](args.seed, root, out_dir)
    workload.op(0, Tracer(False))  # untimed warm-up
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tr = Tracer(bool(args.trace))
    cal = Calibration()
    times, errors, failures = [], [], []
    i = 0
    t_loop = time.perf_counter()
    while time.perf_counter() - t_loop < args.seconds:
        for _ in range(workload.round_size):  # whole rounds only
            t0 = time.perf_counter()
            try:
                with tr.span("trace.op"):
                    output = workload.op(i, tr)
            except Exception as exc:  # a failed operation is counted, not fatal
                errors.append(f"op {i}: {exc!r}")
            else:
                times.append(time.perf_counter() - t0)
                # checked outside the timed part and dropped, so memory stays flat
                failures += workload.check(i, output)
            i += 1
            cal.keep_up(time.perf_counter() - t_loop)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    op_p50_ms = statistics.median(times) * 1e3
    ops_per_s = len(times) / math.fsum(times)
    raw = {"op_p50_ms": op_p50_ms, "ops_per_s": ops_per_s, "ops_timed": len(times),
           "op_p90_ms": statistics.quantiles(times, n=10)[-1] * 1e3 if len(times) >= 10 else None,
           "calibration_ms": statistics.median(cal.samples) * 1e3}
    if args.trace:
        failures += layer_round(tr, args.seed, root, out_dir)
        metrics = layer_metrics(tr)
        metrics["trace.op_ms"]["value"] *= cal.scale()
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tr.dump()), encoding="utf-8")
    else:
        metrics = {
            "op_p50_ms": {"value": op_p50_ms * cal.scale(), "unit": "ms"},
            "ops_per_s": {"value": ops_per_s / cal.scale(), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "setup_s": setup_s, "attempted": i, "failed": len(errors),
        "correct": not failures, "failures": (errors + failures)[:MAX_REPORTED_FAILURES],
        "metrics": metrics, "env": environment(args.seed), "raw": raw,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
