"""Measurement protocol: shot-noise simulation, calibration and fringe fits.

The fit inverts the reference closed forms (:mod:`qiup.reference`) over
the two free beam parameters: the vertical amplitude and its relative phase.
The horizontal amplitude is never observed directly; it is inferred from the
normalization constraint afterwards.

Fits are independent per dataset and safe to run in parallel; the Poisson
generator is constructed per call and never shared.

``scipy.optimize`` is imported on the first :func:`fit` that needs its
refinement, not with this module, so simulating, scanning and reading CSVs
never load scipy.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DataFormatError, QiupWarning, SparseScanError
from .observables import CountResult, FringeScan
from .reference import nh_closed, nv_closed

TWO_PI = 2.0 * math.pi

#: Coarse-search resolution mandated for determinism: beta1 step 0.05,
#: gamma step 2*pi/72, followed by local refinement.
GRID_BETA_STEP = 0.05
GRID_GAMMA_POINTS = 72
REFINE_TOL = 1e-10
MAX_REFINE_EVALS = 500
GAMMA_IDENTIFIABLE_MIN = 0.02
#: A first-harmonic fringe per channel has three unknowns (offset, cosine
#: and sine amplitude), so fewer distinct phases cannot determine it.
MIN_FIT_PHIS = 3


@dataclass(frozen=True)
class NoisyScan:
    """Integer Poisson counts drawn around ``shots`` times the expectations."""

    phis: tuple[float, ...]
    counts_h: tuple[int, ...]
    counts_v: tuple[int, ...]
    shots: int
    seed: int
    sweep: str = "phi"

    def __post_init__(self) -> None:
        if not (len(self.phis) == len(self.counts_h) == len(self.counts_v)):
            raise ValueError("phis and count columns must have equal length")
        if self.shots < 1:
            raise ValueError("shots must be a positive integer")
        if not all(b > a for a, b in zip(self.phis, self.phis[1:])):  # NaN fails
            raise ValueError("scan grid must be strictly increasing")


@dataclass(frozen=True)
class CalibrationRecord:
    phi_at_max_v: float
    v_max: float
    v_min: float

    def __post_init__(self) -> None:
        if not (self.v_max >= self.v_min >= 0.0):
            raise ValueError("calibration extrema must satisfy v_max >= v_min >= 0")

    @property
    def visibility(self) -> float:
        total = self.v_max + self.v_min
        return 0.0 if total == 0.0 else (self.v_max - self.v_min) / total


@dataclass(frozen=True)
class FitResult:
    beta1_hat: float
    gamma_hat: float
    alpha1_hat: float
    residual_sum_sq: float
    converged: bool
    gamma_unidentifiable: bool = False

    def summary(self) -> str:
        return (
            f"beta1={self.beta1_hat:.12g} gamma={self.gamma_hat:.12g} "
            f"alpha1={self.alpha1_hat:.12g} rss={self.residual_sum_sq:.12g} "
            f"converged={str(self.converged).lower()}"
        )


ScanLike = Union[FringeScan, NoisyScan]


def simulate_measurement(scan: FringeScan, shots: int, seed: int) -> NoisyScan:
    """Draw Poisson counts around ``shots`` times each expectation value.

    Sampling uses numpy's PCG64 generator seeded with ``seed``; identical
    inputs give identical counts.
    """
    if shots < 1:
        raise ValueError("shots must be a positive integer")
    rng = np.random.Generator(np.random.PCG64(seed))
    counts_h = rng.poisson(shots * scan.column("h"))
    counts_v = rng.poisson(shots * scan.column("v"))
    return NoisyScan(
        phis=scan.phis,
        counts_h=tuple(int(c) for c in counts_h),
        counts_v=tuple(int(c) for c in counts_v),
        shots=shots,
        seed=seed,
        sweep=scan.sweep,
    )


def _channels(data: ScanLike) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phis, h, v) with counts normalized by shots."""
    if data.sweep != "phi":
        raise ValueError(f"fringe analysis needs a phi scan, got a {data.sweep} scan")
    if isinstance(data, NoisyScan):
        phis = np.asarray(data.phis, dtype=float)
        h = np.asarray(data.counts_h, dtype=float) / data.shots
        v = np.asarray(data.counts_v, dtype=float) / data.shots
    else:
        phis = np.asarray(data.phis, dtype=float)
        h = data.column("h")
        v = data.column("v")
    return phis, h, v


def calibrate(data: ScanLike) -> CalibrationRecord:
    """Locate the vertical-channel fringe maximum on a gamma = 0 scan.

    Requires at least 16 points covering a full fringe period; ties resolve
    to the smallest phi.  A flat channel calibrates nowhere and only warns.
    """
    phis, _, v = _channels(data)
    if len(phis) < 16:
        raise SparseScanError(
            f"E_SPARSE_SCAN: calibration needs >= 16 points, got {len(phis)}"
        )
    v_max, v_min = float(v.max()), float(v.min())
    if v_max - v_min <= 1e-12 * max(v_max, 1.0):
        warnings.warn(
            "vertical channel is flat; fringe maximum is degenerate",
            QiupWarning,
            stacklevel=2,
        )
    return CalibrationRecord(
        phi_at_max_v=float(phis[int(v.argmax())]), v_max=v_max, v_min=v_min
    )


def _objective_grid(
    phis: np.ndarray, h: np.ndarray, v: np.ndarray,
    wh: np.ndarray, wv: np.ndarray,
) -> tuple[float, float]:
    betas = np.arange(0.0, 1.0 + GRID_BETA_STEP / 2, GRID_BETA_STEP)
    gammas = np.arange(GRID_GAMMA_POINTS) * (TWO_PI / GRID_GAMMA_POINTS)
    b = betas[:, None, None]
    g = gammas[None, :, None]
    p = phis[None, None, :]
    cost = np.sum(wh * (h - nh_closed(b, g, p)) ** 2, axis=2)
    cost += np.sum(wv * (v - nv_closed(b, g, p)) ** 2, axis=2)
    i, j = np.unravel_index(int(cost.argmin()), cost.shape)
    return float(betas[i]), float(gammas[j])


def fit(data: ScanLike, weighting: str = "equal") -> FitResult:
    """Recover (beta1, gamma) by least squares against the closed forms.

    A deterministic coarse grid search (beta1 step 0.05, gamma step 2pi/72)
    seeds a bounded local refinement.  ``weighting`` is ``"equal"`` or
    ``"inverse_variance"`` (weights shots/max(count, 1); integer-count data
    only).  When the recovered beta1 is below 0.02 the relative phase is
    flagged unidentifiable.
    """
    phis, h, v = _channels(data)
    # both scan types hold strictly increasing phases, so all are distinct
    if len(phis) < MIN_FIT_PHIS:
        raise ValueError(
            f"fit needs at least {MIN_FIT_PHIS} distinct phi values, got {len(phis)}"
        )
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(v)) and np.all(np.isfinite(phis))):
        raise ValueError("scan contains non-finite values")

    if weighting == "equal":
        wh = np.ones_like(h)
        wv = np.ones_like(v)
    elif weighting == "inverse_variance":
        if not isinstance(data, NoisyScan):
            raise ValueError("inverse-variance weighting needs integer-count data")
        wh = data.shots / np.maximum(np.asarray(data.counts_h, dtype=float), 1.0)
        wv = data.shots / np.maximum(np.asarray(data.counts_v, dtype=float), 1.0)
    else:
        raise ValueError(f"unknown weighting {weighting!r}")

    beta0, gamma0 = _objective_grid(phis, h, v, wh, wv)
    sqrt_wh, sqrt_wv = np.sqrt(wh), np.sqrt(wv)

    def residuals(x: np.ndarray) -> np.ndarray:
        beta1, gamma = x
        return np.concatenate(
            (
                sqrt_wh * (h - nh_closed(beta1, gamma, phis)),
                sqrt_wv * (v - nv_closed(beta1, gamma, phis)),
            )
        )

    start = residuals(np.array([beta0, gamma0]))
    if float(np.sum(start**2)) < 1e-24:
        # the grid point is already an exact minimum; refinement would only
        # feed a zero gradient to the trust-region solver
        beta1_hat, gamma_hat = beta0, gamma0 % TWO_PI
        rss = float(np.sum(start**2))
        converged = True
    else:
        # imported here: scipy.optimize is most of a cold `import qiup`, and
        # only this refinement needs it
        from scipy.optimize import least_squares

        with np.errstate(invalid="ignore", divide="ignore"):
            # unidentifiable directions give TRF zero gradients; it recovers,
            # but numpy would warn about the internal divisions
            result = least_squares(
                residuals,
                x0=np.array([beta0, gamma0]),
                bounds=(
                    np.array([0.0, gamma0 - math.pi]),
                    np.array([1.0, gamma0 + math.pi]),
                ),
                xtol=REFINE_TOL,
                ftol=None,
                gtol=None,
                max_nfev=MAX_REFINE_EVALS,
            )
        beta1_hat = float(np.clip(result.x[0], 0.0, 1.0))
        gamma_hat = float(result.x[1]) % TWO_PI
        rss = float(np.sum(result.fun**2))
        converged = bool(result.status > 0)
    return FitResult(
        beta1_hat=beta1_hat,
        gamma_hat=gamma_hat,
        alpha1_hat=infer_alpha1(beta1_hat),
        residual_sum_sq=rss,
        converged=converged,
        gamma_unidentifiable=beta1_hat < GAMMA_IDENTIFIABLE_MIN,
    )


def infer_alpha1(beta1_hat: float) -> float:
    """Horizontal amplitude from the normalization constraint."""
    if not 0.0 <= beta1_hat <= 1.0:
        raise ValueError("beta1 must lie in [0, 1]")
    return math.sqrt(1.0 - beta1_hat * beta1_hat)


# -- measurement CSV ---------------------------------------------------------
#
# Format: an initial comment line ``# shots=N`` (N >= 1), a header
# ``phi,counts_h,counts_v`` and one row per grid point, phi strictly
# increasing.  Counts are nonnegative and may be real-valued in synthetic
# noiseless files.  A scan over another parameter is written with that
# name in place of ``phi``, which the reader rejects.


def format_counts_csv(data: ScanLike, shots: int | None = None) -> str:
    if isinstance(data, NoisyScan):
        shots = data.shots
        rows = zip(data.phis, data.counts_h, data.counts_v)
        body = [f"{p:.17g},{ch},{cv}" for p, ch, cv in rows]
    else:
        if shots is None:
            shots = 1
        body = [
            f"{p:.17g},{r.n_h * shots:.17g},{r.n_v * shots:.17g}"
            for p, r in zip(data.phis, data.records)
        ]
    header = f"{data.sweep},counts_h,counts_v"
    return "\n".join([f"# shots={shots}", header, *body]) + "\n"


def read_counts_csv(text: str) -> ScanLike:
    """Parse a measurement or scan CSV.

    ``phi,counts_h,counts_v`` tables (with a ``# shots=N`` comment) yield a
    :class:`NoisyScan` when all counts are integral, otherwise a normalized
    :class:`FringeScan`.  ``phi,n_h,n_v`` expectation tables (as written by
    ``qiup scan``) yield a :class:`FringeScan` directly.  A negative count,
    a phi that does not increase on the previous row's and ``shots`` below 1
    raise :class:`DataFormatError` with the line number.
    """
    shots = None
    header = None
    phis: list[float] = []
    hs: list[float] = []
    vs: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment.startswith("shots="):
                try:
                    shots = int(comment[len("shots="):])
                except ValueError as exc:
                    raise DataFormatError(f"malformed shots value: {comment!r}", lineno) from exc
                if shots < 1:
                    raise DataFormatError(f"shots must be at least 1, got {shots}", lineno)
            continue
        if header is None:
            header = line.replace(" ", "")
            if header not in ("phi,counts_h,counts_v", "phi,n_h,n_v"):
                raise DataFormatError(
                    "expected header 'phi,counts_h,counts_v' or 'phi,n_h,n_v', "
                    f"got {line!r}",
                    lineno,
                )
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DataFormatError(f"expected 3 comma-separated fields, got {len(parts)}", lineno)
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise DataFormatError(f"malformed number in {line!r}", lineno) from exc
        if not all(math.isfinite(x) for x in values):
            raise DataFormatError(f"non-finite value in {line!r}", lineno)
        if values[1] < 0 or values[2] < 0:
            raise DataFormatError(f"negative count in {line!r}", lineno)
        if phis and values[0] <= phis[-1]:
            raise DataFormatError(
                f"phi {values[0]!r} does not increase on the previous row's {phis[-1]!r}",
                lineno,
            )
        phis.append(values[0])
        hs.append(values[1])
        vs.append(values[2])
    if header is None or not phis:
        raise DataFormatError("no data rows found")
    if header == "phi,n_h,n_v":
        records = tuple(CountResult(ch, cv) for ch, cv in zip(hs, vs))
        return FringeScan(tuple(phis), records, detect_path="")
    if shots is None:
        raise DataFormatError("missing '# shots=N' header comment")
    if all(c == int(c) for c in hs + vs):
        return NoisyScan(
            phis=tuple(phis),
            counts_h=tuple(int(c) for c in hs),
            counts_v=tuple(int(c) for c in vs),
            shots=shots,
            seed=0,
        )
    records = tuple(CountResult(ch / shots, cv / shots) for ch, cv in zip(hs, vs))
    return FringeScan(tuple(phis), records, detect_path="")
