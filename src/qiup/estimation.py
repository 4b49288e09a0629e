"""Measurement protocol: shot-noise simulation, calibration and fringe fits.

The fit inverts the reference closed forms (:mod:`qiup.reference`) over
the two free beam parameters: the vertical amplitude and its relative phase.
The horizontal amplitude is never observed directly; it is inferred from the
normalization constraint afterwards.

Fits are independent per dataset and safe to run in parallel; the Poisson
generator is constructed per call and never shared.

Both reference forms are first harmonics in phi: per channel, the model is
``a(beta1, gamma) . (1, cos phi, sin phi)``.  :func:`fit` therefore reduces
the data once to a 3x3 triangular factor of the weighted Gram matrix and a
3-vector per channel; the coarse grid then scores coefficient vectors, not
model evaluations at every phi, and the Levenberg-Marquardt refinement works
on those six whitened residuals with an analytic Jacobian.  numpy is the
only dependency.  A fit also says whether the data follow the reference
forms at all (``FitResult.model_rejected``): data from the evolution engine
do not, and their fit is not an estimate.
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
#: Goodness-of-fit gates: count data are rejected when their chi^2 is less
#: likely than a one-sided Gaussian deviation of this many sigma, noiseless
#: expectations beyond this RMS.
CHI2_SIGMAS = 6.0
CHI2_TAIL = 0.5 * math.erfc(CHI2_SIGMAS / math.sqrt(2.0))
MODEL_RMS_TOL = 1e-6


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
    model_rejected: bool = False

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


def _harmonics(beta1, gamma) -> np.ndarray:
    """Coefficients of (1, cos phi, sin phi) in the reference forms.

    ``nh_closed`` and ``nv_closed`` expanded through ``cos(gamma - phi)``
    and ``sin(gamma - phi)``: shape ``(2, 3) + shape``, H channel first, for
    scalars or for ``beta1`` and ``gamma`` arrays of one shape.
    """
    b, c, s = beta1, np.cos(gamma), np.sin(gamma)
    return np.array([
        [(8.0 - 3.0 * b * b) / 16.0, b * (s - c - 2.0) / 16.0, -b * (c + s) / 16.0],
        [5.0 / 16.0 + 0.0 * b, b * (c + 1.0) / 8.0, b * s / 8.0],  # 0 * b: b's shape
    ])


def _harmonics_jacobian(beta1: float, gamma: float) -> np.ndarray:
    """d(harmonics)/d(beta1, gamma), shape (2, 3, 2)."""
    c, s = math.cos(gamma), math.sin(gamma)
    return np.array([
        [[-6.0 * beta1 / 16.0, 0.0],
         [(s - c - 2.0) / 16.0, beta1 * (c + s) / 16.0],
         [-(c + s) / 16.0, beta1 * (s - c) / 16.0]],
        [[0.0, 0.0],
         [(c + 1.0) / 8.0, -beta1 * s / 8.0],
         [s / 8.0, beta1 * c / 8.0]],
    ])


#: The coarse grid, beta1-major, and its coefficient vectors per channel,
#: shape (2, nodes, 3).
_GRID_BETAS, _GRID_GAMMAS = np.meshgrid(
    np.arange(0.0, 1.0 + GRID_BETA_STEP / 2, GRID_BETA_STEP),
    np.arange(GRID_GAMMA_POINTS) * (TWO_PI / GRID_GAMMA_POINTS),
    indexing="ij",
)
_GRID_HARMONICS = np.ascontiguousarray(
    _harmonics(_GRID_BETAS, _GRID_GAMMAS).reshape(2, 3, -1).transpose(0, 2, 1)
)


def _whiten(
    phis: np.ndarray, y: np.ndarray, sqrt_w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(R, z) per channel, with ``sum w (y - B a)^2 = |R a - z|^2 + const``.

    ``B`` is the basis (1, cos phi, sin phi) at every phi and ``R`` the
    triangular factor of the weighted ``B`` (``R^T R`` is its Gram matrix
    ``B^T W B``), so the weighted rss of any coefficient vector ``a`` costs
    one 3x3 product per channel.  A QR factor, not a Cholesky one, because
    phases that coincide modulo 2*pi leave the Gram matrix singular.
    """
    basis = np.stack([np.ones_like(phis), np.cos(phis), np.sin(phis)], axis=-1)
    q, r = np.linalg.qr(sqrt_w[:, :, None] * basis)
    return r, np.einsum("cni,cn->ci", q, sqrt_w * y)


def _grid_start(r: np.ndarray, z: np.ndarray) -> tuple[float, float]:
    """The coarse-grid node of least weighted rss: one 3x3 product per node."""
    e = _GRID_HARMONICS @ r.transpose(0, 2, 1) - z[:, None, :]
    k = int(np.einsum("cki,cki->k", e, e).argmin())
    return float(_GRID_BETAS.flat[k]), float(_GRID_GAMMAS.flat[k])


def _refine(
    r: np.ndarray, z: np.ndarray, beta1: float, gamma: float,
) -> tuple[float, float, bool]:
    """Levenberg-Marquardt on (beta1, gamma) with beta1 projected onto [0, 1].

    Residuals are the 6-vector ``R a(beta1, gamma) - z`` of :func:`_whiten`,
    whose squared norm differs from the weighted rss by a constant, with the
    analytic Jacobian.  A beta1 held at a bound by the gradient leaves the
    step to gamma alone.  Stops when a step is below ``REFINE_TOL`` relative
    to the parameters; returns ``converged=False`` only when
    ``MAX_REFINE_EVALS`` residual evaluations run out first.
    """
    def residuals(x: np.ndarray) -> np.ndarray:
        return ((r @ _harmonics(x[0], x[1])[:, :, None])[:, :, 0] - z).ravel()

    x = np.array([beta1, gamma])
    e = residuals(x)
    cost = float(e @ e)
    evals, damping, grow = 1, None, 2.0
    while True:
        jac = (r @ _harmonics_jacobian(x[0], x[1])).reshape(6, 2)
        normal, grad = jac.T @ jac, jac.T @ e
        if damping is None:
            damping = 1e-6 * float(normal.diagonal().max())
        # a beta1 on the bound that the descent direction points out of stays
        held = (x[0] <= 0.0 and grad[0] > 0.0) or (x[0] >= 1.0 and grad[0] < 0.0)
        while True:  # trial steps from x until one lowers the cost
            if evals >= MAX_REFINE_EVALS:
                return float(x[0]), float(x[1]), False
            # (normal + damping * I) step = -grad over the free parameters
            n00, n01, n11 = normal[0, 0] + damping, normal[0, 1], normal[1, 1] + damping
            if held:
                step = np.array([0.0, -grad[1] / n11])
            else:
                det = n00 * n11 - n01 * n01
                step = np.array([n01 * grad[1] - n11 * grad[0],
                                 n01 * grad[0] - n00 * grad[1]]) / det
            trial = x + step
            trial[0] = min(max(trial[0], 0.0), 1.0)
            step = trial - x
            small = math.hypot(*step) <= REFINE_TOL * (REFINE_TOL + math.hypot(*x))
            e_trial = residuals(trial)
            evals += 1
            cost_trial = float(e_trial @ e_trial)
            accepted = cost_trial < cost
            if accepted:
                # Nielsen's rule: less damping the better the linear model
                # predicted the actual reduction
                predicted = -float(step @ (2.0 * grad + normal @ step))
                gain = (cost - cost_trial) / predicted if predicted > 0.0 else 0.0
                damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                grow = 2.0
                x, e, cost = trial, e_trial, cost_trial
            else:
                damping *= grow
                grow *= 2.0
            if small:
                return float(x[0]), float(x[1]), True
            if accepted:
                break


def fit(data: ScanLike, weighting: str = "equal") -> FitResult:
    """Recover (beta1, gamma) by least squares against the closed forms.

    A deterministic coarse grid search (beta1 step 0.05, gamma step 2pi/72)
    seeds a local Levenberg-Marquardt refinement with beta1 kept in [0, 1].
    ``weighting`` is ``"equal"`` or ``"inverse_variance"`` (weights
    shots/max(count, 1); integer-count data only).  When the recovered beta1
    is below 0.02 the relative phase is flagged unidentifiable.

    The fitted model is rejected (``model_rejected``) when the data do not
    follow the reference forms: for counts, when the Pearson chi^2 under the
    Poisson variance of the fitted expectation has a survival probability,
    with dof = 2N - 2, below ``CHI2_TAIL``, the one-sided Gaussian tail
    beyond ``CHI2_SIGMAS``; for noiseless expectations, when the residual RMS
    exceeds ``MODEL_RMS_TOL``.
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

    y, sqrt_w = np.stack([h, v]), np.sqrt(np.stack([wh, wv]))
    r, z = _whiten(phis, y, sqrt_w)
    beta0, gamma0 = _grid_start(r, z)

    def rss(beta1: float, gamma: float) -> float:
        # from the residuals themselves: |R a - z|^2 leaves out the part of
        # the data outside the first harmonic
        model = np.stack([nh_closed(beta1, gamma, phis), nv_closed(beta1, gamma, phis)])
        return float(np.sum((sqrt_w * (y - model)) ** 2))

    start = rss(beta0, gamma0)
    if start < 1e-24:
        # the grid point is already an exact minimum
        beta1_hat, gamma_hat, converged = beta0, gamma0, True
        residual_sum_sq = start
    else:
        beta1_hat, gamma_hat, converged = _refine(r, z, beta0, gamma0)
        residual_sum_sq = rss(beta1_hat, gamma_hat)
    gamma_hat %= TWO_PI
    return FitResult(
        beta1_hat=beta1_hat,
        gamma_hat=gamma_hat,
        alpha1_hat=infer_alpha1(beta1_hat),
        residual_sum_sq=residual_sum_sq,
        converged=converged,
        gamma_unidentifiable=beta1_hat < GAMMA_IDENTIFIABLE_MIN,
        model_rejected=_model_rejected(data, phis, beta1_hat, gamma_hat, residual_sum_sq),
    )


def _model_rejected(
    data: ScanLike, phis: np.ndarray, beta1: float, gamma: float, residual_sum_sq: float,
) -> bool:
    if isinstance(data, NoisyScan):
        # the reference forms stay above 1/16 on [0, 1], so no expectation is 0
        expected = data.shots * np.concatenate(
            (nh_closed(beta1, gamma, phis), nv_closed(beta1, gamma, phis))
        )
        observed = np.concatenate((data.counts_h, data.counts_v))
        dof = 2 * len(phis) - 2
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        return _chi2_log_sf(chi2, dof) < math.log(CHI2_TAIL)
    return math.sqrt(residual_sum_sq / (2 * len(phis))) > MODEL_RMS_TOL


def _chi2_log_sf(chi2: float, dof: int) -> float:
    """log P(X > chi2) for X ~ chi^2 with an even ``dof``.

    For even dof the survival function is the finite Poisson sum
    ``e^{-h} sum_{j < dof/2} h^j / j!`` with h = chi2 / 2.  The terms peak at
    j = floor(h); they are summed outward from there, relative to the peak,
    so each step only shrinks the term and nothing overflows or underflows.
    """
    h, k = chi2 / 2.0, dof // 2
    if h == 0.0:
        return 0.0
    peak = min(k - 1, int(h))
    total = term = 1.0
    for j in range(peak, 0, -1):
        term *= j / h
        total += term
        if term < 1e-17 * total:
            break
    term = 1.0
    for j in range(peak + 1, k):
        term *= h / j
        total += term
        if term < 1e-17 * total:
            break
    return peak * math.log(h) - math.lgamma(peak + 1) - h + math.log(total)


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
