"""Measurement protocol: shot-noise simulation and the fringe fit.

The fringe visibility of a scan is read by :func:`qiup.observables.visibility`;
:func:`fit` is the one estimator of the beam parameters.  It inverts the
reference closed forms (:mod:`qiup.reference`) over the two free beam
parameters: the vertical amplitude and its relative phase.
The horizontal amplitude is never observed directly; it is inferred from the
normalization constraint afterwards.

Fits are independent per dataset and safe to run in parallel; the Poisson
generator is constructed per call and never shared.

Both reference forms are first harmonics in phi: per channel, the model is
``a . (1, cos phi, sin phi)``, and the coefficients ``a`` are linear in the
features (1, b, b^2, b cos gamma, b sin gamma) of (b, gamma) = (beta1,
gamma).  The table of that map, :data:`qiup.reference.REFERENCE_FORMS`, and
the feature product, :func:`qiup.reference.harmonics`, live in
:mod:`qiup.reference` beside the evolution family's table, which ``qiup
verify`` reads too.

:func:`fit` reduces the weighted data once to a 3x3 triangular factor ``R``
of the weighted basis and a 3-vector ``z`` per channel, and from then on
reads the data only through them and the basis:

* the coarse grid scores all its nodes with one product of a fixed design
  matrix and the 18 distinct entries of ``B^T W B`` and ``B^T W y``;
* the Levenberg-Marquardt refinement runs on Python floats over the six
  whitened residuals ``R a - z``, with an analytic Jacobian;
* the reported rss and the goodness-of-fit gate use the model values
  ``basis . a`` at the fitted point, never the transcribed forms.

numpy is the only dependency.  A fit also says whether the data follow the
reference forms at all (``FitResult.model_rejected``): data from the
evolution engine do not, and their fit is not an estimate.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DataFormatError
from .observables import FringeScan, _basis, _set_scan
from .reference import REFERENCE_FORMS, harmonics

TWO_PI = 2.0 * math.pi

#: Coarse-search resolution mandated for determinism: beta1 step 0.05,
#: gamma step 2*pi/72, followed by local refinement.
GRID_BETA_STEP = 0.05
GRID_GAMMA_POINTS = 72
REFINE_TOL = 1e-10
MAX_REFINE_EVALS = 500
GAMMA_IDENTIFIABLE_MIN = 0.02
#: A first-harmonic fringe per channel has three unknowns (offset, cosine
#: and sine amplitude): fewer phases distinct modulo 2*pi cannot fix it.
MIN_FIT_PHIS = 3
#: Goodness-of-fit gates: count data are rejected when their chi^2 is less
#: likely than a one-sided Gaussian deviation of this many sigma, noiseless
#: expectations beyond this RMS.
CHI2_SIGMAS = 6.0
CHI2_TAIL = 0.5 * math.erfc(CHI2_SIGMAS / math.sqrt(2.0))
MODEL_RMS_TOL = 1e-6


@dataclass(frozen=True, eq=False, init=False)
class NoisyScan:
    """Integer Poisson counts drawn around ``shots`` times the expectations.

    The layout of :class:`~qiup.observables.FringeScan`: read-only arrays
    ``phis``, shape (N,), strictly increasing, and ``counts``, shape (2, N),
    whose rows ``counts_h`` and ``counts_v`` are views.  Scans compare by
    identity.
    """

    phis: np.ndarray
    counts: np.ndarray
    shots: int
    seed: int
    sweep: str

    def __init__(self, phis: Sequence[float], counts_h: Sequence[int],
                 counts_v: Sequence[int], shots: int, seed: int, sweep: str = "phi") -> None:
        self._set(np.array(phis, dtype=float), (counts_h, counts_v), shots, seed, sweep)

    @classmethod
    def _of(cls, phis: np.ndarray, counts: np.ndarray, shots: int, seed: int,
            sweep: str) -> NoisyScan:
        """The scan of arrays it may own and freeze, checked as by the
        constructor."""
        scan = object.__new__(cls)
        scan._set(phis, counts, shots, seed, sweep)
        return scan

    def _set(self, phis: np.ndarray, rows, shots: int, seed: int, sweep: str) -> None:
        if shots < 1:
            raise ValueError("shots must be a positive integer")
        _set_scan(self, phis, rows, "count columns", shots=shots, seed=seed, sweep=sweep)

    @property
    def counts_h(self) -> np.ndarray:
        return self.counts[0]

    @property
    def counts_v(self) -> np.ndarray:
        return self.counts[1]


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
    inputs give identical counts.  Only a :class:`FringeScan` of
    expectations is drawn around; anything else raises ``TypeError``.
    """
    if not isinstance(scan, FringeScan):
        raise TypeError(f"simulate_measurement needs a FringeScan, got {type(scan).__name__}")
    if shots < 1:
        raise ValueError("shots must be a positive integer")
    rng = np.random.Generator(np.random.PCG64(seed))
    # one draw per point, the H row before the V row
    counts = rng.poisson(shots * scan.counts)
    return NoisyScan._of(scan.phis, counts, shots, seed, scan.sweep)


def _channels(data: ScanLike) -> tuple[np.ndarray, np.ndarray]:
    """(phis, counts): the (2, N) counts normalized by shots."""
    if data.sweep != "phi":
        raise ValueError(f"fringe analysis needs a phi scan, got a {data.sweep} scan")
    if isinstance(data, NoisyScan):
        return data.phis, data.counts / data.shots
    return data.phis, data.counts


#: Row and column of the six distinct entries of a symmetric 3x3 matrix.
_UPPER = np.triu_indices(3)


@functools.cache
def _grid_design() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coarse grid, beta1-major, and the design matrix of its scores.

    A node's weighted rss is, up to a constant, ``a.G a - 2 a.g`` per channel
    (``G = B^T W B``, ``g = B^T W y``, ``a`` the node's harmonics), which is
    linear in the six distinct entries of ``G`` and the three of ``g``:
    column k of the design, shape (18, nodes), holds node k's factors of
    those 18 entries, in the order that :func:`_grid_start` lists them.
    Built on first use, so that ``import qiup`` does not pay for it.
    """
    betas, gammas = np.meshgrid(
        np.arange(0.0, 1.0 + GRID_BETA_STEP / 2, GRID_BETA_STEP),
        np.arange(GRID_GAMMA_POINTS) * (TWO_PI / GRID_GAMMA_POINTS),
        indexing="ij",
    )
    a = harmonics(REFERENCE_FORMS, betas.ravel(), gammas.ravel())  # (2, 3, nodes)
    i, j = _UPPER
    quadratic = a[:, i] * a[:, j] * np.where(i == j, 1.0, 2.0)[:, None]
    design = np.concatenate((quadratic, -2.0 * a), axis=1).reshape(18, -1)
    grid = betas.ravel(), gammas.ravel(), design
    for array in grid:  # shared by every caller
        array.flags.writeable = False
    return grid


def _whiten(
    basis: np.ndarray, y: np.ndarray, sqrt_w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(R, z) per channel, with ``sum w (y - B a)^2 = |R a - z|^2 + const``.

    ``B`` is the basis (1, cos phi, sin phi) at every phi and ``R`` the
    triangular factor of the weighted ``B`` (``R^T R`` is its Gram matrix
    ``B^T W B``, and ``R^T z = B^T W y``).  A QR factor, not a Cholesky
    one, because phases that nearly coincide modulo 2*pi leave the Gram
    matrix ill-conditioned.
    """
    q, r = np.linalg.qr(sqrt_w[:, :, None] * basis)
    return r, np.einsum("cni,cn->ci", q, sqrt_w * y)


def _grid_start(r: np.ndarray, z: np.ndarray) -> tuple[float, float]:
    """The coarse-grid node of least weighted rss, ties to the first node.

    Scores every node at once as the product of :func:`_grid_design` with
    the 18 statistics ``B^T W B`` (upper triangle) and ``B^T W y`` of both
    channels, from ``R^T R`` and ``R^T z``.
    """
    betas, gammas, design = _grid_design()
    rt = r.transpose(0, 2, 1)
    i, j = _UPPER
    statistics = np.concatenate(((rt @ r)[:, i, j], (rt @ z[:, :, None])[:, :, 0]), axis=1)
    k = int((statistics.ravel() @ design).argmin())
    return float(betas[k]), float(gammas[k])


def _refine(
    r: np.ndarray, z: np.ndarray, beta1: float, gamma: float,
) -> tuple[float, float, bool]:
    """Levenberg-Marquardt on (beta1, gamma) with beta1 projected onto [0, 1].

    Residuals are the 6-vector ``R a(beta1, gamma) - z`` of :func:`_whiten`,
    whose squared norm differs from the weighted rss by a constant.  Since
    ``a = REFERENCE_FORMS @ features``, ``R @ REFERENCE_FORMS`` is formed
    once and each residual is five numbers dotted with the features of
    (beta1, gamma): the loop, with its analytic Jacobian, runs on Python
    floats.  A beta1 held at a bound by the gradient leaves the step to
    gamma alone.  A trial step is kept when it lowers the cost, judged
    from the residuals' change, which resolves the last steps where the
    cost's own rounding does not.  Stops when a trial step and Newton's
    step (the gradient times the inverse Hessian) are both below
    ``REFINE_TOL`` relative to the parameters; returns ``converged=False``
    only when ``MAX_REFINE_EVALS`` residual evaluations run out first.
    """
    # residual i is k_i + b (m1 + b m2 + c m3 + s m4), with k_i = m0 - z_i
    # and c, s the cosine and sine of gamma
    rows = [(m[0] - zi, *m[1:])
            for m, zi in zip((r @ REFERENCE_FORMS).reshape(6, 5).tolist(), z.ravel().tolist())]

    def change(b: float, c: float, s: float, db: float, dg: float) -> list[float]:
        # the residuals' change from (b, g) to (b + db, g + dg), with c, s
        # the cosine and sine of g, from the changes of the features b, b^2,
        # b c and b s, each formed without cancellation (1 - cos dg as
        # 2 sin^2(dg/2)), so that it keeps its precision however small the step
        sin_dg, versine = math.sin(dg), 2.0 * math.sin(dg / 2.0) ** 2
        dc, ds = -(c * versine + s * sin_dg), c * sin_dg - s * versine
        f1, f2, f3, f4 = db, db * (2.0 * b + db), db * (c + dc) + b * dc, db * (s + ds) + b * ds
        return [m1 * f1 + m2 * f2 + m3 * f3 + m4 * f4 for _, m1, m2, m3, m4 in rows]

    def near_minimum() -> bool:
        # Newton's step, the gradient times the inverse Hessian over the free
        # parameters (times det): how far the minimum lies from the loop's
        # (b, g).  Damping alone can make a trial step small in a flat valley
        # far from it, and where the residuals curve the cost, Gauss-Newton's
        # steps shrink well before the distance does.  The Hessian is J^T J
        # plus sum_i e_i (Hessian of e_i); at beta1 = 0, gamma has no say,
        # and the step and det vanish together
        r00 = r01 = r11 = 0.0
        for (_, m1, m2, m3, m4), ei in zip(rows, e):
            r00, r01 = r00 + 2.0 * m2 * ei, r01 + (c * m4 - s * m3) * ei
            r11 -= (c * m3 + s * m4) * ei
        h00, h01, free_b = (1.0, 0.0, 0.0) if held else (n00 + r00, n01 + r01, grad_b)
        h11 = n11 + b * r11
        return (math.hypot(h11 * free_b - h01 * grad_g, h00 * grad_g - h01 * free_b)
                <= REFINE_TOL * (REFINE_TOL + math.hypot(b, g)) * (h00 * h11 - h01 * h01))

    b, g = beta1, gamma
    c, s = math.cos(g), math.sin(g)
    e = [k + b * (m1 + b * m2 + c * m3 + s * m4) for k, m1, m2, m3, m4 in rows]
    evals, damping, grow = 1, None, 2.0
    while True:
        # the normal matrix J^T J and the gradient J^T e, row by row of J
        c, s = math.cos(g), math.sin(g)
        n00 = n01 = n11 = grad_b = grad_g = 0.0
        for (_, m1, m2, m3, m4), ei in zip(rows, e):
            jb, jg = m1 + 2.0 * b * m2 + c * m3 + s * m4, b * (c * m4 - s * m3)
            n00, n01, n11 = n00 + jb * jb, n01 + jb * jg, n11 + jg * jg
            grad_b, grad_g = grad_b + jb * ei, grad_g + jg * ei
        if damping is None:
            damping = 1e-6 * max(n00, n11)
        # a beta1 on the bound that the descent direction points out of stays
        held = (b <= 0.0 and grad_b > 0.0) or (b >= 1.0 and grad_b < 0.0)
        while True:  # trial steps from (b, g) until one lowers the cost
            if evals >= MAX_REFINE_EVALS:
                return b, g, False
            # (normal + damping * I) step = -grad over the free parameters
            d00, d11 = n00 + damping, n11 + damping
            if held:
                step_b, step_g = 0.0, -grad_g / d11
            else:
                det = d00 * d11 - n01 * n01
                step_b = (n01 * grad_g - d11 * grad_b) / det
                step_g = (n01 * grad_b - d00 * grad_g) / det
            trial_b, trial_g = min(max(b + step_b, 0.0), 1.0), g + step_g
            step_b, step_g = trial_b - b, trial_g - g
            small = math.hypot(step_b, step_g) <= REFINE_TOL * (REFINE_TOL + math.hypot(b, g))
            converged = small and near_minimum()
            # the cost's decrease, |e|^2 - |e + d|^2, from the residuals'
            # change d: near the minimum it lies below the rounding of |e|^2
            d = change(b, c, s, step_b, step_g)
            evals += 1
            reduction = -sum(di * (2.0 * ei + di) for ei, di in zip(e, d))
            accepted = reduction > 0.0
            if accepted:
                # Nielsen's rule: less damping the better the linear model
                # predicted the actual reduction
                predicted = -(step_b * (2.0 * grad_b + n00 * step_b + n01 * step_g)
                              + step_g * (2.0 * grad_g + n01 * step_b + n11 * step_g))
                gain = reduction / predicted if predicted > 0.0 else 0.0
                damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                grow = 2.0
                b, g, e = trial_b, trial_g, [ei + di for ei, di in zip(e, d)]
            else:
                damping *= grow
                grow *= 2.0
            if converged:
                return b, g, True
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
    phis, y = _channels(data)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(phis))):
        raise ValueError("scan contains non-finite values")
    # phases modulo 2*pi: the sorted gaps above rounding, and the one round the circle
    wrapped = np.sort(phis % TWO_PI)
    phases = np.count_nonzero(wrapped[1:] - wrapped[:-1] > 1e-9) + bool(
        len(phis) and wrapped[0] + TWO_PI - wrapped[-1] > 1e-9)
    if phases < MIN_FIT_PHIS:
        raise ValueError(
            f"fit needs at least {MIN_FIT_PHIS} distinct phases modulo 2*pi, got {phases}"
        )

    if weighting == "equal":
        sqrt_w = np.ones_like(y)
    elif weighting == "inverse_variance":
        if not isinstance(data, NoisyScan):
            raise ValueError("inverse-variance weighting needs integer-count data")
        sqrt_w = np.sqrt(data.shots / np.maximum(data.counts, 1.0))
    else:
        raise ValueError(f"unknown weighting {weighting!r}")

    basis = _basis(1, phis, 1)
    r, z = _whiten(basis.T, y, sqrt_w)

    def model_rss(beta1: float, gamma: float) -> tuple[np.ndarray, float]:
        # from the residuals themselves: |R a - z|^2 leaves out the part of
        # the data outside the first harmonic
        model = harmonics(REFERENCE_FORMS, beta1, gamma) @ basis
        return model, float(np.sum((sqrt_w * (y - model)) ** 2))

    beta1_hat, gamma_hat = _grid_start(r, z)
    model, residual_sum_sq = model_rss(beta1_hat, gamma_hat)
    converged = True
    if residual_sum_sq >= 1e-24:  # below, the grid node is already an exact minimum
        beta1_hat, gamma_hat, converged = _refine(r, z, beta1_hat, gamma_hat)
        model, residual_sum_sq = model_rss(beta1_hat, gamma_hat)
    gamma_hat %= TWO_PI
    return FitResult(
        beta1_hat=beta1_hat,
        gamma_hat=gamma_hat,
        alpha1_hat=infer_alpha1(beta1_hat),
        residual_sum_sq=residual_sum_sq,
        converged=converged,
        gamma_unidentifiable=beta1_hat < GAMMA_IDENTIFIABLE_MIN,
        model_rejected=_model_rejected(data, model, residual_sum_sq),
    )


def _model_rejected(data: ScanLike, model: np.ndarray, residual_sum_sq: float) -> bool:
    """The goodness-of-fit gate, given the fitted expectations per channel."""
    if isinstance(data, NoisyScan):
        # the reference forms stay above 1/16 on [0, 1], so no expectation is 0
        expected = data.shots * model.ravel()
        observed = data.counts.ravel()
        dof = model.size - 2
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        return _chi2_log_sf(chi2, dof) < math.log(CHI2_TAIL)
    return math.sqrt(residual_sum_sq / model.size) > MODEL_RMS_TOL


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


def format_counts_csv(data: ScanLike) -> str:
    """A noisy scan's counts, or a scan's expectations as ``shots=1``."""
    if isinstance(data, NoisyScan):
        shots, row = data.shots, "{:.17g},{},{}"
    else:
        shots, row = 1, "{:.17g},{:.17g},{:.17g}"
    body = map(row.format, data.phis.tolist(), *data.counts.tolist())
    header = f"{data.sweep},counts_h,counts_v"
    return "\n".join([f"# shots={shots}", header, *body]) + "\n"


def read_counts_csv(text: str) -> ScanLike:
    """Parse a measurement or scan CSV.

    ``phi,counts_h,counts_v`` tables (with a ``# shots=N`` comment) yield a
    :class:`NoisyScan` when all counts are integral, otherwise a normalized
    :class:`FringeScan`.  ``phi,n_h,n_v`` expectation tables (as written by
    ``qiup scan``) yield a :class:`FringeScan` directly.  A negative count,
    a phi that does not increase on the previous row's and ``shots`` below 1
    raise :class:`DataFormatError` with the line number; integral counts of
    2**63 or more, which no int64 holds, raise it without one.
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
    grid, counts = np.array(phis), np.array((hs, vs))
    if header == "phi,n_h,n_v":
        return FringeScan._of(grid, counts, "", "phi")
    if shots is None:
        raise DataFormatError("missing '# shots=N' header comment")
    if np.all(counts == np.trunc(counts)):
        if counts.max() >= 2.0**63:
            raise DataFormatError("integer counts must be below 2**63")
        return NoisyScan._of(grid, counts.astype(np.int64), shots, 0, "phi")
    return FringeScan._of(grid, counts / shots, "", "phi")
