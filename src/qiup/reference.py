"""Closed-form count formulas for the beta2 = 1, theta = 45 deg regime.

``nh_closed`` / ``nv_closed`` are the package's reference count model: the
closed forms the estimation protocol is defined against, kept verbatim and
independent of the evolution engine.  The engine itself obeys
``nh_evolution`` / ``nv_evolution`` (in the unnormalized two-source
convention).  The two families agree on the gamma = 0 fringe shape and,
at gamma = 0 only, on the V visibility 4*beta1/5: ``nv_closed``'s is
4*beta1*|cos(gamma/2)|/5, the engine's the same at every gamma.  They differ
elsewhere -- ``qiup verify`` reports the deviation rather than hiding it.
See README, "Known discrepancies".

All functions broadcast over numpy arrays.

Both families are first harmonics in phi, with coefficients linear in the
features (1, b, b^2, b cos gamma, b sin gamma) of b = beta1.  Each family
therefore has one table, :data:`REFERENCE_FORMS` and
:data:`EVOLUTION_FORMS`, and :func:`harmonics` gives the coefficients of
(1, cos phi, sin phi) per channel from it.  The fit
(:mod:`qiup.estimation`) and ``qiup verify`` (:mod:`qiup.verification`)
read the tables; the transcribed forms stay as the statement that tests
pin the tables to.
"""
from __future__ import annotations

import numpy as np


def _sixteenths(rows) -> np.ndarray:
    table = np.array(rows) / 16.0
    table.flags.writeable = False  # shared by every caller
    return table


#: ``nh_closed`` and ``nv_closed`` expanded through cos(gamma - phi) and
#: sin(gamma - phi): shape (channel, basis, feature), H first, over the
#: basis (1, cos phi, sin phi) and the features (1, b, b^2, b cos gamma,
#: b sin gamma).
REFERENCE_FORMS = _sixteenths([
    [[8.0, 0.0, -3.0, 0.0, 0.0], [0.0, -2.0, 0.0, -1.0, 1.0], [0.0, 0.0, 0.0, -1.0, -1.0]],
    [[5.0, 0.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 0.0, 2.0]],
])

#: ``nh_evolution`` and ``nv_evolution`` on the same basis and features:
#: N_H = 1/8 and N_V = 5/8 + (b/2) cos(gamma - phi).
EVOLUTION_FORMS = _sixteenths([
    [[2.0, 0.0, 0.0, 0.0, 0.0], [0.0] * 5, [0.0] * 5],
    [[10.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 8.0, 0.0], [0.0, 0.0, 0.0, 0.0, 8.0]],
])


def harmonics(forms: np.ndarray, beta1, gamma) -> np.ndarray:
    """Coefficients of (1, cos phi, sin phi) in a family's forms.

    ``forms`` is :data:`REFERENCE_FORMS` or :data:`EVOLUTION_FORMS`, or
    tables stacked along the channel axis.  Shape ``forms.shape[:2] +
    shape``, (2, 3) + shape for one table with the H channel first, for
    scalars or for ``beta1`` and ``gamma`` arrays of one shape.  The domain
    of ``beta1`` is not checked.
    """
    b = beta1
    return forms @ np.array([np.ones_like(b), b, b * b, b * np.cos(gamma), b * np.sin(gamma)])


def _check_beta1(beta1) -> None:
    arr = np.asarray(beta1)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("beta1 must lie in [0, 1]")


def nh_closed(beta1, gamma, phi):
    """Transcribed horizontal counts; regime beta2=1, theta=45deg."""
    _check_beta1(beta1)
    return (
        8.0
        - 3.0 * np.square(beta1)
        + beta1 * (np.sin(gamma - phi) - np.cos(gamma - phi))
        - 2.0 * beta1 * np.cos(phi)
    ) / 16.0


def nv_closed(beta1, gamma, phi):
    """Transcribed vertical counts; regime beta2=1, theta=45deg."""
    _check_beta1(beta1)
    return (5.0 + 2.0 * beta1 * (np.cos(gamma - phi) + np.cos(phi))) / 16.0


def visibility_closed(beta1):
    """Fringe visibility of the vertical channel at gamma = 0."""
    _check_beta1(beta1)
    return 4.0 * np.asarray(beta1) / 5.0


def nh_evolution(beta1, gamma, phi):
    """Horizontal counts of the unitary evolution engine (unnormalized).

    Every horizontal signal amplitude reaching the detector carries the same
    interferometric phase factor with pairwise-distinct idler partners, so
    the count is constant in beta1, gamma and phi.
    """
    _check_beta1(beta1)
    return 0.125 + 0.0 * (np.asarray(beta1) + np.asarray(gamma) + np.asarray(phi))


def nv_evolution(beta1, gamma, phi):
    """Vertical counts of the unitary evolution engine (unnormalized)."""
    _check_beta1(beta1)
    return (5.0 + 4.0 * beta1 * np.cos(np.asarray(gamma) - np.asarray(phi))) / 8.0
