"""Closed-form count formulas for the beta2 = 1, theta = 45 deg regime.

``nh_closed`` / ``nv_closed`` are the package's reference count model: the
closed forms the estimation protocol is defined against, kept verbatim and
independent of the evolution engine.  The engine itself obeys
``nh_evolution`` / ``nv_evolution`` (in the unnormalized two-source
convention).  The two families agree on fringe visibility and on the
gamma = 0 fringe shape but differ elsewhere -- ``qiup verify`` reports the
deviation rather than hiding it.  See README, "Known discrepancies".

All functions broadcast over numpy arrays.
"""
from __future__ import annotations

import numpy as np


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
