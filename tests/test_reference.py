import math

import numpy as np
import pytest

import dense_model
from qiup.reference import (
    EVOLUTION_FORMS,
    REFERENCE_FORMS,
    harmonics,
    nh_closed,
    nh_evolution,
    nv_closed,
    nv_evolution,
    visibility_closed,
)


class TestTranscribedForms:
    @pytest.mark.parametrize(
        "beta1,gamma,phi,expected",
        [
            (1.0, 0.0, 0.0, 0.125),
            (0.0, 0.7, 1.3, 0.5),
            (0.0, 0.0, 0.0, 0.5),
            (1.0, 0.0, math.pi, 0.5),
        ],
    )
    def test_nh_values(self, beta1, gamma, phi, expected):
        assert nh_closed(beta1, gamma, phi) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "beta1,gamma,phi,expected",
        [
            (1.0, 0.0, 0.0, 0.5625),
            (1.0, 0.0, math.pi, 0.0625),
            (0.0, 2.2, 0.4, 0.3125),
        ],
    )
    def test_nv_values(self, beta1, gamma, phi, expected):
        assert nv_closed(beta1, gamma, phi) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("fn", [nh_closed, nv_closed, visibility_closed])
    def test_domain_error(self, fn):
        with pytest.raises(ValueError):
            fn(-0.1) if fn is visibility_closed else fn(-0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            fn(1.5) if fn is visibility_closed else fn(1.5, 0.0, 0.0)

    @pytest.mark.parametrize("fn", [nh_closed, nv_closed])
    def test_two_pi_periodic(self, fn):
        grid = np.linspace(0.0, 2 * math.pi, 17)
        for beta1 in (0.3, 0.9):
            np.testing.assert_allclose(
                fn(beta1, grid, 0.8), fn(beta1, grid + 2 * math.pi, 0.8), atol=1e-12
            )
            np.testing.assert_allclose(
                fn(beta1, 0.8, grid), fn(beta1, 0.8, grid + 2 * math.pi), atol=1e-12
            )

    def test_broadcasting(self):
        betas = np.array([0.0, 0.5, 1.0])[:, None]
        phis = np.linspace(0, 2 * math.pi, 8)[None, :]
        assert nh_closed(betas, 0.0, phis).shape == (3, 8)


class TestVisibilityClosed:
    @pytest.mark.parametrize("beta1,expected", [(1.0, 0.8), (0.0, 0.0), (0.5, 0.4)])
    def test_values(self, beta1, expected):
        assert visibility_closed(beta1) == pytest.approx(expected, abs=1e-15)

    def test_consistent_with_nv_closed_extrema(self):
        # 4096 points include the analytic extrema at phi = 0 and pi exactly
        phis = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
        for beta1 in (0.1, 0.35, 0.7, 1.0):
            column = nv_closed(beta1, 0.0, phis)
            vis = (column.max() - column.min()) / (column.max() + column.min())
            assert vis == pytest.approx(float(visibility_closed(beta1)), abs=1e-9)


class TestEvolutionForms:
    def test_match_independent_dense_model(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            beta1 = rng.uniform(0, 1)
            gamma = rng.uniform(0, 2 * math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            dense = dense_model.run_fig1(
                math.sqrt(1 - beta1**2), beta1, gamma, 0.0, 1.0, phi, math.pi / 4
            )
            nh, nv = dense.counts("o'")
            assert nh == pytest.approx(float(nh_evolution(beta1, gamma, phi)), abs=1e-12)
            assert nv == pytest.approx(float(nv_evolution(beta1, gamma, phi)), abs=1e-12)

    def test_same_visibility_family_as_reference(self):
        # both families give the vertical-channel visibility 4*beta1/5 at gamma=0
        phis = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
        for beta1 in (0.25, 0.6, 1.0):
            column = nv_evolution(beta1, 0.0, phis)
            vis = (column.max() - column.min()) / (column.max() + column.min())
            assert vis == pytest.approx(float(visibility_closed(beta1)), abs=1e-12)

    def test_nh_constant_in_regime(self):
        grid = np.linspace(0, 2 * math.pi, 9)
        values = nh_evolution(0.7, grid[:, None], grid[None, :])
        np.testing.assert_allclose(values, 0.125, atol=1e-15)


class TestHarmonicTables:
    def test_evolution_table_is_the_evolution_forms(self):
        # as TestHarmonics in test_estimation pins the reference table
        rng = np.random.default_rng(19)
        betas = np.concatenate(([0.0, 1.0, 0.0, 1.0], rng.uniform(0.0, 1.0, 60)))
        gammas = rng.uniform(-2 * math.pi, 4 * math.pi, betas.size)
        phis = rng.uniform(-2 * math.pi, 4 * math.pi, 50)
        basis = np.stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
        for beta1, gamma in zip(betas, gammas):
            model = harmonics(EVOLUTION_FORMS, float(beta1), float(gamma)) @ basis
            assert np.max(np.abs(model[0] - nh_evolution(beta1, gamma, phis))) <= 1e-15
            assert np.max(np.abs(model[1] - nv_evolution(beta1, gamma, phis))) <= 1e-15
        stacked = harmonics(EVOLUTION_FORMS, betas, gammas)
        assert stacked.shape == (2, 3, betas.size)

    @pytest.mark.parametrize("table", [REFERENCE_FORMS, EVOLUTION_FORMS])
    def test_tables_are_read_only(self, table):
        assert table.shape == (2, 3, 5)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] = 1.0


class TestExactRules:
    """Two rules that every unitary evolution of fig1 obeys: the engine's
    forms keep them and the reference forms break them, which locates A1's
    deviations."""

    def test_sign_rule(self):
        # (beta, gamma) and (-beta, gamma + pi) prepare the same state, so
        # every count's harmonics agree there
        rng = np.random.default_rng(67)
        betas = np.concatenate(([0.8, 1.0], rng.uniform(0.0, 1.0, 30)))
        gammas = rng.uniform(0.0, 2 * math.pi, betas.size)
        evolution = harmonics(EVOLUTION_FORMS, betas, gammas)
        flipped = harmonics(EVOLUTION_FORMS, -betas, gammas + math.pi)
        assert np.abs(evolution - flipped).max() <= 1e-15
        # the reference forms' -2 beta1 cos(phi) (H) and +2 beta1 cos(phi) (V)
        # terms are odd in beta1: each breaks the rule by 4 beta1/16
        gap = harmonics(REFERENCE_FORMS, betas, gammas) - harmonics(
            REFERENCE_FORMS, -betas, gammas + math.pi)
        want = np.zeros_like(gap)
        want[0, 1], want[1, 1] = -4 * betas / 16, 4 * betas / 16
        assert np.abs(gap - want).max() <= 1e-15
        np.testing.assert_allclose(gap[:, 1, 0], [-0.2, 0.2], rtol=0, atol=1e-15)

    def test_reference_v_visibility_depends_on_gamma(self):
        # the engine's V visibility stays 4 beta1/5 at every gamma (the phase
        # rule, tests/test_observables.py); nv_closed's is 4 beta1 |cos(gamma/2)|/5
        gammas = np.array([0.0, 1.0, 2.0, 3.0])
        offset, cosine, sine = harmonics(REFERENCE_FORMS, np.full(4, 0.8), gammas)[1]
        want = 4 * 0.8 * np.abs(np.cos(gammas / 2)) / 5
        np.testing.assert_allclose(np.hypot(cosine, sine) / offset, want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(want, [0.640, 0.562, 0.346, 0.045], rtol=0, atol=5e-4)
        phis = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
        for gamma, vis in zip(gammas, want):
            column = nv_closed(0.8, gamma, phis)
            assert (np.ptp(column) / (column.max() + column.min())
                    == pytest.approx(vis, abs=1e-6))
