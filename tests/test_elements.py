import math

import numpy as np
import pytest

from qiup import (
    Band,
    BiphotonState,
    MergeRule,
    Mode,
    ModePair,
    Polarization,
    PreparationSpec,
    SourceSpec,
    SourceTag,
    WavePlateKind,
    WavePlateSetting,
    apply_bs_dual,
    apply_bs_single,
    apply_dichroic,
    apply_merge,
    apply_phase,
    apply_waveplate,
    hwp_matrix,
    initial_state,
    prepare_beam,
    qwp_matrix,
)
from qiup.errors import PreparationConflictError, QiupWarning

H, V = Polarization.H, Polarization.V
S1, S2, MM = SourceTag.SOURCE_1, SourceTag.SOURCE_2, SourceTag.MERGED
ROOT_HALF = 1.0 / math.sqrt(2.0)


def pair(sp, spol, stag, ip, ipol, itag):
    return ModePair(Mode(sp, spol, Band.SIGNAL, stag), Mode(ip, ipol, Band.IDLER, itag))


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(2))))


class TestWavePlateMatrices:
    def test_hwp_at_zero(self):
        np.testing.assert_allclose(hwp_matrix(0.0), [[1, 0], [0, -1]], atol=1e-15)

    def test_hwp_at_45_degrees(self):
        np.testing.assert_allclose(
            hwp_matrix(math.pi / 4), [[0, -1], [-1, 0]], atol=1e-15
        )

    def test_hwp_determinant(self):
        for h in np.linspace(0, math.pi, 7):
            assert np.linalg.det(hwp_matrix(h)) == pytest.approx(-1.0, abs=1e-12)

    def test_hwp_unitary_everywhere(self):
        for h in np.linspace(0.0, math.pi, 1000):
            assert unitarity_defect(hwp_matrix(h)) < 1e-15

    def test_qwp_at_zero(self):
        expected = np.array([[1j - 1, 0], [0, 1j + 1]]) * ROOT_HALF
        np.testing.assert_allclose(qwp_matrix(0.0), expected, atol=1e-15)
        assert abs(qwp_matrix(0.0)[0, 0]) == pytest.approx(1.0, abs=1e-15)
        assert abs(qwp_matrix(0.0)[1, 1]) == pytest.approx(1.0, abs=1e-15)

    def test_qwp_at_45_degrees(self):
        expected = np.array([[1j, 1], [1, 1j]]) * ROOT_HALF
        np.testing.assert_allclose(qwp_matrix(math.pi / 4), expected, atol=1e-15)

    def test_qwp_unitary_everywhere(self):
        for q in np.linspace(0.0, math.pi, 1000):
            assert unitarity_defect(qwp_matrix(q)) < 1e-12

    def test_hwp_qwp_do_not_commute(self):
        a, b = hwp_matrix(math.pi / 8), qwp_matrix(0.0)
        assert np.max(np.abs(a @ b - b @ a)) > 0.1

    def test_waveplate_setting_angle_canonicalized(self):
        setting = WavePlateSetting(WavePlateKind.HWP, math.pi + 0.25)
        assert setting.fast_axis_angle == pytest.approx(0.25)


class TestApplyWaveplate:
    def test_hwp45_on_v_idler(self):
        state = initial_state([SourceSpec(1, "f", "f")])
        out = apply_waveplate(
            state, "f", WavePlateSetting(WavePlateKind.HWP, math.pi / 4), Band.IDLER
        )
        assert out.amplitude(pair("f", V, S1, "f", H, S1)) == pytest.approx(-1.0)

    def test_hwp_theta_mixes_h_with_tag_preserved(self):
        base = BiphotonState({pair("x", V, MM, "f", H, S1): 1.0})
        theta = 0.3
        out = apply_waveplate(
            base, "f", WavePlateSetting(WavePlateKind.HWP, theta), Band.IDLER
        )
        assert out.amplitude(pair("x", V, MM, "f", H, S1)) == pytest.approx(
            math.cos(2 * theta)
        )
        assert out.amplitude(pair("x", V, MM, "f", V, S1)) == pytest.approx(
            -math.sin(2 * theta)
        )

    def test_band_filter_skips_signal(self):
        state = initial_state([SourceSpec(1, "f", "f")])
        out = apply_waveplate(
            state, "f", WavePlateSetting(WavePlateKind.HWP, math.pi / 4), Band.IDLER
        )
        for p, _ in out.items():
            assert p.signal.pol is V


class TestPreparation:
    def test_spec_normalization_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            PreparationSpec(0.9, 0.9)
        with pytest.raises(ValueError, match="nonnegative"):
            PreparationSpec(-0.6, 0.8)

    @pytest.mark.parametrize("args, match", [
        ((math.nan, 0.8), "nonnegative"),
        ((0.6, math.nan), "nonnegative"),
        ((math.inf, 0.8), "alpha"),
        ((0.6, 0.8, math.nan), "relative phase"),
        ((0.6, 0.8, math.inf), "relative phase"),
    ])
    def test_spec_rejects_nonfinite(self, args, match):
        with pytest.raises(ValueError, match=match):
            PreparationSpec(*args)

    def test_prepare_splits_v(self):
        state = initial_state([SourceSpec(1, "a", "a")])
        spec = PreparationSpec(0.6, 0.8, 1.0)
        out = prepare_beam(state, "a", Band.IDLER, spec)
        assert out.amplitude(pair("a", V, S1, "a", H, S1)) == pytest.approx(0.6)
        assert out.amplitude(pair("a", V, S1, "a", V, S1)) == pytest.approx(
            0.8 * np.exp(1j)
        )
        assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_identity_preparation(self):
        state = initial_state([SourceSpec(1, "a", "a")])
        out = prepare_beam(state, "a", Band.IDLER, PreparationSpec(0.0, 1.0, 0.0))
        assert out == state

    def test_pure_h_preparation_keeps_tag(self):
        state = initial_state([SourceSpec(1, "a", "a")])
        out = prepare_beam(state, "a", Band.IDLER, PreparationSpec(1.0, 0.0, 0.4))
        assert len(out) == 1
        assert out.amplitude(pair("a", V, S1, "a", H, S1)) == pytest.approx(1.0)

    def test_h_occupation_conflicts(self):
        state = initial_state([SourceSpec(1, "a", "a")])
        once = prepare_beam(state, "a", Band.IDLER, PreparationSpec(0.6, 0.8, 0.0))
        with pytest.raises(PreparationConflictError):
            prepare_beam(once, "a", Band.IDLER, PreparationSpec(0.6, 0.8, 0.0))

    def test_cancelled_h_component_does_not_conflict(self):
        # the H entries cancel in the pair map, though a Gram count of the
        # two product terms rounds to 1.7e-18 rather than 0
        state = BiphotonState(
            {
                pair("p", H, S1, "w", V, S2): complex(-0.077, 0.061),
                pair("p", H, S1, "q", V, S2): complex(0.077, -0.060999999999999985),
            }
        ).relabel_path("q", "w", band=Band.IDLER)
        assert len(state) == 0
        out = prepare_beam(state, "p", Band.SIGNAL, PreparationSpec(0.6, 0.8, 0.0))
        assert len(out) == 0


class TestBeamsplitters:
    def test_single_input_split(self):
        state = initial_state([SourceSpec(1, "x", "r")])
        out = apply_bs_single(state, "r", "e", "f")
        assert out.amplitude(pair("x", V, S1, "e", V, S1)) == pytest.approx(ROOT_HALF)
        assert out.amplitude(pair("x", V, S1, "f", V, S1)) == pytest.approx(
            1j * ROOT_HALF
        )
        assert out.norm_sq() == pytest.approx(state.norm_sq(), abs=1e-12)

    def test_single_input_tag_blind(self):
        state = initial_state([SourceSpec(1, "x", "r")])
        out = apply_bs_single(state, "r", "e", "f")
        assert out.tags_present() == frozenset({S1})

    def test_unoccupied_input_warns_and_noops(self):
        state = initial_state([SourceSpec(1, "x", "r")])
        with pytest.warns(QiupWarning):
            out = apply_bs_single(state, "nothing_here", "e", "f")
        assert out == state

    def test_identical_outputs_rejected(self):
        state = initial_state([SourceSpec(1, "x", "r")])
        with pytest.raises(ValueError):
            apply_bs_single(state, "r", "e", "e")

    def test_identical_dual_inputs_rejected(self):
        # route_two_port lets in_a's entries win, so in_b would be dropped
        state = initial_state([SourceSpec(1, "e", "e")])
        with pytest.raises(ValueError, match="beamsplitter inputs must be distinct"):
            apply_bs_dual(state, "e", "e", "x", "y")

    @pytest.mark.parametrize("apply", [
        lambda s: apply_bs_single(s, "r", "e", "f", convention="Hadamard"),
        lambda s: apply_bs_single(s, "nothing_here", "e", "f", convention="Hadamard"),
        lambda s: apply_bs_dual(s, "r", "x", "e", "f", convention="Hadamard"),
    ], ids=["single", "single_unoccupied", "dual"])
    def test_unknown_convention_names_both(self, apply):
        state = initial_state([SourceSpec(1, "x", "r")])
        with pytest.raises(ValueError, match=(
            "unknown beamsplitter convention 'Hadamard'; use 'symmetric' or 'hadamard'"
        )):
            apply(state)

    def test_dual_reduces_to_single_on_empty_second_input(self):
        state = BiphotonState({pair("x", V, MM, "e", V, MM): 1.0})
        out = apply_bs_dual(state, "e", "f", "e'", "f'")
        assert out.amplitude(pair("x", V, MM, "e'", V, MM)) == pytest.approx(ROOT_HALF)
        assert out.amplitude(pair("x", V, MM, "f'", V, MM)) == pytest.approx(
            1j * ROOT_HALF
        )

    def test_dual_interference_pair(self):
        # in (1/sqrt2 on e, i/sqrt2 on f) -> out (0 on e', i on f')
        state = BiphotonState(
            {
                pair("x", V, MM, "e", V, MM): ROOT_HALF,
                pair("x", V, MM, "f", V, MM): 1j * ROOT_HALF,
            }
        )
        out = apply_bs_dual(state, "e", "f", "e'", "f'")
        assert len(out) == 1
        assert out.amplitude(pair("x", V, MM, "f'", V, MM)) == pytest.approx(1j)

    def test_dual_norm_preserved_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = BiphotonState(
                {
                    pair("x", V, MM, "e", V, MM): a,
                    pair("x", H, MM, "f", V, MM): b,
                }
            )
            out = apply_bs_dual(state, "e", "f", "e'", "f'")
            assert out.norm_sq() == pytest.approx(state.norm_sq(), rel=1e-12)

    def test_hadamard_convention(self):
        state = BiphotonState({pair("x", V, MM, "f", V, MM): 1.0})
        out = apply_bs_dual(state, "e", "f", "e'", "f'", convention="hadamard")
        assert out.amplitude(pair("x", V, MM, "e'", V, MM)) == pytest.approx(ROOT_HALF)
        assert out.amplitude(pair("x", V, MM, "f'", V, MM)) == pytest.approx(-ROOT_HALF)


class TestDichroic:
    def test_band_routing(self):
        state = initial_state([SourceSpec(1, "a", "a")])
        out = apply_dichroic(state, "a", "b", "r")
        assert out.amplitude(pair("b", V, S1, "r", V, S1)) == pytest.approx(1.0)

    def test_identity_routing_for_idler_only_input(self):
        state = BiphotonState({pair("x", V, MM, "p", V, MM): 1.0})
        out = apply_dichroic(state, "p", "elsewhere", "p")
        assert out == state

    def test_norm_preserved(self):
        state = initial_state([SourceSpec(1, "a", "a"), SourceSpec(2, "r", "r")])
        out = apply_dichroic(state, "a", "b", "r")
        assert out.norm_sq() == pytest.approx(2.0, abs=1e-12)

    def test_aliased_outputs_rejected(self):
        state = initial_state([SourceSpec(1, "a", "a")])
        with pytest.raises(ValueError):
            apply_dichroic(state, "a", "same", "same")


class TestPhase:
    def test_zero_phase_is_identity(self):
        state = initial_state([SourceSpec(1, "a", "a"), SourceSpec(2, "r", "r")])
        assert apply_phase(state, "r", 0.0) == state

    def test_pi_negates(self):
        state = initial_state([SourceSpec(1, "a", "a")])
        out = apply_phase(state, "a", math.pi, Band.SIGNAL)
        assert out.amplitude(pair("a", V, S1, "a", V, S1)) == pytest.approx(-1.0)

    def test_per_photon_semantics(self):
        # both photons on the path: the pair amplitude picks up the factor twice
        state = initial_state([SourceSpec(1, "a", "a")])
        out = apply_phase(state, "a", math.pi / 2)
        assert out.amplitude(pair("a", V, S1, "a", V, S1)) == pytest.approx(-1.0)


class TestMerge:
    def fig1_premerge(self):
        state = initial_state([SourceSpec(1, "a", "a"), SourceSpec(2, "r", "r")])
        state = prepare_beam(state, "a", Band.IDLER, PreparationSpec(0.6, 0.8, 0.5))
        state = apply_dichroic(state, "a", "b", "r")
        state = prepare_beam(state, "b", Band.SIGNAL, PreparationSpec(0.0, 1.0, 0.0))
        return apply_phase(state, "r", 0.9, Band.SIGNAL)

    RULES = [
        MergeRule("r", V, Band.IDLER),
        MergeRule("b", V, Band.SIGNAL),
        MergeRule("r", V, Band.SIGNAL),
    ]

    def test_rules_strip_tags_of_vertical_modes(self):
        merged = apply_merge(self.fig1_premerge(), self.RULES)
        assert merged.amplitude(pair("b", V, MM, "r", H, S1)) == pytest.approx(0.6)
        assert merged.amplitude(pair("b", V, MM, "r", V, MM)) == pytest.approx(
            0.8 * np.exp(0.5j)
        )
        assert merged.amplitude(pair("r", V, MM, "r", V, MM)) == pytest.approx(
            np.exp(0.9j)
        )

    def test_h_tagged_idler_not_merged(self):
        merged = apply_merge(self.fig1_premerge(), self.RULES)
        tags = {p.idler.tag for p, _ in merged.items() if p.idler.pol is H}
        assert tags == {S1}

    def test_rule_matching_nothing_is_identity(self):
        state = self.fig1_premerge()
        assert apply_merge(state, [MergeRule("zz", V, Band.IDLER)]) == state

    def test_merge_preserves_norm_on_fig1_support(self):
        state = self.fig1_premerge()
        merged = apply_merge(state, self.RULES)
        assert merged.norm_sq() == pytest.approx(state.norm_sq(), abs=1e-12)


def test_prepare_beam_with_no_matching_modes_is_noop():
    state = initial_state([SourceSpec(1, "a", "a")])
    out = prepare_beam(state, "elsewhere", Band.IDLER, PreparationSpec(0.6, 0.8, 0.2))
    assert out == state


def test_merge_is_idempotent():
    state = initial_state([SourceSpec(1, "a", "a"), SourceSpec(2, "r", "r")])
    rules = [MergeRule("r", V, Band.IDLER), MergeRule("r", V, Band.SIGNAL)]
    once = apply_merge(state, rules)
    assert apply_merge(once, rules) == once
