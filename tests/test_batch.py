"""Batched plan runs: array bindings, one member per element.

Each member of a batched run must equal its own scalar run, every guard must
hold member by member (NaN included), ``run_verification`` runs the plan
once (its first call builds fig1's count tensor), and ``==`` and
``serialize`` handle a batched state.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qiup import observables, verification
from qiup.elements import PreparationSpec, hwp_matrix
from qiup.errors import PreparationConflictError, UnitarityError
from qiup.modes import Band
from qiup.plan import (
    FIG1_PARAMETERS,
    FIG1_SOURCE,
    PlanError,
    compile_text,
    fig1_preset,
    run_plan,
)
from qiup.state import BiphotonState, SourceSpec, initial_state
from engine_helpers import assert_fig1_tensor_run, record_runs
from test_observables import FIG1_VARIANTS, fig1_variant, with_options
from test_state import angles, apply_op, assert_same_observables, bands, ops, states, su2

TWO_PI = 2.0 * math.pi

#: Amplitudes that vanish exactly (beta = 0, alpha = 0) next to general ones,
#: so that one member's zero mode survives pruning because another's is not.
amplitudes = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
phases = st.floats(0.0, TWO_PI)
members = st.fixed_dictionaries({
    "beta1": amplitudes,
    "gamma": phases,
    "beta2": amplitudes,
    "phi": phases,
    "theta": st.one_of(st.just(0.0), st.floats(0.0, math.pi)),
})


def full_params(member):
    return dict(
        member,
        alpha1=math.sqrt(1.0 - member["beta1"] ** 2),
        alpha2=math.sqrt(1.0 - member["beta2"] ** 2),
    )


def stacked(rows):
    return {name: np.array([row[name] for row in rows]) for name in FIG1_PARAMETERS}


def build(circuit, params):
    return fig1_preset(params) if circuit == "fig1" else fig1_variant(circuit, params)


def per_member(value, size):
    return np.broadcast_to(value, (size,))


EXAMPLE = full_params({"beta1": 0.8, "gamma": 1.1, "beta2": 0.6, "phi": 2.3, "theta": 0.4})


class TestBatchedEqualsScalar:
    @given(
        circuit=st.sampled_from(["fig1", *FIG1_VARIANTS]),
        rows=st.lists(members, min_size=1, max_size=6),
        merge_enabled=st.booleans(),
        bs_convention=st.sampled_from(["symmetric", "hadamard"]),
    )
    def test_each_member_equals_its_scalar_run(
        self, circuit, rows, merge_enabled, bs_convention
    ):
        rows = [full_params(row) for row in rows]
        plan = with_options(build(circuit, stacked(rows)), merge_enabled, bs_convention)
        batched = run_plan(plan)
        got_h, got_v = batched.counts_at(plan.detect_path, plan.detect_band)
        got_norm = batched.norm_sq()
        for i, row in enumerate(rows):
            single = with_options(build(circuit, row), merge_enabled, bs_convention)
            state = run_plan(single)
            want_h, want_v = state.counts_at(single.detect_path, single.detect_band)
            assert per_member(got_h, len(rows))[i] == pytest.approx(want_h, abs=1e-12)
            assert per_member(got_v, len(rows))[i] == pytest.approx(want_v, abs=1e-12)
            assert per_member(got_norm, len(rows))[i] == pytest.approx(
                state.norm_sq(), abs=1e-12
            )

    def test_a_vanishing_member_keeps_the_union_support(self):
        # beta1 = 0 empties source 1's V idler; the other member still needs it
        rows = [full_params(dict(EXAMPLE, beta1=0.0)), EXAMPLE]
        batched = run_plan(fig1_preset(stacked(rows)))
        alone = run_plan(fig1_preset(rows[0]))
        assert len(batched) > len(alone)
        got_h, got_v = batched.counts_at("o'", Band.SIGNAL)
        want_h, want_v = alone.counts_at("o'", Band.SIGNAL)
        assert got_h[0] == pytest.approx(want_h, abs=1e-12)
        assert got_v[0] == pytest.approx(want_v, abs=1e-12)

    def test_scalars_broadcast_against_one_array(self):
        phis = np.array([0.0, 1.0, 2.0, 3.0])
        batched = run_plan(fig1_preset(dict(EXAMPLE, phi=phis)))
        n_h, n_v = batched.counts_at("o'", Band.SIGNAL)
        assert n_h.shape == n_v.shape == (4,)
        np.testing.assert_allclose(batched.norm_sq(), 2.0, rtol=0, atol=1e-12)
        for i, phi in enumerate(phis):
            want = run_plan(fig1_preset(dict(EXAMPLE, phi=float(phi))))
            assert (n_h[i], n_v[i]) == pytest.approx(want.counts_at("o'", Band.SIGNAL), abs=1e-12)

    def test_bound_arrays_are_read_only_copies(self):
        phis = np.array([0.1, 0.2])
        plan = fig1_preset(dict(EXAMPLE, phi=phis))
        phis[0] = 5.0
        assert plan.bindings["phi"][0] == 0.1
        with pytest.raises(ValueError):
            plan.bindings["phi"][0] = 5.0


@given(entries=states, sequence=st.lists(ops, max_size=6),
       rotations=st.lists(st.tuples(angles, angles, angles), min_size=1, max_size=4),
       band=bands)
def test_batched_pruning_where_read_matches_pruning_every_step(
    entries, sequence, rotations, band
):
    # a batch of rotations on path p makes every later amplitude there an array
    batch = np.stack([su2(*rotation) for rotation in rotations], axis=-1)
    lazy = eager = BiphotonState(entries).apply_pol_unitary("p", batch, band)
    for op in sequence:
        lazy = apply_op(lazy, op)
        eager = apply_op(eager, op).prune()
    assert_same_observables(lazy, eager)


class TestBatchedGuards:
    def test_nan_member_is_named(self):
        phis = np.array([0.1, math.nan, 0.3])
        with pytest.raises(PlanError) as err:
            fig1_preset(dict(EXAMPLE, phi=phis))
        assert err.value.code == "E_NONFINITE_PARAM"
        assert "phi[1]=nan" in str(err.value)

    def test_infinite_member_is_named(self):
        plan, _ = compile_text(FIG1_SOURCE)
        with pytest.raises(PlanError) as err:
            plan.bind({"theta": np.array([0.0, 1.0, -math.inf])})
        assert err.value.code == "E_NONFINITE_PARAM"
        assert "theta[2]=-inf" in str(err.value)

    @pytest.mark.parametrize("params", [
        {"phi": np.zeros(3), "theta": np.zeros(4)},
        {"phi": np.zeros((3, 1))},
        {"phi": np.zeros((2, 2))},
        {"phi": np.zeros(0)},
    ], ids=["unequal", "column", "square", "empty"])
    def test_batch_shape(self, params):
        plan, _ = compile_text(FIG1_SOURCE)
        with pytest.raises(PlanError) as err:
            plan.bind(params)
        assert err.value.code == "E_BATCH_SHAPE"

    def test_lengths_checked_across_binds(self):
        plan, _ = compile_text(FIG1_SOURCE)
        plan = plan.bind({"phi": np.zeros(3)})
        with pytest.raises(PlanError) as err:
            plan.bind({"theta": np.zeros(2)})
        assert err.value.code == "E_BATCH_SHAPE"
        assert "phi: 3" in str(err.value) and "theta: 2" in str(err.value)
        assert len(plan.bind({"phi": np.zeros(2), "theta": np.zeros(2)}).bindings["phi"]) == 2

    @pytest.mark.parametrize("bad", [1.1, math.nan], ids=["unnormalized", "nan"])
    def test_norm_checked_per_member(self, bad):
        beta1 = np.array([0.8, 0.8, bad, 0.8])
        with pytest.raises(PlanError) as err:
            fig1_preset(dict(EXAMPLE, beta1=beta1, alpha1=np.full(4, 0.6)))
        assert err.value.code == "E_NORM"
        assert "batch member 2" in str(err.value)

    @pytest.mark.parametrize("bad", [0.5, math.nan], ids=["unnormalized", "nan"])
    def test_preparation_checked_per_member(self, bad):
        # NaN already fails the sign check, the first of the three
        with pytest.raises(ValueError, match=r"(must be 1|nonnegative).*batch member 1"):
            PreparationSpec(alpha=np.array([0.6, 0.6]), beta=np.array([0.8, bad]))
        with pytest.raises(ValueError, match=r"nonnegative \(batch member 0\)"):
            PreparationSpec(alpha=np.array([bad - 1.0, 0.6]), beta=np.array([0.8, 0.8]))
        with pytest.raises(ValueError, match=r"finite, got nan \(batch member 1\)"):
            PreparationSpec(alpha=0.6, beta=0.8, rel_phase=np.array([0.0, math.nan]))

    @pytest.mark.parametrize("scale", [1.5, math.nan], ids=["scaled", "nan"])
    def test_unitarity_checked_per_member(self, scale):
        state = initial_state([SourceSpec(1, "a", "a")])
        u = hwp_matrix(np.array([0.1, 0.2, 0.3]))
        assert u.shape == (2, 2, 3)
        state.apply_pol_unitary("a", u)
        u[:, :, 1] *= scale
        with pytest.raises(UnitarityError, match=r"batch member 1"):
            state.apply_pol_unitary("a", u)

    def test_matrix_shape(self):
        state = initial_state([SourceSpec(1, "a", "a")])
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            state.apply_pol_unitary("a", np.eye(3))
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            state.apply_pol_unitary("a", np.ones((2, 2, 2, 2)))

    def test_fringe_scan_refuses_a_batched_plan(self):
        # theta's 3 members used to pair with phi's 3 harmonic samples
        plan = fig1_preset(dict(EXAMPLE, theta=np.array([0.1, 0.5, 0.9])))
        with pytest.raises(PlanError) as err:
            observables.fringe_scan(plan, "phi", np.linspace(0.0, TWO_PI, 64, endpoint=False))
        assert err.value.code == "E_BATCH_SHAPE" and "theta" in str(err.value)

    def test_fringe_scan_refuses_an_array_that_replace_bound(self):
        # replace skips bind, so the plan finds its array names itself
        plan = replace(fig1_preset(EXAMPLE), bindings=dict(EXAMPLE, gamma=np.array([0.1, 0.5])))
        with pytest.raises(PlanError) as err:
            observables.fringe_scan(plan, "phi", np.linspace(0.0, TWO_PI, 64, endpoint=False))
        assert err.value.code == "E_BATCH_SHAPE"
        assert str(err.value) == "fringe_scan needs scalar bindings, got arrays for gamma"

    def test_h_occupancy_conflict_in_any_member(self):
        plan, diagnostics = compile_text(
            "source 1 signal=a idler=a pol=V\n"
            "prepare a idler alpha=$alpha beta=$beta gamma=0\n"
            "prepare a idler alpha=0 beta=1 gamma=0\n"
            "detect a signal\n"
        )
        assert plan is not None, diagnostics
        run_plan(plan.bind({"alpha": 0.0, "beta": 1.0}))
        with pytest.raises(PreparationConflictError):
            run_plan(plan.bind({"alpha": np.array([0.0, 0.6]), "beta": np.array([1.0, 0.8])}))


class TestOneRun:
    """``run_verification`` builds fig1's count tensor in its first call and
    runs nothing after, whatever the grid."""

    def test_verification_runs_the_plan_once(self, monkeypatch):
        calls = record_runs(monkeypatch)
        report = verification.run_verification()
        assert_fig1_tensor_run(calls)
        assert report.grid_points == 88 * 64
        calls.clear()
        again = verification.run_verification()
        assert calls == []
        assert replace(again, elapsed_seconds=0.0) == replace(report, elapsed_seconds=0.0)

    def test_short_verification_grid_runs_one_batch(self, monkeypatch):
        calls = record_runs(monkeypatch)
        for phi_points in (1, 2, 3):
            report = verification.run_verification(phi_points=phi_points)
            assert report.grid_points == 88 * phi_points
            assert report.max_dev_nh_evolution < 1e-12
            assert report.max_dev_nv_evolution < 1e-12
        assert_fig1_tensor_run(calls)


class TestBatchedInspection:
    """``==`` and ``serialize`` on a batched state (fig1, phi bound to two values)."""

    @staticmethod
    def state(phis):
        return run_plan(fig1_preset(dict(EXAMPLE, phi=np.array(phis))))

    def test_equality_compares_every_member(self):
        assert self.state([0.1, 0.2]) == self.state([0.1, 0.2])
        assert not self.state([0.1, 0.2]) == self.state([0.1, 0.3])
        assert self.state([0.1, 0.2]) != self.state([0.1, 0.2, 0.3])
        assert self.state([0.1, 0.2]) != run_plan(fig1_preset(dict(EXAMPLE, phi=0.1)))

    def test_serialize_names_the_batch_size(self):
        with pytest.raises(ValueError, match="2 members"):
            self.state([0.1, 0.2]).serialize()

    def test_scalar_state_still_serializes(self):
        state = run_plan(fig1_preset(dict(EXAMPLE, phi=0.1)))
        assert state == run_plan(fig1_preset(dict(EXAMPLE, phi=0.1)))
        assert state.serialize().count("\n") == len(state) - 1
