import cmath
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qiup.errors import PreparationConflictError, UnitarityError
from qiup.modes import Band, Mode, ModePair, Polarization, SourceTag
from qiup.observables import conditional_state, counts
from qiup import state as state_module
from qiup.plan import fig1_preset, iter_plan, run_plan
from qiup.state import PRUNE_EPSILON, BiphotonState, SourceSpec, initial_state
from qiup.elements import (
    BS_CONVENTIONS,
    PreparationSpec,
    apply_bs_dual,
    apply_bs_single,
    apply_phase,
    hwp_matrix,
    prepare_beam,
)
from test_cli import src_env

H, V = Polarization.H, Polarization.V
M1, M2, MM = SourceTag.SOURCE_1, SourceTag.SOURCE_2, SourceTag.MERGED


def pair(sp, spol, stag, ip, ipol, itag):
    return ModePair(Mode(sp, spol, Band.SIGNAL, stag), Mode(ip, ipol, Band.IDLER, itag))


def two_source_state():
    return initial_state([SourceSpec(1, "a", "a"), SourceSpec(2, "r", "r")])


class TestInitialState:
    def test_two_sources_unit_amplitudes(self):
        state = two_source_state()
        assert len(state) == 2
        assert state.amplitude(pair("a", V, M1, "a", V, M1)) == 1 + 0j
        assert state.amplitude(pair("r", V, M2, "r", V, M2)) == 1 + 0j
        assert state.norm_sq() == pytest.approx(2.0, abs=1e-15)

    def test_single_source(self):
        state = initial_state([SourceSpec(1, "s", "i")])
        assert len(state) == 1
        assert state.norm_sq() == pytest.approx(1.0, abs=1e-15)

    def test_phase_becomes_amplitude_phase(self):
        state = initial_state(
            [SourceSpec(1, "a", "a"), SourceSpec(2, "r", "r", phase=math.pi / 2)]
        )
        amp = state.amplitude(pair("r", V, M2, "r", V, M2))
        assert amp == pytest.approx(1j, abs=1e-15)

    def test_duplicate_source_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            initial_state([SourceSpec(1, "a", "a"), SourceSpec(1, "r", "r")])

    def test_empty_source_list_rejected(self):
        with pytest.raises(ValueError):
            initial_state([])


class TestNormSq:
    def test_two_unit_entries(self):
        assert two_source_state().norm_sq() == pytest.approx(2.0, abs=1e-15)

    def test_empty_state(self):
        assert BiphotonState().norm_sq() == 0.0

    def test_scaling(self):
        scaled = BiphotonState(
            {
                pair("a", V, M1, "a", V, M1): 1 / math.sqrt(2),
                pair("r", V, M2, "r", V, M2): 1j / math.sqrt(2),
            }
        )
        assert scaled.norm_sq() == pytest.approx(1.0, abs=1e-15)

    def test_cancelled_terms_never_go_negative(self):
        # two product terms that cancel up to one ulp: their Gram contraction
        # rounds to -2.2e-16 before clipping
        state = BiphotonState(
            {
                pair("p", V, M1, "w", V, M2): complex(-0.731, 0.695),
                pair("p", V, M1, "q", V, M2): complex(0.7310000000000001, -0.6950000000000001),
            }
        ).relabel_path("q", "w", band=Band.IDLER)
        assert len(state) == 0
        assert state.norm_sq() == 0.0
        assert state.counts_at("p", Band.SIGNAL) == (0.0, 0.0)
        assert state.counts_at("w", Band.IDLER) == (0.0, 0.0)


class TestApplyPolUnitary:
    def test_identity_leaves_state_alone(self):
        state = two_source_state()
        assert state.apply_pol_unitary("a", np.eye(2)) == state

    def test_hwp45_moves_v_to_minus_h(self):
        state = initial_state([SourceSpec(1, "f", "f")])
        out = state.apply_pol_unitary("f", hwp_matrix(math.pi / 4), Band.IDLER)
        assert out.amplitude(pair("f", V, M1, "f", H, M1)) == pytest.approx(-1.0)
        assert out.amplitude(pair("f", V, M1, "f", V, M1)) == 0j

    def test_hwp0_negates_v(self):
        state = initial_state([SourceSpec(1, "f", "f")])
        out = state.apply_pol_unitary("f", hwp_matrix(0.0), Band.IDLER)
        assert out.amplitude(pair("f", V, M1, "f", V, M1)) == pytest.approx(-1.0)

    def test_non_unitary_rejected(self):
        with pytest.raises(UnitarityError):
            two_source_state().apply_pol_unitary("a", [[1, 0], [0, 0.5]])

    @pytest.mark.parametrize("u", [
        [[math.nan, 0], [0, 1]],
        [[1, 0], [0, math.nan]],  # NaN in the second column only
        [[0, 1], [math.nan, 0]],
        [[1, 0], [0, math.inf]],
    ])
    def test_nonfinite_matrix_rejected(self, u):
        with pytest.raises(UnitarityError, match="not unitary"):
            two_source_state().apply_pol_unitary("a", u)

    def test_band_filter_leaves_other_band_alone(self):
        state = initial_state([SourceSpec(1, "a", "a")])
        out = state.apply_pol_unitary("a", hwp_matrix(math.pi / 4), Band.IDLER)
        # the signal photon at "a" stays V; only the idler flipped
        assert out.amplitude(pair("a", V, M1, "a", H, M1)) == pytest.approx(-1.0)

    def test_tags_preserved(self):
        state = two_source_state()
        out = state.apply_pol_unitary("r", hwp_matrix(0.3))
        assert out.tags_present() <= state.tags_present()


class TestRelabelPath:
    def test_band_filtered_relabel(self):
        state = initial_state([SourceSpec(1, "a", "a")])
        out = state.relabel_path("a", "b", band=Band.SIGNAL)
        assert out.amplitude(pair("b", V, M1, "a", V, M1)) == 1 + 0j

    def test_no_matching_modes_is_identity(self):
        state = two_source_state()
        assert state.relabel_path("zz", "q") == state

    def test_collision_sums_amplitudes(self):
        state = BiphotonState(
            {
                pair("a", V, M1, "x", V, M1): 0.5,
                pair("b", V, M1, "x", V, M1): 0.25j,
            }
        )
        out = state.relabel_path("b", "a", band=Band.SIGNAL)
        assert len(out) == 1
        assert out.amplitude(pair("a", V, M1, "x", V, M1)) == pytest.approx(0.5 + 0.25j)

    def test_injective_relabel_preserves_norm(self):
        state = two_source_state()
        out = state.relabel_path("a", "fresh")
        assert out.norm_sq() == pytest.approx(state.norm_sq(), abs=1e-12)


class TestPrune:
    def test_tiny_amplitude_removed(self):
        state = BiphotonState({pair("a", V, M1, "a", V, M1): 1e-16})
        assert len(state) == 0

    def test_small_but_real_amplitude_kept(self):
        state = BiphotonState({pair("a", V, M1, "a", V, M1): 1e-3})
        assert len(state) == 1

    def test_empty_state_noop(self):
        assert len(BiphotonState().prune()) == 0

    def test_custom_epsilon(self):
        """The threshold is the module constant: amplitudes at or below it go."""
        assert PRUNE_EPSILON == 1e-14
        key = pair("a", V, M1, "a", V, M1)
        assert len(BiphotonState({key: 0.99 * PRUNE_EPSILON})) == 0
        assert len(BiphotonState({key: 1.01 * PRUNE_EPSILON})) == 1


class TestExactCancellation:
    """A balanced Mach-Zehnder (bs, a full-turn phase in one arm, bs2) whose
    dark port keeps only a rounding residual in the photon's amplitude map."""

    CASES = [("symmetric", "e'", "f'"), ("hadamard", "f'", "e'")]

    @staticmethod
    def interferometer(convention):
        state = initial_state([SourceSpec(1, "a", "i", emitted_pol=H)])
        state = apply_bs_single(state, "a", "e", "f", convention)
        state = apply_phase(state, "f", 2 * math.pi, Band.SIGNAL)
        return apply_bs_dual(state, "e", "f", "e'", "f'", convention)

    @pytest.mark.parametrize("convention, dark, bright", CASES)
    def test_dark_port_is_left_out(self, convention, dark, bright):
        state = self.interferometer(convention)
        ((signal, _),) = state._terms
        residual = [abs(a) for m, a in signal.items() if m[0] == dark]
        assert residual and 0.0 < max(residual) <= PRUNE_EPSILON
        assert len(state) == 1
        assert state.paths_present() == {bright, "i"}
        assert not state.path_occupied(dark)
        assert state.path_occupied(bright, Band.SIGNAL, H)
        assert state.counts_at(dark, Band.SIGNAL) == pytest.approx((0.0, 0.0), abs=1e-30)

    @pytest.mark.parametrize("convention, dark, bright", CASES)
    def test_preparing_the_dark_port_is_no_conflict(self, convention, dark, bright):
        state = self.interferometer(convention)
        spec = PreparationSpec(0.6, 0.8, 0.0)
        assert prepare_beam(state, dark, Band.SIGNAL, spec) == state
        with pytest.raises(PreparationConflictError):
            prepare_beam(state, bright, Band.SIGNAL, spec)

    @pytest.mark.parametrize("phi", [0.3, np.linspace(0.0, 2 * math.pi, 5)])
    def test_fig1_photon_maps_stay_within_the_reachable_modes(self, phi):
        # an unpruned map may keep cancelled modes, but no more than every
        # (path, polarization, tag) that the circuit names
        paths = {"a", "r", "b", "e", "f", "e'", "f'", "o", "o'", "b'"}
        plan = fig1_preset(dict(alpha1=0.6, beta1=0.8, gamma=1.0, alpha2=0.6, beta2=0.8,
                                phi=phi, theta=0.7))
        for _, state in iter_plan(plan):
            for photon_map in (m for term in state._terms for m in term):
                assert len(photon_map) <= len(paths) * 2 * 3
                assert {m[0] for m in photon_map} <= paths


class TestSerialization:
    def test_golden_two_source(self):
        assert two_source_state().serialize() == (
            "a,V,1|a,V,1|1,0\n"
            "r,V,2|r,V,2|1,0"
        )

    def test_serialization_is_canonically_ordered(self):
        entries = {
            pair("r", V, M2, "r", V, M2): 1.0,
            pair("a", H, MM, "b", V, M1): 0.5j,
            pair("a", V, MM, "b", V, M1): 0.25,
        }
        lines = BiphotonState(entries).serialize().splitlines()
        assert lines == [
            "a,H,M|b,V,1|0,0.5",
            "a,V,M|b,V,1|0.25,0",
            "r,V,2|r,V,2|1,0",
        ]

    def test_determinism_bit_identical(self):
        a = two_source_state().apply_pol_unitary("r", hwp_matrix(0.7))
        b = two_source_state().apply_pol_unitary("r", hwp_matrix(0.7))
        assert a.serialize() == b.serialize()

    # Dumps a state on paths a, i, r to argv[1], or first builds a state on
    # other paths and then loads it; prints the state it holds.
    PICKLE_SCRIPT = """
import pickle, sys
from qiup.elements import hwp_matrix
from qiup.modes import Band
from qiup.state import SourceSpec, initial_state
path, action = sys.argv[1:]
if action == "dump":
    state = initial_state([SourceSpec(1, "a", "i"), SourceSpec(2, "r", "i")])
    state = state.apply_pol_unitary("r", hwp_matrix(0.7), Band.SIGNAL)
    with open(path, "wb") as f:
        pickle.dump(state, f)
else:
    other = initial_state([SourceSpec(1, "zz", "yy"), SourceSpec(2, "xx", "yy")])
    other.counts_at("ww", Band.SIGNAL)
    with open(path, "rb") as f:
        state = pickle.load(f)
print(state.serialize())
"""

    def test_a_pickled_state_reads_back_the_same_in_another_process(self, tmp_path):
        # the loading process has seen other paths first: a key that pointed
        # into a process-local table would read back as those paths
        path = str(tmp_path / "state.pickle")
        dumped, loaded = (
            subprocess.run([sys.executable, "-c", self.PICKLE_SCRIPT, path, action],
                           capture_output=True, text=True, env=src_env(), timeout=120)
            for action in ("dump", "load")
        )
        assert dumped.returncode == 0, dumped.stderr
        assert loaded.returncode == 0, loaded.stderr
        assert dumped.stdout.startswith("a,V,1|i,V,1|1,0\nr,H,2|i,V,2|")
        assert loaded.stdout == dumped.stdout


def test_operations_do_not_mutate_input():
    state = two_source_state()
    before = state.serialize()
    state.apply_pol_unitary("a", hwp_matrix(1.1))
    state.relabel_path("a", "zzz")
    state.prune()
    assert state.serialize() == before


# -- property tests ----------------------------------------------------------

def su2(theta: float, phi: float, lam: float) -> np.ndarray:
    return np.array(
        [
            [math.cos(theta), -cmath.exp(1j * lam) * math.sin(theta)],
            [cmath.exp(1j * phi) * math.sin(theta),
             cmath.exp(1j * (phi + lam)) * math.cos(theta)],
        ]
    )


PAIRS = [
    pair(sp, spol, stag, ip, ipol, itag)
    for sp in ("p", "q")
    for ip in ("p", "w")
    for spol in (H, V)
    for ipol in (H, V)
    for stag in (M1, MM)
    for itag in (M2, MM)
]

amplitudes = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)
states = st.dictionaries(st.sampled_from(PAIRS), amplitudes, min_size=1, max_size=8)
angles = st.floats(0, 2 * math.pi, allow_nan=False)


@given(entries=states, theta=angles, phi=angles, lam=angles,
       path=st.sampled_from(["p", "w"]),
       band=st.sampled_from([None, Band.SIGNAL, Band.IDLER]))
def test_unitary_preserves_norm(entries, theta, phi, lam, path, band):
    state = BiphotonState(entries)
    out = state.apply_pol_unitary(path, su2(theta, phi, lam), band)
    assert out.norm_sq() == pytest.approx(state.norm_sq(), rel=1e-12, abs=1e-12)


@given(e1=states, e2=states, theta=angles, phi=angles, lam=angles)
def test_unitary_is_linear(e1, e2, theta, phi, lam):
    u = su2(theta, phi, lam)
    summed: dict = dict(e1)
    for k, v in e2.items():
        summed[k] = summed.get(k, 0j) + v
    lhs = BiphotonState(summed).apply_pol_unitary("p", u)
    a = BiphotonState(e1).apply_pol_unitary("p", u)
    b = BiphotonState(e2).apply_pol_unitary("p", u)
    rhs: dict = {k: v for k, v in a.items()}
    for k, v in b.items():
        rhs[k] = rhs.get(k, 0j) + v
    for k, v in lhs.items():
        assert v == pytest.approx(rhs.get(k, 0j), abs=1e-12)
    for k, v in rhs.items():
        assert lhs.amplitude(k) == pytest.approx(v, abs=1e-12)


@given(entries=states, theta=angles, phi=angles, lam=angles)
def test_tag_multiset_never_grows(entries, theta, phi, lam):
    state = BiphotonState(entries)
    out = state.apply_pol_unitary("p", su2(theta, phi, lam))
    out = out.relabel_path("w", "p", band=Band.IDLER)
    assert out.tags_present() <= state.tags_present()


PATHS = ("p", "q", "w", "z")
bands = st.sampled_from([None, Band.SIGNAL, Band.IDLER])
paths = st.sampled_from(PATHS)
ops = st.one_of(
    st.tuples(st.just("unitary"), paths, bands, angles, angles, angles),
    st.tuples(st.just("relabel"), paths, paths, bands, st.sampled_from([None, H, V])),
    st.tuples(st.just("merge"), paths, st.sampled_from([H, V]),
              st.sampled_from([Band.SIGNAL, Band.IDLER])),
    st.tuples(st.just("phase"), paths, bands, angles),
    st.tuples(st.just("route"), paths, st.sampled_from((None,) + PATHS), paths, paths,
              st.sampled_from(["symmetric", "hadamard"])),
)


def apply_op(state, op):
    kind, *args = op
    if kind == "unitary":
        path, band, theta, phi, lam = args
        return state.apply_pol_unitary(path, su2(theta, phi, lam), band)
    if kind == "relabel":
        from_path, to_path, band, pol = args
        return state.relabel_path(from_path, to_path, band, pol)
    if kind == "merge":
        return state.merge_tags(*args)
    if kind == "phase":
        path, band, phi = args
        return state.apply_phase_factor(path, cmath.exp(1j * phi), band)
    in_a, in_b, out_a, out_b, convention = args
    return state.route_two_port(in_a, in_b, out_a, out_b, BS_CONVENTIONS[convention])


@given(entries=states, sequence=st.lists(ops, max_size=6))
def test_gram_reductions_equal_pair_entry_sums(entries, sequence):
    # norm_sq and counts_at contract Gram matrices of the product terms; items()
    # reads the pair map.  Both must give the same sums.
    state = BiphotonState(entries)
    for op in sequence:
        state = apply_op(state, op)
    items = state.items()
    assert state.norm_sq() == pytest.approx(
        math.fsum(abs(a) ** 2 for _, a in items), rel=0, abs=1e-12)
    for path in PATHS:
        for band in (Band.SIGNAL, Band.IDLER):
            modes = [(pr.signal if band is Band.SIGNAL else pr.idler, a) for pr, a in items]
            nh, nv = state.counts_at(path, band)
            assert nh >= 0.0 and nv >= 0.0
            for got, pol in ((nh, H), (nv, V)):
                want = math.fsum(abs(a) ** 2 for m, a in modes if m.path == path and m.pol is pol)
                assert got == pytest.approx(want, rel=0, abs=1e-12)


FIG1_PATHS = ("b'", "e'", "f'", "o'")
FIG1_PARAMS = dict(alpha1=0.6, beta1=0.8, gamma=1.0, alpha2=0.28, beta2=0.96,
                   phi=0.3, theta=0.4)
FIG1_FINAL = [
    run_plan(fig1_preset(FIG1_PARAMS)),
    run_plan(fig1_preset(dict(FIG1_PARAMS, phi=np.array([0.3, 1.7, 4.0]),
                              theta=np.array([0.4, 0.9, 2.0])))),
]
one_photon_steps = st.one_of(
    st.tuples(st.just("unitary"), st.sampled_from(PATHS + FIG1_PATHS), angles, angles, angles),
    st.tuples(st.just("phase"), st.sampled_from(PATHS + FIG1_PATHS), angles),
)


@given(start=st.one_of(states.map(BiphotonState), st.sampled_from(FIG1_FINAL)),
       band=st.sampled_from([Band.SIGNAL, Band.IDLER]),
       steps=st.lists(one_photon_steps, min_size=1, max_size=5))
def test_one_photon_maps_leave_the_other_photons_counts_alone(start, band, steps):
    # the mechanism of the no-go: a unitary map on one photon keeps that
    # photon's Gram matrix, the factor that sets the other photon's counts
    other = Band.IDLER if band is Band.SIGNAL else Band.SIGNAL
    state = start
    for kind, path, *args in steps:
        state = apply_op(state, (kind, path, band, *args))
    for path in PATHS + FIG1_PATHS:
        for got, want in zip(state.counts_at(path, other), start.counts_at(path, other)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


CACHED_TABLES = ("_relabel_table", "_merge_table", "_port_modes")


def test_cached_tables_give_the_states_of_uncached_runs(monkeypatch):
    # fig1's pipeline relabels, merges and splits: every state, scalar and
    # batched, equals the state of a run that builds each table afresh,
    # entry for entry and bit for bit (== compares amplitudes exactly)
    plans = [fig1_preset(FIG1_PARAMS),
             fig1_preset(dict(FIG1_PARAMS, phi=np.array([0.3, 1.7, 4.0]),
                              theta=np.array([0.4, 0.9, 2.0])))]
    cached = [[state for _, state in iter_plan(plan)] for plan in plans]
    cached += [[state for _, state in iter_plan(plan)] for plan in plans]
    assert all(getattr(state_module, name).cache_info().hits for name in CACHED_TABLES)
    for name in CACHED_TABLES:
        monkeypatch.setattr(state_module, name, getattr(state_module, name).__wrapped__)
    fresh = [[state for _, state in iter_plan(plan)] for plan in plans] * 2
    for got, want in zip(cached, fresh):
        assert len(got) == len(want)
        assert all(a == b for a, b in zip(got, want))


def assert_same_observables(lazy, eager):
    """``lazy`` pruned only where read, ``eager`` pruned after every step.

    ``prune()`` rebuilds the product terms, so later products round in
    another order: supports must match exactly, values to 1e-12.
    """
    assert lazy == lazy.prune()
    assert len(lazy) == len(eager)
    assert lazy.tags_present() == eager.tags_present()
    assert lazy.paths_present() == eager.paths_present()
    lazy_items, eager_items = lazy.items(), eager.items()
    assert [p for p, _ in lazy_items] == [p for p, _ in eager_items]
    for (_, a), (_, b) in zip(lazy_items, eager_items):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    np.testing.assert_allclose(lazy.norm_sq(), eager.norm_sq(), rtol=0, atol=1e-12)
    for path in PATHS:
        for band in (Band.SIGNAL, Band.IDLER):
            for got, want in zip(lazy.counts_at(path, band), eager.counts_at(path, band)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@given(entries=states, sequence=st.lists(ops, max_size=6))
def test_pruning_where_read_matches_pruning_every_step(entries, sequence):
    lazy = eager = BiphotonState(entries)
    for op in sequence:
        lazy = apply_op(lazy, op)
        eager = apply_op(eager, op).prune()
    assert_same_observables(lazy, eager)
    serialized = [lazy.serialize(), eager.serialize()]
    assert serialized[0] == lazy.prune().serialize()
    lazy_lines, eager_lines = ([line.rsplit("|", 1)[0] for line in text.splitlines()]
                               for text in serialized)
    assert lazy_lines == eager_lines


EMPTY_PATH_CALLS = {
    "initial_state-signal": lambda s: initial_state([SourceSpec(1, "", "i")]),
    "initial_state-idler": lambda s: initial_state([SourceSpec(1, "a", "")]),
    "constructor": lambda s: BiphotonState({pair("", V, M1, "a", V, M1): 1.0}),
    "amplitude": lambda s: s.amplitude(pair("a", V, M1, "", V, M1)),
    "counts_at": lambda s: s.counts_at("", Band.SIGNAL),
    "path_occupied": lambda s: s.path_occupied(""),
    "restrict_to": lambda s: s.restrict_to("", Band.IDLER),
    "counts": lambda s: counts(s, "", Band.SIGNAL),
    "conditional_state": lambda s: conditional_state(s, "", Band.SIGNAL),
    "relabel_path-from": lambda s: s.relabel_path("", "a"),
    "relabel_path-to": lambda s: s.relabel_path("a", ""),
    "apply_phase_factor": lambda s: s.apply_phase_factor("", 1j),
    "merge_tags": lambda s: s.merge_tags("", V, Band.SIGNAL),
    "apply_pol_unitary": lambda s: s.apply_pol_unitary("", hwp_matrix(0.7)),
    "route_two_port": lambda s: s.route_two_port("a", None, "", "f", np.eye(2)),
}


@pytest.mark.parametrize("call", EMPTY_PATH_CALLS.values(), ids=EMPTY_PATH_CALLS.keys())
def test_empty_path_is_refused(call):
    with pytest.raises(ValueError, match="path identifier must be a nonempty string"):
        call(two_source_state())


def test_amplitude_of_absent_pair_is_zero():
    state = two_source_state()
    absent = pair("nowhere", H, MM, "a", V, M1)
    assert state.amplitude(absent) == 0j
