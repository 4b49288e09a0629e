"""Cross-validation of the sparse engine against the dense brute-force model,
plus a hand-derived amplitude table as a third independent route.

The pipeline checks run whole circuits; the property tests at the end check
each single-photon transform of :class:`~qiup.state.BiphotonState` on its own,
on random states over the dense model's path universe."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dense_model
from engine_helpers import manual_fig1, manual_fig1_steps
from qiup.elements import BS_CONVENTIONS, hwp_matrix
from qiup.modes import Band, Mode, ModePair, Polarization, SourceTag
from qiup.state import BiphotonState
from test_state import su2

H, V = Polarization.H, Polarization.V
TAG_TEXT = {SourceTag.MERGED: "M", SourceTag.SOURCE_1: "1", SourceTag.SOURCE_2: "2"}


def assert_states_equal(engine, dense, atol=1e-12, member=None):
    """The engine's pair entries, as a whole dense matrix, and its Gram-matrix
    norm equal the dense model's; ``member`` picks one member of a batch."""
    mat = np.zeros_like(dense.mat)
    for pair, amp in engine.items():
        sig = (pair.signal.path, pair.signal.pol.name, TAG_TEXT[pair.signal.tag])
        idl = (pair.idler.path, pair.idler.pol.name, TAG_TEXT[pair.idler.tag])
        mat[dense_model.IDX[sig], dense_model.IDX[idl]] = (
            amp[member] if isinstance(amp, np.ndarray) else amp)
    np.testing.assert_allclose(mat, dense.mat, rtol=0, atol=atol)
    norm = engine.norm_sq()
    norm = norm[member] if isinstance(norm, np.ndarray) else norm
    assert norm == pytest.approx(dense.norm_sq(), abs=atol)


def random_args(rng):
    beta1, beta2 = rng.uniform(0, 1, size=2)
    return (
        math.sqrt(1 - beta1**2), beta1, rng.uniform(0, 2 * math.pi),
        math.sqrt(1 - beta2**2), beta2, rng.uniform(0, 2 * math.pi),
        rng.uniform(0, math.pi),
    )


@pytest.mark.parametrize("seed", range(6))
def test_full_state_matches_dense(seed):
    args = random_args(np.random.default_rng(seed))
    assert_states_equal(manual_fig1(*args), dense_model.run_fig1(*args))


@pytest.mark.parametrize("kwargs", [
    {"merge": False},
    {"convention": "hadamard"},
    {"alpha1_phase": 1.3},
])
def test_variants_match_dense(kwargs):
    args = (0.6, 0.8, 1.1, math.sqrt(1 - 0.25), 0.5, 0.7, 0.9)
    assert_states_equal(
        manual_fig1(*args, **kwargs), dense_model.run_fig1(*args, **kwargs)
    )


def test_stepwise_pipeline_matches_dense():
    args = (0.6, 0.8, 0.5, math.sqrt(1 - 0.49), 0.7, 1.1, 0.65)
    alpha1, beta1, gamma, alpha2, beta2, phi, theta = args

    st = dense_model.DenseState()
    st.seed_pair("a", "1", 1.0)
    st.seed_pair("r", "2", 1.0)
    dense_steps = {"sources": st.mat.copy()}
    st.idler(dense_model.prepare("a", alpha1, beta1, gamma))
    dense_steps["prepare idler"] = st.mat.copy()
    st.signal(dense_model.relabel("a", "b"))
    st.idler(dense_model.relabel("a", "r"))
    dense_steps["dm a"] = st.mat.copy()
    st.signal(dense_model.prepare("b", alpha2, beta2, 0.0))
    dense_steps["prepare signal"] = st.mat.copy()
    st.signal(dense_model.phase_on("r", phi))
    dense_steps["phase"] = st.mat.copy()
    st.idler(dense_model.merge_tags("r", "V"))
    st.signal(dense_model.merge_tags("b", "V"))
    st.signal(dense_model.merge_tags("r", "V"))
    dense_steps["merge"] = st.mat.copy()
    st.both(dense_model.bs_single("r", "e", "f"))
    dense_steps["bs"] = st.mat.copy()
    st.both(dense_model.hwp_on("f", theta))
    dense_steps["hwp"] = st.mat.copy()
    st.both(dense_model.bs_dual("e", "f", "e'", "f'"))
    dense_steps["bs2"] = st.mat.copy()
    st.signal(dense_model.relabel("f'", "o"))
    dense_steps["dm f'"] = st.mat.copy()
    st.both(dense_model.bs_dual("o", "b", "o'", "b'"))
    dense_steps["bs3"] = st.mat.copy()

    probe = dense_model.DenseState()
    for label, engine_state in manual_fig1_steps(*args):
        probe.mat = dense_steps[label]
        assert_states_equal(engine_state, probe)


def test_hand_derived_amplitude_table():
    """Conditional o'-state in the beta2=1, theta=45deg regime.

    Expected values derived by hand, independently of both the engine and
    the dense model: with a1 = alpha1, b1 = beta1 e^{i gamma}, p = e^{i phi},
    R = 1/(2 sqrt2), r = R/2, the twelve amplitudes are

        (V, H_I1@e')  i a1 R        (V, H_I1@f')  -a1 R
        (V, V_I1@e')  i a1 R        (V, V_I1@f')   a1 R
        (V, V_I@e')   i(b1 R + p r) (V, V_I@f')   -(b1 R + p r)
        (V, H_I@e')   i(b1 R + p r) (V, H_I@f')    (b1 R + p r)
        (H, V_I@e')  -i p r         (H, V_I@f')    p r
        (H, H_I@e')  -i p r         (H, H_I@f')   -p r
    """
    beta1, gamma, phi = 0.8, 0.5, 1.1
    alpha1 = 0.6
    state = manual_fig1(alpha1, beta1, gamma, 0.0, 1.0, phi, math.pi / 4)
    cond = state.restrict_to("o'", Band.SIGNAL)

    big = 1.0 / (2.0 * math.sqrt(2.0))
    small = big / 2.0
    b1 = beta1 * cmath.exp(1j * gamma)
    p = cmath.exp(1j * phi)
    mix = b1 * big + p * small

    s1, mm = SourceTag.SOURCE_1, SourceTag.MERGED

    def entry(spol, ipol, itag, path):
        return ModePair(
            Mode("o'", spol, Band.SIGNAL, mm), Mode(path, ipol, Band.IDLER, itag)
        )

    expected = {
        entry(V, H, s1, "e'"): 1j * alpha1 * big,
        entry(V, H, s1, "f'"): -alpha1 * big,
        entry(V, V, s1, "e'"): 1j * alpha1 * big,
        entry(V, V, s1, "f'"): alpha1 * big,
        entry(V, V, mm, "e'"): 1j * mix,
        entry(V, V, mm, "f'"): -mix,
        entry(V, H, mm, "e'"): 1j * mix,
        entry(V, H, mm, "f'"): mix,
        entry(H, V, mm, "e'"): -1j * p * small,
        entry(H, V, mm, "f'"): p * small,
        entry(H, H, mm, "e'"): -1j * p * small,
        entry(H, H, mm, "f'"): -p * small,
    }
    assert len(cond) == len(expected)
    for pair, want in expected.items():
        assert cond.amplitude(pair) == pytest.approx(want, abs=1e-12), pair


# -- each single-photon transform against its dense matrix ---------------------

BAND_OF = {"signal": Band.SIGNAL, "idler": Band.IDLER, "both": None}
POL_OF = {"H": H, "V": V}
TAG_OF = {text: tag for tag, text in TAG_TEXT.items()}
#: States live on four paths; transforms also reach a fifth, empty one, so that
#: outputs both alias occupied paths (amplitudes collide) and open new ones.
STATE_PATHS = ("a", "r", "e", "f")
OP_PATHS = STATE_PATHS + ("o",)

state_modes = st.sampled_from(
    [(p, pol, t) for p in STATE_PATHS for pol in dense_model.POLS for t in dense_model.TAGS]
)
dense_amplitudes = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)
#: Product terms whose photon maps hold several modes each, so that a
#: transform sends two modes of one map onto one mode (their amplitudes sum).
photon_maps = st.dictionaries(state_modes, dense_amplitudes, min_size=1, max_size=6)
terms = st.lists(st.tuples(photon_maps, photon_maps), min_size=1, max_size=3)
op_paths = st.sampled_from(OP_PATHS)
two_paths = st.lists(op_paths, min_size=2, max_size=2, unique=True)
any_band = st.sampled_from(["signal", "idler", "both"])
one_band = st.sampled_from(["signal", "idler"])
turns = st.floats(0.0, 2 * math.pi)
conventions = st.sampled_from(["symmetric", "hadamard"])


def engine_key(mode):
    """The engine's ``(path, pol, tag)`` key of a dense model's mode."""
    path, pol, tag = mode
    return (path, POL_OF[pol].value, TAG_OF[tag].value)


def both_models(terms):
    """The same random state as an engine state, one product term per
    (signal map, idler map), and as a dense amplitude matrix."""
    engine = BiphotonState._wrap(tuple(
        ({engine_key(m): a for m, a in u.items()},
         {engine_key(m): a for m, a in w.items()})
        for u, w in terms
    ))
    dense = dense_model.DenseState()
    for u, w in terms:
        dense.mat += np.outer(dense_vector(u), dense_vector(w))
    return engine, dense


def dense_vector(photon_map):
    vector = np.zeros(dense_model.N, dtype=complex)
    for mode, amp in photon_map.items():
        vector[dense_model.IDX[mode]] = amp
    return vector


@given(terms=terms, path=op_paths, band=any_band, theta=turns, phi=turns, lam=turns)
def test_pol_unitary_equals_dense(terms, path, band, theta, phi, lam):
    # a general SU(2) matrix: wave plates are symmetric and would not show a
    # transposed table
    engine, dense = both_models(terms)
    u = su2(theta, phi, lam)
    engine = engine.apply_pol_unitary(path, u, BAND_OF[band])
    getattr(dense, band)(dense_model.pol_unitary_on(path, u))
    assert_states_equal(engine, dense)


@given(terms=terms, inputs=two_paths, outputs=two_paths, one_input=st.booleans(),
       convention=conventions)
def test_route_two_port_equals_dense(terms, inputs, outputs, one_input, convention):
    # outputs are drawn from the same paths as the inputs, so they often alias one
    engine, dense = both_models(terms)
    (in_a, in_b), (out_a, out_b) = inputs, outputs
    if one_input:
        in_b = None
        op = dense_model.bs_single(in_a, out_a, out_b, convention)
    else:
        op = dense_model.bs_dual(in_a, in_b, out_a, out_b, convention)
    engine = engine.route_two_port(in_a, in_b, out_a, out_b, BS_CONVENTIONS[convention])
    dense.both(op)
    assert_states_equal(engine, dense)


@given(terms=terms, from_path=op_paths, to_path=op_paths, band=any_band,
       pol=st.sampled_from([None, "H", "V"]))
def test_relabel_path_equals_dense(terms, from_path, to_path, band, pol):
    engine, dense = both_models(terms)
    engine = engine.relabel_path(from_path, to_path, BAND_OF[band],
                                 None if pol is None else POL_OF[pol])
    getattr(dense, band)(dense_model.relabel(from_path, to_path, pol))
    assert_states_equal(engine, dense)


@given(terms=terms, path=op_paths, pol=st.sampled_from(["H", "V"]), band=one_band)
def test_merge_tags_equals_dense(terms, path, pol, band):
    engine, dense = both_models(terms)
    engine = engine.merge_tags(path, POL_OF[pol], BAND_OF[band])
    getattr(dense, band)(dense_model.merge_tags(path, pol))
    assert_states_equal(engine, dense)


@given(terms=terms, path=op_paths, band=any_band, phi=turns)
def test_phase_factor_equals_dense(terms, path, band, phi):
    engine, dense = both_models(terms)
    engine = engine.apply_phase_factor(path, cmath.exp(1j * phi), BAND_OF[band])
    getattr(dense, band)(dense_model.phase_on(path, phi))
    assert_states_equal(engine, dense)


@given(terms=terms, path=op_paths, band=any_band,
       angles=st.lists(turns, min_size=1, max_size=4), phi=turns, convention=conventions)
def test_batched_transforms_equal_dense_member_by_member(
    terms, path, band, angles, phi, convention
):
    # a batched wave plate, then a batched phase and a splitter with scalar
    # entries: every member must equal the oracle's scalar run at its angle
    angles = np.array(angles)
    engine, _ = both_models(terms)
    engine = engine.apply_pol_unitary(path, hwp_matrix(angles), BAND_OF[band])
    engine = engine.apply_phase_factor("e", np.exp(1j * (phi + angles)), BAND_OF[band])
    engine = engine.route_two_port("e", "f", "e", "o", BS_CONVENTIONS[convention])
    for i, angle in enumerate(angles):
        _, dense = both_models(terms)
        getattr(dense, band)(dense_model.hwp_on(path, angle))
        getattr(dense, band)(dense_model.phase_on("e", phi + angle))
        dense.both(dense_model.bs_dual("e", "f", "e", "o", convention))
        assert_states_equal(engine, dense, member=i)
