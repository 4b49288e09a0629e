import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import CIRCUITS_DIR
from engine_helpers import manual_fig1
from test_observables import with_options
from qiup import dsl
from qiup.dsl import DetectStmt, MergeStmt, Span
from qiup.modes import Band, Polarization, SourceTag
from qiup.observables import fringe_scan
from qiup.plan import (
    FIG1_PARAMETERS,
    FIG1_SOURCE,
    PlanError,
    _fig1_plan,
    compile_text,
    fig1_preset,
    iter_plan,
    run_plan,
    validate,
)

EXAMPLE_PARAMS = {
    "alpha1": 0.6,
    "beta1": 0.8,
    "gamma": 1.1,
    "alpha2": 0.0,
    "beta2": 1.0,
    "phi": 2.3,
    "theta": math.pi / 4,
}


def test_fig1_free_parameters():
    plan, diagnostics = compile_text(FIG1_SOURCE)
    assert plan is not None and not diagnostics
    assert plan.free_parameters == frozenset(FIG1_PARAMETERS)
    assert plan.detect_path == "o'"
    assert plan.detect_band is Band.SIGNAL


def test_shipped_file_matches_embedded_preset():
    file_plan, _ = compile_text((CIRCUITS_DIR / "fig1.qiup").read_text())
    preset_plan = fig1_preset(EXAMPLE_PARAMS)
    assert file_plan.bind(EXAMPLE_PARAMS) == preset_plan


def test_unknown_path_names_the_path():
    plan, diagnostics = compile_text(
        "source 1 signal=a idler=a pol=V\nbs z -> e f\ndetect e signal\n"
    )
    assert plan is None
    (diag,) = [d for d in diagnostics if d.severity == "error"]
    assert diag.code == "E_UNKNOWN_PATH"
    assert "'z'" in diag.message


def test_validate_rejects_duplicate_detect_ast():
    span = Span(1, 1, 2)
    ast = dsl.CircuitAst(
        (
            dsl.SourceStmt(span, 1, "a", "a", Polarization.V, None),
            DetectStmt(span, "a", Band.SIGNAL),
            DetectStmt(span, "a", Band.SIGNAL),
        )
    )
    result = validate(ast)
    assert not result.ok
    assert any(d.code == "E_MULTI_DETECT" for d in result.diagnostics)


@pytest.mark.parametrize(
    "text,code",
    [
        ("source 1 signal=a idler=a pol=V\n", "E_NO_DETECT"),
        ("detect a signal\n", "E_NO_SOURCE"),
        (
            "source 1 signal=a idler=a pol=V\nbs a -> e f\n"
            "source 2 signal=r idler=r pol=V\ndetect e signal\n",
            "E_SOURCE_ORDER",
        ),
        (
            "source 1 signal=a idler=a pol=V\n"
            "dm a -> signal: x idler: x\ndetect x signal\n",
            "E_DM_ALIAS",
        ),
        # `bs2 e e -> x y` used to compile and run as a one-input splitter
        *(
            ("source 1 signal=e idler=f pol=V\nsource 2 signal=r idler=r pol=V\n"
             f"{line}\ndetect x signal\n", "E_BS_ALIAS")
            for line in ("bs r -> e e", "bs2 e e -> x y", "bs2 e f -> x x")
        ),
    ],
)
def test_validation_error_codes(text, code):
    plan, diagnostics = compile_text(text)
    assert plan is None
    assert code in {d.code for d in diagnostics}


def test_preset_missing_param():
    params = dict(EXAMPLE_PARAMS)
    del params["phi"]
    with pytest.raises(PlanError) as err:
        fig1_preset(params)
    assert err.value.code == "E_MISSING_PARAM"
    assert "phi" in str(err.value)


def test_preset_norm_violation():
    params = dict(EXAMPLE_PARAMS, alpha1=0.9, beta1=0.9)
    with pytest.raises(PlanError) as err:
        fig1_preset(params)
    assert err.value.code == "E_NORM"


@pytest.mark.parametrize("name", ["alpha1", "beta2"])
def test_preset_norm_violation_by_nan(name):
    with pytest.raises(PlanError) as err:
        fig1_preset(dict(EXAMPLE_PARAMS, **{name: math.nan}))
    assert err.value.code == "E_NORM"


def test_preset_refuses_a_name_beyond_the_seven():
    with pytest.raises(PlanError) as err:
        fig1_preset(dict(EXAMPLE_PARAMS, beta3=0.5))
    assert err.value.code == "E_UNKNOWN_PARAM"
    assert "beta3" in str(err.value)


def test_bind_unknown_parameter():
    plan, _ = compile_text(FIG1_SOURCE)
    with pytest.raises(PlanError) as err:
        plan.bind({"bogus": 1.0})
    assert err.value.code == "E_UNKNOWN_PARAM"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_bind_rejects_nonfinite_values(value):
    plan, _ = compile_text(FIG1_SOURCE)
    with pytest.raises(PlanError) as err:
        plan.bind({"gamma": 1.0, "phi": value})
    assert err.value.code == "E_NONFINITE_PARAM"
    assert f"phi={value!r}" in str(err.value) and "gamma" not in str(err.value)
    assert plan.bindings == {}


@pytest.mark.parametrize("value", [
    pytest.param(np.array([1 + 2j, 0.5]), id="complex-array"),
    pytest.param(np.complex128(1 + 2j), id="numpy-complex"),
    pytest.param(1 + 2j, id="python-complex"),
    pytest.param(np.array([0.5 + 0j]), id="zero-imaginary-array"),
    pytest.param(np.array([0.5, np.complex128(1 + 2j)], dtype=object),
                 id="object-array-numpy-complex"),
    pytest.param(np.array([0.5, 1 + 2j], dtype=object), id="object-array-python-complex"),
    pytest.param(np.array(1 + 2j, dtype=object), id="object-scalar-array"),
])
def test_bind_rejects_complex_values(value):
    # float conversion would keep the real part, with at most numpy's warning
    plan, _ = compile_text(FIG1_SOURCE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PlanError) as err:
            plan.bind({"gamma": 1.0, "phi": value})
    assert err.value.code == "E_NONFINITE_PARAM"
    assert "must be finite real numbers, got complex phi" in str(err.value)
    assert plan.bindings == {}


@pytest.mark.parametrize("params, code, message", [
    pytest.param({"phi": math.nan, "bogus": 1.0, "aaa": 1j}, "E_UNKNOWN_PARAM",
                 "not free parameters of this plan: aaa, bogus", id="unknown-first"),
    pytest.param({"phi": math.nan, "gamma": 1j}, "E_NONFINITE_PARAM",
                 "parameter values must be finite real numbers, got complex gamma",
                 id="complex-before-nonfinite"),
    pytest.param({"phi": math.nan, "gamma": np.zeros((2, 2))}, "E_BATCH_SHAPE",
                 "a batched parameter must be a nonempty 1-D array, got gamma with shape (2, 2)",
                 id="shape-before-nonfinite"),
    pytest.param({"phi": np.zeros((2, 2)), "gamma": 1j}, "E_BATCH_SHAPE",
                 "a batched parameter must be a nonempty 1-D array, got phi with shape (2, 2)",
                 id="in-order-of-the-values"),
    pytest.param({"phi": math.inf, "theta": np.array([0.0, math.nan, -math.inf]),
                  "gamma": np.array([1.0, 2.0, 3.0, 4.0])}, "E_NONFINITE_PARAM",
                 "parameter values must be finite: phi=inf, theta[1]=nan, theta[2]=-inf",
                 id="every-nonfinite-before-lengths"),
    pytest.param({"theta": np.array([0.0, 1.0]), "gamma": np.array([1.0, 2.0, 3.0])},
                 "E_BATCH_SHAPE", "batched parameters must share one length, got gamma: 3, "
                 "theta: 2", id="lengths"),
])
def test_bind_refusals_and_their_order(params, code, message):
    plan, _ = compile_text(FIG1_SOURCE)
    with pytest.raises(PlanError) as err:
        plan.bind(params)
    assert (err.value.code, str(err.value)) == (code, message)
    assert plan.bindings == {}


def test_bind_lengths_count_the_arrays_still_bound():
    plan, _ = compile_text(FIG1_SOURCE)
    batched = plan.bind({"phi": np.array([0.1, 0.2]), "theta": np.array([0.3, 0.4])})
    with pytest.raises(PlanError) as err:
        batched.bind({"phi": 0.5, "gamma": np.array([1.0, 2.0, 3.0])})
    assert err.value.code == "E_BATCH_SHAPE"
    assert str(err.value) == "batched parameters must share one length, got gamma: 3, theta: 2"
    # rebinding each array to a scalar frees the length
    rebound = batched.bind({"phi": 0.5, "theta": 0.6}).bind({"gamma": np.array([1.0, 2.0, 3.0])})
    assert rebound._arrays == {"gamma"} and batched._arrays == {"phi", "theta"}
    assert replace(rebound, bindings=dict(rebound.bindings))._arrays == {"gamma"}


def test_bind_hands_on_the_structure_and_free_parameters():
    base = _fig1_plan("symmetric")
    bound = fig1_preset(EXAMPLE_PARAMS)
    assert bound._structure is base._structure
    assert bound.free_parameters is base.free_parameters
    assert bound.bind({"phi": 0.1}).free_parameters is base.free_parameters


def test_preset_binding_leaves_the_compiled_base_unbound():
    first = fig1_preset(EXAMPLE_PARAMS)
    fig1_preset(dict(EXAMPLE_PARAMS, phi=0.1))
    assert first.bindings["phi"] == EXAMPLE_PARAMS["phi"]
    assert _fig1_plan("symmetric").bindings == {}


def single_path_plan(lines):
    plan, diagnostics = compile_text(
        "source 1 signal=a idler=a pol=V\n" + lines + "detect a signal\n"
    )
    assert plan is not None, diagnostics
    return plan


@pytest.mark.parametrize(
    "phase_lines, expected",
    [
        ("phase a value=$phi band=signal\n", 1),
        ("phase a value=$phi band=both\n", 2),
        ("phase a value=$phi band=signal\nphase a value=$phi band=idler\n", 2),
        ("phase a value=$phi band=signal\nphase a value=90 band=both\n", 1),
    ],
)
def test_phase_degree(phase_lines, expected):
    """Phase statements alone give frequency 1 and their photon count as D."""
    assert single_path_plan(phase_lines).harmonic_degree("phi") == (1, expected)


@pytest.mark.parametrize(
    "lines, expected",
    [
        pytest.param("hwp a angle=$x band=signal\n", (2, 2), id="hwp-banded"),
        pytest.param("hwp a angle=$x band=both\n", (2, 4), id="hwp-both"),
        pytest.param("qwp a angle=$x band=idler\n", (2, 2), id="qwp-banded"),
        pytest.param("qwp a angle=$x band=both\n", (2, 4), id="qwp-both"),
        pytest.param("prepare a idler alpha=0 beta=1 gamma=$x\n", (1, 1), id="gamma"),
        pytest.param("phase a value=$x band=signal\nhwp a angle=$x band=signal\n",
                     (1, 5), id="phase-hwp-banded"),
        pytest.param("phase a value=$x band=signal\n"
                     "prepare a idler alpha=0 beta=1 gamma=$x\n", (1, 2), id="phase-gamma"),
        pytest.param("phase a value=$x band=signal\nhwp a angle=$x band=both\n",
                     (1, 9), id="phase-hwp-both"),
        pytest.param("hwp a angle=$x band=both\nqwp a angle=$x band=signal\n",
                     (2, 6), id="two-plates"),
        pytest.param("hwp a angle=$x band=signal\nhwp a angle=30 band=both\n",
                     (2, 2), id="literal-angle-ignored"),
        pytest.param("prepare a idler alpha=$x beta=1 gamma=0\n", None, id="alpha"),
        pytest.param("prepare a idler alpha=0 beta=$x gamma=0\n", None, id="beta"),
        pytest.param("hwp a angle=$x band=both\nprepare a idler alpha=0 beta=$x gamma=0\n",
                     None, id="hwp-beta"),
    ],
)
def test_harmonic_degree(lines, expected):
    assert single_path_plan(lines).harmonic_degree("x") == expected


def test_harmonic_degree_of_a_name_that_is_not_free():
    plan = single_path_plan("hwp a angle=$x band=both\n")
    assert plan.harmonic_degree("y") is None
    assert plan.bind({"x": 0.3}).harmonic_degree("y") is None


def test_harmonic_degree_of_fig1_parameters():
    plan, _ = compile_text(FIG1_SOURCE)
    assert plan.harmonic_degree("theta") == (2, 4)
    assert plan.harmonic_degree("gamma") == (1, 1)
    assert plan.harmonic_degree("phi") == (1, 1)
    for name in ("beta1", "bogus"):
        assert plan.harmonic_degree(name) is None


def test_run_with_unbound_parameter_names_it():
    plan, _ = compile_text(FIG1_SOURCE)
    partial = plan.bind({k: v for k, v in EXAMPLE_PARAMS.items() if k != "phi"})
    with pytest.raises(PlanError) as err:
        run_plan(partial)
    assert err.value.code == "E_UNBOUND_PARAM"
    assert "phi" in str(err.value)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_plan_execution_equals_manual_pipeline(seed):
    rng = np.random.default_rng(seed)
    beta1, beta2 = rng.uniform(0, 1, size=2)
    params = {
        "alpha1": math.sqrt(1 - beta1**2),
        "beta1": beta1,
        "gamma": rng.uniform(0, 2 * math.pi),
        "alpha2": math.sqrt(1 - beta2**2),
        "beta2": beta2,
        "phi": rng.uniform(0, 2 * math.pi),
        "theta": rng.uniform(0, math.pi),
    }
    planned = run_plan(fig1_preset(params))
    manual = manual_fig1(
        params["alpha1"], params["beta1"], params["gamma"],
        params["alpha2"], params["beta2"], params["phi"], params["theta"],
    )
    assert planned.serialize() == manual.serialize()


def test_theta_zero_never_converts_tagged_h_idler():
    params = dict(EXAMPLE_PARAMS, theta=0.0)
    state = run_plan(fig1_preset(params))
    for mode_pair, _ in state.items():
        if mode_pair.idler.tag is SourceTag.SOURCE_1:
            assert mode_pair.idler.pol is Polarization.H


def test_no_merge_keeps_all_tags():
    state = run_plan(fig1_preset(EXAMPLE_PARAMS).without_merges())
    assert SourceTag.MERGED not in state.tags_present()


def test_bs_convention_changes_result():
    symmetric = run_plan(fig1_preset(EXAMPLE_PARAMS))
    hadamard = run_plan(replace(fig1_preset(EXAMPLE_PARAMS), bs_convention="hadamard"))
    assert symmetric.serialize() != hadamard.serialize()
    assert hadamard.norm_sq() == pytest.approx(2.0, abs=1e-12)


def test_without_merges_drops_only_the_merge_statements():
    plan = fig1_preset(EXAMPLE_PARAMS)
    bare = plan.without_merges()
    assert list(bare.pipeline) == [s for s in plan.pipeline if not isinstance(s, MergeStmt)]
    assert len(bare.pipeline) == len(plan.pipeline) - 3
    assert replace(bare, pipeline=plan.pipeline) == plan


NO_SPLITTER = """\
source 1 signal=s idler=i pol=V
phase s value=10 band=signal
detect s signal
"""


@pytest.mark.parametrize("text", [FIG1_SOURCE, NO_SPLITTER], ids=["fig1", "no_splitter"])
def test_unknown_bs_convention_rejected_by_the_plan(text):
    # it used to surface as a bare KeyError at the first splitter, and a
    # circuit without one accepted any name
    plan, diagnostics = compile_text(text)
    assert plan is not None, diagnostics
    with pytest.raises(ValueError, match=(
        "unknown beamsplitter convention 'Hadamard'; use 'symmetric' or 'hadamard'"
    )):
        replace(plan, bs_convention="Hadamard")


def test_execution_deterministic():
    a = run_plan(fig1_preset(EXAMPLE_PARAMS)).serialize()
    b = run_plan(fig1_preset(EXAMPLE_PARAMS)).serialize()
    assert a == b


def test_iter_plan_yields_every_step():
    plan = fig1_preset(EXAMPLE_PARAMS)
    labels = [label for label, _ in iter_plan(plan)]
    assert labels[0] == "sources"
    assert len(labels) == 1 + len(plan.pipeline)


@pytest.mark.parametrize("merge", [True, False])
@pytest.mark.parametrize("convention", ["symmetric", "hadamard"])
def test_fig1_keeps_one_product_term_per_source(merge, convention):
    # every element acts on one photon at a time, so the state stays
    # u_1 ⊗ w_1 + u_2 ⊗ w_2 while its pair entries multiply
    params = dict(EXAMPLE_PARAMS, alpha2=0.8, beta2=0.6, theta=0.3)
    steps = [state for _, state in iter_plan(with_options(fig1_preset(params), merge, convention))]
    assert [len(state._terms) for state in steps] == [2] * len(steps)
    assert len(steps[-1]) == (48 if merge else 40)


def test_waveplate_prep_circuit_runs():
    plan, diagnostics = compile_text((CIRCUITS_DIR / "waveplate_prep.qiup").read_text())
    assert plan is not None and not [d for d in diagnostics if d.severity == "error"]
    state = run_plan(plan.bind({"phi": 0.4}))
    assert state.norm_sq() == pytest.approx(2.0, abs=1e-12)


def test_waveplate_prep_equals_fig1_at_the_plates_preparation():
    # hwp 22.5 then qwp 0 take |V> to e^{-i pi/4} (|H> + e^{i 270deg}|V>)/sqrt2;
    # between two sources that global phase shifts the fringe, so fig1
    # matches at gamma = 270 - 45 degrees, and the relative phase alone is off
    grid = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    plates, _ = compile_text((CIRCUITS_DIR / "waveplate_prep.qiup").read_text())
    want = fringe_scan(plates, "phi", grid).counts
    fig1, _ = compile_text(FIG1_SOURCE)
    root_half = math.sqrt(0.5)
    params = {"alpha1": root_half, "beta1": root_half, "alpha2": 0.0, "beta2": 1.0,
              "theta": math.radians(45)}
    got = {gamma: fringe_scan(fig1.bind(dict(params, gamma=math.radians(gamma))), "phi", grid)
           for gamma in (225, 270)}
    np.testing.assert_allclose(got[225].counts, want, rtol=0, atol=1e-12)
    assert np.abs(got[270].counts - want).max() > 0.1


def test_rules_cover_every_pipeline_kind():
    from qiup.plan import _RULES

    pipeline_kinds = {cls for word, (cls, _) in dsl.STATEMENTS.items()
                      if word not in ("source", "detect")}
    assert set(_RULES) == pipeline_kinds
    for cls, (angle, _, setting, run) in _RULES.items():
        assert (angle is not None) == any(is_angle for _, is_angle in cls.value_fields)
        assert (setting is not None) == bool(cls.value_fields)
        assert run is not None


def test_a_pipeline_statement_without_a_rule():
    # replace() can put any statement in a pipeline: its names are read as
    # before, and a run refuses it by name
    plan = _fig1_plan("symmetric")
    detect = DetectStmt(Span(1, 1, 1), "o'", Band.SIGNAL)
    extended = replace(plan, pipeline=plan.pipeline + (detect,))
    assert extended.free_parameters == frozenset(FIG1_PARAMETERS)
    bound = extended.bind(EXAMPLE_PARAMS)
    with pytest.raises(TypeError, match=r"cannot execute statement DetectStmt\("):
        run_plan(bound)
    steps = iter_plan(bound)
    for _ in plan.pipeline:
        next(steps)
    with pytest.raises(TypeError, match=r"cannot execute statement DetectStmt\("):
        list(steps)
    # a sweep's checks read it as a statement without values
    phase = dsl.PhaseStmt(Span(1, 1, 1), "o'", dsl.ParamRef("psi"), None)
    checked = replace(plan, pipeline=plan.pipeline + (detect, phase)).bind(EXAMPLE_PARAMS)
    with pytest.raises(PlanError, match="unbound parameter 'psi'"):
        fringe_scan(checked, "phi", [0.0])


def test_mini_circuit_counts():
    plan, _ = compile_text((CIRCUITS_DIR / "mini.qiup").read_text())
    state = run_plan(plan)
    nh, nv = state.counts_at("t", Band.IDLER)
    assert nh == pytest.approx(0.0, abs=1e-15)
    assert nv == pytest.approx(0.5, abs=1e-12)
