import pytest
from hypothesis import given
from hypothesis import strategies as st

from qiup.modes import Band, Mode, ModePair, Polarization, SourceTag
from qiup.state import BiphotonState

PATH_NAMES = st.text(
    alphabet="abcdefgo'xyz_123", min_size=1, max_size=6
).filter(lambda s: s.strip() == s and s)


def test_polarization_total_order():
    assert Polarization.H.value < Polarization.V.value
    assert list(Polarization) == [Polarization.H, Polarization.V]


def test_band_is_binary():
    assert list(Band) == [Band.SIGNAL, Band.IDLER]


def test_source_tag_values():
    assert SourceTag.tagged(1) is SourceTag.SOURCE_1
    assert SourceTag.tagged(2) is SourceTag.SOURCE_2
    with pytest.raises(ValueError):
        SourceTag.tagged(3)
    assert str(SourceTag.MERGED) == "M"
    assert str(SourceTag.SOURCE_2) == "2"


def test_mode_pair_band_validation():
    sig = Mode("a", Polarization.V, Band.SIGNAL)
    idl = Mode("a", Polarization.V, Band.IDLER)
    ModePair(sig, idl)
    with pytest.raises(ValueError):
        ModePair(idl, idl)
    with pytest.raises(ValueError):
        ModePair(sig, sig)


def test_mode_sort_key_order():
    a = Mode("a", Polarization.H, Band.SIGNAL, SourceTag.MERGED)
    b = Mode("a", Polarization.V, Band.SIGNAL, SourceTag.MERGED)
    c = Mode("b", Polarization.H, Band.SIGNAL, SourceTag.MERGED)
    d = Mode("a", Polarization.H, Band.SIGNAL, SourceTag.SOURCE_1)
    assert a.sort_key() < b.sort_key() < c.sort_key()
    assert a.sort_key() < d.sort_key()


@given(
    path_s=PATH_NAMES,
    path_i=PATH_NAMES,
    pol_s=st.sampled_from(list(Polarization)),
    pol_i=st.sampled_from(list(Polarization)),
    tag_s=st.sampled_from(list(SourceTag)),
    tag_i=st.sampled_from(list(SourceTag)),
)
def test_pack_roundtrip(path_s, path_i, pol_s, pol_i, tag_s, tag_i):
    pair = ModePair(
        Mode(path_s, pol_s, Band.SIGNAL, tag_s),
        Mode(path_i, pol_i, Band.IDLER, tag_i),
    )
    assert BiphotonState({pair: 1.0}).items() == [(pair, 1 + 0j)]
