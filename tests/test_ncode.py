"""Multi-component codes: n-words, partwise operations, classification."""
from __future__ import annotations

import pytest

import corpus
from setcodes import gf2
from setcodes.core import LengthClass, SetCode, repetition_class
from setcodes.errors import ArityMismatch, NoParityCheck, PatternMismatch
from setcodes.gf2 import word
from setcodes.ncode import (
    NWord,
    SetNCode,
    is_complementing_bicode,
    parse_nword,
)


def test_nword_validation():
    with pytest.raises(ValueError):
        NWord(())
    with pytest.raises(ValueError):
        NWord((None, None))
    with pytest.raises(ValueError):
        NWord(((),))
    with pytest.raises(ValueError):
        NWord(((0, 2, 1),))
    with pytest.raises(ValueError):
        NWord((word("110"), (0, 2), None))
    with pytest.raises(ValueError):
        NWord(((True, 0),))
    with pytest.raises(ValueError):
        NWord(((1.0, 0),))


def test_nword_arity_and_presence():
    nw = NWord((word("110"), None, word("01")))
    assert nw.arity == 3
    assert nw.present() == (1, 3)
    assert nw.render() == "110 u - u 01"


def test_parse_nword_round_trip():
    for text in ("110 u - u 01", "1010 u 001110", "1 u 0"):
        nw = parse_nword(text)
        assert nw.render() == text
        assert parse_nword(nw.render()) == nw
    assert parse_nword("- u 11").parts == (None, (1, 1))
    with pytest.raises(ValueError):
        parse_nword("11 u 2x")


def test_ncode_rejects_equal_components():
    rep = SetCode((repetition_class(4),))
    with pytest.raises(ValueError):
        SetNCode((rep, SetCode((repetition_class(4),))))
    with pytest.raises(ValueError):
        SetNCode(())


def test_ncode_arity_guard():
    nc = corpus.bicode(corpus.BICODE_SYNDROME_A_COMP1, corpus.BICODE_SYNDROME_A_COMP2)
    with pytest.raises(PatternMismatch):
        nc.syndrome(parse_nword("1010"))
    with pytest.raises(PatternMismatch):
        nc.detect(parse_nword("1010 u 001110 u 1111"))


def test_pinned_syndromes():
    nc = corpus.bicode(corpus.BICODE_SYNDROME_A_COMP1, corpus.BICODE_SYNDROME_A_COMP2)
    assert nc.syndrome(parse_nword("1010 u 001110")) == ((0, 0), (1, 1, 1))
    nc = corpus.bicode(corpus.BICODE_SYNDROME_B_COMP1, corpus.BICODE_SYNDROME_B_COMP2)
    assert nc.syndrome(parse_nword("111000 u 1111100")) == ((1, 0, 1), (0, 1, 0))


def test_syndrome_skips_absent_parts():
    nc = corpus.bicode(corpus.BICODE_SYNDROME_A_COMP1, corpus.BICODE_SYNDROME_A_COMP2)
    assert nc.syndrome(parse_nword("1010 u -")) == ((0, 0), None)


def test_syndrome_needs_checks():
    nc = corpus.bicode(corpus.BICODE_SYNDROME_B_COMP1, corpus.BICODE_SYNDROME_B_COMP2)
    # the length-4 class of the first component carries no check
    with pytest.raises(NoParityCheck):
        nc.syndrome(parse_nword("1110 u 0101"))


def test_detect_per_part():
    nc = corpus.bicode(corpus.BICODE_SYNDROME_A_COMP1, corpus.BICODE_SYNDROME_A_COMP2)
    flags = nc.detect(parse_nword("1010 u 001110"))
    assert flags == (True, False)
    assert nc.detect(parse_nword("- u 001001")) == (None, True)
    assert nc.contains(parse_nword("1010 u 001001"))
    assert not nc.contains(parse_nword("1010 u 001110"))


def test_partwise_distance():
    nc = corpus.bicode(corpus.BICODE_DISTANCE_COMP1, corpus.BICODE_DISTANCE_COMP2)
    received = NWord(corpus.words(*corpus.BICODE_DISTANCE_RECEIVED))
    far = NWord(corpus.words(*corpus.BICODE_DISTANCE_CAND_FAR))
    near = NWord(corpus.words(*corpus.BICODE_DISTANCE_CAND_NEAR))
    assert nc.distance(received, far) == (1, 3)
    assert nc.distance(received, near) == (1, 1)
    with pytest.raises(PatternMismatch):
        nc.distance(received, NWord((word("110101"), None)))


def test_decode_nn_partwise():
    nc = corpus.bicode(corpus.BICODE_DISTANCE_COMP1, corpus.BICODE_DISTANCE_COMP2)
    received = NWord(corpus.words(*corpus.BICODE_DISTANCE_RECEIVED))
    out = nc.decode(received)
    assert out[0].status == "Corrected"
    assert out[0].word == word("111101")
    assert out[1].status == "Corrected"
    assert out[1].word == word("1010101")


def test_decode_skips_absent_parts():
    nc = corpus.bicode(corpus.BICODE_DISTANCE_COMP1, corpus.BICODE_DISTANCE_COMP2)
    out = nc.decode(NWord((word("110101"), None)))
    assert out[0].word == word("111101")
    assert out[1] is None


def test_decode_method_dispatch():
    rep = SetCode((corpus.repeat3_6_class(),))
    decoy = SetCode((LengthClass(7, corpus.DECOY_7_WORDS),))
    nc = SetNCode((rep, decoy))
    nw = NWord((word("111001"), None))
    assert nc.decode(nw, method="coset")[0].word == word("001001")
    assert nc.decode(nw, method="nn")[0].word == word("111111")
    with pytest.raises(ValueError):
        nc.decode(nw, method="syndrome")


def test_biweight():
    nc = corpus.bicode(corpus.BIWEIGHT_33_COMP1, corpus.BIWEIGHT_33_COMP2)
    assert nc.biweight() == (3, 3)
    nc = corpus.bicode(corpus.BIWEIGHT_43_COMP1, corpus.BIWEIGHT_43_COMP2)
    assert nc.biweight() == (4, 3)
    mixed = corpus.bicode(corpus.BICODE_DISTANCE_COMP1, corpus.BICODE_DISTANCE_COMP2)
    assert mixed.biweight() is None
    five = SetNCode(tuple(corpus.set_code(entries) for entries in corpus.WEIGHT3_5CODE))
    assert five.biweight() is None


def test_classify_repetition_bicode():
    first = SetCode(tuple(repetition_class(n) for n in (4, 5, 7, 3)))
    second = SetCode(tuple(repetition_class(n) for n in (4, 6, 7, 5)))
    nc = SetNCode((first, second))
    assert nc.classify() == ("set", "repetition", "cyclic", "semigroup", "group")
    # A second component without a parity check only drops "hamming".
    hamming = SetCode((repetition_class(3),))
    unchecked = SetCode(
        (LengthClass(3, (gf2.zeros(3), gf2.ones(3))), repetition_class(5))
    )
    assert "hamming" in hamming.classify()
    nc = SetNCode((hamming, unchecked))
    assert nc.classify() == ("set", "repetition", "cyclic", "semigroup", "group")


def test_classify_biweights():
    nc = corpus.bicode(corpus.BIWEIGHT_33_COMP1, corpus.BIWEIGHT_33_COMP2)
    labels = nc.classify()
    assert "(3,3)-biweight" in labels
    assert "3-weight" in labels
    nc = corpus.bicode(corpus.BIWEIGHT_43_COMP1, corpus.BIWEIGHT_43_COMP2)
    labels = nc.classify()
    assert "(4,3)-biweight" in labels
    assert "4-weight" not in labels


def test_classify_weight_5code():
    five = SetNCode(tuple(corpus.set_code(entries) for entries in corpus.WEIGHT3_5CODE))
    assert five.classify() == ("set", "3-weight")


def test_classify_set_only():
    nc = corpus.bicode(*corpus.SET_NOT_SEMIGROUP_BICODE)
    labels = nc.classify()
    assert labels[0] == "set"
    assert "semigroup" not in labels
    assert "group" not in labels


def test_dual_is_componentwise():
    rep = SetCode((corpus.repeat3_6_class(),))
    small = SetCode((LengthClass(4, corpus.CODE_4_2_WORDS, check=corpus.CODE_4_2_CHECK),))
    nc = SetNCode((rep, small))
    dual = nc.dual()
    assert dual.components[0].word_set() == rep.dual().word_set()
    assert dual.components[1].word_set() == small.dual().word_set()
    # the repeat code is its own dual
    assert dual.components[0].word_set() == rep.word_set()


def test_complementing_fixture_holds():
    nc = corpus.bicode(corpus.COMPLEMENTING_COMP1, corpus.COMPLEMENTING_COMP2)
    verdict = is_complementing_bicode(nc)
    assert verdict.ok
    assert verdict.notes == ()


def test_complementing_needs_two_matching_components():
    rep = SetCode((corpus.repeat3_6_class(),))
    with pytest.raises(ArityMismatch):
        is_complementing_bicode(SetNCode((rep,)))
    lopsided = SetNCode(
        (
            SetCode((repetition_class(4), repetition_class(5))),
            SetCode((repetition_class(4),)),
        )
    )
    with pytest.raises(ArityMismatch):
        is_complementing_bicode(lopsided)


def test_complementing_rejects_non_orthogonal_words():
    first = SetCode((LengthClass(5, corpus.COMPLEMENTING_COMP1[0][1]),))
    second = SetCode((LengthClass(5, corpus.words("00000", "10000")),))
    verdict = is_complementing_bicode(SetNCode((first, second)))
    assert not verdict.ok


def test_complementing_rejects_length_mismatch():
    first = SetCode((repetition_class(4),))
    second = SetCode((repetition_class(5),))
    verdict = is_complementing_bicode(SetNCode((first, second)))
    assert not verdict.ok
    assert "lengths differ" in verdict.notes[0]


def test_complementing_flags_vacuous_positions():
    first = SetCode((LengthClass(3, (word("000"),)),))
    second = SetCode((LengthClass(3, (word("101"), word("110"))),))
    verdict = is_complementing_bicode(SetNCode((first, second)))
    assert verdict.ok
    assert any("dual is the full space" in note for note in verdict.notes)


def test_complementing_full_rank_first_component():
    first = SetCode((LengthClass(2, tuple(gf2.all_words(2))),))
    zero_only = SetCode((LengthClass(2, (word("00"),)),))
    assert is_complementing_bicode(SetNCode((first, zero_only))).ok
    bigger = SetCode((LengthClass(2, (word("00"), word("01"))),))
    assert not is_complementing_bicode(SetNCode((first, bigger))).ok


def test_complementing_beyond_the_span_cap():
    # The dual of the length-30 repetition class holds 2**29 words.
    first = SetCode((repetition_class(30),))
    second = SetCode((LengthClass(30, (gf2.zeros(30), word("11" + "0" * 28))),))
    verdict = is_complementing_bicode(SetNCode((first, second)))
    assert verdict.ok
    assert verdict.notes == ()
