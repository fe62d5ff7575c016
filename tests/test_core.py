"""Length classes, set codes, their predicates, and cyclic construction."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import corpus
from setcodes import gf2
from setcodes.core import (
    LengthClass,
    SetCode,
    correctable_errors,
    cyclic_code,
    cyclic_generator_matrix,
    cyclic_parity_matrix,
    cyclic_parity_poly,
    encode,
    generator_from_parity,
    is_standard_form,
    min_distance,
    pseudo_inner,
    repetition_check,
    repetition_class,
)
from setcodes.errors import (
    DimensionMismatch,
    DuplicateLength,
    MissingParityCheck,
    NoParityCheck,
    NoSuchLength,
    NotADivisor,
    NotLinear,
    NotStandardForm,
    ParityViolation,
)
from setcodes.decoding import build_standard_array
from setcodes.gf2 import word
from test_gf2 import matrices


def test_pseudo_inner_is_not_definite():
    assert pseudo_inner(word("1111"), word("1111")) == 0
    assert pseudo_inner(word("1011"), word("1011")) == 1


def test_standard_form_detection():
    assert is_standard_form(corpus.CODE_5_3_CHECK)
    assert is_standard_form(corpus.CODE_7_3_CHECK)
    assert not is_standard_form(tuple(reversed(corpus.CODE_5_3_CHECK)))
    assert not is_standard_form(())
    assert not is_standard_form((word("110"), word("011"), word("101"), word("111")))


def test_generator_from_parity_matches_fixture():
    assert generator_from_parity(corpus.CODE_5_3_CHECK) == corpus.CODE_5_3_GENERATOR
    with pytest.raises(NotStandardForm):
        generator_from_parity((word("0110"), word("1010")))


def test_encode_lands_in_the_nullspace():
    for check in (corpus.CODE_5_3_CHECK, corpus.CODE_7_3_CHECK):
        gen = generator_from_parity(check)
        k = len(gen)
        for msg in gf2.all_words(k):
            cw = encode(msg, gen)
            assert not any(gf2.matvec(check, cw))
            assert cw[:k] == msg


def test_generator_spans_the_fixture_words():
    gen = generator_from_parity(corpus.CODE_5_3_CHECK)
    assert gf2.span(gen) == frozenset(corpus.CODE_5_3_WORDS)


def test_min_distance_and_correctable_errors():
    assert min_distance(corpus.CODE_5_3_WORDS) == 2
    assert min_distance(corpus.CYCLIC_7_4_WORDS) == 3
    assert min_distance(corpus.REPEAT3_6_WORDS) == 2
    assert correctable_errors(3) == 1
    assert correctable_errors(2) == 0
    assert correctable_errors(7) == 3
    with pytest.raises(ValueError):
        min_distance([word("000")])


def test_repetition_check_shape():
    assert repetition_check(1) is None
    assert repetition_check(4) == (
        (1, 1, 0, 0),
        (1, 0, 1, 0),
        (1, 0, 0, 1),
    )


def test_repetition_class_round_trip():
    cls = repetition_class(5)
    assert set(cls.words) == {gf2.zeros(5), gf2.ones(5)}
    assert cls.message_length == 1
    assert cls.encode((1,)) == gf2.ones(5)
    assert cls.encode((0,)) == gf2.zeros(5)
    tiny = repetition_class(1)
    assert tiny.check is None
    assert tiny.message_length is None


def test_length_class_canonicalizes_words():
    cls = LengthClass(3, (word("110"), word("001"), word("110")))
    assert cls.words == (word("001"), word("110"))


def test_length_class_validation():
    with pytest.raises(ValueError):
        LengthClass(3, (word("1101"),))
    with pytest.raises(ValueError):
        LengthClass(3, ())
    with pytest.raises(ValueError):
        LengthClass(3, ((0, 2, 0),))
    with pytest.raises(ValueError):
        LengthClass(2, ((True, False), (0, 0)))
    with pytest.raises(ValueError):
        LengthClass(2, ((1.0, 0), (0, 0)))
    with pytest.raises(ValueError):
        LengthClass(0, ())
    with pytest.raises(ValueError):
        LengthClass(3, (word("000"),), check=((1, 0),))
    with pytest.raises(ParityViolation):
        LengthClass(6, (word("110000"),), check=corpus.REPEAT3_6_CHECK)
    with pytest.raises(ValueError):
        LengthClass(3, (word("000"),), message_length=3)
    with pytest.raises(ValueError):
        LengthClass(3, (word("000"),), message_length=0)


def test_detect_uses_check_when_attached():
    checked = LengthClass(
        6, (word("000000"), word("111111")), check=corpus.REPEAT3_6_CHECK
    )
    bare = LengthClass(6, (word("000000"), word("111111")))
    probe = word("001001")
    assert checked.detect(probe)
    assert not bare.detect(probe)
    assert not checked.detect(word("100000"))


@given(matrices(max_rows=4, max_cols=8))
def test_packed_syndrome_matches_matvec(check):
    n = len(check[0])
    cls = LengthClass(n, (gf2.zeros(n),), check=check)
    for received in gf2.all_words(n):
        want = gf2.matvec(check, received)
        assert cls.syndrome(received) == want
        assert cls.detect(received) == (not any(want))
    with pytest.raises(DimensionMismatch):
        cls.detect(gf2.zeros(n + 1))


def test_syndrome_needs_a_check():
    cls = LengthClass(4, (word("0000"),))
    with pytest.raises(NoParityCheck):
        cls.syndrome(word("1000"))
    with pytest.raises(NoParityCheck):
        cls.generator()


def test_linearity_and_basis():
    cls = corpus.repeat3_6_class()
    assert cls.is_linear()
    assert cls.basis() == corpus.REPEAT3_6_CHECK
    crooked = LengthClass(5, corpus.NOT_CLOSED_CLASSES[0][1])
    assert not crooked.is_linear()
    with pytest.raises(NotLinear):
        crooked.basis()


@st.composite
def word_sets(draw, max_len: int = 6):
    """Random words of one length, often replaced by their span or a span
    missing one word, so that linear and nearly linear sets both show up."""
    n = draw(st.integers(1, max_len))
    one = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)
    ws = draw(st.lists(one, min_size=1, max_size=12))
    shape = draw(st.sampled_from(("raw", "span", "span minus one")))
    spanned = sorted(gf2.span(gf2.row_basis(tuple(ws))))
    if shape == "span" and spanned:
        ws = spanned
    elif shape == "span minus one" and len(spanned) > 1:
        drop = draw(st.integers(0, len(spanned) - 1))
        ws = spanned[:drop] + spanned[drop + 1 :]
    return tuple(ws)


def _closed_with_zero(ws) -> bool:
    s = set(ws)
    return gf2.zeros(len(ws[0])) in s and all(
        gf2.xor(a, b) in s for a in s for b in s
    )


@given(word_sets())
def test_rank_linearity_matches_pairwise_closure(ws):
    cls = LengthClass(len(ws[0]), ws)
    if _closed_with_zero(ws):
        assert cls.is_linear()
        assert cls.basis() == gf2.row_basis(ws)
        build_standard_array(ws)
    else:
        assert not cls.is_linear()
        with pytest.raises(NotLinear):
            cls.basis()
        with pytest.raises(NotLinear):
            build_standard_array(ws)


def test_class_encode():
    cls = corpus.repeat3_6_class()
    assert cls.encode(word("101")) == word("101101")
    assert cls.encode(word("110")) == word("110110")


def test_set_code_rejects_duplicate_lengths():
    cls = repetition_class(4)
    other = LengthClass(4, (word("0000"), word("1010")))
    with pytest.raises(DuplicateLength):
        SetCode((cls, other))
    with pytest.raises(ValueError):
        SetCode(())


def test_set_code_lookup_and_dispatch():
    sc = SetCode((corpus.repeat3_6_class(), repetition_class(4)))
    assert sc.lengths == (6, 4)
    assert sc.class_of(4).length == 4
    with pytest.raises(NoSuchLength):
        sc.class_of(5)
    assert sc.contains(word("110110"))
    assert not sc.contains(word("110100"))
    assert not sc.contains(word("11011"))
    assert sc.detect(word("1111"))
    assert not sc.detect(word("100000"))
    assert sc.syndrome(word("111001")) == word("110")
    assert len(sc.all_words()) == 10
    assert word("1111") in sc.word_set()


def test_dual_fixtures():
    for primal, full, restricted in corpus.DUAL_CASES:
        sc = SetCode((LengthClass(len(primal[0]), primal),))
        dual = sc.dual()
        assert set(dual.classes[0].words) == set(full)
        for d in dual.classes[0].words:
            for p in primal:
                assert gf2.dot(d, p) == 0
        assert dual.classes[0].check == gf2.row_basis(primal)
        if restricted is not None:
            cut = sc.dual(restrict_to=2)
            assert set(cut.classes[0].words) == set(restricted)
            assert cut.classes[0].check is None


def test_dual_of_zero_class_is_everything():
    sc = SetCode((LengthClass(4, (word("0000"),)),))
    dual = sc.dual()
    assert len(dual.classes[0].words) == 16
    assert dual.classes[0].check is None


def test_dual_of_full_space_is_zero():
    sc = SetCode((LengthClass(2, tuple(gf2.all_words(2))),))
    dual = sc.dual()
    assert dual.classes[0].words == (word("00"),)


def test_is_repetition():
    sc = SetCode(tuple(repetition_class(n) for n in corpus.REPETITION_LENGTHS))
    assert sc.is_repetition()
    assert not corpus.set_code(corpus.PARITY_CLASSES).is_repetition()


def test_is_parity_check():
    classes = tuple(
        LengthClass(n, ws, check=(gf2.ones(n),)) for n, ws in corpus.PARITY_CLASSES
    )
    assert SetCode(classes).is_parity_check()
    bare = corpus.set_code(corpus.PARITY_CLASSES)
    assert bare.is_parity_check()
    odd = SetCode((LengthClass(3, (word("100"),)),))
    assert not odd.is_parity_check()
    wrong_check = SetCode(
        (LengthClass(6, (word("000000"),), check=corpus.REPEAT3_6_CHECK),)
    )
    assert not wrong_check.is_parity_check()


def test_is_hamming():
    sc = SetCode(
        (
            LengthClass(7, corpus.HAMMING_7_A_WORDS, check=corpus.HAMMING_7_A_CHECK),
            LengthClass(15, corpus.HAMMING_15_WORDS, check=corpus.HAMMING_15_CHECK),
        )
    )
    assert sc.is_hamming()
    other = SetCode(
        (LengthClass(7, corpus.HAMMING_7_B_WORDS, check=corpus.HAMMING_7_B_CHECK),)
    )
    assert other.is_hamming()
    with pytest.raises(MissingParityCheck):
        corpus.set_code(corpus.PARITY_CLASSES).is_hamming()
    assert not SetCode((corpus.repeat3_6_class(),)).is_hamming()


def test_m_weight():
    assert corpus.set_code(corpus.WEIGHT4_CLASSES).m_weight() == 4
    assert corpus.set_code(corpus.WEIGHT5_CLASSES).m_weight() == 5
    assert corpus.set_code(corpus.WEIGHT3_CYCLIC_CLASSES).m_weight() == 3
    assert corpus.set_code(corpus.PARITY_CLASSES).m_weight() is None
    # the shared weight must sit strictly below the least class length
    flat = SetCode((LengthClass(3, (word("111"), word("000"))),))
    assert flat.m_weight() is None


def test_is_cyclic():
    assert corpus.set_code(corpus.WEIGHT3_CYCLIC_CLASSES).is_cyclic()
    assert corpus.set_code(corpus.CYCLIC_GROUP_NOT_REPETITION).is_cyclic()
    fixed = SetCode((LengthClass(5, corpus.CODE_5_3_WORDS),))
    assert not fixed.is_cyclic()


def test_semigroup_equals_group():
    for entries in (
        corpus.SEMIGROUP_CLASSES,
        corpus.GROUP_CLASSES_A,
        corpus.GROUP_CLASSES_B,
        corpus.GROUP_SUBHAMMING,
        corpus.GROUP_BIG,
    ):
        sc = corpus.set_code(entries)
        assert sc.is_semigroup()
        assert sc.is_group() == sc.is_semigroup()
    assert not corpus.set_code(corpus.NOT_CLOSED_CLASSES).is_semigroup()


def test_classify_labels():
    rep = SetCode(tuple(repetition_class(n) for n in corpus.REPETITION_LENGTHS))
    assert rep.classify() == ("set", "repetition", "cyclic", "semigroup", "group")
    grp = corpus.set_code(corpus.GROUP_CLASSES_A)
    assert grp.classify() == ("set", "semigroup", "group")
    crooked = corpus.set_code(corpus.NOT_CLOSED_CLASSES)
    assert crooked.classify() == ("set",)


def test_cyclic_construction_matches_fixture():
    g = corpus.CYCLIC_7_4_GEN_POLY
    assert cyclic_generator_matrix(g, 7) == corpus.CYCLIC_7_4_GENERATOR
    assert cyclic_parity_poly(g, 7) == corpus.CYCLIC_7_4_COFACTOR
    assert cyclic_parity_matrix(g, 7) == corpus.CYCLIC_7_4_CHECK
    cls = cyclic_code(g, 7)
    assert set(cls.words) == set(corpus.CYCLIC_7_4_WORDS)
    assert cls.message_length == 4
    assert cls.is_linear()


def test_cyclic_code_closure_under_rotation():
    cls = cyclic_code(corpus.CYCLIC_7_4_GEN_POLY, 7)
    ws = set(cls.words)
    for w in ws:
        assert gf2.rotate_right(w) in ws


def test_cyclic_rejects_non_divisor():
    with pytest.raises(NotADivisor):
        cyclic_code((1, 1, 1), 7)
    with pytest.raises(NotADivisor):
        cyclic_generator_matrix((1, 0, 0, 0, 0, 0, 0, 1), 7)
