"""Nearest-neighbour, standard-array, and projection decoding."""
from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from setcodes import gf2
from setcodes.core import LengthClass, cyclic_code, repetition_class
from setcodes.decoding import (
    DecodeOutcome,
    build_standard_array,
    clear_array_cache,
    coset_decode,
    nn_decode,
    pba_decode,
    pba_decode_with_retry,
    standard_array,
)
from setcodes.errors import (
    CapExceeded,
    EmptyBasis,
    LengthMismatch,
    NotLinear,
    SetCodeError,
    TieUnresolvable,
)
from setcodes.gf2 import word
from test_core import word_sets


def test_nn_accepts_members():
    cls = LengthClass(6, corpus.REPEAT3_6_WORDS)
    out = nn_decode(cls, word("111111"))
    assert out.status == "Accepted"
    assert out.word == word("111111")
    assert out.method == "nn"


def test_nn_message_tie_break():
    cls = LengthClass(7, corpus.NN_TRIO_WORDS, message_length=4)
    out = nn_decode(cls, corpus.NN_TRIO_RECEIVED)
    assert out.status == "Corrected"
    assert out.word == corpus.NN_TRIO_EXPECTED
    assert any("message tie break over 4 symbols" in line for line in out.trace)


def test_nn_tie_without_message_length():
    cls = LengthClass(7, corpus.NN_TRIO_WORDS)
    with pytest.raises(TieUnresolvable):
        nn_decode(cls, corpus.NN_TRIO_RECEIVED)


def test_nn_residual_tie_keeps_smallest():
    cls = LengthClass(4, (word("0011"), word("1100")), message_length=2)
    out = nn_decode(cls, word("0110"))
    assert out.word == word("0011")
    assert any("ambiguous among 2, smallest kept" in line for line in out.trace)


def two_pass_nn(cls, received):
    """Reference nearest neighbour: each candidate list takes two scans."""
    if received in set(cls.words):
        return DecodeOutcome("Accepted", received, "nn")
    best = min(gf2.distance(received, w) for w in cls.words)
    candidates = [w for w in cls.words if gf2.distance(received, w) == best]
    trace = [f"distance {best}"]
    if len(candidates) > 1:
        k = cls.message_length
        if k is None:
            raise TieUnresolvable("tie")
        msg_best = min(gf2.distance(received[:k], w[:k]) for w in candidates)
        candidates = [
            w for w in candidates if gf2.distance(received[:k], w[:k]) == msg_best
        ]
        trace.append(f"message tie break over {k} symbols, distance {msg_best}")
        if len(candidates) > 1:
            trace.append(f"ambiguous among {len(candidates)}, smallest kept")
    return DecodeOutcome("Corrected", min(candidates), "nn", tuple(trace))


@pytest.mark.parametrize(
    "cls",
    [cyclic_code((1, 1, 0, 1), 7), corpus.repeat3_6_class(), repetition_class(6)],
    ids=["cyclic_7_4", "repeat3_6", "repetition_6"],
)
def test_nn_matches_two_pass_reference(cls):
    for received in gf2.all_words(cls.length):
        assert nn_decode(cls, received) == two_pass_nn(cls, received)


def test_nn_reference_ties_without_message_length():
    cls = LengthClass(6, corpus.REPEAT3_6_WORDS)
    ties = 0
    for received in gf2.all_words(6):
        try:
            want = two_pass_nn(cls, received)
        except TieUnresolvable:
            ties += 1
            with pytest.raises(TieUnresolvable):
                nn_decode(cls, received)
        else:
            assert nn_decode(cls, received) == want
    assert ties > 0


BCH_15_7_POLY = (1, 0, 0, 0, 1, 0, 1, 1, 1)  # 1 + x^4 + x^6 + x^7 + x^8

# sha256 over every outcome (or error type) of every decoder on every received
# word of the classes in _pinned_decodes, taken from the tuple-based decoders,
# so any change to a decoded word, status or trace shows here.
PINNED_DECODE_DIGEST = "bcf367b2c2e5058512aa5711b2bd8f95a5c4e3ed79441e12633425f17500da97"


def _pinned_decodes() -> str:
    classes = (
        cyclic_code(BCH_15_7_POLY, 15),
        cyclic_code((1, 1, 0, 1), 7),
        corpus.repeat3_6_class(),
        LengthClass(7, corpus.NN_TRIO_WORDS, message_length=4),
        LengthClass(7, corpus.NN_TRIO_WORDS),
    )
    digest = hashlib.sha256()
    for cls in classes:
        try:
            basis = cls.basis()
        except NotLinear:
            basis = None  # pba_decode_with_retry(w, cls.basis()) raises NotLinear
        for received in gf2.all_words(cls.length):
            for decode in (
                lambda w: nn_decode(cls, w),
                lambda w: coset_decode(cls, w),
                lambda w: pba_decode_with_retry(w, basis) if basis else cls.basis(),
            ):
                try:
                    out = decode(received)
                except SetCodeError as exc:
                    line = type(exc).__name__
                else:
                    line = repr((out.status, out.word, out.method, out.trace))
                digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_every_decode_is_pinned():
    assert _pinned_decodes() == PINNED_DECODE_DIGEST


def matvec_lookup(arr, received):
    """Reference coset decode: the leader of the tuple syndrome from matvec."""
    leader = arr.leaders[gf2.matvec(arr.check, received)]
    if not any(leader):
        return DecodeOutcome("Accepted", received, "coset")
    trace = (f"leader {gf2.render(leader)}",)
    return DecodeOutcome("Corrected", gf2.xor(received, leader), "coset", trace)


def brute_force_leaders(arr):
    """Each coset's least weight member, the lexicographically largest among
    equals, keyed by the matvec syndrome."""
    cosets = {}
    for w in gf2.all_words(arr.length):
        cosets.setdefault(gf2.matvec(arr.check, w), []).append(w)
    return {
        syn: max(members, key=lambda w: (-gf2.weight(w), w))
        for syn, members in cosets.items()
    }


@settings(deadline=None)
@given(word_sets(max_len=8), st.data())
def test_packed_decoders_match_tuple_references(ws, data):
    n = len(ws[0])
    k = data.draw(st.none() | st.integers(1, n - 1)) if n > 1 else None
    cls = LengthClass(n, ws, message_length=k)
    arr = build_standard_array(ws) if cls.is_linear() else None
    if arr is not None:
        assert arr.leaders == brute_force_leaders(arr)
    for received in gf2.all_words(n):
        try:
            want = two_pass_nn(cls, received)
        except TieUnresolvable:
            with pytest.raises(TieUnresolvable):
                nn_decode(cls, received)
        else:
            assert nn_decode(cls, received) == want
        if arr is not None:
            assert arr.decode(received) == matvec_lookup(arr, received)


HAMMING_7_4 = cyclic_code((1, 1, 0, 1), 7)


@pytest.mark.parametrize(
    "decode",
    [
        lambda w: nn_decode(HAMMING_7_4, w),
        lambda w: coset_decode(HAMMING_7_4, w),
        lambda w: pba_decode(w, HAMMING_7_4.basis()),
        HAMMING_7_4.syndrome,
    ],
    ids=["nn", "coset", "pba", "syndrome"],
)
def test_decoders_reject_non_binary_words(decode):
    with pytest.raises(ValueError, match="words must be binary"):
        decode((2, 0, 0, 0, 0, 0, 1))


def test_nn_length_mismatch():
    cls = LengthClass(6, corpus.REPEAT3_6_WORDS)
    with pytest.raises(LengthMismatch):
        nn_decode(cls, word("11111"))


def test_standard_array_shape():
    arr = build_standard_array(corpus.CODE_5_3_WORDS)
    assert arr.coset_count == 4
    assert arr.coset_size == 8
    assert set(arr.leaders.values()) == set(corpus.CODE_5_3_LEADERS)
    assert arr.leader_weights() == (0, 1, 1, 1)


def test_standard_array_partitions_the_space():
    arr = build_standard_array(corpus.CODE_5_3_WORDS)
    seen: set[tuple[int, ...]] = set()
    total = 0
    for members in arr.cosets.values():
        assert len(members) == 8
        seen.update(members)
        total += len(members)
    assert total == 32
    assert seen == set(gf2.all_words(5))


def test_standard_array_decode():
    arr = build_standard_array(corpus.CODE_5_3_WORDS)
    out = arr.decode(word("11110"))
    assert out.status == "Corrected"
    assert out.word == word("11010")
    member = arr.decode(word("11010"))
    assert member.status == "Accepted"
    with pytest.raises(LengthMismatch):
        arr.decode(word("1111"))


def test_repeat_code_leader_weights():
    arr = build_standard_array(corpus.REPEAT3_6_WORDS)
    assert arr.leader_weights() == (0, 1, 1, 1, 2, 2, 2, 3)


def test_repeat_code_pinned_decodes():
    arr = build_standard_array(corpus.REPEAT3_6_WORDS)
    for received, wanted in corpus.COSET_FIX_REPEAT3:
        out = arr.decode(word(received))
        assert out.word == word(wanted)
    out = arr.decode(word("111110"))
    assert any("leader 001000" in line for line in out.trace)


def test_seven_bit_pinned_decode():
    code_words = sorted(gf2.span(gf2.nullspace_basis(corpus.COSET_FIX_7_CHECK)))
    arr = build_standard_array(code_words)
    for received, wanted in corpus.COSET_FIX_7:
        out = arr.decode(word(received))
        assert out.status == "Corrected"
        assert out.word == word(wanted)


def test_array_cache_round_trip():
    clear_array_cache()
    first = standard_array(corpus.CODE_5_3_WORDS)
    again = standard_array(tuple(reversed(corpus.CODE_5_3_WORDS)))
    assert first is again
    clear_array_cache()
    fresh = standard_array(corpus.CODE_5_3_WORDS)
    assert fresh is not first
    clear_array_cache()


def test_standard_array_requires_linearity():
    with pytest.raises(NotLinear):
        build_standard_array((word("01"), word("10")))
    with pytest.raises(NotLinear):
        build_standard_array((word("000"), word("001"), word("010")))


def test_standard_array_cap():
    with pytest.raises(CapExceeded):
        build_standard_array([gf2.zeros(25), gf2.ones(25)])


def test_expected_correction_rate():
    arr = build_standard_array(corpus.REPEAT3_6_WORDS)
    assert arr.expected_correction_rate(0.02) == pytest.approx(
        (1 - 0.02) ** 3, abs=1e-12
    )
    assert arr.expected_correction_rate(0.0) == 1.0


def test_coset_decode_is_minimum_distance():
    arr = build_standard_array(corpus.REPEAT3_6_WORDS)
    members = set(corpus.REPEAT3_6_WORDS)
    for received in gf2.all_words(6):
        out = arr.decode(received)
        best = min(gf2.distance(received, c) for c in members)
        assert gf2.distance(received, out.word) == best
        assert out.word in members


def test_coset_decode_uses_class_words():
    out = coset_decode(corpus.repeat3_6_class(), word("111001"))
    assert out.status == "Corrected"
    assert out.word == word("001001")
    assert any("leader 110000" in line for line in out.trace)


def test_pba_fixtures():
    out = pba_decode(corpus.PROJ_8_RECEIVED, corpus.PROJ_8_BASIS)
    assert out.status == "Corrected"
    assert out.word == corpus.PROJ_8_EXPECTED
    assert out.trace == ("summed 4 basis words",)
    out = pba_decode(corpus.PROJ_4_RECEIVED, corpus.PROJ_4_BASIS)
    assert out.status == "Corrected"
    assert out.word == corpus.PROJ_4_EXPECTED
    assert out.trace == ("summed 1 basis words",)


def test_pba_accepts_fixed_point():
    out = pba_decode(word("11"), (word("10"), word("01")))
    assert out.status == "Accepted"
    assert out.word == word("11")


def test_pba_fails_on_orthogonal_input():
    # (1010) pairs to zero with both basis words, so the projection of a
    # nonzero word collapses and nothing sensible can be returned.
    out = pba_decode(word("1010"), corpus.PROJ_4_BASIS)
    assert out.status == "Failed"
    assert out.word is None
    assert not out.ok


def test_pba_retry_is_futile_for_independent_bases():
    out = pba_decode_with_retry(word("001"), (word("100"), word("010")))
    assert out.status == "Failed"
    assert any("gave up after 8" in line for line in out.trace)


def test_pba_retry_can_rescue_dependent_bases():
    out = pba_decode_with_retry(word("10"), (word("11"), word("11")))
    assert out.status == "Corrected"
    assert out.word == word("11")
    assert any("succeeded on attempt 2" in line for line in out.trace)


def test_pba_input_validation():
    with pytest.raises(EmptyBasis):
        pba_decode(word("11"), ())
    with pytest.raises(LengthMismatch):
        pba_decode(word("111"), corpus.PROJ_4_BASIS)
    with pytest.raises(LengthMismatch):
        pba_decode(word("1011"), (word("101"), word("1011")))
