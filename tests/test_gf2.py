"""Word arithmetic, elimination, and polynomial division."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setcodes import gf2
from setcodes.errors import (
    CapExceeded,
    DimensionMismatch,
    DivideByZero,
    LengthMismatch,
    NotADivisor,
)

bits = st.integers(min_value=0, max_value=1)


def words_of(n: int):
    return st.lists(bits, min_size=n, max_size=n).map(tuple)


@st.composite
def same_length(draw, count: int = 2, max_len: int = 10):
    n = draw(st.integers(1, max_len))
    return tuple(draw(words_of(n)) for _ in range(count))


@st.composite
def matrices(draw, max_rows: int = 5, max_cols: int = 6):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    return tuple(draw(words_of(cols)) for _ in range(rows))


polys = st.lists(bits, min_size=1, max_size=8).map(tuple)


def test_word_render_round_trip():
    for text in ("0", "1", "1011", "0000000", "110110"):
        assert gf2.render(gf2.word(text)) == text


def test_word_rejects_junk():
    for bad in ("", "012", "10 1", "abc"):
        with pytest.raises(ValueError):
            gf2.word(bad)


def test_zeros_ones_weight():
    assert gf2.weight(gf2.zeros(6)) == 0
    assert gf2.weight(gf2.ones(6)) == 6
    assert gf2.weight(gf2.word("1011")) == 3


@given(same_length(count=2))
def test_xor_self_inverse(pair):
    a, b = pair
    assert gf2.xor(gf2.xor(a, b), b) == a
    assert gf2.xor(a, a) == gf2.zeros(len(a))


@given(same_length(count=3))
def test_xor_associates_and_commutes(triple):
    a, b, c = triple
    assert gf2.xor(gf2.xor(a, b), c) == gf2.xor(a, gf2.xor(b, c))
    assert gf2.xor(a, b) == gf2.xor(b, a)


@given(same_length(count=2))
def test_distance_is_weight_of_sum(pair):
    a, b = pair
    assert gf2.distance(a, b) == gf2.weight(gf2.xor(a, b))
    assert gf2.distance(a, b) == (gf2.pack(a) ^ gf2.pack(b)).bit_count()
    assert gf2.distance(a, b) == gf2.distance(b, a)
    assert gf2.distance(a, a) == 0


@given(same_length(count=2))
def test_pack_round_trips_and_keeps_word_order(pair):
    a, b = pair
    assert gf2.unpack(gf2.pack(a), len(a)) == a
    assert (gf2.pack(a) < gf2.pack(b)) == (a < b)
    assert gf2.pack(a) >> len(a) - 1 == a[0]


@given(same_length(count=3))
def test_distance_triangle(triple):
    a, b, c = triple
    assert gf2.distance(a, c) <= gf2.distance(a, b) + gf2.distance(b, c)


@given(same_length(count=3))
def test_dot_symmetric_bilinear(triple):
    a, b, c = triple
    assert gf2.dot(a, b) == gf2.dot(b, a)
    assert gf2.dot(gf2.xor(a, b), c) == gf2.dot(a, c) ^ gf2.dot(b, c)


@given(same_length(count=1))
def test_dot_with_self_is_weight_parity(single):
    (a,) = single
    assert gf2.dot(a, a) == gf2.weight(a) % 2


def test_mismatched_lengths_raise():
    with pytest.raises(LengthMismatch):
        gf2.xor((0, 1), (0, 1, 1))
    with pytest.raises(LengthMismatch):
        gf2.distance((0,), (0, 1))
    with pytest.raises(LengthMismatch):
        gf2.dot((0,), (0, 1))


def test_rotate_right_returns_after_n_steps():
    w = gf2.word("1101000")
    cur = gf2.rotate_right(w)
    steps = 1
    while cur != w:
        cur = gf2.rotate_right(cur)
        steps += 1
    assert steps == 7
    assert gf2.rotate_right(gf2.word("0011")) == gf2.word("1001")


def test_matvec_vecmat_against_identity():
    m = gf2.identity(4)
    v = gf2.word("1010")
    assert gf2.matvec(m, v) == v
    assert gf2.vecmat(v, m) == v


def test_matvec_dimension_check():
    with pytest.raises(DimensionMismatch):
        gf2.matvec(((1, 0),), (1, 0, 1))
    with pytest.raises(DimensionMismatch):
        gf2.vecmat((1, 0, 1), ((1, 0), (0, 1)))


def test_transpose_round_trip():
    m = (gf2.word("110"), gf2.word("011"))
    assert gf2.transpose(gf2.transpose(m)) == m
    assert gf2.transpose(()) == ()


@given(matrices())
def test_row_reduce_idempotent(m):
    reduced, pivots = gf2.row_reduce(m)
    assert gf2.row_reduce(reduced) == (reduced, pivots)
    assert len(reduced) == len(pivots)
    assert list(pivots) == sorted(pivots)
    for row, col in zip(reduced, pivots):
        assert row[col] == 1
        for other in reduced:
            if other is not row:
                assert other[col] == 0


@given(matrices())
def test_rank_plus_nullity_is_column_count(m):
    assert gf2.rank(m) + len(gf2.nullspace_basis(m)) == len(m[0])


@given(matrices())
def test_nullspace_vectors_annihilate(m):
    for v in gf2.nullspace_basis(m):
        assert not any(gf2.matvec(m, v))


def test_nullspace_of_empty_matrix_needs_width():
    assert gf2.nullspace_basis((), ncols=3) == gf2.identity(3)
    with pytest.raises(DimensionMismatch):
        gf2.nullspace_basis(())


@given(matrices(max_rows=4, max_cols=6))
def test_span_counts_and_contains_rows(m):
    basis = gf2.row_basis(m)
    sp = gf2.span(basis)
    if basis:
        assert len(sp) == 1 << len(basis)
        for row in m:
            assert row in sp
    else:
        assert sp == frozenset()


def test_span_and_all_words_respect_cap(monkeypatch):
    with pytest.raises(CapExceeded):
        gf2.span(gf2.identity(25))
    with pytest.raises(CapExceeded):
        gf2.all_words(25)
    monkeypatch.setattr(gf2, "SPAN_CAP", 3)
    assert gf2.span(gf2.identity(3)) == frozenset(gf2.all_words(3))
    with pytest.raises(CapExceeded):
        gf2.span(gf2.identity(4))
    with pytest.raises(CapExceeded):
        gf2.all_words(4)


def test_all_words_orders_lexicographically():
    ws = gf2.all_words(3)
    assert len(ws) == 8
    assert ws[0] == (0, 0, 0)
    assert ws[-1] == (1, 1, 1)
    assert ws == sorted(ws)


def test_poly_trim():
    assert gf2.poly_trim((1, 0, 1, 0, 0)) == (1, 0, 1)
    assert gf2.poly_trim((0, 0)) == ()
    assert gf2.poly_trim(()) == ()


@given(polys, polys)
def test_poly_divmod_reconstructs(num, den):
    if not gf2.poly_trim(den):
        with pytest.raises(DivideByZero):
            gf2.poly_divmod(num, den)
        return
    quot, rem = gf2.poly_divmod(num, den)
    prod = gf2.poly_mul(quot, den)
    width = max(len(prod), len(rem), 1)
    total = tuple(
        (prod[i] if i < len(prod) else 0) ^ (rem[i] if i < len(rem) else 0)
        for i in range(width)
    )
    assert gf2.poly_trim(total) == gf2.poly_trim(num)
    assert len(rem) < len(gf2.poly_trim(den)) or not rem


def test_binomial_plus_one():
    assert gf2.binomial_plus_one(7) == (1, 0, 0, 0, 0, 0, 0, 1)
    assert gf2.binomial_plus_one(1) == (1, 1)
    with pytest.raises(ValueError):
        gf2.binomial_plus_one(0)


def test_divisors_of_degree_seven_binomial():
    assert gf2.divides_x_n_plus_1((1, 0, 1, 1), 7)
    assert gf2.divides_x_n_plus_1((1, 1, 0, 1), 7)
    assert gf2.divides_x_n_plus_1((1, 1), 7)
    assert not gf2.divides_x_n_plus_1((1, 1, 1), 7)
    assert not gf2.divides_x_n_plus_1((), 7)


def test_quotient_is_the_cofactor():
    h = gf2.quotient_mod_x_n_plus_1((1, 0, 1, 1), 7)
    assert h == (1, 0, 1, 1, 1)
    assert gf2.poly_mul((1, 0, 1, 1), h) == gf2.binomial_plus_one(7)
    with pytest.raises(NotADivisor):
        gf2.quotient_mod_x_n_plus_1((1, 1, 1), 7)
