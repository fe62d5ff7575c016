"""Binary words and GF(2) matrix arithmetic.

Words are tuples of 0/1 ints. Coordinate 1 of the written notation is the
leftmost entry, so tuple index i holds coordinate i + 1. Matrices are tuples
of row tuples. Everything is immutable so words can be dict keys and set
members.

Hot paths inside the package also read words packed into ints (pack), with
coordinate 1 the most significant bit so int order is tuple order, and check
matrices as column masks; every value the package hands out stays a tuple.

Polynomials over GF(2) are coefficient tuples with index i holding the
coefficient of x**i (lowest degree first).
"""
from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import and_, ne
from operator import xor as _add_bits

from .errors import (
    CapExceeded,
    DimensionMismatch,
    DivideByZero,
    LengthMismatch,
    NotADivisor,
)

Word = tuple[int, ...]
Matrix = tuple[Word, ...]

# Enumerations of 2**r words refuse to run past this many free dimensions.
SPAN_CAP = 24


def word(bits: str) -> Word:
    """Parse a bitstring like '1011' into a word."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"not a bitstring: {bits!r}")
    return tuple(int(c) for c in bits)


_BITS = frozenset((0, 1))


def as_word(w) -> Word:
    """w as a tuple; ValueError unless each entry equals 0 or 1, as bools do."""
    w = tuple(w)
    if not _BITS.issuperset(w):
        raise ValueError("words must be binary")
    return w


def is_binary(w) -> bool:
    """Every entry of w is the int 0 or 1; bools and floats are not bits."""
    return _BITS.issuperset(w) and {int}.issuperset(map(type, w))


def render(w: Word) -> str:
    """Render a word back to a bitstring."""
    return "".join(str(b) for b in w)


def pack(w: Word) -> int:
    """The word as an int, coordinate 1 in the most significant of len(w) bits."""
    x = 0
    for b in w:
        x = x << 1 | b
    return x


def unpack(x: int, n: int) -> Word:
    """The length-n word whose packed int is x; the inverse of pack."""
    return tuple(x >> (n - 1 - i) & 1 for i in range(n))


def zeros(n: int) -> Word:
    return (0,) * n


def ones(n: int) -> Word:
    return (1,) * n


def weight(w: Word) -> int:
    """Hamming weight: the number of nonzero coordinates."""
    return sum(w)


def xor(a: Word, b: Word) -> Word:
    """Coordinatewise sum over GF(2)."""
    if len(a) != len(b):
        raise LengthMismatch(f"cannot add words of length {len(a)} and {len(b)}")
    return tuple(map(_add_bits, a, b))


def distance(a: Word, b: Word) -> int:
    """Hamming distance between two words of equal length."""
    if len(a) != len(b):
        raise LengthMismatch(f"no distance between lengths {len(a)} and {len(b)}")
    return sum(map(ne, a, b))


def dot(a: Word, b: Word) -> int:
    """Mod-2 dot product of two words of equal length."""
    if len(a) != len(b):
        raise LengthMismatch(f"no dot product between lengths {len(a)} and {len(b)}")
    return sum(map(and_, a, b)) & 1


def rotate_right(w: Word) -> Word:
    """Cyclic shift moving the last coordinate to the front."""
    if not w:
        return w
    return (w[-1],) + w[:-1]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def matvec(m: Matrix, v: Word) -> Word:
    """Multiply a matrix by a column vector; the result has one entry per row."""
    for row in m:
        if len(row) != len(v):
            raise DimensionMismatch(
                f"matrix row has {len(row)} columns, vector has {len(v)}"
            )
    return tuple(sum(map(and_, row, v)) & 1 for row in m)


def column_masks(m: Matrix) -> tuple[int, ...]:
    """Each column of m packed into an int, row 1 most significant."""
    return tuple(map(pack, zip(*m)))


def syndrome(columns: tuple[int, ...], v: Word) -> int:
    """pack(matvec(m, v)) from the column masks of m; v must fit m."""
    return reduce(_add_bits, compress(columns, v), 0)


def vecmat(v: Word, m: Matrix) -> Word:
    """Multiply a row vector by a matrix; v selects which rows get summed."""
    if len(v) != len(m):
        raise DimensionMismatch(f"vector has {len(v)} entries, matrix has {len(m)} rows")
    if not m:
        raise DimensionMismatch("cannot multiply into a matrix with no rows")
    out = zeros(len(m[0]))
    for bit, row in zip(v, m):
        if bit:
            out = xor(out, row)
    return out


def row_reduce(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form over GF(2).

    Returns the nonzero reduced rows and the pivot column indices, one per
    returned row, in increasing order.
    """
    rows = [list(r) for r in m]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise DimensionMismatch("ragged matrix")
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    rank_ = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank_, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        for r in range(len(rows)):
            if r != rank_ and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank_])]
        pivots.append(col)
        rank_ += 1
        if rank_ == len(rows):
            break
    return tuple(tuple(r) for r in rows[:rank_]), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(row_reduce(m)[0])


def row_basis(rows: Matrix) -> Matrix:
    """Basis of the row space, in reduced echelon form."""
    return row_reduce(rows)[0]


def subspace_basis(words) -> Matrix | None:
    """Reduced basis of the distinct words when they form a subspace, else None.

    The words lie in their own span, which holds 2**rank words, so they are
    the whole span (zero included) exactly when there are 2**rank of them.
    """
    ws = set(words)
    basis = row_basis(tuple(ws))
    return basis if len(ws) == 1 << len(basis) else None


def nullspace_basis(m: Matrix, ncols: int | None = None) -> Matrix:
    """Basis of the right nullspace of m.

    ncols is required when m has no rows, since the width cannot be read off
    an empty matrix.
    """
    if not m:
        if ncols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        return identity(ncols)
    reduced, pivots = row_reduce(m)
    n = len(m[0])
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [0] * n
        vec[free] = 1
        for row, col in zip(reduced, pivots):
            if row[free]:
                vec[col] = 1
        basis.append(tuple(vec))
    return tuple(basis)


def span(basis: Matrix) -> frozenset[Word]:
    """All GF(2) combinations of the basis rows.

    Raises CapExceeded rather than materializing more than 2**SPAN_CAP words.
    """
    if len(basis) > SPAN_CAP:
        raise CapExceeded(f"span of {len(basis)} rows exceeds 2**{SPAN_CAP} words")
    if not basis:
        return frozenset()
    n = len(basis[0])
    out = set()
    for mask in range(1 << len(basis)):
        w = zeros(n)
        for i, row in enumerate(basis):
            if mask >> i & 1:
                w = xor(w, row)
        out.add(w)
    return frozenset(out)


def all_words(n: int) -> list[Word]:
    """Every word of length n, in increasing lexicographic order."""
    if n > SPAN_CAP:
        raise CapExceeded(f"2**{n} words exceeds 2**{SPAN_CAP}")
    return [tuple(x >> (n - 1 - i) & 1 for i in range(n)) for x in range(1 << n)]


def poly_trim(p: tuple[int, ...]) -> tuple[int, ...]:
    """Drop trailing zero coefficients; the zero polynomial trims to ()."""
    d = len(p)
    while d and not p[d - 1]:
        d -= 1
    return tuple(p[:d])


def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    a, b = poly_trim(a), poly_trim(b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] ^= cb
    return tuple(out)


def poly_divmod(
    num: tuple[int, ...], den: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Long division of polynomials over GF(2): returns (quotient, remainder)."""
    den = poly_trim(den)
    if not den:
        raise DivideByZero("polynomial division by zero")
    rem = list(poly_trim(num))
    dd = len(den) - 1
    if len(rem) - 1 < dd:
        return (), tuple(rem)
    quot = [0] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        if rem[i]:
            quot[i - dd] = 1
            for j, c in enumerate(den):
                rem[i - dd + j] ^= c
    return poly_trim(tuple(quot)), poly_trim(tuple(rem))


def binomial_plus_one(n: int) -> tuple[int, ...]:
    """The polynomial x**n + 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    return (1,) + (0,) * (n - 1) + (1,)


def divides_x_n_plus_1(g: tuple[int, ...], n: int) -> bool:
    g = poly_trim(g)
    if not g or len(g) - 1 >= n:
        return False
    _, rem = poly_divmod(binomial_plus_one(n), g)
    return not rem


def quotient_mod_x_n_plus_1(g: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The cofactor h with g * h = x**n + 1, or NotADivisor."""
    g = poly_trim(g)
    if not divides_x_n_plus_1(g, n):
        raise NotADivisor(f"polynomial does not divide x**{n} + 1")
    quot, _ = poly_divmod(binomial_plus_one(n), g)
    return quot
