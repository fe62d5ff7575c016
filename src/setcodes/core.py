"""Set codes: collections of binary words that may mix several lengths.

A set code is organized as one class per word length. A class may carry an
optional parity check matrix and an optional message length k. Nothing here
assumes the words form a subspace; the predicates that need closure test for
it explicitly.

A class keeps its words and check columns packed into ints (see gf2) for its
hot paths; every public value stays a tuple.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import gf2
from .errors import (
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
from .gf2 import Matrix, Word


# The mod-2 pairing of two words of equal length. It is bilinear and
# symmetric, but a nonzero word of even weight pairs to zero with itself, so
# it is not positive definite.
pseudo_inner = gf2.dot


def is_standard_form(h: Matrix) -> bool:
    """True when h has the block shape (A | I)."""
    if not h:
        return False
    r = len(h)
    n = len(h[0])
    if n < r:
        return False
    for i, row in enumerate(h):
        if len(row) != n:
            return False
        for j in range(r):
            if row[n - r + j] != (1 if i == j else 0):
                return False
    return True


def generator_from_parity(h: Matrix) -> Matrix:
    """Canonical generator (I | A^T) for a standard-form check (A | I)."""
    if not is_standard_form(h):
        raise NotStandardForm("parity check must look like (A | I)")
    r = len(h)
    n = len(h[0])
    k = n - r
    a_t = gf2.transpose(tuple(row[:k] for row in h))
    return tuple(
        tuple(1 if i == j else 0 for j in range(k)) + a_t[i] for i in range(k)
    )


def encode(message: Word, generator: Matrix) -> Word:
    """Encode a message word as message . G."""
    return gf2.vecmat(message, generator)


def min_distance(words) -> int:
    """Least Hamming distance over distinct pairs; needs at least two words."""
    ws = sorted(set(words))
    if len(ws) < 2:
        raise ValueError("minimum distance needs at least two words")
    best = None
    for i, a in enumerate(ws):
        for b in ws[i + 1 :]:
            d = gf2.distance(a, b)
            if best is None or d < best:
                best = d
    return best


def correctable_errors(d: int) -> int:
    """Guaranteed correction radius for minimum distance d."""
    return (d - 1) // 2


def repetition_check(n: int) -> Matrix | None:
    """The (n-1) x n repetition check: first column all ones, identity after.

    Length 1 has nothing to check, so it gets None.
    """
    if n < 2:
        return None
    return tuple(
        (1,) + tuple(1 if j == i else 0 for j in range(n - 1)) for i in range(n - 1)
    )


@dataclass(frozen=True)
class LengthClass:
    """All the words of one length, with an optional check matrix and k.

    Derived, not compared: _word_of maps each packed word, in increasing
    order, to its tuple; _array is the standard array decoding keeps here.
    """

    length: int
    words: tuple[Word, ...]
    check: Matrix | None = None
    message_length: int | None = None
    _word_set: frozenset[Word] = field(init=False, repr=False, compare=False)
    _word_of: dict[int, Word] = field(init=False, repr=False, compare=False)
    _columns: tuple[int, ...] | None = field(init=False, repr=False, compare=False)
    _array: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("length must be positive")
        word_set = frozenset(tuple(w) for w in self.words)
        canon = tuple(sorted(word_set))
        if not canon:
            raise ValueError("a class needs at least one word")
        for w in canon:
            if len(w) != self.length:
                raise ValueError(
                    f"word {gf2.render(w)} does not have length {self.length}"
                )
            if not gf2.is_binary(w):
                raise ValueError("words must be binary")
        object.__setattr__(self, "words", canon)
        object.__setattr__(self, "_word_set", word_set)
        object.__setattr__(self, "_word_of", {gf2.pack(w): w for w in canon})
        columns = None
        if self.check is not None:
            check = tuple(tuple(r) for r in self.check)
            for row in check:
                if len(row) != self.length:
                    raise ValueError("check matrix width must equal the class length")
            object.__setattr__(self, "check", check)
            columns = gf2.column_masks(check)
            for w in canon:
                if gf2.syndrome(columns, w):
                    raise ParityViolation(
                        f"word {gf2.render(w)} fails the class parity check"
                    )
        object.__setattr__(self, "_columns", columns)
        if self.message_length is not None and not (
            1 <= self.message_length < self.length
        ):
            raise ValueError("message length must sit strictly inside the word length")

    def contains(self, w: Word) -> bool:
        return tuple(w) in self._word_set

    def _syndrome(self, received: Word) -> int:
        if self._columns is None:
            raise NoParityCheck(f"length {self.length} class has no parity check")
        if len(received) != self.length:
            raise DimensionMismatch(f"{len(received)} bits for {self.length} columns")
        return gf2.syndrome(self._columns, received)

    def syndrome(self, received: Word) -> Word:
        return gf2.unpack(self._syndrome(gf2.as_word(received)), len(self.check))

    def detect(self, received: Word) -> bool:
        """True when no error is flagged.

        Uses the parity check when one is attached, membership otherwise.
        """
        if self._columns is not None:
            return not self._syndrome(received)
        return self.contains(received)

    def is_linear(self) -> bool:
        return gf2.subspace_basis(self._word_set) is not None

    def basis(self) -> Matrix:
        """Reduced basis of the words; they must form a subspace."""
        basis = gf2.subspace_basis(self._word_set)
        if basis is None:
            raise NotLinear("basis needs words closed under addition with zero")
        return basis

    def generator(self) -> Matrix:
        if self.check is None:
            raise NoParityCheck(f"length {self.length} class has no parity check")
        return generator_from_parity(self.check)

    def encode(self, message: Word) -> Word:
        return encode(message, self.generator())

    def min_distance(self) -> int:
        return min_distance(self.words)

    def weights(self) -> tuple[int, ...]:
        return tuple(gf2.weight(w) for w in self.words)


def repetition_class(n: int) -> LengthClass:
    """The two-word repetition class of length n with its canonical check."""
    return LengthClass(
        length=n,
        words=(gf2.zeros(n), gf2.ones(n)),
        check=repetition_check(n),
        message_length=1 if n > 1 else None,
    )


@dataclass(frozen=True)
class SetCode:
    """An ordered collection of length classes, at most one per length.

    sorted_words holds every word of every class in increasing order; it is
    derived once, here, for callers that draw from the whole code.
    """

    classes: tuple[LengthClass, ...]
    sorted_words: tuple[Word, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        classes = tuple(self.classes)
        if not classes:
            raise ValueError("a set code needs at least one class")
        seen: set[int] = set()
        for cls in classes:
            if cls.length in seen:
                raise DuplicateLength(f"two classes of length {cls.length}")
            seen.add(cls.length)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(
            self, "sorted_words", tuple(sorted(w for c in classes for w in c.words))
        )

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(cls.length for cls in self.classes)

    def class_of(self, length: int) -> LengthClass:
        for cls in self.classes:
            if cls.length == length:
                return cls
        raise NoSuchLength(f"no class of length {length}")

    def all_words(self) -> tuple[Word, ...]:
        out: list[Word] = []
        for cls in self.classes:
            out.extend(cls.words)
        return tuple(out)

    def word_set(self) -> frozenset[Word]:
        return frozenset(self.all_words())

    def contains(self, w: Word) -> bool:
        try:
            return self.class_of(len(w)).contains(w)
        except NoSuchLength:
            return False

    def detect(self, received: Word) -> bool:
        return self.class_of(len(received)).detect(received)

    def syndrome(self, received: Word) -> Word:
        return self.class_of(len(received)).syndrome(received)

    def dual(self, restrict_to: int | None = None) -> SetCode:
        """Componentwise orthogonal complement, one class per input class.

        The full dual of a class is every same-length word orthogonal to all
        of its words; that is always a subspace, and the returned class
        carries a basis of the input words as its parity check. With
        restrict_to=m only the weight-m dual words are kept, together with
        the zero word, and no check is attached since the survivors are not
        closed in general.
        """
        out = []
        for cls in self.classes:
            primal = gf2.row_basis(cls.words)
            null = gf2.nullspace_basis(primal, ncols=cls.length)
            # A full-rank class leaves only the zero word orthogonal to it.
            dual_words = sorted(gf2.span(null)) if null else [gf2.zeros(cls.length)]
            if restrict_to is None:
                out.append(
                    LengthClass(
                        length=cls.length,
                        words=tuple(dual_words),
                        check=primal if primal else None,
                    )
                )
            else:
                kept = [w for w in dual_words if gf2.weight(w) == restrict_to]
                kept.append(gf2.zeros(cls.length))
                out.append(LengthClass(length=cls.length, words=tuple(kept)))
        return SetCode(tuple(out))

    def is_repetition(self) -> bool:
        """Every class is exactly the all-zeros and all-ones pair."""
        return all(
            set(cls.words) == {gf2.zeros(cls.length), gf2.ones(cls.length)}
            for cls in self.classes
        )

    def is_parity_check(self) -> bool:
        """Even-weight words only, and any attached check is the all-ones row."""
        for cls in self.classes:
            if any(gf2.weight(w) & 1 for w in cls.words):
                return False
            if cls.check is not None and cls.check != (gf2.ones(cls.length),):
                return False
        return True

    def is_hamming(self) -> bool:
        """Every class check is a binary Hamming matrix.

        A class without a check cannot be judged, so that raises
        MissingParityCheck instead of answering.
        """
        for cls in self.classes:
            if cls.check is None:
                raise MissingParityCheck(
                    f"length {cls.length} class has no parity check to judge"
                )
            m = len(cls.check)
            if cls.length != (1 << m) - 1:
                return False
            cols = set(gf2.transpose(cls.check))
            if len(cols) != cls.length or gf2.zeros(m) in cols:
                return False
        return True

    def m_weight(self) -> int | None:
        """The common weight of all nonzero words, when one exists.

        The shared weight must sit strictly below the least class length;
        otherwise, or when weights differ, returns None.
        """
        weights = {
            gf2.weight(w)
            for cls in self.classes
            for w in cls.words
            if any(w)
        }
        if len(weights) != 1:
            return None
        m = weights.pop()
        if m >= min(self.lengths):
            return None
        return m

    def is_cyclic(self) -> bool:
        """Every class is closed under cyclic shifts."""
        for cls in self.classes:
            ws = set(cls.words)
            if any(gf2.rotate_right(w) not in ws for w in ws):
                return False
        return True

    def is_semigroup(self) -> bool:
        """Every class contains zero and is closed under addition.

        Over {0, 1} each element is its own inverse, so the semigroup and
        group conditions coincide.
        """
        return all(cls.is_linear() for cls in self.classes)

    def is_group(self) -> bool:
        return self.is_semigroup()

    def classify(self) -> tuple[str, ...]:
        """Labels that apply to this code, most specific structure last."""
        labels = ["set"]
        if self.is_repetition():
            labels.append("repetition")
        if self.is_parity_check():
            labels.append("parity check")
        try:
            if self.is_hamming():
                labels.append("hamming")
        except MissingParityCheck:
            pass
        m = self.m_weight()
        if m is not None:
            labels.append(f"{m}-weight")
        if self.is_cyclic():
            labels.append("cyclic")
        if self.is_semigroup():
            labels.append("semigroup")
            labels.append("group")
        return tuple(labels)


def cyclic_generator_matrix(g: tuple[int, ...], n: int) -> Matrix:
    """Generator rows are g shifted across n columns, one shift per row."""
    g = gf2.poly_trim(g)
    if not gf2.divides_x_n_plus_1(g, n):
        raise NotADivisor(f"generator polynomial must divide x**{n} + 1")
    k = n - (len(g) - 1)
    return tuple(
        (0,) * i + tuple(g) + (0,) * (k - 1 - i) for i in range(k)
    )


def cyclic_parity_poly(g: tuple[int, ...], n: int) -> tuple[int, ...]:
    return gf2.quotient_mod_x_n_plus_1(g, n)


def cyclic_parity_matrix(g: tuple[int, ...], n: int) -> Matrix:
    """Check rows are the reversed cofactor shifted across n columns."""
    h = cyclic_parity_poly(g, n)
    m = n - (len(h) - 1)
    rev = tuple(reversed(h))
    return tuple(
        (0,) * (m - 1 - j) + rev + (0,) * j for j in range(m)
    )


def cyclic_code(g: tuple[int, ...], n: int) -> LengthClass:
    """The length-n cyclic class generated by polynomial g."""
    gen = cyclic_generator_matrix(g, n)
    check = cyclic_parity_matrix(g, n)
    words = sorted(gf2.span(gen))
    return LengthClass(
        length=n,
        words=tuple(words),
        check=check,
        message_length=len(gen) if len(gen) < n else None,
    )
