"""Three decoders over length classes.

Nearest neighbour works on any class. Coset decoding builds a standard array
and needs the words to form a subspace. Projection decoding sums basis words
against the mod-2 pairing and can fail outright; callers that want a second
chance get a bounded deterministic retry. METHODS names the three, and
prepare checks up front what a method needs of a class.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import gf2
from .core import LengthClass
from .errors import (
    EmptyBasis,
    LengthMismatch,
    NotLinear,
    TieUnresolvable,
)
from .gf2 import Matrix, Word

ACCEPTED = "Accepted"
CORRECTED = "Corrected"
FAILED = "Failed"

# The decoding methods by the names that --method, DecodeOutcome.method and
# every dispatch use.
METHODS = ("nn", "coset", "pba")


@dataclass(frozen=True)
class DecodeOutcome:
    """What a decoder did: its verdict, the chosen word, and a short trace."""

    status: str
    word: Word | None
    method: str
    trace: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status != FAILED


def nn_decode(cls: LengthClass, received: Word) -> DecodeOutcome:
    """Nearest neighbour with message-symbol tie break.

    Full-word distance decides first. Ties fall back to distance over the
    first k coordinates, which needs the class to know its message length.
    Any tie still left picks the lexicographically smallest candidate and
    says so in the trace.
    """
    received = gf2.as_word(received)
    if len(received) != cls.length:
        raise LengthMismatch(
            f"received length {len(received)}, class length {cls.length}"
        )
    if cls.contains(received):
        return DecodeOutcome(ACCEPTED, received, "nn")
    r = gf2.pack(received)
    best, candidates = _nearest(r, cls._word_of)
    trace = [f"distance {best}"]
    if len(candidates) > 1:
        k = cls.message_length
        if k is None:
            raise TieUnresolvable(
                f"{len(candidates)} words at distance {best} and no message length"
            )
        msg_best, candidates = _nearest(r, candidates, cls.length - k)
        trace.append(f"message tie break over {k} symbols, distance {msg_best}")
        if len(candidates) > 1:
            trace.append(f"ambiguous among {len(candidates)}, smallest kept")
    # Packed order is word order, so the least int is the least word.
    return DecodeOutcome(CORRECTED, cls._word_of[min(candidates)], "nn", tuple(trace))


def _nearest(r: int, words, shift: int = 0) -> tuple[int, list[int]]:
    """Least distance from the packed word r to the packed words, over all
    but the last shift coordinates, and the words at it in their given order."""
    dists = [((r ^ v) >> shift).bit_count() for v in words]
    best = min(dists)
    return best, [v for v, d in zip(words, dists) if d == best]


@dataclass(frozen=True)
class StandardArray:
    """Cosets of a linear class inside its whole word space.

    check is derived internally from the words, so its syndromes separate
    exactly the cosets. leader_of maps each packed syndrome (gf2.syndrome) to
    the chosen minimum weight coset member; weight ties break toward the
    lexicographically largest word. leaders and cosets are keyed by tuple
    syndromes and computed from it on each access.
    """

    length: int
    words: tuple[Word, ...]
    check: Matrix
    leader_of: dict[int, Word]
    _columns: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_columns", gf2.column_masks(self.check))

    @property
    def leaders(self) -> dict[Word, Word]:
        r = len(self.check)
        return {gf2.unpack(s, r): l for s, l in self.leader_of.items()}

    @property
    def cosets(self) -> dict[Word, tuple[Word, ...]]:
        """Every coset, sorted, keyed by syndrome."""
        return {
            syn: tuple(sorted(gf2.xor(leader, w) for w in self.words))
            for syn, leader in self.leaders.items()
        }

    @property
    def coset_count(self) -> int:
        return len(self.leader_of)

    @property
    def coset_size(self) -> int:
        return len(self.words)

    def leader_weights(self) -> tuple[int, ...]:
        return tuple(sorted(gf2.weight(l) for l in self.leader_of.values()))

    def expected_correction_rate(self, p: float) -> float:
        """Chance a memoryless bit-flip pattern is exactly a chosen leader."""
        n = self.length
        return sum(
            p ** gf2.weight(l) * (1 - p) ** (n - gf2.weight(l))
            for l in self.leader_of.values()
        )

    def decode(self, received: Word) -> DecodeOutcome:
        received = gf2.as_word(received)
        if len(received) != self.length:
            raise LengthMismatch(
                f"received length {len(received)}, array length {self.length}"
            )
        syn = gf2.syndrome(self._columns, received)
        if not syn:  # the class itself, led by the zero word
            return DecodeOutcome(ACCEPTED, received, "coset")
        leader = self.leader_of[syn]
        return DecodeOutcome(
            CORRECTED,
            gf2.xor(received, leader),
            "coset",
            (f"leader {gf2.render(leader)}",),
        )


def build_standard_array(words) -> StandardArray:
    """Partition the whole length-n space into cosets of the given words."""
    ws = tuple(sorted(set(tuple(w) for w in words)))
    basis = gf2.subspace_basis(ws)
    if basis is None:
        raise NotLinear("standard array needs words closed under addition with zero")
    n = len(ws[0])
    check = gf2.nullspace_basis(basis, ncols=n)
    columns = gf2.column_masks(check)
    leader_of: dict[int, Word] = {}
    # Words come in increasing order, so an equal weight later word is larger.
    for w in gf2.all_words(n):
        syn = gf2.syndrome(columns, w)
        cur = leader_of.get(syn)
        if cur is None or gf2.weight(w) <= gf2.weight(cur):
            leader_of[syn] = w
    return StandardArray(length=n, words=ws, check=check, leader_of=leader_of)


# One array per distinct word set.
_ARRAY_CACHE: dict[frozenset[Word], StandardArray] = {}


def standard_array(words) -> StandardArray:
    """The cached array of a word set."""
    key = frozenset(tuple(w) for w in words)
    hit = _ARRAY_CACHE.get(key)
    if hit is None:
        hit = _ARRAY_CACHE[key] = build_standard_array(key)
    return hit


def clear_array_cache() -> None:
    """Empty the cache; arrays that classes already keep stay with them."""
    _ARRAY_CACHE.clear()


def coset_decode(cls: LengthClass, received: Word) -> DecodeOutcome:
    """Decode against the standard array of the class words, which the class
    keeps after the first call, so later calls never hash its word set."""
    if cls._array is None:
        object.__setattr__(cls, "_array", standard_array(cls.words))
    return cls._array.decode(received)


def pba_decode(received: Word, basis: Matrix) -> DecodeOutcome:
    """Project the received word onto the span of basis via the mod-2 pairing.

    The projection of a nonzero word can collapse to zero because the pairing
    is not definite; that is reported as Failed rather than decoded.
    """
    received = gf2.as_word(received)
    basis = tuple(tuple(b) for b in basis)
    if not basis:
        raise EmptyBasis("projection needs at least one basis word")
    for b in basis:
        if len(b) != len(received):
            raise LengthMismatch(
                f"basis word length {len(b)}, received length {len(received)}"
            )
    out = gf2.zeros(len(received))
    summed = 0
    for b in basis:
        if gf2.dot(received, b):
            out = gf2.xor(out, b)
            summed += 1
    if not any(out) and any(received):
        status, out = FAILED, None
    else:
        status = ACCEPTED if out == received else CORRECTED
    return DecodeOutcome(status, out, "pba", (f"summed {summed} basis words",))


# Projections pba_decode_with_retry tries on one received word.
PBA_BUDGET = 8


def pba_decode_with_retry(received: Word, basis: Matrix) -> DecodeOutcome:
    """Retry a failed projection with deterministic basis changes.

    Each retry adds one basis word into another, which keeps the span while
    moving the projection. Gives up after PBA_BUDGET attempts.
    """
    basis = [tuple(b) for b in basis]
    outcome = pba_decode(received, tuple(basis))
    attempt = 1
    while outcome.status == FAILED and attempt < PBA_BUDGET and len(basis) > 1:
        i = (attempt - 1) % len(basis)
        basis[i] = gf2.xor(basis[i], basis[attempt % len(basis)])
        outcome = pba_decode(received, tuple(basis))
        attempt += 1
    if outcome.status == FAILED:
        note = f"gave up after {attempt}"
    elif attempt > 1:
        note = f"succeeded on attempt {attempt}"
    else:
        return outcome
    return replace(outcome, trace=outcome.trace + (note,))


def check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")


def prepare(cls: LengthClass, method: str) -> None:
    """Fail now, before any decoding, where method cannot decode cls.

    nn needs a message length to break distance ties once a class holds more
    than one word; coset needs the class's standard array, which is built or
    looked up here so decoding finds it cached. pba needs nothing up front:
    its basis is taken, and a nonlinear class rejected, at the first decode.
    """
    check_method(method)
    if method == "nn" and cls.message_length is None and len(cls.words) > 1:
        raise TieUnresolvable(
            f"class of {len(cls.words)} words has no message length to break nn ties"
        )
    if method == "coset":
        standard_array(cls.words)
