"""Three decoders over length classes.

Nearest neighbour works on any class. Coset decoding builds a standard array
and needs the words to form a subspace. Projection decoding sums basis words
against the mod-2 pairing and can fail outright; callers that want a second
chance get a bounded deterministic retry. METHODS names the three, and
prepare checks up front what a method needs of a class.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

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
    received = tuple(received)
    if len(received) != cls.length:
        raise LengthMismatch(
            f"received length {len(received)}, class length {cls.length}"
        )
    if cls.contains(received):
        return DecodeOutcome(ACCEPTED, received, "nn")
    best, candidates = _nearest(received, cls.words)
    trace = [f"distance {best}"]
    if len(candidates) > 1:
        k = cls.message_length
        if k is None:
            raise TieUnresolvable(
                f"{len(candidates)} words at distance {best} and no message length"
            )
        msg_best, candidates = _nearest(received[:k], candidates, k)
        trace.append(f"message tie break over {k} symbols, distance {msg_best}")
        if len(candidates) > 1:
            trace.append(f"ambiguous among {len(candidates)}, smallest kept")
    return DecodeOutcome(CORRECTED, min(candidates), "nn", tuple(trace))


def _nearest(
    received: Word, words, prefix: int | None = None
) -> tuple[int, list[Word]]:
    """Least distance to received, over the first prefix coordinates when
    given, and the words at it in their given order; one distance per word."""
    best = None
    nearest: list[Word] = []
    for w in words:
        d = gf2.distance(received, w if prefix is None else w[:prefix])
        if best is None or d < best:
            best = d
            nearest = [w]
        elif d == best:
            nearest.append(w)
    return best, nearest


@dataclass(frozen=True)
class StandardArray:
    """Cosets of a linear class inside its whole word space.

    check is derived internally from the words, so its syndromes separate
    exactly the cosets. leaders maps each syndrome to the chosen minimum
    weight coset member; weight ties break toward the lexicographically
    largest word.
    """

    length: int
    words: tuple[Word, ...]
    check: Matrix
    leaders: dict[Word, Word]

    @property
    def cosets(self) -> dict[Word, tuple[Word, ...]]:
        """Every coset, sorted, keyed by syndrome; computed on each access."""
        return {
            syn: tuple(sorted(gf2.xor(leader, w) for w in self.words))
            for syn, leader in self.leaders.items()
        }

    @property
    def coset_count(self) -> int:
        return len(self.leaders)

    @property
    def coset_size(self) -> int:
        return len(self.words)

    def leader_weights(self) -> tuple[int, ...]:
        return tuple(sorted(gf2.weight(l) for l in self.leaders.values()))

    def expected_correction_rate(self, p: float) -> float:
        """Chance a memoryless bit-flip pattern is exactly a chosen leader."""
        n = self.length
        return sum(
            p ** gf2.weight(l) * (1 - p) ** (n - gf2.weight(l))
            for l in self.leaders.values()
        )

    def decode(self, received: Word) -> DecodeOutcome:
        received = tuple(received)
        if len(received) != self.length:
            raise LengthMismatch(
                f"received length {len(received)}, array length {self.length}"
            )
        syn = gf2.matvec(self.check, received)
        leader = self.leaders[syn]
        if not any(leader):
            return DecodeOutcome(ACCEPTED, received, "coset")
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
    leaders: dict[Word, Word] = {}
    for w in gf2.all_words(n):
        syn = gf2.matvec(check, w)
        cur = leaders.get(syn)
        if (
            cur is None
            or gf2.weight(w) < gf2.weight(cur)
            or (gf2.weight(w) == gf2.weight(cur) and w > cur)
        ):
            leaders[syn] = w
    return StandardArray(length=n, words=ws, check=check, leaders=leaders)


# One array per distinct word set; concurrent builders may race but produce
# identical values, so a plain dict stays safe under the interpreter lock.
_ARRAY_CACHE: dict[frozenset[Word], StandardArray] = {}


def standard_array(words) -> StandardArray:
    """The cached array of a word set; a frozenset of tuples is the key as is."""
    if isinstance(words, frozenset):
        key = words
    else:
        key = frozenset(tuple(w) for w in words)
    hit = _ARRAY_CACHE.get(key)
    if hit is None:
        hit = build_standard_array(words)
        _ARRAY_CACHE[key] = hit
    return hit


def clear_array_cache() -> None:
    _ARRAY_CACHE.clear()


def coset_decode(cls: LengthClass, received: Word) -> DecodeOutcome:
    """Decode against the cached standard array of the class words.

    The class's own frozenset is the cache key, so its hash is computed once.
    """
    return standard_array(cls._word_set).decode(received)


def pba_decode(received: Word, basis: Matrix) -> DecodeOutcome:
    """Project the received word onto the span of basis via the mod-2 pairing.

    The projection of a nonzero word can collapse to zero because the pairing
    is not definite; that is reported as Failed rather than decoded.
    """
    received = tuple(received)
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


def pba_decode_with_retry(
    received: Word, basis: Matrix, budget: int = 8
) -> DecodeOutcome:
    """Retry a failed projection with deterministic basis changes.

    Each retry adds one basis word into another, which keeps the span while
    moving the projection. Gives up after budget attempts.
    """
    basis = [tuple(b) for b in basis]
    outcome = pba_decode(received, tuple(basis))
    attempt = 1
    while outcome.status == FAILED and attempt < budget and len(basis) > 1:
        i = (attempt - 1) % len(basis)
        j = attempt % len(basis)
        if i != j:
            basis[i] = gf2.xor(basis[i], basis[j])
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
        standard_array(cls._word_set)
