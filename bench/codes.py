"""Workload inputs and the brute-force oracle the benchmark checks against.

Inputs are generated here and handed to the package only as `.code` text.
The oracle half of this module never calls the package: it works on words
packed into Python ints (coordinate 1 is the most significant bit) and
answers by exhaustive enumeration, so a defect in the package cannot hide
behind the same defect in the check.
"""
from __future__ import annotations

import itertools
import random

from setcodes import cli, core, ncode

REPEAT3_6_WORDS = (
    "000000", "001001", "010010", "011011",
    "100100", "101101", "110110", "111111",
)
REPEAT3_6_CHECK = ("100100", "010010", "001001")
# The eight-word length-7 decoy of the criterion-10 bicode.
DECOY_7_WORDS = (
    "0000000", "1110100", "0111010", "0011101",
    "1001110", "1101001", "0100111", "1010011",
)
# Generator polynomials, lowest degree first.
HAMMING_7_4_POLY = (1, 1, 0, 1)  # 1 + x + x^3
BCH_15_7_POLY = (1, 0, 0, 0, 1, 0, 1, 1, 1)  # 1 + x^4 + x^6 + x^7 + x^8


def _bits(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text)


def _random_systematic(n: int, k: int, rng: random.Random) -> core.LengthClass:
    # G = (I | A) is full rank by construction and H = (A^T | I) checks it.
    a = [[rng.getrandbits(1) for _ in range(n - k)] for _ in range(k)]
    gen = [tuple(int(i == j) for j in range(k)) + tuple(a[i]) for i in range(k)]
    check = tuple(
        tuple(a[i][j] for i in range(k)) + tuple(int(j == l) for l in range(n - k))
        for j in range(n - k)
    )
    words = set()
    for mask in range(1 << k):
        w = [0] * n
        for i in range(k):
            if mask >> i & 1:
                w = [x ^ y for x, y in zip(w, gen[i])]
        words.add(tuple(w))
    return core.LengthClass(n, tuple(sorted(words)), check=check, message_length=k)


def make_class(recipe: str, seed: int) -> core.LengthClass:
    """One length class from its recipe name; `randN_K` draws from the seed."""
    if recipe == "rep6":
        return core.LengthClass(
            6,
            tuple(map(_bits, REPEAT3_6_WORDS)),
            check=tuple(map(_bits, REPEAT3_6_CHECK)),
            message_length=3,
        )
    if recipe == "decoy7":
        return core.LengthClass(7, tuple(map(_bits, DECOY_7_WORDS)))
    if recipe == "ham7":
        return core.cyclic_code(HAMMING_7_4_POLY, 7)
    if recipe == "bch15":
        return core.cyclic_code(BCH_15_7_POLY, 15)
    if recipe.startswith("rand"):
        n, k = (int(t) for t in recipe[4:].split("_"))
        return _random_systematic(n, k, random.Random(f"{seed}:{recipe}"))
    raise ValueError(f"unknown code recipe {recipe!r}")


def code_text(name: str, recipes: tuple[str, ...], seed: int) -> str:
    """A `.code` file with one single-class component per recipe."""
    comps = tuple(core.SetCode((make_class(r, seed),)) for r in recipes)
    return cli.render_code_file(name, ncode.SetNCode(comps))


# --- oracle ---------------------------------------------------------------


def pack(w) -> int:
    out = 0
    for b in w:
        out = out << 1 | b
    return out


def _echelon(rows: list[int]) -> list[int]:
    """Row-reduced basis; each row's leading bit appears in no other row."""
    basis: list[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis = [min(b, b ^ r) for b in basis]
            basis.append(r)
    return basis


def _coset_key(v: int, basis: list[int]) -> int:
    for b in basis:
        v = min(v, v ^ b)
    return v


class Oracle:
    """Brute-force facts about one linear class, computed without the package."""

    def __init__(self, cls: core.LengthClass) -> None:
        n = cls.length
        self.n = n
        words = {pack(w) for w in cls.words}
        basis = _echelon(sorted(words))
        # Leader weights: fill every coset with error patterns of rising weight.
        cosets = 1 << (n - len(basis))
        seen: set[int] = set()
        weights: list[int] = []
        for wt in range(n + 1):
            for pos in itertools.combinations(range(n), wt):
                key = _coset_key(sum(1 << p for p in pos), basis)
                if key not in seen:
                    seen.add(key)
                    weights.append(wt)
            if len(seen) == cosets:
                break
        self.leader_weights = tuple(weights)
        self.dual = frozenset(
            v for v in range(1 << n)
            if all((v & b).bit_count() % 2 == 0 for b in basis)
        )
        self.labels = self._labels(cls, words)

    def correction_rate(self, p: float) -> float:
        """Exact chance that the error pattern is the leader of its coset."""
        return sum(p**w * (1 - p) ** (self.n - w) for w in self.leader_weights)

    def _labels(self, cls: core.LengthClass, words: set[int]) -> tuple[str, ...]:
        n = self.n
        full = (1 << n) - 1
        labels = ["set"]
        if words == {0, full}:
            labels.append("repetition")
        check = [pack(r) for r in cls.check] if cls.check is not None else None
        if all(w.bit_count() % 2 == 0 for w in words) and check in (None, [full]):
            labels.append("parity check")
        if check is not None:
            m = len(check)
            cols = {
                sum((row >> (n - 1 - j) & 1) << i for i, row in enumerate(check))
                for j in range(n)
            }
            if n == (1 << m) - 1 and len(cols) == n and 0 not in cols:
                labels.append("hamming")
        weights = {w.bit_count() for w in words if w}
        if len(weights) == 1 and min(weights) < n:
            labels.append(f"{min(weights)}-weight")
        if all((w >> 1 | (w & 1) << (n - 1)) in words for w in words):
            labels.append("cyclic")
        if 0 in words and all(a ^ b in words for a in words for b in words):
            labels += ["semigroup", "group"]
        return tuple(labels)
