"""Codes built from n component set codes transmitted side by side.

An n-word carries one part per component. A part may be absent, which models
a component that stayed silent for that transmission; at least one part must
be present.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import gf2
from .core import SetCode
from .decoding import (
    DecodeOutcome,
    check_method,
    coset_decode,
    nn_decode,
    pba_decode_with_retry,
)
from .errors import ArityMismatch, PatternMismatch
from .gf2 import Word

ABSENT_MARK = "-"
PART_SEPARATOR = " u "


@dataclass(frozen=True)
class NWord:
    """One part per component; None marks an absent part."""

    parts: tuple[Word | None, ...]

    def __post_init__(self) -> None:
        parts = tuple(None if p is None else tuple(p) for p in self.parts)
        if not parts:
            raise ValueError("an n-word needs at least one part")
        if all(p is None for p in parts):
            raise ValueError("an n-word needs at least one present part")
        for p in parts:
            if p is not None and (not p or not gf2.is_binary(p)):
                raise ValueError("parts must be nonempty binary words")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _trusted(cls, parts: tuple[Word | None, ...]) -> NWord:
        """Unchecked: for parts that are codewords or bit flips of them."""
        nw = object.__new__(cls)
        object.__setattr__(nw, "parts", parts)
        return nw

    @property
    def arity(self) -> int:
        return len(self.parts)

    def present(self) -> tuple[int, ...]:
        """1-based indices of the parts that are there."""
        return tuple(i + 1 for i, p in enumerate(self.parts) if p is not None)

    def render(self) -> str:
        return PART_SEPARATOR.join(
            ABSENT_MARK if p is None else gf2.render(p) for p in self.parts
        )


def parse_nword(text: str) -> NWord:
    """Parse parts separated by 'u', with '-' for an absent part."""
    parts: list[Word | None] = []
    for chunk in text.split("u"):
        chunk = chunk.strip()
        if chunk == ABSENT_MARK:
            parts.append(None)
        else:
            parts.append(gf2.word(chunk))
    return NWord(tuple(parts))


@dataclass(frozen=True)
class SetNCode:
    """n component set codes; components must differ as word sets when n > 1."""

    components: tuple[SetCode, ...]

    def __post_init__(self) -> None:
        components = tuple(self.components)
        if not components:
            raise ValueError("an n-code needs at least one component")
        if len(components) > 1:
            seen = [c.word_set() for c in components]
            for i in range(len(seen)):
                for j in range(i + 1, len(seen)):
                    if seen[i] == seen[j]:
                        raise ValueError(
                            f"components {i + 1} and {j + 1} hold the same words"
                        )
        object.__setattr__(self, "components", components)

    @property
    def arity(self) -> int:
        return len(self.components)

    def _check_arity(self, nw: NWord) -> None:
        if nw.arity != self.arity:
            raise PatternMismatch(
                f"n-word has {nw.arity} parts, code has {self.arity} components"
            )

    def _partwise(self, nw: NWord, fn) -> tuple:
        """fn(component, part) for every present part; None where absent."""
        self._check_arity(nw)
        return tuple(
            None if p is None else fn(comp, p)
            for comp, p in zip(self.components, nw.parts)
        )

    def contains(self, nw: NWord) -> bool:
        return False not in self._partwise(nw, SetCode.contains)

    def detect(self, nw: NWord) -> tuple[bool | None, ...]:
        """Per-part validity; None where the part is absent."""
        return self._partwise(nw, SetCode.detect)

    def syndrome(self, nw: NWord) -> tuple[Word | None, ...]:
        return self._partwise(nw, SetCode.syndrome)

    def distance(self, a: NWord, b: NWord) -> tuple[int | None, ...]:
        """Partwise Hamming distance; presence patterns must agree."""
        self._check_arity(a)
        self._check_arity(b)
        if a.present() != b.present():
            raise PatternMismatch("n-words present different parts")
        return tuple(
            None if x is None else gf2.distance(x, y)
            for x, y in zip(a.parts, b.parts)
        )

    def decode(self, nw: NWord, method: str = "nn") -> tuple[DecodeOutcome | None, ...]:
        """Decode every present part against its component, partwise."""
        check_method(method)

        def one(comp: SetCode, part: Word) -> DecodeOutcome:
            cls = comp.class_of(len(part))
            if method == "nn":
                return nn_decode(cls, part)
            if method == "coset":
                return coset_decode(cls, part)
            return pba_decode_with_retry(part, cls.basis())

        return self._partwise(nw, one)

    def biweight(self) -> tuple[int, int] | None:
        """(m1, m2) when both components of a bicode are single-weight."""
        if self.arity != 2:
            return None
        m1 = self.components[0].m_weight()
        m2 = self.components[1].m_weight()
        if m1 is None or m2 is None:
            return None
        return (m1, m2)

    def classify(self) -> tuple[str, ...]:
        """Labels that hold across all components at once."""
        first, *rest = (c.classify() for c in self.components)
        labels = [label for label in first if all(label in other for other in rest)]
        bw = self.biweight()
        if bw is not None:
            labels.append(f"({bw[0]},{bw[1]})-biweight")
        return tuple(labels)

    def dual(self, restrict_to: int | None = None) -> SetNCode:
        return SetNCode(tuple(c.dual(restrict_to=restrict_to) for c in self.components))


@dataclass(frozen=True)
class ComplementKind:
    """Verdict of the complementing bicode test, with vacuous spots flagged."""

    ok: bool
    notes: tuple[str, ...] = ()


def is_complementing_bicode(ncode: SetNCode) -> ComplementKind:
    """Second component words must lie in the dual of the first, position
    by position.

    Positions pair by class order, so both components need the same class
    count. A first-component class holding only zero is orthogonal to the
    whole space; containment there is vacuous and gets flagged in the notes.
    """
    if ncode.arity != 2:
        raise ArityMismatch(f"complementing test needs 2 components, got {ncode.arity}")
    first, second = ncode.components
    if len(first.classes) != len(second.classes):
        raise ArityMismatch(
            f"class counts differ: {len(first.classes)} vs {len(second.classes)}"
        )
    notes: list[str] = []
    for pos, (a, b) in enumerate(zip(first.classes, second.classes), start=1):
        if a.length != b.length:
            return ComplementKind(False, (f"position {pos}: lengths differ",))
        columns = gf2.column_masks(gf2.row_basis(a.words))
        if not columns:
            notes.append(f"position {pos}: dual is the full space")
            continue
        if any(gf2.syndrome(columns, w) for w in b.words):
            return ComplementKind(False, tuple(notes))
    return ComplementKind(True, tuple(notes))
