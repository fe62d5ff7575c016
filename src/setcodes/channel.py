"""Memoryless bit-flip channel over an n-code with decoy components.

A key names which components carry payload; every other component is filled
with a random valid codeword each frame so all components look alike on the
wire. Every random draw comes from a stream named by (seed, frame, purpose),
so results do not depend on the order in which frames run.
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from . import gf2
from .core import SetCode
from .decoding import (
    DecodeOutcome,
    check_method,
    coset_decode,
    nn_decode,
    pba_decode_with_retry,
    prepare,
    standard_array,  # unused here; bench/tracing.py wraps channel.standard_array
)
from .errors import KeyOutOfRange, NotACodeword, PatternMismatch, SetCodeError
from .gf2 import Word
from .ncode import NWord, SetNCode


@dataclass(frozen=True)
class ChannelConfig:
    """Flip probability, stream seed, and how many frames to push through."""

    flip_probability: float
    seed: int
    frames: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.flip_probability < 1.0:
            raise ValueError("flip probability must sit in [0, 1)")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        if self.frames <= 0:
            raise ValueError("need at least one frame")


@dataclass(frozen=True)
class ObfuscationKey:
    """1-based component indices that carry real payload."""

    carrier_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(self.carrier_indices)
        if not idx:
            raise KeyOutOfRange("key needs at least one carrier")
        if any(i < 1 for i in idx) or any(a >= b for a, b in zip(idx, idx[1:])):
            raise KeyOutOfRange("carrier indices must be strictly increasing from 1")
        object.__setattr__(self, "carrier_indices", idx)

    def validate_for(self, arity: int) -> None:
        if self.carrier_indices[-1] > arity:
            raise KeyOutOfRange(
                f"carrier {self.carrier_indices[-1]} outside 1..{arity}"
            )


class _CounterStream(random.Random):
    """Counter-based random stream: bits come from blake2b(name + counter).

    Block i of a stream is the 64-byte blake2b digest of its name followed by
    i as 8 little-endian bytes, so every draw is a pure function of the name
    and its position, and opening a stream costs no generator seeding. The
    name sits in the message rather than the key, which blake2b caps at 64
    bytes. Overriding random and getrandbits keeps every other method of
    random.Random exact; choice, for one, rejects out-of-range draws from
    getrandbits.
    """

    def seed(self, a=None, version=2) -> None:
        self._name = str(a).encode()
        self._block = 0
        self._pool = 0
        self._pool_bits = 0
        self.gauss_next = None

    def getrandbits(self, k: int) -> int:
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        while self._pool_bits < k:
            digest = hashlib.blake2b(
                self._name + self._block.to_bytes(8, "little")
            ).digest()
            self._block += 1
            self._pool |= int.from_bytes(digest, "little") << self._pool_bits
            self._pool_bits += 8 * len(digest)
        out = self._pool & ((1 << k) - 1)
        self._pool >>= k
        self._pool_bits -= k
        return out

    def random(self) -> float:
        return self.getrandbits(53) * 2.0**-53


def _stream(seed: int, frame: int, purpose: str) -> random.Random:
    return _CounterStream(f"{seed}:{frame}:{purpose}")


def build_frame(
    ncode: SetNCode,
    key: ObfuscationKey,
    payload: tuple[Word, ...],
    seed: int,
    frame: int,
) -> NWord:
    """Place payload at the carriers and a random codeword at every decoy."""
    key.validate_for(ncode.arity)
    if len(payload) != len(key.carrier_indices):
        raise PatternMismatch(
            f"{len(payload)} payload parts for {len(key.carrier_indices)} carriers"
        )
    carriers = dict(zip(key.carrier_indices, payload))
    rng = _stream(seed, frame, "decoys")
    parts: list[Word | None] = []
    for i, comp in enumerate(ncode.components, start=1):
        if i in carriers:
            w = tuple(carriers[i])
            if not comp.contains(w):
                raise NotACodeword(
                    f"payload {gf2.render(w)} is not a codeword of component {i}"
                )
            parts.append(w)
        else:
            parts.append(rng.choice(comp.sorted_words))
    return NWord(tuple(parts))


def corrupt(nw: NWord, p: float, seed: int, frame: int) -> NWord:
    """Flip each present bit independently with probability p.

    The present bits, read part after part, form one Bernoulli(p) sequence,
    so only the flips are drawn: the gap of unflipped bits before each flip
    is geometric, P(gap >= g) = (1 - p) ** g, sampled by inversion (Devroye,
    Non-Uniform Random Variate Generation, ch. X). p == 0 draws nothing.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("flip probability must sit in [0, 1)")
    if p == 0.0:
        return nw
    rng = _stream(seed, frame, "noise")
    log_q = math.log1p(-p)

    def gap() -> float:
        # The floor of the result is the gap; a float cannot overflow when p
        # is so small that the gap is effectively infinite.
        return math.log(1.0 - rng.random()) / log_q

    skip = gap()  # present bits to pass before the next flip
    parts: list[Word | None] = []
    for part in nw.parts:
        if part is None:
            parts.append(None)
            continue
        n = len(part)
        if skip < n:
            bits = list(part)
            while skip < n:
                at = int(skip)
                bits[at] ^= 1
                skip = at + 1 + gap()
            part = tuple(bits)
        skip -= n
        parts.append(part)
    return NWord(tuple(parts))


def receive(
    ncode: SetNCode, key: ObfuscationKey, frame: NWord, method: str = "coset"
) -> tuple[DecodeOutcome, ...]:
    """Decode only the carrier parts, in carrier order."""
    check_method(method)
    key.validate_for(ncode.arity)
    if frame.arity != ncode.arity:
        raise PatternMismatch(
            f"frame has {frame.arity} parts, code has {ncode.arity} components"
        )
    picked = []
    for i in key.carrier_indices:
        part = frame.parts[i - 1]
        if part is None:
            raise PatternMismatch(f"carrier {i} is absent from the frame")
        picked.append(_decode_part(ncode.components[i - 1], part, method))
    return tuple(picked)


@dataclass(frozen=True)
class ComponentStats:
    """Exact counters for one component across a run."""

    component: int
    carrier: bool
    frames: int
    corrupted: int
    detected: int
    undetected: int
    corrected: int | None

    @property
    def detection_rate(self) -> float:
        # Vacuously perfect when nothing was corrupted.
        return self.detected / self.corrupted if self.corrupted else 1.0

    @property
    def undetected_rate(self) -> float:
        return self.undetected / self.frames

    @property
    def correction_rate(self) -> float | None:
        if self.corrected is None:
            return None
        return self.corrected / self.frames


@dataclass(frozen=True)
class SimulationResult:
    flip_probability: float
    seed: int
    frames: int
    method: str
    carrier_indices: tuple[int, ...]
    components: tuple[ComponentStats, ...]


def _decode_part(comp: SetCode, part: Word, method: str) -> DecodeOutcome:
    cls = comp.class_of(len(part))
    if method == "nn":
        return nn_decode(cls, part)
    if method == "coset":
        return coset_decode(cls, part)
    return pba_decode_with_retry(part, cls.basis())


def run_simulation(
    ncode: SetNCode,
    key: ObfuscationKey,
    config: ChannelConfig,
    method: str = "coset",
    threads: int = 1,
) -> SimulationResult:
    """Push frames through the channel and tally exact counters.

    Every class of every carrier component goes through decoding.prepare
    first, so a method that cannot decode a carrier fails before any frame,
    naming the component; decoys are never decoded and are not checked.
    Frames run one after another in the calling thread. threads must be at
    least 1 and does nothing else: a thread pool measured no faster under
    the interpreter lock.
    """
    key.validate_for(ncode.arity)
    if threads < 1:
        raise ValueError("need at least one thread")
    for i in key.carrier_indices:
        for cls in ncode.components[i - 1].classes:
            try:
                prepare(cls, method)
            except (SetCodeError, ValueError) as exc:
                raise type(exc)(f"component {i}, length {cls.length}: {exc}") from exc
    # counters per component: corrupted, detected, undetected, corrected
    counts = [[0, 0, 0, 0] for _ in ncode.components]
    carrier_words = [ncode.components[i - 1].sorted_words for i in key.carrier_indices]
    for frame in range(config.frames):
        rng = _stream(config.seed, frame, "payload")
        payload = tuple(rng.choice(words) for words in carrier_words)
        sent = build_frame(ncode, key, payload, config.seed, frame)
        got = corrupt(sent, config.flip_probability, config.seed, frame)
        for c, sent_part, got_part, valid in zip(
            counts, sent.parts, got.parts, ncode.detect(got)
        ):
            if got_part != sent_part:
                c[0] += 1
                c[2 if valid else 1] += 1
        for i, part, out in zip(
            key.carrier_indices, payload, receive(ncode, key, got, method)
        ):
            if out.ok and out.word == part:
                counts[i - 1][3] += 1
    carrier_set = set(key.carrier_indices)
    stats = tuple(
        ComponentStats(
            component=idx + 1,
            carrier=idx + 1 in carrier_set,
            frames=config.frames,
            corrupted=c[0],
            detected=c[1],
            undetected=c[2],
            corrected=c[3] if idx + 1 in carrier_set else None,
        )
        for idx, c in enumerate(counts)
    )
    return SimulationResult(
        flip_probability=config.flip_probability,
        seed=config.seed,
        frames=config.frames,
        method=method,
        carrier_indices=key.carrier_indices,
        components=stats,
    )


def format_simulation(result: SimulationResult) -> str:
    """Fixed-format text block with six decimal places on every rate."""
    lines = [
        f"frames {result.frames}",
        f"seed {result.seed}",
        f"flip_probability {result.flip_probability:.6f}",
        f"method {result.method}",
        "carriers " + ",".join(str(i) for i in result.carrier_indices),
    ]
    for comp in result.components:
        role = "carrier" if comp.carrier else "decoy"
        lines.append(f"component {comp.component} {role}")
        lines.append(f"  corrupted {comp.corrupted}")
        lines.append(f"  detected {comp.detected}")
        lines.append(f"  undetected {comp.undetected}")
        lines.append(f"  detection_rate {comp.detection_rate:.6f}")
        lines.append(f"  undetected_rate {comp.undetected_rate:.6f}")
        if comp.corrected is not None:
            lines.append(f"  corrected {comp.corrected}")
            lines.append(f"  correction_rate {comp.correction_rate:.6f}")
    return "\n".join(lines)
