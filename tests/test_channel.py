"""Frame building, corruption, and the exact simulation counters."""
from __future__ import annotations

import math
from collections import Counter

import pytest

import corpus
from setcodes import channel
from setcodes.channel import (
    ChannelConfig,
    ComponentStats,
    ObfuscationKey,
    SimulationResult,
    build_frame,
    corrupt,
    format_simulation,
    receive,
    run_simulation,
)
from setcodes.core import LengthClass, SetCode, cyclic_code, repetition_class
from setcodes.errors import (
    KeyOutOfRange,
    NotACodeword,
    NotLinear,
    PatternMismatch,
    TieUnresolvable,
)
from setcodes.gf2 import all_words, word, zeros
from setcodes.ncode import NWord, SetNCode


def decoy_ncode() -> SetNCode:
    return SetNCode(
        (
            SetCode((corpus.repeat3_6_class(),)),
            SetCode((LengthClass(7, corpus.DECOY_7_WORDS),)),
        )
    )


def test_config_bounds():
    ChannelConfig(0.0, 0, 1)
    with pytest.raises(ValueError):
        ChannelConfig(1.0, 0, 1)
    with pytest.raises(ValueError):
        ChannelConfig(-0.1, 0, 1)
    with pytest.raises(ValueError):
        ChannelConfig(0.1, 0, 0)
    with pytest.raises(ValueError):
        ChannelConfig(0.1, -1, 1)
    with pytest.raises(ValueError):
        ChannelConfig(0.1, 1 << 64, 1)


def test_key_validation():
    assert ObfuscationKey((1, 3)).carrier_indices == (1, 3)
    with pytest.raises(KeyOutOfRange):
        ObfuscationKey(())
    with pytest.raises(KeyOutOfRange):
        ObfuscationKey((0,))
    with pytest.raises(KeyOutOfRange):
        ObfuscationKey((2, 2))
    with pytest.raises(KeyOutOfRange):
        ObfuscationKey((3, 1))
    with pytest.raises(KeyOutOfRange):
        ObfuscationKey((3,)).validate_for(2)
    ObfuscationKey((1, 2)).validate_for(2)


def test_build_frame_places_payload():
    nc = decoy_ncode()
    key = ObfuscationKey((1,))
    frame = build_frame(nc, key, (word("101101"),), seed=9, frame=0)
    assert frame.parts[0] == word("101101")
    assert frame.parts[1] in set(corpus.DECOY_7_WORDS)
    again = build_frame(nc, key, (word("101101"),), seed=9, frame=0)
    assert frame == again


def test_build_frame_rejects_bad_payload():
    nc = decoy_ncode()
    key = ObfuscationKey((1,))
    with pytest.raises(NotACodeword):
        build_frame(nc, key, (word("101100"),), seed=9, frame=0)
    with pytest.raises(NotACodeword):
        build_frame(nc, key, (word("10110"),), seed=9, frame=0)
    with pytest.raises(PatternMismatch):
        build_frame(nc, key, (word("101101"), word("101101")), seed=9, frame=0)


def test_corrupt_is_deterministic_and_quiet_at_zero():
    nw = NWord((word("101101"), word("0011101")))
    assert corrupt(nw, 0.0, seed=3, frame=5) == nw
    a = corrupt(nw, 0.4, seed=3, frame=5)
    b = corrupt(nw, 0.4, seed=3, frame=5)
    assert a == b
    assert all(len(p) == len(q) for p, q in zip(a.parts, nw.parts))
    for p in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            corrupt(nw, p, seed=3, frame=5)


def within_five_sigma(counts, trials: int, p: float) -> bool:
    mean = trials * p
    sigma = math.sqrt(trials * p * (1 - p))
    return all(abs(c - mean) <= 5 * sigma for c in counts)


@pytest.mark.parametrize("p", [0.05, 0.3])
def test_flips_per_position_are_binomial(p):
    # Gaps are skipped across parts, and absent parts take no bits. A gap
    # one short re-flips a bit at rate p, which the larger p shows.
    trials = 20_000
    nw = NWord((zeros(6), None, zeros(6)))
    flips = [0] * 12
    for frame in range(trials):
        got = corrupt(nw, p, seed=17, frame=frame)
        assert got.parts[1] is None
        for i, bit in enumerate(got.parts[0] + got.parts[2]):
            flips[i] += bit
    assert within_five_sigma(flips, trials, p)


def test_decoy_and_payload_choices_are_uniform(monkeypatch):
    sixteen = SetCode((LengthClass(4, tuple(all_words(4))),))
    nc = SetNCode((SetCode((cyclic_code((1, 1, 0, 1), 7),)), sixteen))
    key = ObfuscationKey((1,))
    trials = 16_000
    sent = []
    real_build_frame = channel.build_frame

    def recording_build_frame(*args):
        out = real_build_frame(*args)
        sent.append(out)
        return out

    monkeypatch.setattr(channel, "build_frame", recording_build_frame)
    run_simulation(nc, key, ChannelConfig(0.0, 23, trials), method="coset")
    assert len(sent) == trials
    for idx in (0, 1):
        counts = Counter(nw.parts[idx] for nw in sent)
        assert len(counts) == 16
        assert within_five_sigma(counts.values(), trials, 1 / 16)


def test_streams_are_pinned():
    # Any change to how streams are derived must update these on purpose.
    nc = decoy_ncode()
    key = ObfuscationKey((1,))
    frame = build_frame(nc, key, (word("101101"),), seed=9, frame=0)
    assert frame.render() == "101101 u 1101001"
    noisy = corrupt(NWord((zeros(6), zeros(7))), 0.3, seed=3, frame=5)
    assert noisy.render() == "011101 u 1001000"


def test_corrupt_keeps_absent_parts_absent():
    nw = NWord((word("110"), None))
    assert corrupt(nw, 0.5, seed=1, frame=1).parts[1] is None


def test_receive_round_trip_without_noise():
    nc = decoy_ncode()
    key = ObfuscationKey((1,))
    sent = build_frame(nc, key, (word("110110"),), seed=2, frame=7)
    got = corrupt(sent, 0.0, seed=2, frame=7)
    outcomes = receive(nc, key, got)
    assert len(outcomes) == 1
    assert outcomes[0].status == "Accepted"
    assert outcomes[0].word == word("110110")


def test_receive_rejects_bad_frames():
    nc = decoy_ncode()
    key = ObfuscationKey((1,))
    with pytest.raises(PatternMismatch):
        receive(nc, key, NWord((None, corpus.DECOY_7_WORDS[1])))
    with pytest.raises(PatternMismatch):
        receive(nc, key, NWord((word("110110"),)))


def test_counters_are_consistent():
    nc = decoy_ncode()
    key = ObfuscationKey((1,))
    result = run_simulation(nc, key, ChannelConfig(0.05, 11, 300))
    assert result.frames == 300
    for comp in result.components:
        assert comp.detected + comp.undetected == comp.corrupted
        assert 0 <= comp.corrupted <= 300
        assert 0.0 <= comp.detection_rate <= 1.0
        assert 0.0 <= comp.undetected_rate <= 1.0
    carrier, decoy = result.components
    assert carrier.carrier and not decoy.carrier
    assert carrier.corrected is not None
    assert decoy.corrected is None
    assert decoy.correction_rate is None


def test_noiseless_run_is_perfect():
    nc = decoy_ncode()
    key = ObfuscationKey((1,))
    result = run_simulation(nc, key, ChannelConfig(0.0, 5, 50))
    for comp in result.components:
        assert comp.corrupted == 0
        assert comp.detection_rate == 1.0
        assert comp.undetected_rate == 0.0
    assert result.components[0].correction_rate == 1.0


def test_runs_are_reproducible():
    nc = decoy_ncode()
    key = ObfuscationKey((1,))
    config = ChannelConfig(0.05, 11, 300)
    assert run_simulation(nc, key, config) == run_simulation(nc, key, config)


def test_thread_count_does_not_change_counts():
    nc = decoy_ncode()
    key = ObfuscationKey((1,))
    config = ChannelConfig(0.08, 4, 240)
    single = run_simulation(nc, key, config, threads=1)
    fanned = run_simulation(nc, key, config, threads=3)
    assert single == fanned
    with pytest.raises(ValueError):
        run_simulation(nc, key, config, threads=0)


# (corrupted, detected, undetected, corrected) per component, seed 7,
# p = 0.2, 300 frames; decoys have no corrected count.
GOLDEN_COUNTS = {
    ((1,), "coset"): ((220, 205, 15, 162), (241, 241, 0, None)),
    ((1,), "nn"): ((220, 205, 15, 163), (241, 241, 0, None)),
    ((1,), "pba"): ((220, 205, 15, 30), (241, 241, 0, None)),
    ((1, 2), "coset"): ((220, 205, 15, 162), (241, 241, 0, 207)),
    ((1, 2), "pba"): ((220, 205, 15, 30), (241, 241, 0, 34)),
}


@pytest.mark.parametrize("carriers", [(1,), (1, 2)])
@pytest.mark.parametrize("method", ["coset", "nn", "pba"])
def test_simulation_counters_are_pinned(carriers, method):
    nc = decoy_ncode()
    key = ObfuscationKey(carriers)
    config = ChannelConfig(0.2, 7, 300)
    if (carriers, method) not in GOLDEN_COUNTS:
        # The length-7 decoy has no k=, so nn cannot carry on it.
        with pytest.raises(TieUnresolvable, match="component 2, length 7"):
            run_simulation(nc, key, config, method=method)
        return
    expected = SimulationResult(
        flip_probability=0.2,
        seed=7,
        frames=300,
        method=method,
        carrier_indices=carriers,
        components=tuple(
            ComponentStats(i, i in carriers, 300, *counts)
            for i, counts in enumerate(GOLDEN_COUNTS[carriers, method], start=1)
        ),
    )
    assert run_simulation(nc, key, config, method=method) == expected


def nonlinear_decoy_ncode() -> SetNCode:
    # Three words cannot form a subspace.
    return SetNCode(
        (
            SetCode((corpus.repeat3_6_class(),)),
            SetCode((LengthClass(7, corpus.NN_TRIO_WORDS),)),
        )
    )


def test_nn_without_message_length_fails_before_any_frame(monkeypatch):
    def no_frames(*args):
        pytest.fail("a frame was built")

    monkeypatch.setattr(channel, "build_frame", no_frames)
    cases = (
        # the length-7 decoy has no k=
        (decoy_ncode(), (2,), "nn", TieUnresolvable, "component 2"),
        (decoy_ncode(), (1,), "bogus", ValueError, "unknown method 'bogus'"),
        (nonlinear_decoy_ncode(), (1, 2), "coset", NotLinear, "component 2"),
    )
    for nc, carriers, method, error, match in cases:
        with pytest.raises(error, match=match):
            run_simulation(
                nc, ObfuscationKey(carriers), ChannelConfig(0.02, 6, 50), method=method
            )


def test_nonlinear_decoy_runs_under_coset():
    # Decoys are never decoded, so coset needs no array for {110, 011}.
    nc = SetNCode(
        (
            SetCode((repetition_class(6),)),
            SetCode((LengthClass(3, (word("110"), word("011"))),)),
        )
    )
    key = ObfuscationKey((1,))
    config = ChannelConfig(0.1, 3, 400)
    coset = run_simulation(nc, key, config, method="coset")
    nn = run_simulation(nc, key, config, method="nn")
    for a, b in zip(coset.components, nn.components):
        assert (a.corrupted, a.detected, a.undetected) == (
            b.corrupted, b.detected, b.undetected
        )
    assert coset.components[1].corrupted > 0


def test_simulation_with_nn_method():
    nc = decoy_ncode()
    key = ObfuscationKey((1,))
    result = run_simulation(nc, key, ChannelConfig(0.02, 6, 50), method="nn")
    assert result.method == "nn"
    assert result.components[0].corrected is not None


def test_format_simulation_layout():
    nc = decoy_ncode()
    key = ObfuscationKey((1,))
    result = run_simulation(nc, key, ChannelConfig(0.05, 11, 300))
    text = format_simulation(result)
    assert "frames 300" in text
    assert "seed 11" in text
    assert "flip_probability 0.050000" in text
    assert "method coset" in text
    assert "carriers 1" in text
    assert "component 1 carrier" in text
    assert "component 2 decoy" in text
    assert "correction_rate" in text
    decoy_block = text.split("component 2 decoy")[1]
    assert "corrected" not in decoy_block.replace("undetected", "")
