"""Workloads, timed units, output checks and the traced block of the benchmark.

`bench/run.py` is the entry point; it puts the checkout's `src/` on the path
before importing this module.
"""
from __future__ import annotations

import dataclasses
import gc
import hashlib
import pathlib
import random
import statistics
import sys
import traceback
from time import perf_counter

import codes
import tracing
from setcodes import channel, cli, decoding

ROOT = pathlib.Path(__file__).resolve().parent.parent

P_FLIP = 0.02
CARRIER = 1
RATE_TOLERANCE = 0.01  # criterion 10's tolerance on the coset correction rate
TIMED = ("coset", "nn", "pba", "coset_t2", "codes")
# Set-up repeats at least SETUP_MIN_REPS times, then until SETUP_MIN_S
# seconds are spent or SETUP_MAX_REPS repetitions are done.
SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 25

# The speed of a shared host drifts by up to about 20% for tens of seconds
# at a time, which no run length averages away. Every timed unit is followed
# by a short fixed pure-Python calibration loop, and each end-to-end value is
# reported at a nominal machine speed: rate * CALIBRATION_NOMINAL / machine
# speed (times the other way round), where the machine speed during a unit
# is the mean of the loop rates just before and just after it. The raw
# figures are in the traced run's per-layer output.
CALIBRATION_NOMINAL = 80.0  # loops/s, typical on the 2-CPU x86-64 VM used
# Fixed words for the calibration loop: hashing, set building and sorting
# them touches memory the way the decoders' word sets do.
_CALIBRATION_WORDS = [
    tuple(int(b) for b in f"{x:015b}")
    for x in random.Random(0).sample(range(1 << 15), 600)
]
_CALIBRATION_SET = frozenset(_CALIBRATION_WORDS)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    channel: tuple[str, ...]  # code recipes; component 1 carries the payload
    # Code recipes for classify, dual and array. The largest comes last: each
    # analysis clears the array cache, and the channel classes the last one
    # evicted are rebuilt, untimed, after every pass.
    family: tuple[str, ...]
    unit_frames: dict  # frames per timed run_simulation call, by decoder
    code_repeats: int  # analyses of each code, back to back, per timed sample
    traced_frames: dict  # frames per decoder in the traced block
    shares: dict  # share of --seconds given to each timed metric
    check_frames: int = 10_000  # least coset frames behind the rate check


# Why each workload exists, and what it should and should not move, is
# recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="decoy_bicode",
            channel=("rep6", "decoy7"),
            family=("rep6", "decoy7"),
            unit_frames={"coset": 2000, "nn": 2000, "pba": 500},
            code_repeats=40,
            traced_frames={"coset": 1000, "nn": 1000, "pba": 1000},
            shares=dict.fromkeys(TIMED, 0.2),
        ),
        Workload(
            name="bch_carrier",
            channel=("bch15", "ham7", "rep6"),
            family=("rep6", "ham7", "bch15"),
            unit_frames={"coset": 1000, "nn": 500, "pba": 4},
            code_repeats=1,
            traced_frames={"coset": 300, "nn": 300, "pba": 10},
            shares={"coset": 0.15, "nn": 0.15, "pba": 0.2, "coset_t2": 0.15, "codes": 0.35},
        ),
        Workload(
            name="codebook",
            channel=("ham7", "rand13_9", "rand12_8"),
            family=("ham7", "bch15", "rand12_8", "rand13_9"),
            unit_frames={"coset": 1000, "nn": 1000, "pba": 200},
            code_repeats=1,
            traced_frames={"coset": 300, "nn": 300, "pba": 300},
            shares={"coset": 0.15, "nn": 0.15, "pba": 0.15, "coset_t2": 0.15, "codes": 0.4},
        ),
    )
}


def unit_seed(seed: int, workload: str, unit: int) -> int:
    digest = hashlib.sha256(f"{seed}:{workload}:{unit}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def calibration_rate() -> float:
    """Loops per second of a fixed interpreter-bound loop, collector off.

    With the collector off, the program's heap cannot slow the loop down.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        counts: dict = {}
        total = 0
        for i in range(25_000):
            key = (i & 15, i & 7, 1)
            counts[key] = counts.get(key, 0) + 1
            total += len(key)
        for _ in range(24):
            total += frozenset(tuple(w) for w in _CALIBRATION_WORDS) == _CALIBRATION_SET
            total += len(sorted(_CALIBRATION_WORDS[:256]))
        return 1.0 / (perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


class Run:
    """One workload under one seed: inputs, set-up, timed units and checks."""

    def __init__(self, wl: Workload, seed: int) -> None:
        self.wl = wl
        self.seed = seed
        self.channel_text = codes.code_text(wl.name, wl.channel, seed)
        self.family_text = codes.code_text(wl.name + "_family", wl.family, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # (rate, index of the calibration reading after it) per timed unit;
        # "codes" holds one list per family code, since codes differ too much
        # in cost to share a median.
        self.samples = {m: [] for m in TIMED if m != "codes"}
        self.samples["codes"] = [[] for _ in wl.family]
        self.results: dict[str, list] = {m: [] for m in TIMED if m != "codes"}
        self.oracles: dict = {}
        self.loop_rates = [calibration_rate()]

    def calibrate(self) -> int:
        """Take a calibration reading; return its index."""
        self.loop_rates.append(calibration_rate())
        return len(self.loop_rates) - 1

    def speed(self, i: int) -> float:
        """Machine speed while the unit between readings i - 1 and i ran."""
        return (self.loop_rates[i - 1] + self.loop_rates[i]) / 2

    def normalised(self, samples) -> float:
        """Median rate at nominal machine speed over (rate, reading) pairs."""
        return statistics.median(r * CALIBRATION_NOMINAL / self.speed(i) for r, i in samples)

    # --- set-up -------------------------------------------------------------

    def setup_once(self) -> float:
        """Parse both code files and warm every channel class's array."""
        decoding.clear_array_cache()
        start = perf_counter()
        _, self.ncode = cli.parse_code_file(self.channel_text)
        _, family = cli.parse_code_file(self.family_text)
        self.warm()
        elapsed = perf_counter() - start
        self.family = family.components
        self.key = channel.ObfuscationKey((CARRIER,))
        return elapsed

    def warm(self) -> None:
        for comp in self.ncode.components:
            for cls in comp.classes:
                decoding.standard_array(cls.words)

    def setup(self) -> list[tuple[float, int]]:
        """Repeat set-up; return (seconds, calibration reading) per repetition."""
        reps = []
        while len(reps) < SETUP_MIN_REPS or (
            sum(t for t, _ in reps) < SETUP_MIN_S and len(reps) < SETUP_MAX_REPS
        ):
            reps.append((self.setup_once(), self.calibrate()))
        return reps

    # --- work units -----------------------------------------------------------

    def simulate(self, method: str, frames: int, seed: int, threads: int = 1):
        config = channel.ChannelConfig(flip_probability=P_FLIP, seed=seed, frames=frames)
        return channel.run_simulation(self.ncode, self.key, config, method=method, threads=threads)

    def analyse(self, comp, repeats: int):
        """Classify, dual and standard array of one code, from a cold cache."""
        out = []
        for _ in range(repeats):
            decoding.clear_array_cache()
            out.append((
                comp,
                comp.classify(),
                comp.dual(),
                tuple(decoding.standard_array(c.words) for c in comp.classes),
            ))
        return out

    def unit(self, metric: str, index: int) -> float:
        """Run one timed unit of `metric`; return its wall time."""
        if metric == "codes":
            return self.codes_unit()
        method = metric.removesuffix("_t2")
        frames = self.wl.unit_frames[method]
        self.attempted += frames
        start = perf_counter()
        try:
            out = self.simulate(method, frames, unit_seed(self.seed, self.wl.name, index),
                                2 if metric.endswith("_t2") else 1)
        except Exception:
            out = None
            self.note(f"{metric} unit {index} raised:\n{traceback.format_exc()}")
        elapsed = perf_counter() - start
        loop = self.calibrate()
        ok = out is not None and self.check_simulation(metric, index, out)
        self.results[metric].append(out if ok else None)
        if ok:
            self.samples[metric].append((frames / elapsed, loop))
        else:
            self.failed += frames
        return elapsed

    def codes_unit(self) -> float:
        """One pass over the family, each code timed and calibrated alone."""
        repeats = self.wl.code_repeats
        total = 0.0
        for i, comp in enumerate(self.family):
            self.attempted += repeats
            start = perf_counter()
            try:
                out = self.analyse(comp, repeats)
            except Exception:
                out = None
                self.note(f"analysis of code {i + 1} raised:\n{traceback.format_exc()}")
            elapsed = perf_counter() - start
            loop = self.calibrate()
            total += elapsed
            if out is not None and all([self.check_analysis(*item) for item in out]):
                self.samples["codes"][i].append((repeats / elapsed, loop))
            else:
                self.failed += repeats
        self.warm()  # the analyses emptied the cache; refill it untimed
        return total

    def timed_loop(self, seconds: float) -> None:
        """Round-robin units until each metric has used its share of time."""
        budget = {m: seconds * self.wl.shares[m] for m in TIMED}
        spent = dict.fromkeys(TIMED, 0.0)
        index = dict.fromkeys(TIMED, 0)
        while any(spent[m] < budget[m] for m in TIMED):
            for m in TIMED:
                if spent[m] < budget[m]:
                    spent[m] += self.unit(m, index[m])
                    index[m] += 1

    # --- checks ---------------------------------------------------------------

    def note(self, problem: str) -> None:
        self.problems.append(problem)
        log("CHECK FAILED:", problem)

    def oracle(self, cls):
        key = (cls.length, cls.words)
        if key not in self.oracles:
            self.oracles[key] = codes.Oracle(cls)
        return self.oracles[key]

    def check_simulation(self, metric: str, index: int, out) -> bool:
        ok = self.check_counters(out, self.wl.unit_frames[metric.removesuffix("_t2")])
        if metric == "coset_t2":
            # Unit i of coset and coset_t2 share a config, so they must agree.
            singles = self.results["coset"]
            if index < len(singles) and singles[index] is not None:
                if out != singles[index]:
                    self.note(f"threads=2 result differs from threads=1 (unit {index})")
                    ok = False
        return ok

    def check_counters(self, res, frames: int) -> bool:
        good = res.frames == frames and all(
            c.detected + c.undetected == c.corrupted <= frames
            and (c.corrected is None) != c.carrier
            and (c.corrected is None or 0 <= c.corrected <= frames)
            for c in res.components
        )
        if not good:
            self.note(f"inconsistent counters in {res}")
        return good

    def check_analysis(self, comp, labels, dual, arrays) -> bool:
        ok = True
        (cls,) = comp.classes
        want = self.oracle(cls)
        if labels != want.labels:
            self.note(f"[{cls.length}] labels {labels} != brute force {want.labels}")
            ok = False
        got_dual = frozenset(codes.pack(w) for w in dual.classes[0].words)
        if got_dual != want.dual:
            self.note(f"[{cls.length}] dual differs from brute force")
            ok = False
        if arrays[0].leader_weights() != want.leader_weights:
            self.note(f"[{cls.length}] leader weights differ from brute force")
            ok = False
        return ok

    def final_checks(self) -> None:
        """Rate against the exact value, and same seed gives the same result."""
        coset = [r for r in self.results["coset"] if r is not None]
        frames = sum(r.frames for r in coset)
        corrected = sum(r.components[CARRIER - 1].corrected for r in coset)
        if frames < self.wl.check_frames:
            top = self.simulate("coset", self.wl.check_frames - frames,
                                unit_seed(self.seed, self.wl.name, -1))
            self.attempted += top.frames
            frames += top.frames
            corrected += top.components[CARRIER - 1].corrected
        carrier = self.ncode.components[CARRIER - 1].classes[0]
        exact = self.oracle(carrier).correction_rate(P_FLIP)
        rate = corrected / frames
        log(f"coset correction rate {rate:.6f} over {frames} frames, exact {exact:.6f}")
        if abs(rate - exact) > RATE_TOLERANCE:
            self.note(f"coset correction rate {rate:.6f} is not within "
                      f"{RATE_TOLERANCE} of the exact {exact:.6f}")
            self.failed += frames
        for method in ("coset", "nn", "pba"):
            first = self.results[method][0] if self.results[method] else None
            if first is None:
                continue
            again = self.simulate(method, first.frames, first.seed)
            if again != first:
                self.note(f"{method}: two runs with seed {first.seed} differ")
                self.failed += first.frames

    # --- traced block -----------------------------------------------------------

    def traced(self, reference: dict) -> dict:
        tracer = tracing.Tracer()
        frames = self.wl.traced_frames
        seed = unit_seed(self.seed, self.wl.name, 0)
        tracer.install()
        try:
            tracer.phase = "setup"
            self.setup_once()
            results = {}
            rates = {}  # (traced rate, calibration reading) per timed metric
            for method in tracing.METHODS:
                tracer.phase = method
                start = perf_counter()
                results[method] = self.simulate(method, frames[method], seed)
                rates[method] = (frames[method] / (perf_counter() - start), self.calibrate())
            tracer.phase = "analysis"
            analysed = []
            start = perf_counter()
            for i, comp in enumerate(self.family):
                tracer.frame = i
                analysed += self.analyse(comp, 1)
            rates["codes"] = (len(analysed) / (perf_counter() - start), self.calibrate())
        finally:
            tracer.uninstall()
        self.warm()
        for method, res in results.items():
            self.check_counters(res, frames[method])
            useful = sum(o[2] for o in tracer.outcomes if o[0] == method)
            if useful != res.components[CARRIER - 1].corrected:
                self.note(f"{method}: traced decodes disagree with the corrected counter")
        for item in analysed:
            self.check_analysis(*item)
        metrics = tracer.layer_metrics(frames, len(analysed))
        for m, pair in rates.items():
            metrics[f"trace.slowdown.{m}"] = (reference[m] / self.normalised([pair]), "x")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{self.wl.name}.jsonl")
        log(f"{len(tracer.spans)} spans written to .bench_out/spans-{self.wl.name}.jsonl")
        return metrics


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    r = Run(wl, seed)
    try:
        setup = r.setup()
    except Exception:
        log(traceback.format_exc())
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    r.timed_loop(seconds)
    try:
        r.final_checks()
    except Exception:
        r.note(f"final checks raised:\n{traceback.format_exc()}")
    per_code = r.samples.pop("codes")
    medians = {m: r.normalised(s) for m, s in r.samples.items() if s}
    raw = {m: statistics.median(x for x, _ in s) for m, s in r.samples.items() if s}
    if all(per_code):
        # A pass takes the sum of the codes' median times.
        medians["codes"] = len(per_code) / sum(1 / r.normalised(s) for s in per_code)
        raw["codes"] = len(per_code) / sum(
            1 / statistics.median(x for x, _ in s) for s in per_code)
    setup_s = statistics.median(t * r.speed(i) / CALIBRATION_NOMINAL for t, i in setup)
    raw_setup_s = statistics.median(t for t, _ in setup)
    units = {m: len(s) for m, s in r.samples.items()}
    units["codes"] = min(map(len, per_code))
    for m in TIMED:
        log(f"{m:>9}: {units[m]} units, median {medians.get(m, 0):.4g}/s, "
            f"raw {raw.get(m, 0):.4g}/s")
    log(f"    setup: {len(setup)} reps, median {setup_s:.4g} s, raw {raw_setup_s:.4g} s; "
        f"calibration median {statistics.median(r.loop_rates):.4g}/s")
    names = {m: "codes_per_s" if m == "codes" else f"frames_per_s.{m}" for m in TIMED}
    if trace:
        metrics = {}
        try:
            if len(medians) == len(TIMED):
                metrics = r.traced(medians)
                metrics.update({f"raw.{names[m]}": (v, "1/s") for m, v in raw.items()})
                metrics["raw.setup_s"] = (raw_setup_s, "s")
                metrics["machine.calibration_per_s"] = (statistics.median(r.loop_rates), "1/s")
        except Exception:
            r.note(f"traced block raised:\n{traceback.format_exc()}")
    else:
        metrics = {names[m]: (v, "1/s") for m, v in medians.items()}
        metrics["setup_s"] = (setup_s, "s")
    return {
        "correct": not r.problems,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
