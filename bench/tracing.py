"""Spans and call counts recorded around the package's public names.

Nothing inside the package changes: `Tracer.install` replaces module and
class attributes that the package looks up at call time, and `uninstall`
puts the originals back. Word operations in `gf2` are only counted, because
a span per call would cost more than the call; every other wrapped name
records a span (name, start, end, parent, frame id, phase). Spans stay in
memory until `write` dumps them as JSON lines.

The traced run is single-threaded, so one call stack per tracer suffices.
"""
from __future__ import annotations

import json
import random
import statistics
import types
from collections import Counter
from time import perf_counter_ns

from setcodes import channel, cli, core, decoding, gf2, ncode

COUNTED = ("xor", "distance", "dot", "matvec")
METHODS = ("coset", "nn", "pba")
# Decoder wrappers: where the received word sits in the positional arguments.
DECODERS = {"coset_decode": 1, "nn_decode": 1, "pba_decode_with_retry": 0}


class Tracer:
    def __init__(self) -> None:
        # Each span: [name, start_ns, end_ns, parent index or -1, frame, phase].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()  # (phase, gf2 op) -> calls
        self.outcomes: list[tuple[str, str, bool, int]] = []
        self.phase = ""
        self.frame = -1
        self.sent = None
        self._saved: list[tuple[object, str, object]] = []

    # --- wrappers ---------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self.frame, self.phase])
            stack.append(idx)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[self.phase, name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _stream_frame(self, args) -> None:
        # Streams are seeded "seed:frame:purpose"; the payload stream of a
        # frame opens before build_frame does, so it names the frame first.
        if args and isinstance(args[0], str):
            parts = args[0].split(":")
            if len(parts) > 2 and parts[1].isdigit():
                self.frame = int(parts[1])

    def _frame_begins(self, args) -> None:
        self.frame = args[4]

    def _frame_built(self, args, out) -> None:
        self.sent = out

    def _decoded(self, received_at):
        def after(args, out):
            received = args[received_at]
            sent = next(
                (p for p in self.sent.parts if p is not None and len(p) == len(received)),
                None,
            )
            attempts = 1
            for line in out.trace:
                if line.startswith(("succeeded on attempt ", "gave up after ")):
                    attempts = int(line.rsplit(" ", 1)[1])
            self.outcomes.append((self.phase, out.status, out.ok and out.word == sent, attempts))

        return after

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        span = self._span
        rng = types.ModuleType("random")
        rng.__dict__.update(random.__dict__)
        rng.Random = span("channel.rng", random.Random, before=self._stream_frame)
        self._patch(channel, "random", rng)
        self._patch(cli, "parse_code_file", span("cli.parse_code_file", cli.parse_code_file))
        self._patch(channel, "run_simulation", span("channel.run_simulation", channel.run_simulation))
        self._patch(channel, "build_frame", span(
            "channel.build_frame", channel.build_frame,
            before=self._frame_begins, after=self._frame_built))
        self._patch(channel, "corrupt", span("channel.corrupt", channel.corrupt))
        for name, at in DECODERS.items():
            self._patch(channel, name, span(
                f"decoding.{name}", getattr(channel, name), after=self._decoded(at)))
        self._patch(channel, "standard_array", span("decoding.standard_array", channel.standard_array))
        self._patch(decoding, "standard_array", span("decoding.standard_array", decoding.standard_array))
        self._patch(decoding, "build_standard_array", span(
            "decoding.build_standard_array", decoding.build_standard_array))
        self._patch(ncode.SetNCode, "detect", span("ncode.detect", ncode.SetNCode.detect))
        for attr in ("contains", "basis", "is_linear"):
            self._patch(core.LengthClass, attr, span(f"core.{attr}", getattr(core.LengthClass, attr)))
        for attr in ("classify", "dual"):
            self._patch(core.SetCode, attr, span(f"core.{attr}", getattr(core.SetCode, attr)))
        for attr in ("row_reduce", "span"):
            self._patch(gf2, attr, span(f"gf2.{attr}", getattr(gf2, attr)))
        for attr in COUNTED:
            self._patch(gf2, attr, self._count(attr, getattr(gf2, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # --- output -----------------------------------------------------------

    def write(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "frame", "phase")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")

    def layer_metrics(self, frames: dict[str, int], codes: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures from the spans and counts of one traced block.

        `frames` maps each decoder phase to the frames it pushed through;
        `codes` is how many codes the analysis phase handled.
        """
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        total: Counter = Counter()  # (phase, name) -> inclusive ns
        self_ns: Counter = Counter()  # (phase, name) -> self ns
        count: Counter = Counter()  # (phase, name) -> spans
        for i, (name, start, end, _parent, _frame, phase) in enumerate(self.spans):
            total[phase, name] += end - start
            self_ns[phase, name] += end - start - child[i]
            count[phase, name] += 1

        def over(counter, name, phases=METHODS):
            return sum(counter[p, name] for p in phases)

        nframes = sum(frames.values())

        def us_per_frame(name):
            return over(self_ns, name) / 1e3 / nframes

        def per_code(name):
            return total["analysis", name] / 1e9 / codes

        def mean_us(name, phases=METHODS):
            n = over(count, name, phases)
            return over(total, name, phases) / 1e3 / n if n else 0.0

        m = {
            "channel.rng_streams_per_frame": (over(count, "channel.rng") / nframes, "count"),
            "channel.rng_setup_us": (us_per_frame("channel.rng"), "us"),
            "channel.build_frame_us": (us_per_frame("channel.build_frame"), "us"),
            "channel.corrupt_us": (us_per_frame("channel.corrupt"), "us"),
            "channel.loop_self_us": (us_per_frame("channel.run_simulation"), "us"),
            "ncode.detect_us": (us_per_frame("ncode.detect"), "us"),
            "core.contains_calls": (over(count, "core.contains") / nframes, "count"),
            "core.contains_us": (mean_us("core.contains"), "us"),
            "core.basis_calls": (count["pba", "core.basis"] / frames["pba"], "count"),
            "core.basis_us": (mean_us("core.basis", ("pba",)), "us"),
            "core.is_linear_s": (per_code("core.is_linear"), "s"),
            "core.classify_s": (per_code("core.classify"), "s"),
            "core.dual_s": (per_code("core.dual"), "s"),
        }
        for meth in METHODS:
            name = "decoding." + {"coset": "coset_decode", "nn": "nn_decode",
                                  "pba": "pba_decode_with_retry"}[meth]
            m[f"decoding.decode_us.{meth}"] = (mean_us(name, (meth,)), "us")
        outs = self.outcomes
        m["decoding.decodes"] = (len(outs), "count")
        m["decoding.accepted"] = (sum(o[1] == decoding.ACCEPTED for o in outs), "count")
        m["decoding.corrected"] = (sum(o[1] == decoding.CORRECTED for o in outs), "count")
        m["decoding.failed"] = (sum(o[1] == decoding.FAILED for o in outs), "count")
        for meth in METHODS:
            mine = [o for o in outs if o[0] == meth]
            m[f"decoding.useful_ratio.{meth}"] = (
                sum(o[2] for o in mine) / len(mine) if mine else 0.0, "ratio")
        pba = [o[3] for o in outs if o[0] == "pba"]
        m["decoding.pba_attempts_mean"] = (statistics.fmean(pba) if pba else 0.0, "count")
        every = {phase for phase, _ in count}
        builds = over(count, "decoding.build_standard_array", every)
        m["decoding.array_builds"] = (builds, "count")
        m["decoding.array_cache_hits"] = (over(count, "decoding.standard_array", every) - builds, "count")
        m["decoding.array_build_s"] = (over(total, "decoding.build_standard_array", every) / 1e9, "s")
        for op in COUNTED:
            for meth in METHODS:
                m[f"gf2.{op}_calls.{meth}"] = (self.calls[meth, op] / frames[meth], "count")
            m[f"gf2.{op}_calls.code"] = (self.calls["analysis", op] / codes, "count")
        m["gf2.row_reduce_s"] = (per_code("gf2.row_reduce"), "s")
        m["gf2.span_s"] = (per_code("gf2.span"), "s")
        m["cli.parse_s"] = (total["setup", "cli.parse_code_file"] / 1e9, "s")
        return m
