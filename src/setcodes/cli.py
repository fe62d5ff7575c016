"""Command line front end and the line-oriented code file format.

A code file looks like:

    # any line starting with # is a comment
    ncode demo
    component 1
    class len=6 k=3
    H
    100100
    010010
    001001
    endH
    words
    000000
    001001
    endwords
    end
    component 2
    class len=4
    words
    0000
    1111
    endwords
    end

`end` closes a class block; a new `component` line starts the next
component. Both the H block and k are optional per class.
"""
from __future__ import annotations

import argparse
import sys

from . import gf2
from .channel import (
    ChannelConfig,
    ObfuscationKey,
    format_simulation,
    run_simulation,
)
from .core import LengthClass, SetCode
from .decoding import ACCEPTED, CORRECTED, METHODS
from .errors import ArityMismatch, SetCodeError
from .gf2 import Word
from .ncode import NWord, SetNCode, is_complementing_bicode, parse_nword


def parse_code_file(text: str) -> tuple[str, SetNCode]:
    name = None
    components: list[list[LengthClass]] = []
    pending: dict | None = None
    mode = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if mode is not None:
                if line == "end" + mode:
                    mode = None
                else:
                    pending[mode].append(gf2.word(line))
                continue
            if line.startswith("ncode "):
                if name is not None:
                    raise ValueError("second ncode line")
                name = line[len("ncode "):].strip()
                continue
            if name is None:
                raise ValueError("file must start with an ncode line")
            if line.startswith("component "):
                if pending is not None:
                    raise ValueError("class block left open")
                want = int(line.split()[1])
                if want != len(components) + 1:
                    raise ValueError(f"expected component {len(components) + 1}")
                components.append([])
                continue
            if line.startswith("class "):
                if not components:
                    raise ValueError("class outside any component")
                if pending is not None:
                    raise ValueError("class block left open")
                pending = {"length": None, "k": None, "H": None, "words": []}
                for tok in line.split()[1:]:
                    if tok.startswith("len="):
                        pending["length"] = int(tok[4:])
                    elif tok.startswith("k="):
                        pending["k"] = int(tok[2:])
                    else:
                        raise ValueError(f"unknown class option {tok!r}")
                if pending["length"] is None:
                    raise ValueError("class needs len=")
                continue
            if line in ("H", "words"):
                if pending is None:
                    raise ValueError(f"{line} outside a class block")
                if line == "H":
                    pending["H"] = []
                mode = line
                continue
            if line == "end":
                if pending is None:
                    raise ValueError("end without a class block")
                check = pending["H"]
                components[-1].append(
                    LengthClass(
                        length=pending["length"],
                        words=tuple(pending["words"]),
                        check=tuple(check) if check else None,
                        message_length=pending["k"],
                    )
                )
                pending = None
                continue
            raise ValueError(f"cannot parse {line!r}")
        except (SetCodeError, ValueError) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from exc
    if mode is not None:
        raise ValueError(f"unterminated {mode} block")
    if pending is not None:
        raise ValueError("unterminated class block")
    if name is None:
        raise ValueError("missing ncode line")
    if not components or any(not c for c in components):
        raise ValueError("every component needs at least one class")
    return name, SetNCode(tuple(SetCode(tuple(c)) for c in components))


def render_code_file(name: str, ncode: SetNCode) -> str:
    lines = [f"ncode {name}"]
    for i, comp in enumerate(ncode.components, start=1):
        lines.append(f"component {i}")
        for cls in comp.classes:
            head = f"class len={cls.length}"
            if cls.message_length is not None:
                head += f" k={cls.message_length}"
            lines.append(head)
            if cls.check is not None and cls.check:
                lines.append("H")
                lines.extend(gf2.render(row) for row in cls.check)
                lines.append("endH")
            lines.append("words")
            lines.extend(gf2.render(w) for w in cls.words)
            lines.append("endwords")
            lines.append("end")
    return "\n".join(lines) + "\n"


def load_code_file(path: str) -> tuple[str, SetNCode]:
    with open(path, encoding="utf-8") as fh:
        return parse_code_file(fh.read())


def _cmd_classify(args) -> int:
    name, ncode = load_code_file(args.file)
    print(f"ncode {name}: {ncode.arity} component(s)")
    for i, comp in enumerate(ncode.components, start=1):
        print(f"component {i}: " + ", ".join(comp.classify()))
    labels = list(ncode.classify())
    try:
        if is_complementing_bicode(ncode).ok:
            labels.append("complementing")
    except ArityMismatch:
        pass  # not a bicode, or class counts differ: not complementing
    print("overall: " + ", ".join(labels))
    return 0


def _cmd_encode(args) -> int:
    _, ncode = load_code_file(args.file)
    if not 1 <= args.component <= ncode.arity:
        raise ValueError(f"component {args.component} outside 1..{ncode.arity}")
    comp = ncode.components[args.component - 1]
    if args.length is not None:
        cls = comp.class_of(args.length)
    elif len(comp.classes) == 1:
        cls = comp.classes[0]
    else:
        print("error: --length needed when a component has several classes",
              file=sys.stderr)
        return 1
    print(gf2.render(cls.encode(gf2.word(args.message))))
    return 0


def _cmd_detect(args) -> int:
    _, ncode = load_code_file(args.file)
    nw = parse_nword(args.nword)
    flags = ncode.detect(nw)
    for i, flag in enumerate(flags, start=1):
        if flag is None:
            print(f"part {i}: absent")
        elif flag:
            print(f"part {i}: ok")
        else:
            print(f"part {i}: error detected")
    return 0


def _cmd_decode(args) -> int:
    _, ncode = load_code_file(args.file)
    nw = parse_nword(args.nword)
    outcomes = ncode.decode(nw, method=args.method)
    decoded = []
    for i, out in enumerate(outcomes, start=1):
        if out is None:
            print(f"part {i}: absent")
            decoded.append("-")
        elif out.status == ACCEPTED:
            print(f"part {i}: accepted {gf2.render(out.word)}")
            decoded.append(gf2.render(out.word))
        elif out.status == CORRECTED:
            print(f"part {i}: corrected {gf2.render(out.word)}")
            decoded.append(gf2.render(out.word))
        else:
            print(f"part {i}: failed")
            decoded.append("?")
    print("decoded: " + " u ".join(decoded))
    return 0


def _cmd_dual(args) -> int:
    name, ncode = load_code_file(args.file)
    dual = ncode.dual(restrict_to=args.restrict)
    suffix = "_dual" if args.restrict is None else f"_dual{args.restrict}"
    sys.stdout.write(render_code_file(name + suffix, dual))
    return 0


def _cmd_simulate(args) -> int:
    _, ncode = load_code_file(args.file)
    try:
        carriers = tuple(int(t) for t in args.carriers.split(","))
    except ValueError:
        raise ValueError(
            f"--carriers needs a comma list of integers, got {args.carriers!r}"
        ) from None
    key = ObfuscationKey(carriers)
    config = ChannelConfig(
        flip_probability=args.flip_prob, seed=args.seed, frames=args.frames
    )
    result = run_simulation(ncode, key, config, method=args.method)
    print(format_simulation(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setcodes", description="Work with mixed-length binary set codes."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="name the structure of a code file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("encode", help="encode a message with one class")
    p.add_argument("file")
    p.add_argument("message")
    p.add_argument("--component", type=int, default=1)
    p.add_argument("--length", type=int, default=None)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("detect", help="check an n-word part by part")
    p.add_argument("file")
    p.add_argument("nword")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("decode", help="decode an n-word part by part")
    p.add_argument("file")
    p.add_argument("nword")
    p.add_argument("--method", choices=METHODS, default="nn")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("dual", help="print the dual of a code file")
    p.add_argument("file")
    p.add_argument("--restrict", type=int, default=None)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("simulate", help="run frames through a noisy channel")
    p.add_argument("file")
    p.add_argument("--carriers", required=True, help="comma list, 1-based")
    p.add_argument("--flip-prob", type=float, required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=METHODS, default="coset")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SetCodeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
