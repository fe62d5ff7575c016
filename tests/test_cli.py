"""Code file grammar and the command line subcommands."""
from __future__ import annotations

from pathlib import Path

import pytest

import corpus
from setcodes.cli import main, parse_code_file, render_code_file
from setcodes.errors import ParityViolation

FIXTURES = Path(__file__).parent / "fixtures"

BLOCK = str(FIXTURES / "block_repeat.code")
CHECKED = str(FIXTURES / "checked_bicode.code")
DISTANCE = str(FIXTURES / "distance_bicode.code")
DECOY = str(FIXTURES / "decoy_channel.code")
PAIR = str(FIXTURES / "repetition_pair.code")


def test_parse_fixture_files():
    for path in (BLOCK, CHECKED, DISTANCE, DECOY, PAIR):
        text = Path(path).read_text()
        name, ncode = parse_code_file(text)
        assert name == Path(path).stem
        assert ncode.arity >= 1


def test_render_parse_round_trip():
    for path in (BLOCK, CHECKED, DISTANCE, DECOY, PAIR):
        text = Path(path).read_text()
        name, ncode = parse_code_file(text)
        again_name, again = parse_code_file(render_code_file(name, ncode))
        assert again_name == name
        assert again == ncode


def test_parse_errors():
    cases = (
        "component 1",
        "ncode a\nncode b",
        "ncode a\nclass len=3",
        "ncode a\ncomponent 2",
        "ncode a\ncomponent 1\nclass len=3 q=2",
        "ncode a\ncomponent 1\nclass len=3\nwords\n111",
        "ncode a\ncomponent 1\nclass len=3\nH\n111",
        "ncode a\ncomponent 1\nclass len=3",
        "ncode a\ncomponent 1\nfoo bar",
        "ncode a\ncomponent 1\ncomponent 2\nclass len=2\nwords\n11\nendwords\nend",
        "ncode a",
    )
    for text in cases:
        with pytest.raises(ValueError):
            parse_code_file(text)


def test_class_errors_carry_the_end_line():
    short = "ncode a\ncomponent 1\nclass len=3\nwords\n000\n11\nendwords\nend"
    with pytest.raises(ValueError, match="^line 8: word 11 does not have length 3") as exc:
        parse_code_file(short)
    assert exc.type is ValueError
    parity = (
        "ncode a\ncomponent 1\nclass len=3\nH\n111\nendH\n"
        "words\n000\n100\nendwords\nend"
    )
    with pytest.raises(ParityViolation, match="^line 11: word 100 fails"):
        parse_code_file(parity)


@pytest.mark.parametrize(
    "text, line",
    [
        ("ncode a\ncomponent 1\nclass len=3\nwords\n000\n1x1\nendwords\nend", 6),
        ("ncode a\ncomponent 1\nclass len=3\nH\n1x1\nendH", 5),
        ("ncode a\n# comment\ncomponent one", 3),
        ("ncode a\ncomponent 1\nclass len=three", 3),
        ("ncode a\ncomponent 1\nclass len=3 k=x", 3),
    ],
    ids=["words-bitstring", "H-bitstring", "component", "len", "k"],
)
def test_value_errors_name_their_line(text, line):
    with pytest.raises(ValueError, match=f"^line {line}: "):
        parse_code_file(text)


def test_classify_repetition_pair(capsys):
    assert main(["classify", PAIR]) == 0
    out = capsys.readouterr().out
    assert "ncode repetition_pair: 2 component(s)" in out
    assert "component 1: set, repetition, cyclic, semigroup, group" in out
    assert "overall: set, repetition, cyclic, semigroup, group" in out
    assert "complementing" not in out


def test_classify_flags_complementing(tmp_path, capsys):
    nc = corpus.bicode(corpus.COMPLEMENTING_COMP1, corpus.COMPLEMENTING_COMP2)
    path = tmp_path / "pair.code"
    path.write_text(render_code_file("pair", nc))
    assert main(["classify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "complementing" in out.splitlines()[-1]


def test_classify_unequal_class_counts_is_not_complementing(capsys):
    # Its components hold 2 and 3 classes, so the complementing test does
    # not apply.
    assert main(["classify", DISTANCE]) == 0
    captured = capsys.readouterr()
    assert "complementing" not in captured.out
    assert captured.err == ""


def test_encode(capsys):
    assert main(["encode", BLOCK, "101"]) == 0
    assert capsys.readouterr().out.strip() == "101101"


def test_encode_needs_length_for_multiclass_components(capsys):
    assert main(["encode", PAIR, "1"]) == 1
    assert "--length" in capsys.readouterr().err


def test_encode_without_check_fails(capsys):
    assert main(["encode", PAIR, "1", "--length", "4"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_encode_rejects_component_out_of_range(capsys):
    for index in ("9", "0"):
        assert main(["encode", BLOCK, "101", "--component", index]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: component")
        assert captured.out == ""


def test_detect(capsys):
    assert main(["detect", CHECKED, "111000 u 1111100"]) == 0
    out = capsys.readouterr().out
    assert "part 1: error detected" in out
    assert "part 2: error detected" in out
    assert main(["detect", CHECKED, "- u 0000000"]) == 0
    out = capsys.readouterr().out
    assert "part 1: absent" in out
    assert "part 2: ok" in out


def test_decode_nn(capsys):
    assert main(["decode", BLOCK, "111001"]) == 0
    out = capsys.readouterr().out
    assert "part 1: corrected 111111" in out
    assert "decoded: 111111" in out


def test_decode_coset(capsys):
    assert main(["decode", BLOCK, "111001", "--method", "coset"]) == 0
    out = capsys.readouterr().out
    assert "part 1: corrected 001001" in out
    assert "decoded: 001001" in out


def test_decode_pba_reports_failure(capsys):
    # the repeat code is orthogonal to itself, so projection dies honestly
    assert main(["decode", BLOCK, "001001", "--method", "pba"]) == 0
    out = capsys.readouterr().out
    assert "part 1: failed" in out
    assert "decoded: ?" in out


def test_decode_member(capsys):
    assert main(["decode", BLOCK, "110110"]) == 0
    out = capsys.readouterr().out
    assert "part 1: accepted 110110" in out


def test_decode_multipart(capsys):
    received = " u ".join(corpus.BICODE_DISTANCE_RECEIVED)
    assert main(["decode", DISTANCE, received]) == 0
    out = capsys.readouterr().out
    assert "part 1: corrected 111101" in out
    assert "part 2: corrected 1010101" in out
    assert "decoded: 111101 u 1010101" in out


def test_dual_of_the_repeat_code_is_itself(capsys):
    assert main(["dual", BLOCK]) == 0
    out = capsys.readouterr().out
    name, dual = parse_code_file(out)
    assert name == "block_repeat_dual"
    cls = dual.components[0].classes[0]
    assert set(cls.words) == set(corpus.REPEAT3_6_WORDS)
    assert cls.check == corpus.REPEAT3_6_CHECK


def test_dual_with_weight_restriction(capsys):
    assert main(["dual", BLOCK, "--restrict", "2"]) == 0
    out = capsys.readouterr().out
    name, dual = parse_code_file(out)
    assert name == "block_repeat_dual2"
    cls = dual.components[0].classes[0]
    assert set(cls.words) == set(
        corpus.words("000000", "001001", "010010", "100100")
    )
    assert cls.check is None


def test_simulate_smoke(capsys):
    assert main([
        "simulate", DECOY,
        "--carriers", "1",
        "--flip-prob", "0.02",
        "--frames", "50",
        "--seed", "7",
    ]) == 0
    out = capsys.readouterr().out
    assert "frames 50" in out
    assert "component 1 carrier" in out
    assert "component 2 decoy" in out


def test_simulate_rejects_bad_carriers(capsys):
    base = ["simulate", DECOY, "--flip-prob", "0.02", "--frames", "10"]
    assert main(base + ["--carriers", "2,1"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert main(base + ["--carriers", "0"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    for carriers in ("1,x", ""):
        assert main(base + ["--carriers", carriers]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--carriers" in err


def test_simulate_has_no_threads_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "simulate", DECOY, "--carriers", "1", "--flip-prob", "0.02",
            "--frames", "10", "--threads", "2",
        ])
    assert exc.value.code == 2


def test_simulate_nn_needs_a_message_length(capsys):
    # Component 2 of the decoy file is a length-7 class without k=.
    assert main([
        "simulate", DECOY,
        "--carriers", "2",
        "--flip-prob", "0.02",
        "--frames", "10",
        "--method", "nn",
    ]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "no message length" in captured.err
    assert captured.out == ""


def test_missing_file(capsys):
    assert main(["classify", "no_such_file.code"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_no_arguments_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
