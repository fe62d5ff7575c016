"""Tiny-size smoke test of every benchmark workload, in both trace modes.

Not part of the package's test suite; run it with

    python3 -m pytest bench/test_smoke.py -q

Each workload runs one short unit per timed metric with small frame counts.
The test checks that every output check passes and that the run reports
exactly the metrics BENCHMARK.json declares.
"""
from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "decoy_bicode": dict(
        unit_frames={"coset": 200, "nn": 200, "pba": 100},
        code_repeats=2,
        traced_frames={"coset": 100, "nn": 100, "pba": 100},
    ),
    "bch_carrier": dict(
        unit_frames={"coset": 100, "nn": 100, "pba": 2},
        traced_frames={"coset": 50, "nn": 50, "pba": 2},
        check_frames=2000,
    ),
    "codebook": dict(
        channel=("ham7", "rand9_5", "rand8_4"),
        family=("ham7", "rand9_5", "rand8_4"),
        unit_frames={"coset": 100, "nn": 100, "pba": 50},
        traced_frames={"coset": 50, "nn": 50, "pba": 50},
        check_frames=2000,
    ),
}


def test_declared_workloads_exist():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_clean(name, trace):
    wl = dataclasses.replace(harness.WORKLOADS[name], **TINY[name])
    result = harness.run(wl, seed=3, seconds=0.01, trace=trace)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    kind = "per_layer" if trace else "end_to_end"
    assert sorted(result["metrics"]) == sorted(m["name"] for m in DECLARED[kind])
    for metric in DECLARED[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
