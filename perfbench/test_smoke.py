"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import json
import math

import numpy as np
import pytest

import run
import workloads
from oseq import oracle
from spans import NullTracer

TINY = {
    "generate-large": workloads.GenerateLarge(cells=(("a", 5, 3), ("lempel", 3, 4))),
    "table-grid": workloads.TableGrid(
        tables=(("bounds", 4, 4), ("known", 4, 3), ("a-periods", 6, 3),
                ("lempel-periods", 4, 4)),
        searches=((4, 3),), cell_cap=100),
    "decode-stream": workloads.DecodeStream(
        recipe=("lempel", 4, 4), verifies=1, mutants=4, queries=12,
        wide_files=2, wide_length=200),
}

# Figures that only one workload has; the detail line carries them.
WORKLOAD_FIGURES = {
    "generate-large": {"generate_edges_per_s"},
    "table-grid": {"grid_cells_per_s", "search_s"},
    "decode-stream": {"verify_symbols_per_s", "reject_per_s", "locate_per_s",
                      "locate_p50_ms", "locate_p90_ms"},
}


def spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_tiny_workloads_cover_every_named_workload():
    assert set(TINY) == {w["name"] for w in spec()["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result, detail = run.run(TINY[name], seed=3, seconds=0.01, trace=trace,
                             out_dir=tmp_path, setups=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    assert detail["figures"]["error_rate"] == 0
    assert WORKLOAD_FIGURES[name] <= set(detail["figures"])
    if trace:
        assert (tmp_path / f"spans-{name}-seed3.jsonl").stat().st_size > 0


def test_a_wrong_answer_raises_the_error_rate(monkeypatch, tmp_path):
    def wrong_locate(seq, window):
        return oracle.LocateResult(0, oracle.Direction.FORWARD)

    monkeypatch.setattr(oracle, "locate", wrong_locate)
    result, detail = run.run(TINY["decode-stream"], seed=3, seconds=0.01, trace=0,
                             out_dir=tmp_path, setups=1)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert detail["figures"]["error_rate"] == result["failed"] / result["attempted"]


def test_inputs_depend_only_on_the_seed(tmp_path):
    w = TINY["decode-stream"]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = w.setup(5, tmp_path / "a", NullTracer())
    b = w.setup(5, tmp_path / "b", NullTracer())
    assert a["queries"] == b["queries"]
    assert all(np.array_equal(x, y) for x, y in zip(a["mutants"], b["mutants"]))
    assert [want for _, want in a["wide"]] == [want for _, want in b["wide"]]
