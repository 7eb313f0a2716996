import concurrent.futures
import json
from concurrent.futures import Future
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseq import tables
from oseq.constructions import ConstructionRecipe, Method, expected_period
from oseq.errors import DomainError
from oseq.tables import TABLE_NAMES, compute_table, reference_tables


def test_reference_tables_shape():
    data = reference_tables()
    assert set(data) >= {"bounds", "bounds_previous", "end_difference_periods",
                         "lifted_periods", "largest_known"}
    assert data["bounds"]["2"]["5"] == 10
    assert data["bounds_previous"]["3"]["4"] == 22
    assert data["end_difference_periods"]["5"]["9"] == 26244
    assert data["lifted_periods"]["6"]["6"] == 20172
    assert data["largest_known"]["6"]["7"]["value"] == 56056


def test_bounds_table_no_mismatch():
    result = compute_table("bounds", 8, 9)
    assert len(result.cells) == 56
    assert result.mismatches() == ()
    assert result.skipped() == ()


def test_table_extent_defaults_to_the_bundled_data():
    assert compute_table("bounds") == compute_table("bounds", 8, 9)


def test_period_tables_small_ranges():
    a = compute_table("a-periods", 6, 3)
    assert a.mismatches() == ()
    assert {(c.n, c.k) for c in a.cells} == {(2, 5), (2, 6), (3, 5), (3, 6)}
    lp = compute_table("lempel-periods", 4, 4)
    assert lp.mismatches() == ()
    assert all(c.status == "ok" for c in lp.cells)


def test_known_table_small_range():
    result = compute_table("known", 5, 4)
    assert result.mismatches() == ()
    external = [c for c in result.cells if c.source == "external"]
    constructed = [c for c in result.cells if c.source != "external"]
    assert constructed, "every small cell should be attained by a construction"
    assert not external


def test_cell_cap_skips_large_cells():
    result = compute_table("a-periods", 9, 8, cell_cap=1000)
    assert result.mismatches() == ()
    skipped = result.skipped()
    assert skipped
    for cell in skipped:
        assert cell.status == "skipped (cap)"
        assert cell.value is None


def _assert_lift_skipped_only_past_its_period(k, n):
    """A lift cell is computed at a cap of exactly its period and skipped
    one below, so its cheap lower bound never exceeds the period."""
    period = expected_period(ConstructionRecipe(Method.LEMPEL_LIFT, k, n))
    with mock.patch.object(tables, "generate",
                           lambda recipe: SimpleNamespace(period=period)), \
         mock.patch.object(tables, "period_upper_bound", lambda k, n: None):
        for cap, status in ((period, "ok"), (period - 1, "skipped (cap)")):
            cell = tables._period_cell("lempel-periods", period,
                                       Method.LEMPEL_LIFT, n, k, cap)
            assert cell.status == status


def test_lift_bound_on_golden_cells():
    data = reference_tables()
    cells = {(int(n), int(k)) for n, row in data["lifted_periods"].items()
             for k in row}
    cells |= {(int(n), int(k)) for n, row in data["largest_known"].items()
              for k, cell in row.items() if cell["method"] == "lempel"}
    assert len(cells) == 36
    for n, k in cells:
        _assert_lift_skipped_only_past_its_period(k, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12), st.integers(3, 14))
def test_lift_bound_never_exceeds_the_period(k, n):
    _assert_lift_skipped_only_past_its_period(k, n)


def test_tall_lift_grid_skips_without_the_exact_count():
    # The exact count is cubic in n; every cell of this grid is skipped by
    # its lower bound alone.
    def refuse(recipe):
        raise AssertionError("expected_period ran")

    with mock.patch.object(tables, "expected_period", refuse):
        result = compute_table("lempel-periods", 3, 300, cell_cap=0)
    assert len(result.skipped()) == len(result.cells) == 298


def test_unknown_table_name():
    with pytest.raises(DomainError):
        compute_table("nonsense", 5, 5)
    assert "bounds" in TABLE_NAMES


def test_text_rendering():
    text = compute_table("bounds", 4, 3).text()
    lines = text.splitlines()
    assert lines[0].startswith("n\\k")
    assert any("(22)" in line for line in lines)


def test_json_records_deterministic():
    first = compute_table("lempel-periods", 4, 4).to_json()
    second = compute_table("lempel-periods", 4, 4).to_json()
    assert first == second
    records = json.loads(first)
    assert all(r["which"] == "lempel-periods" for r in records)
    assert {(r["n"], r["k"]) for r in records} == {(3, 3), (3, 4), (4, 3), (4, 4)}


def test_workers_match_serial():
    serial = compute_table("bounds", 6, 6, workers=1)
    parallel = compute_table("bounds", 6, 6, workers=2)
    assert serial.records() == parallel.records()


def test_mismatch_detection(monkeypatch):
    data = json.loads(json.dumps(reference_tables()))
    data["bounds"]["2"]["5"] = 11
    monkeypatch.setattr(tables, "reference_tables", lambda: data)
    result = compute_table("bounds", 5, 2)
    assert len(result.mismatches()) == 1
    bad = result.mismatches()[0]
    assert (bad.n, bad.k) == (2, 5)
    assert "MISMATCH" in result.text()


@pytest.mark.parametrize("cpus,pools", [(3, [3]), (64, [4]), (None, [])])
def test_worker_pool_is_bounded(monkeypatch, cpus, pools):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(tables.os, "cpu_count", lambda: cpus)
    result = compute_table("bounds", 3, 3, workers=10_000)
    assert sizes == pools
    assert result == compute_table("bounds", 3, 3)
