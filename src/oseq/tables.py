"""Recompute the bundled reference tables and diff against them.

Four tables ship with the package: the period upper bounds (with the
previous published bounds kept for display), the end-difference
construction periods, the lifted low-pseudoweight construction periods,
and the largest known periods.  Cells of the last table that no bundled
construction attains are display-only and tagged external.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from functools import lru_cache
from importlib import resources

from .bounds import _digit_limit, period_upper_bound
from .constructions import ConstructionRecipe, Method, expected_period, generate
from .errors import DomainError, ResourceCapError
from .tuples import at_least

# For each table: the least (k, n) of its grid; its default (max_k, max_n),
# the full extent of the bundled golden data; its golden key; and the
# construction that fills its cells (None: bounds, or named per cell in known).
_TABLES = {
    "bounds": ((2, 2), (8, 9), "bounds", None),
    "a-periods": ((5, 2), (9, 8), "end_difference_periods", Method.END_DIFFERENCE),
    "lempel-periods": ((3, 3), (8, 8), "lifted_periods", Method.LEMPEL_LIFT),
    "known": ((3, 2), (8, 8), "largest_known", None),
}
TABLE_NAMES = tuple(_TABLES)
DEFAULT_CELL_CAP = 1_000_000
MAX_GRID_CELLS = 1_000_000

STATUS_OK = "ok"
STATUS_MISMATCH = "mismatch"
STATUS_SKIPPED = "skipped (cap)"
STATUS_UNCHECKED = "unchecked"


@dataclass(frozen=True)
class TableCell:
    which: str
    n: int
    k: int
    value: int | None
    bound: int | None
    source: str
    status: str


@dataclass(frozen=True)
class TableResult:
    which: str
    cells: tuple[TableCell, ...]

    def mismatches(self) -> tuple[TableCell, ...]:
        return tuple(c for c in self.cells if c.status == STATUS_MISMATCH)

    def skipped(self) -> tuple[TableCell, ...]:
        return tuple(c for c in self.cells if c.status == STATUS_SKIPPED)

    def records(self) -> list[dict]:
        return [asdict(c) for c in self.cells]

    def to_json(self) -> str:
        return json.dumps(self.records(), indent=1)

    def text(self) -> str:
        ns = sorted({c.n for c in self.cells})
        ks = sorted({c.k for c in self.cells})
        by_pos = {(c.n, c.k): c for c in self.cells}

        def render(c: TableCell | None) -> str:
            if c is None:
                return ""
            if c.status == STATUS_SKIPPED:
                return "skipped (cap)"
            body = str(c.value)
            if c.bound is not None:
                body += f" ({c.bound})"
            if c.source == "external":
                body += " ext"
            if c.status == STATUS_MISMATCH:
                body += " MISMATCH"
            return body

        header = ["n\\k"] + [str(k) for k in ks]
        rows = [[str(n)] + [render(by_pos.get((n, k))) for k in ks] for n in ns]
        widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
        lines = []
        for r in [header] + rows:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=1)
def reference_tables() -> dict:
    """The bundled golden tables, parsed once."""
    path = resources.files("oseq.data").joinpath("reference_tables.json")
    return json.loads(path.read_text(encoding="ascii"))


def _golden(table: str, n: int, k: int):
    return reference_tables().get(table, {}).get(str(n), {}).get(str(k))


def _status(value: int, golden: int | None) -> str:
    if golden is None:
        return STATUS_UNCHECKED
    return STATUS_OK if value == golden else STATUS_MISMATCH


def _period_cell(which: str, golden: int | None, method: Method,
                 n: int, k: int, cell_cap: int) -> TableCell:
    recipe = ConstructionRecipe(method, k, n)
    # A lift's period is k times its base's edges: k**(n-2)*(k-2)//2 or more.
    if (method is Method.LEMPEL_LIFT and k * (k**(n - 2) * (k - 2) // 2) > cell_cap
            or expected_period(recipe) > cell_cap):
        return TableCell(which, n, k, None, None, "computed", STATUS_SKIPPED)
    seq = generate(recipe)
    bound = period_upper_bound(k, n)
    return TableCell(which, n, k, seq.period, bound, "computed",
                     _status(seq.period, golden))


def _compute_cell(which: str, n: int, k: int, cell_cap: int) -> TableCell | None:
    _, _, key, method = _TABLES[which]
    golden = _golden(key, n, k)
    if which == "known":
        if golden is None:
            return None
        if golden["method"] == "external":
            return TableCell(which, n, k, golden["value"],
                             period_upper_bound(k, n), "external", STATUS_OK)
        golden, method = golden["value"], Method(golden["method"])
    if method is not None:
        return _period_cell(which, golden, method, n, k, cell_cap)
    value = period_upper_bound(k, n)
    return TableCell(which, n, k, value, _golden("bounds_previous", n, k),
                     "computed", _status(value, golden))


def compute_table(which: str, max_k: int | None = None, max_n: int | None = None,
                  cell_cap: int = DEFAULT_CELL_CAP,
                  workers: int = 1) -> TableResult:
    """Fill one table over n rows and k columns up to the given maxima,
    by default the full extent of its bundled golden data.

    Cells whose construction would exceed cell_cap edges are marked
    skipped, and a grid of more than MAX_GRID_CELLS cells is refused.
    With workers > 1 the independent cells run in a process pool of at
    most one worker per cell and per CPU; assembly order is fixed either
    way, so output is identical.
    """
    if which not in TABLE_NAMES:
        raise DomainError(f"table must be one of {TABLE_NAMES}, got {which!r}")
    (least_k, least_n), (default_k, default_n), *_ = _TABLES[which]
    max_k = default_k if max_k is None else max_k
    max_n = default_n if max_n is None else max_n
    at_least(max_k, 2, "max_k")
    at_least(max_n, 2, "max_n")
    if which == "bounds" and max_n >= _digit_limit(max_k):
        # Refuse before any cell, naming the first too wide in grid order.
        n = max(least_n, _digit_limit(max_k))
        period_upper_bound(
            next(k for k in range(least_k, max_k + 1) if n >= _digit_limit(k)), n)
    size = max(0, max_n - least_n + 1) * max(0, max_k - least_k + 1)
    if size > MAX_GRID_CELLS:
        raise ResourceCapError(f"table grid of {size} cells exceeds cap {MAX_GRID_CELLS}")
    grid = [(n, k) for n in range(least_n, max_n + 1)
            for k in range(least_k, max_k + 1)]
    workers = min(workers, len(grid), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # pulls in multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                (n, k): pool.submit(_compute_cell, which, n, k, cell_cap)
                for n, k in grid
            }
            cells = [futures[pos].result() for pos in grid]
    else:
        cells = [_compute_cell(which, n, k, cell_cap) for n, k in grid]
    return TableResult(which, tuple(c for c in cells if c is not None))
