"""The benchmark's three workloads and the checks on their answers.

Each workload is a closed loop with one caller: the next call starts only
when the previous one returned.  Everything runs in one process, with no
threads and workers=1.  A pass is one round of the workload's user job;
the runner repeats passes for the measured time.

Every call into oseq goes through the module attribute (oracle.locate,
not a name imported from it), so the replays below call exactly the
public functions the program exposes and a test can swap one out to
check that a wrong answer is caught.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oseq
from oseq import bounds, cli, constructions, graph, oracle, sequences, tables, tuples
from oseq.constructions import ConstructionRecipe, Method
from oseq.errors import DomainError, ResourceCapError

_HEADER_RE = re.compile(r"^k=(\d+) n=(\d+) period=(\d+) method=(\S+)$")


class ReplayMismatch(RuntimeError):
    """The replayed public calls no longer spell what generate() returned."""


@dataclass
class Op:
    """One timed call from the benchmark into oseq and what it returned."""

    kind: str
    key: object
    seconds: float
    answer: object


@dataclass
class Tally:
    """Operations attempted, failed (raised or answered wrong) and wrong."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def add(self, ok: bool, note: str, answered: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if answered:
                self.wrong += 1
            if len(self.notes) < 20:
                self.notes.append(note)


def load_golden() -> dict:
    """The bundled reference tables, read from the file, not via oseq.tables."""
    path = Path(oseq.__file__).parent / "data" / "reference_tables.json"
    return json.loads(path.read_text(encoding="ascii"))


def golden_period(golden: dict, recipe: ConstructionRecipe) -> int:
    table = {Method.END_DIFFERENCE: "end_difference_periods",
             Method.LEMPEL_LIFT: "lifted_periods"}[recipe.method]
    return golden[table][str(recipe.n)][str(recipe.k)]


def label(recipe: ConstructionRecipe) -> str:
    return f"{recipe.method.value},{recipe.k},{recipe.n}"


def sha256_symbols(symbols) -> str:
    return hashlib.sha256(np.asarray(symbols, dtype=np.uint8).tobytes()).hexdigest()


def median_rate(passes: list[list[Op]], kinds: tuple[str, ...], units) -> float:
    """Median over passes of the units done per second by some kinds of op."""
    rates = []
    for ops in passes:
        mine = [op for op in ops if op.kind in kinds]
        rates.append(sum(units(op) for op in mine) / sum(op.seconds for op in mine))
    return statistics.median(rates)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """oseq's command line in-process; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def parse_file(path: Path) -> tuple[int, int, int, np.ndarray]:
    """Benchmark-side reader of the sequence file format: (k, n, period, symbols)."""
    header, body = path.read_text(encoding="ascii").split("\n", 1)
    m = _HEADER_RE.match(header)
    if m is None:
        raise ValueError(f"bad header {header!r}")
    k, n, period = (int(m.group(i)) for i in (1, 2, 3))
    body = body.strip()
    if k <= 10:
        symbols = np.frombuffer(body.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        symbols = np.array([int(x) for x in body.split(",")], dtype=np.int64)
    return k, n, period, symbols


def write_comma_file(path: Path, symbols, k: int, n: int) -> None:
    body = ",".join(str(int(s)) for s in symbols)
    path.write_text(f"k={k} n={n} period={len(symbols)} method=unknown\n{body}\n",
                    encoding="ascii")


def cyclic_window(symbols, i: int, n: int) -> tuple[int, ...]:
    m = len(symbols)
    return tuple(int(symbols[(i + j) % m]) for j in range(n))


def is_orientable(symbols, n: int) -> bool:
    """Pure-Python reference: distinct cyclic n-windows, none equal to the
    reversal of any window (itself included, so no palindromes)."""
    s = [int(x) for x in symbols]
    m = len(s)
    if m < n:
        return False
    ext = s + s[:n - 1]
    seen = set()
    for i in range(m):
        w = tuple(ext[i:i + n])
        if w in seen:
            return False
        seen.add(w)
    return not any(w[::-1] in seen for w in seen)


def witness_holds(symbols, n: int, verdict) -> bool:
    """Whether a rejection's witness windows really are equal or reversed."""
    if verdict.i is None or verdict.j is None:
        return False
    wi = cyclic_window(symbols, verdict.i, n)
    wj = cyclic_window(symbols, verdict.j, n)
    if verdict.kind == "duplicate":
        return verdict.i != verdict.j and wi == wj
    if verdict.kind == "reversal":
        return wi == wj[::-1]
    return False


# -- replays -------------------------------------------------------------
#
# A replay makes the public calls that one job makes, in the same order,
# each in its own span.  The job's own span minus its replay's span is the
# job's overhead, so a later change to the job's internals shows up as a
# gap rather than as a silent difference.


def _replay_build(recipe: ConstructionRecipe, tracer):
    k, n = recipe.k, recipe.n
    if recipe.method is Method.END_DIFFERENCE:
        return constructions.end_difference_graph(k, n)
    if recipe.method is Method.LEMPEL_LIFT:
        base = constructions.low_pseudoweight_graph(k, n - 1)
        with tracer.span("graph.is_antinegasymmetric"):
            graph.is_antinegasymmetric(base)
        with tracer.span("graph.is_balanced"):
            graph.is_balanced(base)
        return constructions.lempel_lift(base)
    raise ValueError(f"no replay for method {recipe.method.value}")


def replay_expected_period(recipe: ConstructionRecipe, tracer) -> int:
    with tracer.span("constructions.expected_period"):
        if recipe.method is Method.LEMPEL_LIFT:
            # The count expected_period makes, called first with the same
            # arguments so that its cost lands in its own span; the call
            # inside expected_period then hits the cache.
            with tracer.span("tuples.count_by_doubled_pseudoweight"):
                tuples.count_by_doubled_pseudoweight(
                    recipe.k, recipe.n - 1, (recipe.n - 1) * recipe.k)
        return constructions.expected_period(recipe)


def replay_generate(recipe: ConstructionRecipe, tracer) -> np.ndarray:
    """generate()'s public calls, in its order; returns the symbols."""
    with tracer.span("replay.generate", recipe=label(recipe)):
        with tracer.span("constructions.build"):
            g = _replay_build(recipe, tracer)
        with tracer.span("graph.is_antisymmetric"):
            graph.is_antisymmetric(g)
        with tracer.span("graph.is_balanced"):
            graph.is_balanced(g)
        with tracer.span("graph.is_connected"):
            graph.is_connected(g)
        with tracer.span("graph.eulerian_circuit"):
            circuit = graph.eulerian_circuit(g)
        with tracer.span("graph.circuit_to_sequence"):
            symbols = graph.circuit_to_sequence(circuit)
        with tracer.span("oracle.verify") as attrs:
            attrs["accepted"] = oracle.verify(symbols, recipe.n, recipe.k).accepted
        replay_expected_period(recipe, tracer)
    return symbols


def traced_generate(recipe: ConstructionRecipe, tracer):
    """generate() as one span; check_replay() later replays it step by step."""
    with tracer.span("constructions.generate", recipe=label(recipe)):
        seq = constructions.generate(recipe)
    return seq


def check_replay(recipe: ConstructionRecipe, seq, tracer) -> None:
    symbols = replay_generate(recipe, tracer)
    if not np.array_equal(symbols, seq.symbols):
        raise ReplayMismatch(
            f"replayed calls for {label(recipe)} spell a different sequence "
            f"than generate() returned")


# -- generate-large ------------------------------------------------------


@dataclass
class GenerateLarge:
    """In-process `oseq generate` on large cells, each file written to disk."""

    name: str = "generate-large"
    cells: tuple = (("a", 8, 7), ("lempel", 7, 7))

    def recipes(self) -> list[ConstructionRecipe]:
        return [ConstructionRecipe(Method(m), k, n) for m, k, n in self.cells]

    def setup(self, seed: int, workdir: Path, tracer) -> dict:
        # The inputs are the fixed cells; the seed changes nothing here.
        jobs = [(r, workdir / f"os_{r.method.value}_k{r.k}_n{r.n}.txt")
                for r in self.recipes()]
        return {"jobs": jobs, "golden": load_golden()}

    def run_pass(self, state: dict, tracer) -> list[Op]:
        ops = []
        for recipe, path in state["jobs"]:
            argv = ["generate", "--method", recipe.method.value,
                    "--k", str(recipe.k), "--n", str(recipe.n), "--out", str(path)]
            with tracer.span("cli.main", job="generate", recipe=label(recipe)):
                t0 = time.perf_counter()
                answer = call_cli(argv)
                seconds = time.perf_counter() - t0
            ops.append(Op("generate", recipe, seconds, answer))
        return ops

    def check(self, state: dict, ops: list[Op], tally: Tally) -> None:
        for op in ops:
            recipe = op.key
            path = dict(state["jobs"])[recipe]
            rc, _ = op.answer
            if rc != 0:
                tally.add(False, f"generate {label(recipe)} exited {rc}", answered=False)
                continue
            want = golden_period(state["golden"], recipe)
            try:
                k, n, period, symbols = parse_file(path)
                ok = (k, n, period, symbols.size) == (recipe.k, recipe.n, want, want)
                ok = ok and oracle.verify(symbols, n, k).accepted
            except (ValueError, DomainError):
                ok = False
            tally.add(ok, f"generate {label(recipe)} wrote a wrong sequence")
            if ok:
                tally.digests[label(recipe)] = sha256_symbols(symbols)

    def replay(self, state: dict, ops: list[Op], tracer) -> None:
        for recipe, path in state["jobs"]:
            with tracer.span("replay.cli", job="generate", recipe=label(recipe)):
                seq = traced_generate(recipe, tracer)
                with tracer.span("bounds.period_upper_bound"):
                    bounds.period_upper_bound(recipe.k, recipe.n)
                with tracer.span("sequences.write_sequence_file") as attrs:
                    sequences.write_sequence_file(path, seq)
                    attrs["bytes"] = path.stat().st_size
            check_replay(recipe, seq, tracer)

    def largest_recipe(self, state: dict, ops: list[Op]) -> ConstructionRecipe | None:
        return max(self.recipes(),
                   key=lambda r: golden_period(state["golden"], r))

    def details(self, state: dict, passes: list[list[Op]]) -> dict:
        rate = median_rate(passes, ("generate",),
                           lambda op: golden_period(state["golden"], op.key))
        return {"work_per_s": rate, "generate_edges_per_s": rate}


# -- table-grid ----------------------------------------------------------


@dataclass
class TableGrid:
    """compute_table over the bundled grids at a 100k-edge cell cap, then
    the exhaustive search on cells where it reaches the closed-form bound."""

    name: str = "table-grid"
    tables: tuple = (("bounds", 8, 9), ("known", 8, 8),
                     ("a-periods", 9, 8), ("lempel-periods", 8, 8))
    searches: tuple = ((3, 4), (4, 3), (8, 2))
    cell_cap: int = 100_000
    node_budget: int = 5_000_000

    def setup(self, seed: int, workdir: Path, tracer) -> dict:
        # The inputs are the fixed grids; the seed changes nothing here.
        return {"golden": load_golden(), "verified": {}}

    def run_pass(self, state: dict, tracer) -> list[Op]:
        ops = []
        for which, max_k, max_n in self.tables:
            with tracer.span("tables.compute_table", which=which) as attrs:
                t0 = time.perf_counter()
                result = tables.compute_table(which, max_k, max_n,
                                              cell_cap=self.cell_cap, workers=1)
                seconds = time.perf_counter() - t0
                attrs["cells_ok"] = sum(c.status == tables.STATUS_OK for c in result.cells)
                attrs["cells_skipped"] = len(result.skipped())
            ops.append(Op("table", (which, max_k, max_n), seconds, result))
        for k, n in self.searches:
            with tracer.span("oracle.exhaustive_max_period", k=k, n=n) as attrs:
                t0 = time.perf_counter()
                outcome = oracle.exhaustive_max_period(k, n, node_budget=self.node_budget)
                seconds = time.perf_counter() - t0
                attrs["nodes"] = outcome.nodes_expanded
            ops.append(Op("search", (k, n), seconds, outcome))
        return ops

    def cell_recipe(self, golden: dict, which: str, n: int, k: int):
        if which == "a-periods":
            return ConstructionRecipe(Method.END_DIFFERENCE, k, n)
        if which == "lempel-periods":
            return ConstructionRecipe(Method.LEMPEL_LIFT, k, n)
        if which == "known":
            method = golden["largest_known"][str(n)][str(k)]["method"]
            if method != "external":
                return ConstructionRecipe(Method(method), k, n)
        return None

    def expected_cells(self, golden: dict, which: str, max_k: int, max_n: int) -> dict:
        """(n, k) -> golden value for every cell the table should hold."""
        source = {"bounds": "bounds", "known": "largest_known",
                  "a-periods": "end_difference_periods",
                  "lempel-periods": "lifted_periods"}[which]
        out = {}
        for n, row in golden[source].items():
            for k, value in row.items():
                if int(n) <= max_n and int(k) <= max_k:
                    out[(int(n), int(k))] = value["value"] if which == "known" else value
        return out

    def check(self, state: dict, ops: list[Op], tally: Tally) -> None:
        golden = state["golden"]
        for op in ops:
            if op.kind == "search":
                self._check_search(golden, op, tally)
                continue
            which, max_k, max_n = op.key
            want = self.expected_cells(golden, which, max_k, max_n)
            cells = {(c.n, c.k): c for c in op.answer.cells}
            for pos in sorted(set(want) | set(cells)):
                cell = cells.get(pos)
                if cell is None or pos not in want:
                    tally.add(False, f"{which} cell {pos} missing or unexpected")
                    continue
                if cell.status == tables.STATUS_SKIPPED:
                    # Skipping is fine only where the cell really is over the cap.
                    if want[pos] <= self.cell_cap:
                        tally.add(False, f"{which} cell {pos} skipped under the cap")
                    continue
                ok = cell.value == want[pos] and cell.status == tables.STATUS_OK
                recipe = self.cell_recipe(golden, which, *pos)
                if ok and recipe is not None:
                    ok = self._verified(state, recipe, want[pos], tally)
                tally.add(ok, f"{which} cell {pos} = {cell.value}, want {want[pos]}")

    def _verified(self, state: dict, recipe: ConstructionRecipe, want: int,
                  tally: Tally) -> bool:
        """Regenerate a cell once per run and verify it independently."""
        key = label(recipe)
        if key not in state["verified"]:
            seq = constructions.generate(recipe)
            state["verified"][key] = (seq.period == want and
                                      oracle.verify(seq.symbols, recipe.n, recipe.k).accepted)
            tally.digests[key] = sha256_symbols(seq.symbols)
        return state["verified"][key]

    def _check_search(self, golden: dict, op: Op, tally: Tally) -> None:
        k, n = op.key
        out = op.answer
        want = golden["bounds"][str(n)][str(k)]
        ok = (out.period == want and out.exact and out.witness is not None
              and len(out.witness) == want and is_orientable(out.witness, n))
        tally.add(ok, f"search ({k},{n}) found {out.period}, want {want}")

    def replay(self, state: dict, ops: list[Op], tracer) -> None:
        golden = state["golden"]
        generated = []
        for op in ops:
            if op.kind != "table":
                continue
            which = op.key[0]
            with tracer.span("replay.compute_table", which=which):
                for cell in op.answer.cells:
                    recipe = self.cell_recipe(golden, which, cell.n, cell.k)
                    if which in ("bounds", "known"):
                        with tracer.span("bounds.period_upper_bound"):
                            bounds.period_upper_bound(cell.k, cell.n)
                    if recipe is None:
                        continue
                    if replay_expected_period(recipe, tracer) > self.cell_cap:
                        continue
                    generated.append((recipe, traced_generate(recipe, tracer)))
                    if which != "known":
                        with tracer.span("bounds.period_upper_bound"):
                            bounds.period_upper_bound(cell.k, cell.n)
        for recipe, seq in generated:
            check_replay(recipe, seq, tracer)

    def largest_recipe(self, state: dict, ops: list[Op]) -> ConstructionRecipe | None:
        golden = state["golden"]
        recipes = [self.cell_recipe(golden, op.key[0], c.n, c.k)
                   for op in ops if op.kind == "table" for c in op.answer.cells
                   if c.status == tables.STATUS_OK]
        recipes = [r for r in recipes if r is not None]
        return max(recipes, key=constructions.expected_period, default=None)

    def details(self, state: dict, passes: list[list[Op]]) -> dict:
        rate = median_rate(passes, ("table",), lambda op: sum(
            c.value is not None and c.source == "computed" for c in op.answer.cells))
        search_s = statistics.median(
            sum(op.seconds for op in p if op.kind == "search") for p in passes)
        return {"work_per_s": rate, "grid_cells_per_s": rate, "search_s": search_s}


# -- decode-stream -------------------------------------------------------


@dataclass
class DecodeStream:
    """Verify a generated file, verify seeded corruptions of it, decode
    seeded sensor windows; wide-alphabet files are probed separately."""

    name: str = "decode-stream"
    recipe: tuple = ("lempel", 7, 7)
    verifies: int = 2
    mutants: int = 16
    queries: int = 48
    wide_files: int = 4
    wide_length: int = 20_000
    wide_k: int = 11
    wide_n: int = 19

    def setup(self, seed: int, workdir: Path, tracer) -> dict:
        rng = random.Random(seed)
        recipe = ConstructionRecipe(Method(self.recipe[0]), *self.recipe[1:])
        k, n = recipe.k, recipe.n
        seq = constructions.generate(recipe)
        path = workdir / "decode_input.txt"
        with tracer.span("sequences.write_sequence_file") as attrs:
            sequences.write_sequence_file(path, seq)
            attrs["bytes"] = path.stat().st_size
        symbols = np.asarray(seq.symbols)
        period = seq.period
        mutants = []
        for i in range(self.mutants):
            # One corruption per equal stretch of the period, so the reject
            # path's rescan length, which grows with the position of the
            # first offending window, averages out the same for every seed.
            pos = int((i + rng.random()) * period / self.mutants)
            mutant = symbols.copy()
            mutant[pos] = (int(mutant[pos]) + 1 + rng.randrange(k - 1)) % k
            mutants.append(mutant)
        queries = []
        for i in range(self.queries):
            kind = ("forward", "forward", "forward", "reverse", "reverse",
                    "palindrome")[i % 6]
            if kind == "palindrome":
                half = [rng.randrange(k) for _ in range((n + 1) // 2)]
                window = tuple(half + half[:n // 2][::-1])
                queries.append((window, None))
                continue
            pos = rng.randrange(period)
            window = cyclic_window(symbols, pos, n)
            if kind == "reverse":
                window = window[::-1]
            queries.append((window, (pos, kind)))
        wide = []
        for i in range(self.wide_files):
            while True:
                s = [rng.randrange(self.wide_k) for _ in range(self.wide_length)]
                if is_orientable(s, self.wide_n):
                    break
            if i % 2:
                # Plant a duplicate: copy one window over a later stretch.
                a = rng.randrange(self.wide_length // 2 - self.wide_n)
                b = rng.randrange(self.wide_length // 2, self.wide_length - self.wide_n)
                s[b:b + self.wide_n] = s[a:a + self.wide_n]
            wpath = workdir / f"wide_{i}.txt"
            write_comma_file(wpath, s, self.wide_k, self.wide_n)
            wide.append((wpath, is_orientable(s, self.wide_n)))
        return {"path": path, "seq": seq, "mutants": mutants, "queries": queries,
                "wide": wide, "verified": {}}

    def run_pass(self, state: dict, tracer) -> list[Op]:
        ops = []
        seq = state["seq"]
        argv = ["verify", "--in", str(state["path"])]
        for _ in range(self.verifies):
            with tracer.span("cli.main", job="verify"):
                t0 = time.perf_counter()
                answer = call_cli(argv)
                seconds = time.perf_counter() - t0
            ops.append(Op("verify", "file", seconds, answer))
        for i, mutant in enumerate(state["mutants"]):
            with tracer.span("oracle.verify") as attrs:
                t0 = time.perf_counter()
                verdict = oracle.verify(mutant, seq.n, seq.k)
                seconds = time.perf_counter() - t0
                attrs["accepted"] = verdict.accepted
            ops.append(Op("mutant", i, seconds, verdict))
        for i, (window, _) in enumerate(state["queries"]):
            with tracer.span("oracle.locate"):
                t0 = time.perf_counter()
                hit = oracle.locate(seq, window)
                seconds = time.perf_counter() - t0
            ops.append(Op("locate", i, seconds, hit))
        return ops

    def check(self, state: dict, ops: list[Op], tally: Tally) -> None:
        seq = state["seq"]
        if "base" not in state["verified"]:
            state["verified"]["base"] = is_orientable(seq.symbols, seq.n)
            tally.digests["decode_input"] = sha256_symbols(seq.symbols)
        for op in ops:
            if op.kind == "verify":
                rc, out = op.answer
                ok = rc == 0 and out.startswith("ok:") and state["verified"]["base"]
                tally.add(ok, f"verify --in exited {rc}")
            elif op.kind == "mutant":
                mutant = state["mutants"][op.key]
                verdict = op.answer
                if verdict.accepted:
                    key = ("mutant", op.key)
                    if key not in state["verified"]:
                        state["verified"][key] = is_orientable(mutant, seq.n)
                    ok = state["verified"][key]
                else:
                    ok = witness_holds(mutant, seq.n, verdict)
                tally.add(ok, f"corruption {op.key}: wrong verdict {verdict}")
            else:
                want = state["queries"][op.key][1]
                hit = op.answer
                got = None if hit is None else (hit.position, hit.direction.value)
                tally.add(got == want, f"locate query {op.key}: got {got}, want {want}")

    def probe(self, state: dict, tracer) -> dict:
        """Verify the wide-alphabet files; k**n exceeds 64-bit window codes
        there, so this reports how many calls oseq refused with
        ResourceCapError and how many verdicts were wrong."""
        refused = wrong = 0
        for path, want in state["wide"]:
            with tracer.span("sequences.read_sequence_file") as attrs:
                parsed = sequences.read_sequence_file(path)
                attrs["bytes"] = path.stat().st_size
            with tracer.span("oracle.verify") as attrs:
                try:
                    verdict = oracle.verify(np.asarray(parsed.symbols), parsed.n, parsed.k)
                except ResourceCapError:
                    attrs["error"] = "ResourceCapError"
                    refused += 1
                    continue
                attrs["accepted"] = verdict.accepted
            wrong += verdict.accepted != want
        return {"wide_verify_calls": len(state["wide"]), "wide_cap_errors": refused,
                "wide_wrong": wrong}

    def replay(self, state: dict, ops: list[Op], tracer) -> None:
        seq = state["seq"]
        for _ in range(sum(op.kind == "verify" for op in ops)):
            with tracer.span("replay.cli", job="verify"):
                with tracer.span("sequences.read_sequence_file") as attrs:
                    parsed = sequences.read_sequence_file(state["path"])
                    attrs["bytes"] = state["path"].stat().st_size
                with tracer.span("oracle.verify") as attrs:
                    attrs["accepted"] = oracle.verify(
                        np.asarray(parsed.symbols), parsed.n, parsed.k).accepted
        for reverse in (False, True):
            with tracer.span("graph.window_codes", reverse=reverse):
                graph.window_codes(seq.symbols, seq.n, seq.k, reverse=reverse)

    def largest_recipe(self, state: dict, ops: list[Op]) -> ConstructionRecipe | None:
        return None

    def details(self, state: dict, passes: list[list[Op]]) -> dict:
        locate_s = [op.seconds for p in passes for op in p if op.kind == "locate"]
        period = state["seq"].period
        # The gated rate spans both verify paths: the few short `verify --in`
        # calls alone spread by more than a quarter from run to run.
        both = median_rate(passes, ("verify", "mutant"), lambda op: period)
        deciles = statistics.quantiles(locate_s, n=10)
        return {"work_per_s": both,
                "verify_symbols_per_s": median_rate(passes, ("verify",), lambda op: period),
                "reject_per_s": median_rate(passes, ("mutant",), lambda op: 1),
                "locate_per_s": median_rate(passes, ("locate",), lambda op: 1),
                "locate_p50_ms": statistics.median(locate_s) * 1e3,
                "locate_p90_ms": deciles[8] * 1e3}


WORKLOADS = {w.name: w for w in (GenerateLarge(), TableGrid(), DecodeStream())}
