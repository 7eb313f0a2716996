"""Benchmark of oseq's user jobs: generate, table sweep, verify and locate.

Run from the repository root:

    python3 perfbench/run.py --workload decode-stream --seed 1 --seconds 20 --trace 0

The program under test is imported from src/ of the same checkout; there
is nothing to build.  A run sets the workload up several times and keeps
the median set-up time, then repeats passes of the workload until the
passes add up to --seconds, checking every answer.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
of BENCHMARK.json; with --trace 1 they are its per-layer ones, measured
by replaying the same public calls in spans (see README.md).  The line
before it holds the workload-specific figures and the run's provenance;
both are also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 3


def metric_specs() -> tuple[dict, dict]:
    """name -> unit for the end-to-end and the per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "git_revision": git_revision(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count()}


def cold_import_seconds() -> float:
    """A fresh interpreter importing oseq's command line, as every `oseq`
    invocation does; part of each set-up so that import-time work shows."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "import oseq.cli"], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class LayerContext:
    """The three tracers of a traced run and how to turn them into per-layer
    figures: one traced set-up, `iterations` traced passes with their
    replays, and one memory replay under tracemalloc."""

    def __init__(self, setup, loop, memory, iterations, untraced_wall, traced_walls):
        self.setup, self.loop, self.memory = setup, loop, memory
        self.iterations = iterations
        self.untraced_wall = untraced_wall
        self.traced_walls = traced_walls

    def per_pass(self, total) -> float:
        """Set-up total plus the mean over traced passes."""
        return total(self.setup) + total(self.loop) / self.iterations

    def gap(self, whole: str, parts: str) -> float:
        """Per pass: the job's own spans minus the spans that replay it."""
        return (self.loop.total_seconds(whole)
                - self.loop.total_seconds(parts)) / self.iterations


LAYER_SPECIAL = {
    "constructions.generate.gap_s":
        lambda c: c.gap("constructions.generate", "replay.generate"),
    "cli.main.overhead_s": lambda c: c.gap("cli.main", "replay.cli"),
    "tables.compute_table.self_s":
        lambda c: c.gap("tables.compute_table", "replay.compute_table"),
    "tables.cells_ok":
        lambda c: c.per_pass(lambda t: t.total_attr("tables.compute_table", "cells_ok")),
    "tables.cells_skipped":
        lambda c: c.per_pass(lambda t: t.total_attr("tables.compute_table", "cells_skipped")),
    "oracle.verify.accept_s":
        lambda c: c.per_pass(lambda t: t.total_self_seconds("oracle.verify", accepted=True)),
    "oracle.verify.reject_s":
        lambda c: c.per_pass(lambda t: t.total_self_seconds("oracle.verify", accepted=False)),
    "oracle.verify.errors":
        lambda c: c.per_pass(lambda t: len(t.named("oracle.verify", error="ResourceCapError"))),
    "oracle.locate.calls": lambda c: c.per_pass(lambda t: len(t.named("oracle.locate"))),
    "oracle.exhaustive_max_period.nodes":
        lambda c: c.per_pass(lambda t: t.total_attr("oracle.exhaustive_max_period", "nodes")),
    "sequences.read_sequence_file.bytes":
        lambda c: c.per_pass(lambda t: t.total_attr("sequences.read_sequence_file", "bytes")),
    "sequences.write_sequence_file.bytes":
        lambda c: c.per_pass(lambda t: t.total_attr("sequences.write_sequence_file", "bytes")),
    "graph.eulerian_circuit.peak_mb": lambda c: c.memory.peak_mb("graph.eulerian_circuit"),
    "graph.is_connected.peak_mb": lambda c: c.memory.peak_mb("graph.is_connected"),
    "trace.overhead_s":
        lambda c: statistics.fmean(c.traced_walls) - c.untraced_wall,
}


def layer_value(name: str, ctx: LayerContext) -> float:
    if name in LAYER_SPECIAL:
        return LAYER_SPECIAL[name](ctx)
    if name.endswith(".self_s"):
        span = name[:-len(".self_s")]
        return ctx.per_pass(lambda t: t.total_self_seconds(span))
    raise KeyError(f"no rule computes per-layer metric {name!r}")


def run(workload, seed: int, seconds: float, trace: int, out_dir: Path,
        setups: int = SETUPS) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail record)."""
    import workloads
    from spans import NullTracer, Tracer

    e2e_units, layer_units = metric_specs()
    null = NullTracer()
    run_id = f"{workload.name}-seed{seed}-trace{trace}-pid{os.getpid()}"
    setup_tracer = Tracer(run_id)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        setup_times = []
        for i in range(setups):
            tracer = setup_tracer if trace and i == setups - 1 else null
            t0 = time.perf_counter()
            cold = cold_import_seconds()
            state = workload.setup(seed, workdir, tracer)
            setup_times.append(time.perf_counter() - t0)
        tally = workloads.Tally()
        probe = getattr(workload, "probe", None)

        def one_pass(tracer):
            t0 = time.perf_counter()
            ops = workload.run_pass(state, tracer)
            wall = time.perf_counter() - t0
            workload.check(state, ops, tally)
            return ops, wall

        passes, walls = [], []
        if not trace:
            while not passes or sum(walls) < seconds:
                ops, wall = one_pass(null)
                passes.append(ops)
                walls.append(wall)
            probed = probe(state, null) if probe else {}
        else:
            ops, untraced_wall = one_pass(null)
            loop_tracer = Tracer(run_id)
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < seconds:
                with loop_tracer.span("pass"):
                    ops, wall = one_pass(loop_tracer)
                passes.append(ops)
                walls.append(wall)
                workload.replay(state, ops, loop_tracer)
                probed = probe(state, loop_tracer) if probe else {}
            memory_tracer = Tracer(run_id, memory=True)
            recipe = workload.largest_recipe(state, ops)
            if recipe is not None:
                tracemalloc.start()
                try:
                    workloads.replay_generate(recipe, memory_tracer)
                finally:
                    tracemalloc.stop()
            ctx = LayerContext(setup_tracer, loop_tracer, memory_tracer,
                               len(passes), untraced_wall, walls)
            with open(out_dir / f"spans-{workload.name}-seed{seed}.jsonl", "w",
                      encoding="utf-8") as fh:
                for tracer in (setup_tracer, loop_tracer, memory_tracer):
                    tracer.write_jsonl(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = workload.details(state, passes)
    figures = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setup_times),
               "cold_import_s": cold,
               "peak_rss_mb": peak_rss_mb(),
               **details,
               "error_rate": tally.failed / tally.attempted}
    if trace:
        values = {name: layer_value(name, ctx) for name in layer_units}
        units = layer_units
    else:
        values = {name: figures[name] for name in e2e_units}
        units = e2e_units
    wrong = tally.wrong + probed.get("wide_wrong", 0)
    result = {"correct": wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    detail = {"provenance": provenance(workload.name, seed, seconds, trace),
              "passes": len(passes), "pass_walls": walls, "figures": figures, "probe": probed,
              "failures": tally.notes, "sha256": tally.digests}
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oseq" / "__init__.py").is_file():
        print(f"perfbench: no oseq sources under {SRC}", file=sys.stderr)
        return 2
    # A library default must not change a workload behind the benchmark's back.
    os.environ.pop("OSEQ_EDGE_CAP", None)
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, detail = run(workloads.WORKLOADS[args.workload], args.seed,
                         args.seconds, args.trace, OUT)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps({k: v for k, v in detail.items() if k != "sha256"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
