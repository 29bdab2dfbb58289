"""Batch workloads: one serial ``run_matrix`` pass over a pinned cell pool.

The suite is generated in set-up (timed), then rewritten in the order the
workload seed draws, so the program receives only the generated input.  A
pass runs every cell of the pool through ``run_matrix`` with ``jobs=1``, the
matrix cache off and a private ``REPRO_CACHE_DIR``.  Passes repeat until
``--seconds`` have elapsed (at least one), and every cell is checked against
the pinned reference.
"""

from __future__ import annotations

import os
import random
import resource
import time
from dataclasses import dataclass

from common import (
    SETUP_REPEATS,
    RunDir,
    cell_failure,
    load_reference,
    median,
    percentile,
    speed_factor,
    speed_probe,
    time_suite_setup,
)


@dataclass(frozen=True)
class BatchWorkload:
    name: str
    benchmark: str
    scale: float
    techniques: tuple[str, ...]
    stride: int = 1
    """Keep every ``stride``-th spec of the suite (1 keeps all)."""

    def params(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "scale": self.scale,
            "techniques": list(self.techniques),
            "stride": self.stride,
        }

    def select(self, specs: list) -> list:
        return specs[:: self.stride]


class CellProbe:
    """Probes the speed on the executing thread right after every cell.

    Installing it wraps ``repro.experiments.runner.run_spec``, which the
    shard executor looks up at each call; the probe runs after the cell
    has measured its own ``elapsed``, so that stays the program's."""

    def __init__(self) -> None:
        self.factors: dict[tuple[str, str], float] = {}
        """``(spec_id, technique) -> factor`` of cells not yet reported."""
        self.probe_s = 0.0
        """Wall time spent probing so far."""
        self._original = None

    def install(self) -> None:
        from repro.experiments import runner

        original = self._original = runner.run_spec

        def probed(spec, technique, *args, **kwargs):
            outcome = original(spec, technique, *args, **kwargs)
            start = time.perf_counter()
            self.factors[(spec.spec_id, technique)] = speed_factor(speed_probe())
            self.probe_s += time.perf_counter() - start
            return outcome

        runner.run_spec = probed

    def uninstall(self) -> None:
        from repro.experiments import runner

        if self._original is not None:
            runner.run_spec = self._original
            self._original = None


class Span:
    """A stretch of wall time, net of probing, and the cells run in it."""

    def __init__(self, seconds: float, cells: list[tuple[float, float]]) -> None:
        self.seconds = seconds
        self.cells = cells
        """``(elapsed, factor)`` of each probed cell."""

    def factor(self, default: float) -> float:
        """The cells' elapsed-weighted mean factor: the one that scales
        their summed time as scaling each by its own does."""
        busy = sum(elapsed for elapsed, _ in self.cells)
        if busy <= 0.0:
            return default
        return sum(elapsed * factor for elapsed, factor in self.cells) / busy


class PassListener:
    """Times each shard from outside through the engine's progress
    callbacks; a shard is the batch form of a job, due when the serial
    executor finished the one before it.  The engine reports a shard's
    cells together when the shard ends, so the speed of each cell comes
    from :class:`CellProbe`."""

    def __init__(self, probe: CellProbe) -> None:
        self.probe = probe
        self.outcomes: list = []
        self.cells: list[tuple] = []
        """``(outcome, factor)`` of each cell of a finished shard; the factor
        is ``None`` for a cell the probe never saw (one that crashed before
        running)."""
        self.shards: list[Span] = []
        self.shard_cells: list[list] = []
        self._pending: list = []
        self._last = time.perf_counter()
        self._last_probe_s = probe.probe_s

    def start(self) -> None:
        self._last = time.perf_counter()
        self._last_probe_s = self.probe.probe_s

    def on_cell(self, benchmark, outcome, done, total) -> None:
        self.outcomes.append(outcome)
        self._pending.append(outcome)

    def on_shard_done(self, benchmark, spec_id, shards_done, total_shards) -> None:
        now = time.perf_counter()
        probing = self.probe.probe_s - self._last_probe_s
        cells = [
            (cell, self.probe.factors.pop((cell.spec_id, cell.technique), None))
            for cell in self._pending
        ]
        self.cells += cells
        self.shards.append(
            Span(
                now - self._last - probing,
                [(cell.elapsed, factor) for cell, factor in cells if factor is not None],
            )
        )
        self.shard_cells.append(self._pending)
        self._pending = []
        self._last = now
        self._last_probe_s = self.probe.probe_s

    def on_failure(self, benchmark, failure) -> None:
        pass

    def on_metrics(self, benchmark, summary) -> None:
        pass

    def timing_problems(self) -> list[str]:
        """Cross-check: the cells' own ``elapsed`` must fit inside the shard
        interval observed from outside."""
        problems = []
        for shard, cells in zip(self.shards, self.shard_cells):
            inside = sum(cell.elapsed for cell in cells) * 1000.0
            if inside > shard.seconds * 1000.0 + 1.0:
                problems.append(
                    f"cells report {inside:.1f} ms inside a "
                    f"{shard.seconds * 1000.0:.1f} ms shard"
                )
        return problems


def _suite_file(cache, benchmark: str, corpus_seed: int):
    matches = sorted(cache.glob(f"{benchmark}-{corpus_seed}-*.json"))
    if len(matches) != 1:
        raise RuntimeError(f"expected one generated suite in {cache}, got {matches}")
    return matches[0]


def write_workload_input(
    workload: BatchWorkload, cache, corpus_seed: int, seed: int | None
) -> list[str]:
    """Rewrite the generated suite as the pool, in the seed's order (suite
    order when ``seed`` is ``None``)."""
    from repro.benchmarks.cache import BENCHMARK_SCHEMA
    from repro.runtime.persist import atomic_write_json, load_json

    path = _suite_file(cache, workload.benchmark, corpus_seed)
    specs = workload.select(load_json(path, schema=BENCHMARK_SCHEMA))
    if seed is not None:
        random.Random(seed).shuffle(specs)
    atomic_write_json(path, specs, schema=BENCHMARK_SCHEMA)
    return [spec["spec_id"] for spec in specs]


def _config(workload: BatchWorkload, corpus_seed: int, **overrides):
    from repro.experiments.runner import RunConfig

    return RunConfig(
        benchmark=workload.benchmark,
        scale=workload.scale,
        seed=corpus_seed,
        techniques=workload.techniques,
        jobs=1,
        executor="serial",
        use_cache=False,
        **overrides,
    )


def _shard_tasks(workload: BatchWorkload, corpus_seed: int, count: int):
    from repro.benchmarks.cache import load_benchmark
    from repro.experiments.executor import ShardTask

    specs = load_benchmark(workload.benchmark, seed=corpus_seed, scale=workload.scale)
    return [
        ShardTask(spec=spec, techniques=workload.techniques, seed=corpus_seed)
        for spec in specs[:count]
    ]


def run_batch(workload: BatchWorkload, args) -> dict:
    from layers import (
        LayerTracer,
        accounting_problems,
        calibrate_overhead,
        wrapper_selfcheck,
    )

    run_dir = RunDir(workload.name)
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            cache = run_dir.fresh("c")
            setups.append(
                time_suite_setup(
                    workload.benchmark, workload.scale, args.corpus_seed, cache
                )
            )
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        order = write_workload_input(workload, cache, args.corpus_seed, args.seed)
        reference = load_reference(workload.name, args.corpus_seed)

        from repro.experiments.runner import run_matrix

        probe = CellProbe()
        listener = PassListener(probe)
        problems: list[str] = []
        per_layer: dict[str, float] = {}
        if args.trace:
            tasks = _shard_tasks(workload, args.corpus_seed, 2)
            per_layer["trace_overhead_ratio"] = calibrate_overhead(tasks)
            problems += wrapper_selfcheck(tasks[0].spec)
        tracer = LayerTracer()
        # The traced run does not probe: its figures are raw and unbounded.
        instrument = tracer if args.trace else probe
        instrument.install()
        wall = 0.0
        passes = 0
        try:
            while passes == 0 or wall < args.seconds:
                listener.start()
                start = time.perf_counter()
                run_matrix(_config(workload, args.corpus_seed, listener=listener))
                wall += time.perf_counter() - start
                passes += 1
        finally:
            instrument.uninstall()
        if args.trace:
            per_layer.update(tracer.layer_metrics(wall))
            problems += accounting_problems(tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        outcomes = listener.outcomes
        if args.inject_fault and outcomes:
            outcomes[0].rep ^= 1
        failures = [
            reason
            for cell in outcomes
            if (reason := cell_failure(reference, cell.spec_id, cell.technique, cell))
        ]
        attempted = passes * len(order) * len(workload.techniques)
        missing = attempted - len(outcomes)
        problems += failures
        if missing:
            problems.append(f"{missing} cell(s) never reported")
        problems += listener.timing_problems()
        run = Span(
            wall - probe.probe_s,
            [cell for shard in listener.shards for cell in shard.cells],
        )
        factor = run.factor(default=1.0)
        raw_cell_ms = [cell.elapsed * 1000.0 for cell in outcomes]
        cell_ms = [
            cell.elapsed * 1000.0 * (factor if own is None else own)
            for cell, own in listener.cells
        ]
        raw_job_ms = [shard.seconds * 1000.0 for shard in listener.shards]
        job_ms = [
            shard.seconds * 1000.0 * shard.factor(default=factor)
            for shard in listener.shards
        ]
        metrics = {
            "setup_s": median([scaled for scaled, _ in setups]),
            "cells_per_s": len(outcomes) / (run.seconds * factor),
            "cell_ms_p50": percentile(cell_ms, 0.50),
            "cell_ms_p90": percentile(cell_ms, 0.90),
            "job_ms_p50": percentile(job_ms, 0.50),
            "job_ms_p90": percentile(job_ms, 0.90),
            "peak_rss_mb": peak_rss_mb,
        }
        raw = {
            "setup_s": median([raw_s for _, raw_s in setups]),
            "cells_per_s": len(outcomes) / run.seconds,
            "cell_ms_p50": percentile(raw_cell_ms, 0.50),
            "cell_ms_p90": percentile(raw_cell_ms, 0.90),
            "job_ms_p50": percentile(raw_job_ms, 0.50),
            "job_ms_p90": percentile(raw_job_ms, 0.90),
        }
        return {
            "attempted": attempted,
            "failed": len(failures) + missing,
            "problems": problems,
            "metrics": metrics,
            "per_layer": per_layer,
            "params": {
                **workload.params(),
                "passes": passes,
                "specs": len(order),
                "cells": len(outcomes),
                "speed_factor": factor,
                "raw": raw,
            },
        }
    finally:
        run_dir.close()
