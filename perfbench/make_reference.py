"""Regenerate the pinned per-cell reference outcomes.

Each batch workload's pool is run once per corpus seed with the
from-scratch arms (no incremental solving, no canonical dedup), in a
private cache directory, and every cell's ``(rep, status, tm, sm)`` is
written to ``reference/<workload>-seed<n>.json``.  The committed
``.repro_cache`` is never read.

    python3 perfbench/make_reference.py [--workload NAME] [--corpus-seed N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, RunDir, cell_payload, reference_path  # noqa: E402

CORPUS_SEEDS = (0, 1)
"""The default corpus seed and one held-out seed."""


def make_reference(name: str, corpus_seed: int) -> Path:
    from workloads import WORKLOADS
    from batch import write_workload_input

    workload = WORKLOADS[name]
    run_dir = RunDir(f"ref-{name}")
    try:
        cache = run_dir.fresh("c")
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        from repro.benchmarks.cache import load_benchmark
        from repro.experiments.runner import RunConfig, run_matrix

        load_benchmark(workload.benchmark, seed=corpus_seed, scale=workload.scale)
        order = write_workload_input(workload, cache, corpus_seed, seed=None)
        matrix = run_matrix(
            RunConfig(
                benchmark=workload.benchmark,
                scale=workload.scale,
                seed=corpus_seed,
                techniques=workload.techniques,
                use_cache=False,
                incremental=False,
                canonical=False,
            )
        )
        cells = {
            spec_id: {
                technique: cell_payload(matrix.outcomes[spec_id][technique])
                for technique in workload.techniques
            }
            for spec_id in sorted(order)
        }
    finally:
        run_dir.close()
    path = reference_path(name, corpus_seed)
    path.write_text(
        json.dumps(
            {
                "workload": name,
                "corpus_seed": corpus_seed,
                "params": workload.params(),
                "arms": {"incremental": False, "canonical": False},
                "cells": cells,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    return path


def main() -> int:
    from workloads import WORKLOADS
    from batch import BatchWorkload

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    batch = [n for n, w in WORKLOADS.items() if isinstance(w, BatchWorkload)]
    parser.add_argument("--workload", choices=batch, action="append")
    parser.add_argument("--corpus-seed", type=int, choices=CORPUS_SEEDS, action="append")
    args = parser.parse_args()
    for name in args.workload or batch:
        for corpus_seed in args.corpus_seed or CORPUS_SEEDS:
            print(f"{name} seed {corpus_seed}: {make_reference(name, corpus_seed)}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
