"""The repository benchmark: one workload per run, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  The line before it stamps the run (source digest,
Python, core count, seed, workload parameters).  Problems go to standard
error.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, SRC, emit, source_stamp, tree_digest  # noqa: E402


def declared_metrics(kind: str) -> dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corpus-seed",
        type=int,
        default=0,
        help="seed of the generated suite and of every cell (pinned "
        "references exist for 0, the default, and 1, held out)",
    )
    parser.add_argument(
        "--inject-fault",
        action="store_true",
        help="flip one produced cell before the check, to prove the check "
        "counts it as failed",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _on_sigterm(signum, frame) -> None:
    # Unwind through every ``finally`` so daemons are drained and reaped.
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    from batch import BatchWorkload, run_batch
    from service import run_service

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _on_sigterm)
    before = tree_digest()
    runner = run_batch if isinstance(workload, BatchWorkload) else run_service
    result = runner(workload, args)
    problems = list(result["problems"])
    if tree_digest() != before:
        problems.append("the run changed the checkout's working tree")
    if args.trace:
        # A layer the workload never entered did no work: its counts and
        # times are zero.
        layers = result["per_layer"]
        metrics = {
            name: (layers.get(name, 0.0), unit)
            for name, unit in declared_metrics("per_layer").items()
        }
    else:
        metrics = {
            name: (result["metrics"][name], unit)
            for name, unit in declared_metrics("end_to_end").items()
        }
    stamp = {
        **source_stamp(),
        "workload": args.workload,
        "seed": args.seed,
        "corpus_seed": args.corpus_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": result["params"],
    }
    emit(
        correct=not problems,
        attempted=result["attempted"],
        failed=result["failed"],
        metrics=metrics,
        stamp=stamp,
        problems=problems,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
