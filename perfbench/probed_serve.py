"""``repro serve`` with a speed probe after every shard the daemon executes.

    python3 perfbench/probed_serve.py PROBE_LOG serve [serve options...]

The worker thread that ran a shard then runs :func:`common.speed_probe`
and appends ``spec_id probe_seconds`` to ``PROBE_LOG``, so the service
workload can rescale each executed cell by the speed of the core it ran on.
Everything else is the program's own ``repro`` command line.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import speed_probe  # noqa: E402


def main(argv: list[str]) -> int:
    log_path, *serve_argv = argv
    import repro.service.daemon as daemon
    from repro.cli import main as cli_main

    run_shard = daemon.execute_shard
    with open(log_path, "a", buffering=1) as log:

        def probed(task):
            result = run_shard(task)
            log.write(f"{task.spec.spec_id} {speed_probe()!r}\n")
            return result

        daemon.execute_shard = probed
        return cli_main(serve_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
