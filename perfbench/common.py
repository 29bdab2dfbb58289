"""Pieces shared by the batch and service workloads.

Everything here runs inside the checkout: private run directories live
under ``.perfbench_tmp/`` at its root and are removed when a run ends.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TMP_DIR_NAME = ".perfbench_tmp"

SETUP_REPEATS = 3
"""Set-up is timed this many times per run; ``setup_s`` is the median."""

CHECKED_FIELDS = ("rep", "status", "tm", "sm")
"""The per-cell payload a run must reproduce exactly."""

FAILED_STATUSES = ("crashed", "timeout")
"""Cell statuses that are failures whatever the reference says.  A cell
whose ``error_code`` is set (a crash the repair layer isolated) fails too."""


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 500):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            result *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return result


def beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile, ``q`` in (0, 1).

    A weighted mean of every order statistic, weighted by a
    Beta((n+1)q, (n+1)(1-q)) distribution over the ranks.  A run yields a
    few dozen to a hundred samples of unlike cells; a single order statistic
    jumps between neighbours from run to run, the weighted mean does not."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * value for i, value in enumerate(ordered))


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


# -- machine speed ------------------------------------------------------------------

PROBE_LOOPS = 60_000
PROBE_REFERENCE_S = 0.004
"""What the probe loop takes at the reference speed (about a quiet 2-vCPU
Xeon VM under CPython 3.11)."""


def speed_probe() -> float:
    """CPU seconds this thread needs for a fixed integer loop right now.

    A shared host changes speed by up to half over seconds to minutes.  A
    probe run on the same thread right after a piece of work sees the speed
    that work saw; the loop is the benchmark's own code, so a change to the
    program never moves it."""
    start = time.thread_time()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.thread_time() - start


def speed_factor(probe_s: float) -> float:
    """Multiplier that rescales a time measured beside a ``probe_s`` probe
    to the reference speed."""
    return PROBE_REFERENCE_S / probe_s


def child_env(cache_dir: Path) -> dict[str, str]:
    """Environment for a program subprocess: the checkout's sources and a
    private result cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


class RunDir:
    """A private scratch directory under the checkout, removed on exit."""

    def __init__(self, workload: str) -> None:
        base = ROOT / TMP_DIR_NAME
        base.mkdir(exist_ok=True)
        self.path = base / f"{workload[:3]}{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir()
        self._count = 0

    def fresh(self, stem: str) -> Path:
        """A new empty subdirectory (one per set-up repetition)."""
        self._count += 1
        path = self.path / f"{stem}{self._count}"
        path.mkdir()
        return path

    def relative(self, path: Path) -> str:
        """``path`` relative to the checkout root — short enough for a unix
        socket address wherever the checkout lives."""
        return os.path.relpath(path, ROOT)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        base = self.path.parent
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it


def time_suite_setup(
    benchmark: str, scale: float, seed: int, cache: Path
) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until it has generated the
    suite into the empty cache ``cache``: at the reference speed (probed
    before and after), and raw."""
    code = (
        "from repro.benchmarks.cache import load_benchmark\n"
        f"load_benchmark({benchmark!r}, seed={seed}, scale={scale})\n"
    )
    probe = speed_probe()
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=child_env(cache),
        check=True,
        timeout=120,
    )
    raw = time.perf_counter() - start
    return raw * speed_factor((probe + speed_probe()) / 2), raw


UNGUARDED = {".git", "__pycache__", TMP_DIR_NAME, ".bench_build", ".hypothesis", ".pytest_cache"}
"""What a run may create or change: version control, bytecode and test
caches, and its own scratch directory."""


def tree_digest(base: Path = ROOT) -> str:
    """Digest of every file of the working tree outside :data:`UNGUARDED`:
    a run must leave the sources, the committed result cache and the
    benchmark itself byte-identical."""
    digest = hashlib.sha256()
    for path in sorted(base.rglob("*")):
        relative = path.relative_to(ROOT)
        if UNGUARDED.intersection(relative.parts) or not path.is_file():
            continue
        digest.update(str(relative).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def source_stamp() -> dict:
    """Which code ran, and where."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "src_sha256": tree_digest(SRC)[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


# -- pinned reference outcomes ------------------------------------------------------


def reference_path(workload: str, corpus_seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{corpus_seed}.json"


def load_reference(workload: str, corpus_seed: int) -> dict[str, dict[str, list]]:
    """``spec_id -> technique -> [rep, status, tm, sm]``."""
    path = reference_path(workload, corpus_seed)
    if not path.exists():
        raise SystemExit(
            f"perfbench: no pinned reference for {workload} at corpus seed "
            f"{corpus_seed} ({path.name}); generate it with make_reference.py"
        )
    return json.loads(path.read_text())["cells"]


def cell_payload(cell) -> list:
    """The checked fields of a ``SpecOutcome`` or a service cell dict."""
    if isinstance(cell, dict):
        return [cell.get(field) for field in CHECKED_FIELDS]
    return [getattr(cell, field) for field in CHECKED_FIELDS]


def cell_failure(reference: dict, spec_id: str, technique: str, cell) -> str | None:
    """Why a produced cell fails the check, or ``None`` when it passes."""
    expected = reference.get(spec_id, {}).get(technique)
    if expected is None:
        return f"{spec_id}/{technique}: no reference cell"
    actual = cell_payload(cell)
    if actual[1] in FAILED_STATUSES:
        return f"{spec_id}/{technique}: status {actual[1]}"
    code = cell.get("error_code") if isinstance(cell, dict) else cell.error_code
    if code is not None:
        # An isolated crash inside the tool; a tool that reports an error
        # outcome of its own (an unparseable model reply) carries no code.
        return f"{spec_id}/{technique}: crashed inside the tool ({code})"
    if actual != expected:
        return f"{spec_id}/{technique}: got {actual}, expected {expected}"
    return None


def emit(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: dict[str, tuple[float, str]],
    stamp: dict,
    problems: list[str],
) -> None:
    """Print the run stamp and any problems, then the result as the last
    line of standard output."""
    for problem in problems[:20]:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    if len(problems) > 20:
        print(f"perfbench: ... {len(problems) - 20} more", file=sys.stderr)
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
