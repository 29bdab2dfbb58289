"""The service workload: an open-loop job stream against ``repro serve``.

Set-up starts the daemon (a subprocess with a private cache, socket and
state file, launched through ``probed_serve.py`` so that it logs a speed
probe after each executed shard) and times spawn -> first answered
``ping``; it is repeated and the median reported, and the last daemon
serves the run.  The load
generator sends a seeded arrival schedule from one process with one thread
per core, each holding one connection at a time.  Each job is one
(spec, technique) cell of the ARepair pool: some execute it and write the
result store, the others re-read stored cells (see :func:`plan`).  Job latency runs from the job's due time to the terminal event, so
a late generator shows up in latency; how late each send ran is reported
too.

The traced run hosts the daemon in-process through ``ServiceHandle``, so
that the layer wrappers see its work.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    ROOT,
    SETUP_REPEATS,
    RunDir,
    cell_failure,
    child_env,
    load_reference,
    median,
    percentile,
    speed_factor,
    speed_probe,
)

TERMINAL = ("done", "failed", "cancelled")
FRESH_BURST = 8
"""Jobs at the start of the schedule that all execute fresh cells."""
HIT_AGE_SLOTS = 8
"""A re-read targets a cell whose fresh job was due this many slots
earlier, long enough for it to be stored."""



JOB_TIMEOUT_S = 60.0
"""A job with no terminal event this long after its send is lost."""


@dataclass(frozen=True)
class ServiceWorkload:
    name: str
    technique: str
    rate: float
    """Arrivals per second, below saturation."""
    jobs: int
    """Jobs in the schedule at least; ``--seconds × rate`` when larger."""
    tenants: int
    """Jobs rotate over this many tenants so each stays inside its token
    bucket (capacity 8, refill 4/s)."""
    reference_workload: str
    benchmark: str = "arepair"
    workers: int = 2

    def params(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "technique": self.technique,
            "rate_per_s": self.rate,
            "min_jobs": self.jobs,
            "tenants": self.tenants,
            "workers": self.workers,
            "threads": _threads(),
        }


def _threads() -> int:
    return max(1, os.cpu_count() or 1)


@dataclass
class Job:
    index: int
    due: float
    spec_id: str
    tenant: str
    sent: float | None = None
    acked: float | None = None
    finished: float | None = None
    state: str | None = None
    rejected: bool = False
    from_store: bool = False
    outcomes: dict = field(default_factory=dict)
    error: str | None = None


def plan(workload: ServiceWorkload, spec_ids: list[str], seed: int, seconds: float) -> list[Job]:
    """The seeded arrival schedule, each job due at a uniformly drawn moment
    of its own ``1/rate`` slot.

    Writes run beside reads: the first :data:`FRESH_BURST` jobs and then
    every fourth one execute a pool cell not yet run, in a seeded order,
    until the pool is covered; every other job re-reads a cell whose fresh
    job was due at least :data:`HIT_AGE_SLOTS` slots earlier, so it is a
    store hit.  Every run executes the same cells, and fresh jobs are too
    sparse to queue behind each other."""
    rng = random.Random(seed)
    count = max(workload.jobs, round(workload.rate * seconds))
    pending = rng.sample(spec_ids, len(spec_ids))
    stored: list[tuple[int, str]] = []
    specs: list[str] = []
    for index in range(count):
        if pending and (index < FRESH_BURST or index % 4 == 0):
            specs.append(pending.pop())
            stored.append((index, specs[-1]))
        else:
            specs.append(
                rng.choice([s for due, s in stored if due <= index - HIT_AGE_SLOTS])
            )
    slot = 1.0 / workload.rate
    return [
        Job(
            index=index,
            due=(index + rng.random()) * slot,
            spec_id=spec_id,
            tenant=f"tenant{index % workload.tenants}",
        )
        for index, spec_id in enumerate(specs)
    ]


class LoadGenerator:
    """Sends every job at its due time; each thread takes the next due job
    when its previous one has reached a terminal state."""

    def __init__(self, socket_path: str, jobs: list[Job], workload, corpus_seed: int) -> None:
        self.socket_path = socket_path
        self.jobs = jobs
        self.workload = workload
        self.corpus_seed = corpus_seed
        self._next = 0
        self._lock = threading.Lock()
        self.start = 0.0

    def run(self) -> None:
        self.start = time.perf_counter()
        threads = [
            threading.Thread(target=self._worker, name=f"loadgen-{i}")
            for i in range(_threads())
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOB_TIMEOUT_S * 2 + len(self.jobs))

    def _worker(self) -> None:
        while True:
            with self._lock:
                if self._next >= len(self.jobs):
                    return
                job = self.jobs[self._next]
                self._next += 1
            delay = self.start + job.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                self._send(job)
            except (OSError, ValueError) as error:
                job.error = f"{type(error).__name__}: {error}"

    def _send(self, job: Job) -> None:
        from repro.service.protocol import JobSpec, decode_message, encode_message

        spec = JobSpec(
            benchmark=self.workload.benchmark,
            spec_id=job.spec_id,
            techniques=(self.workload.technique,),
            seed=self.corpus_seed,
            tenant=job.tenant,
        )
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(JOB_TIMEOUT_S)
            job.sent = time.perf_counter()
            sock.connect(self.socket_path)
            sock.sendall(
                encode_message({"op": "submit", "job": spec.to_json(), "watch": True})
            )
            reader = sock.makefile("rb")
            first = decode_message(reader.readline())
            job.acked = time.perf_counter()
            if first.get("type") == "reject":
                job.rejected = True
                return
            if first.get("type") != "ack":
                job.error = f"unexpected first frame {first}"
                return
            while True:
                line = reader.readline()
                if not line:
                    job.error = "connection closed before a terminal event"
                    return
                frame = decode_message(line)
                if frame.get("type") == "event" and frame.get("state") in TERMINAL:
                    job.finished = time.perf_counter()
                    job.state = frame["state"]
                    job.outcomes = frame.get("outcomes", {})
                    job.from_store = bool(frame.get("from_store"))
                    job.error = frame.get("error")
                    return

    def lag_ms(self) -> list[float]:
        return [
            (job.sent - self.start - job.due) * 1000.0
            for job in self.jobs
            if job.sent is not None
        ]


# -- the daemon subprocess -----------------------------------------------------------


def _ping(socket_path: str) -> bool:
    from repro.service.protocol import decode_message, encode_message

    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(5.0)
            sock.connect(socket_path)
            sock.sendall(encode_message({"op": "ping"}))
            frame = decode_message(sock.makefile("rb").readline())
    except (OSError, ValueError):
        return False
    return frame.get("type") == "pong" and not frame.get("draining")


class Daemon:
    """One ``repro serve`` subprocess with a private cache, socket and state
    file; :meth:`stop` drains it and reaps it, killing it if it hangs."""

    def __init__(self, run_dir: RunDir, workload: ServiceWorkload, corpus_seed: int) -> None:
        self.dir = run_dir.fresh("d")
        self.socket = run_dir.relative(self.dir / "s.sock")
        self.probe_log = self.dir / "probes.txt"
        self._log = open(self.dir / "daemon.log", "wb")
        probe = speed_probe()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(Path(__file__).resolve().parent / "probed_serve.py"),
                str(self.probe_log),
                "serve",
                "--socket",
                self.socket,
                "--state",
                run_dir.relative(self.dir / "state.json"),
                "--benchmark",
                workload.benchmark,
                "--seed",
                str(corpus_seed),
                "--workers",
                str(workload.workers),
            ],
            cwd=ROOT,
            env=child_env(self.dir),
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        try:
            while not _ping(self.socket):
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"daemon exited with {self.proc.returncode} during start"
                    )
                if time.perf_counter() - start > 60:
                    raise RuntimeError("daemon did not answer ping within 60 s")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.raw_setup_s = time.perf_counter() - start
        self.setup_s = self.raw_setup_s * speed_factor((probe + speed_probe()) / 2)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the daemon's /proc status")

    def probes(self) -> dict[str, float]:
        """``spec_id -> probe seconds`` of every shard the daemon ran."""
        if not self.probe_log.exists():
            return {}
        return {
            spec_id: float(probe)
            for spec_id, probe in (
                line.split() for line in self.probe_log.read_text().splitlines()
            )
        }

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._log.close()


# -- the run -----------------------------------------------------------------------------


def _check(jobs: list[Job], reference: dict, technique: str) -> list[str]:
    problems = []
    for job in jobs:
        label = f"job {job.index} ({job.spec_id})"
        if job.rejected:
            problems.append(f"{label}: rejected")
        elif job.error is not None or job.state is None:
            problems.append(f"{label}: {job.error or 'lost'}")
        elif job.state != "done":
            problems.append(f"{label}: ended {job.state}")
        elif technique not in job.outcomes:
            problems.append(f"{label}: incomplete payload")
        else:
            reason = cell_failure(reference, job.spec_id, technique, job.outcomes[technique])
            if reason is not None:
                problems.append(f"{label}: {reason}")
    return problems


def _job_metrics(
    generator: LoadGenerator, technique: str, probes: dict[str, float]
) -> tuple[dict, dict]:
    """End-to-end metrics of the job stream at the reference speed, and the
    same figures raw.

    An executed cell is rescaled by the probe its daemon worker ran right
    after it; every job by the latest such probe at its terminal event (a
    store hit runs no cell, so it takes the speed of the last one that
    ran)."""
    jobs = generator.jobs
    done = sorted(
        (job for job in jobs if job.finished is not None), key=lambda job: job.finished
    )
    if not done:
        raise RuntimeError("no job reached a terminal state")
    executed = [
        job for job in done if not job.from_store and technique in job.outcomes
    ]
    ran = {job.index for job in executed}
    if not executed or any(job.spec_id not in probes for job in executed):
        raise RuntimeError("the daemon logged no speed probe for an executed cell")
    factor = speed_factor(probes[executed[0].spec_id])
    job_ms, raw_job_ms, cell_ms, raw_cell_ms = [], [], [], []
    for job in done:
        if job.index in ran:
            factor = speed_factor(probes[job.spec_id])
            elapsed = job.outcomes[technique]["elapsed"] * 1000.0
            raw_cell_ms.append(elapsed)
            cell_ms.append(elapsed * factor)
        raw_job_ms.append((job.finished - generator.start - job.due) * 1000.0)
        job_ms.append(raw_job_ms[-1] * factor)
    wall = done[-1].finished - generator.start
    scaled = {
        "cells_per_s": len(done) / wall,
        "cell_ms_p50": percentile(cell_ms, 0.50),
        "cell_ms_p90": percentile(cell_ms, 0.90),
        "job_ms_p50": percentile(job_ms, 0.50),
        "job_ms_p90": percentile(job_ms, 0.90),
    }
    raw = {
        "cell_ms_p50": percentile(raw_cell_ms, 0.50),
        "cell_ms_p90": percentile(raw_cell_ms, 0.90),
        "job_ms_p50": percentile(raw_job_ms, 0.50),
        "job_ms_p90": percentile(raw_job_ms, 0.90),
    }
    return scaled, raw


def run_service(workload: ServiceWorkload, args) -> dict:
    run_dir = RunDir(workload.name)
    daemons: list[Daemon] = []
    try:
        reference = {
            spec_id: {workload.technique: row[workload.technique]}
            for spec_id, row in load_reference(
                workload.reference_workload, args.corpus_seed
            ).items()
        }
        pool = sorted(reference)
        jobs = plan(workload, pool, args.seed, args.seconds)
        if args.trace:
            return _run_traced(workload, args, run_dir, jobs, reference)
        for _ in range(SETUP_REPEATS):
            if daemons:
                daemons[-1].stop()
            daemons.append(Daemon(run_dir, workload, args.corpus_seed))
        daemon = daemons[-1]
        generator = LoadGenerator(daemon.socket, jobs, workload, args.corpus_seed)
        generator.run()
        peak_rss_mb = daemon.peak_rss_mb()
        daemon.stop()
        job_metrics, raw = _job_metrics(generator, workload.technique, daemon.probes())
        raw["setup_s"] = median([d.raw_setup_s for d in daemons])
        if args.inject_fault and jobs and jobs[0].outcomes:
            jobs[0].outcomes[workload.technique]["rep"] ^= 1
        problems = _check(jobs, reference, workload.technique)
        lag = generator.lag_ms()
        return {
            "attempted": len(jobs),
            "failed": len(problems),
            "problems": problems,
            "metrics": {
                "setup_s": median([d.setup_s for d in daemons]),
                **job_metrics,
                "peak_rss_mb": peak_rss_mb,
            },
            "per_layer": {},
            "params": {
                **workload.params(),
                "jobs": len(jobs),
                "generator_lag_ms_p50": percentile(lag, 0.5),
                "generator_lag_ms_max": max(lag),
                "raw": raw,
            },
        }
    finally:
        for daemon in daemons:
            daemon.stop()
        run_dir.close()


def _run_traced(workload, args, run_dir, jobs, reference) -> dict:
    from layers import (
        LayerTracer,
        accounting_problems,
        calibrate_overhead,
        wrapper_selfcheck,
    )

    cache = run_dir.fresh("t")
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    from repro.benchmarks.cache import load_benchmark
    from repro.experiments.executor import ShardTask
    from repro.service.daemon import ServiceConfig, ServiceHandle

    specs = load_benchmark(workload.benchmark, seed=args.corpus_seed)
    tasks = [
        ShardTask(spec=spec, techniques=(workload.technique,), seed=args.corpus_seed)
        for spec in specs[:4]
    ]
    per_layer = {"trace_overhead_ratio": calibrate_overhead(tasks)}
    problems = wrapper_selfcheck(specs[0])
    # A fresh cache for the daemon, so its suite load and store are its own.
    os.environ["REPRO_CACHE_DIR"] = str(run_dir.fresh("t"))
    tracer = LayerTracer()
    tracer.install()
    handle = None
    try:
        start = time.perf_counter()
        handle = ServiceHandle.start(
            ServiceConfig(
                socket=run_dir.relative(cache / "s.sock"),
                benchmark=workload.benchmark,
                seed=args.corpus_seed,
                workers=workload.workers,
                state_path=str(cache / "state.json"),
            )
        )
        generator = LoadGenerator(handle.socket, jobs, workload, args.corpus_seed)
        generator.run()
        records = list(handle.service.jobs.values())
        handle.drain()
        handle = None
        wall = time.perf_counter() - start
    finally:
        if handle is not None:
            handle.drain()
        tracer.uninstall()
    per_layer.update(tracer.layer_metrics(wall))
    problems += accounting_problems(tracer)
    failures = _check(jobs, reference, workload.technique)
    problems += failures
    waits = [r.queue_wait * 1000.0 for r in records if r.queue_wait is not None]
    accepted = [job for job in jobs if job.acked is not None and not job.rejected]
    per_layer.update(
        {
            "service.queue_wait_ms_p50": percentile(waits, 0.50),
            "service.queue_wait_ms_p90": percentile(waits, 0.90),
            "service.ack_ms_p50": percentile(
                [(job.acked - job.sent) * 1000.0 for job in accepted], 0.50
            ),
            "service.store_hit_ratio": sum(j.from_store for j in accepted)
            / max(1, len(accepted)),
            "service.rejections": sum(job.rejected for job in jobs),
            "service.generator_lag_ms_p90": percentile(generator.lag_ms(), 0.90),
        }
    )
    return {
        "attempted": len(jobs),
        "failed": len(failures),
        "problems": problems,
        "metrics": {},
        "per_layer": per_layer,
        "params": {**workload.params(), "jobs": len(jobs)},
    }
