"""Per-layer self time, measured from outside the program.

A :class:`LayerTracer` wraps public entry points of each layer (the
:data:`TARGETS` table) for the duration of a traced run.  Every wrapped call
is a span on a per-thread stack; when it returns, its duration minus the time
its wrapped children covered is added to the layer's self time.  Time spent
outside every span is ``unattributed``, so the self times plus the
unattributed time add up to the wall time of the traced region.

Functions are bound by name in many modules (``from repro.alloy.parser
import parse_module``), so installing a wrapper rebinds every module global
that refers to the original, and wraps every subclass override of a wrapped
method.  :meth:`LayerTracer.uninstall` restores all of them.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module:qualname`` -> layer metric stem."""

    path: str
    name: str
    merge_nested: bool = False
    """A call made while a span of the same name is open is part of that
    span (``SolveSession.solve`` delegates to ``SatSolver.solve``)."""
    timed: bool = True
    """``False`` for a counter read at a boundary: no span, no self time."""


TARGETS: tuple[Target, ...] = (
    Target("repro.alloy.parser:parse_module", "alloy.parse"),
    Target("repro.alloy.resolver:resolve_module", "alloy.resolve"),
    Target("repro.analyzer.analyzer:Analyzer.__init__", "analyzer.build"),
    Target("repro.analyzer.analyzer:Analyzer.run_command", "analyzer.command"),
    Target("repro.analyzer.session:OracleSession.evaluate", "analyzer.oracle"),
    Target("repro.sat.solver:SatSolver.solve", "sat.solve", merge_nested=True),
    Target("repro.sat.solver:SolveSession.solve", "sat.solve", merge_nested=True),
    Target("repro.analysis.prune:CandidateFilter.veto", "analysis.prune"),
    Target("repro.analysis.canon:canonical_key", "analysis.canon"),
    Target("repro.analysis.canon:record_dedup_hit", "analysis.dedup", timed=False),
    Target("repro.testing.aunit:AUnitTest.passes", "testing.aunit"),
    Target("repro.testing.generation:generate_suite", "testing.generate"),
    Target("repro.repair.base:RepairTool.repair", "repair.tool"),
    Target("repro.repair.base:PropertyOracle.evaluate_module", "repair.oracle"),
    Target("repro.llm.mock_gpt:MockGPT.complete", "llm.complete"),
    Target("repro.metrics.rep:rep_outcome", "metrics.rep"),
    Target("repro.metrics.rep:truth_command_outcomes", "metrics.truth"),
    Target("repro.metrics.bleu:token_match", "metrics.similarity"),
    Target("repro.metrics.syntax_match:syntax_match", "metrics.similarity"),
    Target("repro.benchmarks.cache:load_benchmark", "benchmarks.load"),
    Target("repro.runtime.persist:atomic_write_json", "runtime.persist"),
    Target("repro.runtime.persist:atomic_write_jsonl", "runtime.persist"),
    Target("repro.service.daemon:ResultStore.flush", "service.store_flush"),
    Target("repro.experiments.executor:execute_shard", "experiments.shard"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(t.name for t in TARGETS if t.timed))


def _resolve(path: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for ``module:attr`` or
    ``module:Class.attr``."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


def import_all_repro_modules() -> None:
    """Import every ``repro`` module so that every by-name binding of a
    wrapped function exists before the wrappers are installed."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


class LayerTracer:
    """Self time and call counts per layer, plus layer-specific counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.covered_s = 0.0
        """Summed duration of outermost spans (stack empty on entry)."""
        self.counters: Counter[str] = Counter()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        name, merge_nested, timed = target.name, target.merge_nested, target.timed
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if not timed or (merge_nested and stack and stack[-1][0] == name):
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    if hook is not None:
                        hook(tracer, args, result)
            frame = [name, 0.0]
            stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.self_s[name] += elapsed - frame[1]
                    if not stack:
                        tracer.covered_s += elapsed
                if stack:
                    stack[-1][1] += elapsed
                if hook is not None:
                    hook(tracer, args, result)

        return functools.wraps(fn)(wrapper)

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind every name that refers to one."""
        import sys

        import_all_repro_modules()
        functions: dict[int, Any] = {}
        for target in TARGETS:
            owner, attr, original = _resolve(target.path)
            if isinstance(owner, type):
                for cls in [owner, *_subclasses(owner)]:
                    method = cls.__dict__.get(attr)
                    if method is None:
                        continue
                    self._patch(cls, attr, self.wrap(target, method))
            else:
                functions[id(original)] = (original, self.wrap(target, original))
        # Rebind by identity in every loaded repro module: the defining
        # module, package re-exports and every ``from x import f`` site.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                entry = functions.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Calls and self time of every span, the layer counters and the
        time accounting; the caller keeps the names it reports."""
        calls, self_s, counters = self.calls, self.self_s, self.counters

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        metrics: dict[str, float] = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_s[name]
        metrics["analyzer.oracle.fallback_ratio"] = ratio(
            counters["oracle_fallbacks"], calls["analyzer.oracle"]
        )
        metrics["sat.decisions"] = counters["sat.decisions"]
        metrics["sat.propagations"] = counters["sat.propagations"]
        metrics["sat.conflicts"] = counters["sat.conflicts"]
        metrics["analysis.prune.veto_ratio"] = ratio(
            counters["vetoes"], calls["analysis.prune"]
        )
        metrics["analysis.dedup_hits"] = counters["dedup_hits"]
        metrics["repair.candidates"] = counters["repair.candidates"]
        metrics["repair.pruned"] = counters["repair.pruned"]
        metrics["repair.fixed_ratio"] = ratio(
            counters["repair.fixed"], calls["repair.tool"]
        )
        metrics["llm.prompt_chars"] = counters["llm.prompt_chars"]
        attributed = sum(self_s[name] for name in SPAN_NAMES)
        metrics["unattributed_s"] = wall_s - attributed
        metrics["traced_wall_s"] = wall_s
        return metrics

    def accounting_error(self) -> float:
        """``|Σ self − Σ outermost durations|``: zero when every child's time
        was charged to exactly one parent."""
        return abs(sum(self.self_s[n] for n in SPAN_NAMES) - self.covered_s)


# -- counters read at the wrapped boundaries -------------------------------------


def _sat_hook(tracer: LayerTracer, args, result) -> None:
    solver = args[0]
    stats = getattr(solver, "last_solve", None)
    if stats is None:  # SolveSession: its SatSolver's hook already counted
        return
    tracer.count("sat.decisions", stats.decisions)
    tracer.count("sat.propagations", stats.propagations)
    tracer.count("sat.conflicts", stats.conflicts)


def _oracle_session_hook(tracer: LayerTracer, args, result) -> None:
    if result is None:
        tracer.count("oracle_fallbacks")


def _veto_hook(tracer: LayerTracer, args, result) -> None:
    if result is not None:
        tracer.count("vetoes")


def _dedup_hook(tracer: LayerTracer, args, result) -> None:
    tracer.count("dedup_hits", args[0] if args else 1)


def _repair_hook(tracer: LayerTracer, args, result) -> None:
    if result is None:
        return
    tracer.count("repair.candidates", result.candidates_explored)
    tracer.count("repair.pruned", result.candidates_pruned)
    if result.fixed:
        tracer.count("repair.fixed")


def _llm_hook(tracer: LayerTracer, args, result) -> None:
    conversation = args[1]
    tracer.count(
        "llm.prompt_chars", sum(len(m.content) for m in conversation.messages)
    )


_HOOKS: dict[str, Callable] = {
    "sat.solve": _sat_hook,
    "analyzer.oracle": _oracle_session_hook,
    "analysis.prune": _veto_hook,
    "analysis.dedup": _dedup_hook,
    "repair.tool": _repair_hook,
    "llm.complete": _llm_hook,
}


# -- checks on the instrument itself ---------------------------------------------


def accounting_problems(tracer: LayerTracer) -> list[str]:
    error = tracer.accounting_error()
    if error > 1e-6 * max(1, sum(tracer.calls.values())):
        return [f"self times miss their parents' spans by {error:.6f} s"]
    return []


def _obs_counter(snapshot: dict, name: str) -> int:
    return sum(
        value
        for key, value in snapshot.get("counters", {}).items()
        if key.split("{", 1)[0] == name
    )


def wrapper_selfcheck(spec) -> list[str]:
    """Run one small shard with the program's own counters on and the
    wrappers installed; the wrapped call counts must equal the program's.

    The shard runs the Single-Round columns, whose oracle queries are all
    ``evaluate_module`` calls, so ``repair.oracle_calls`` counts exactly the
    wrapped entries."""
    from repro.experiments.executor import ShardTask, execute_shard
    from repro.repair.registry import SINGLE_ROUND

    tracer = LayerTracer()
    with tracer:
        result = execute_shard(
            ShardTask(spec=spec, techniques=tuple(SINGLE_ROUND), seed=0, trace=True)
        )
    problems = []
    for ours, theirs in (("sat.solve", "sat.solves"), ("repair.oracle", "repair.oracle_calls")):
        expected = _obs_counter(result.metrics, theirs)
        if tracer.calls[ours] != expected or expected == 0:
            problems.append(
                f"wrapper coverage: {ours}.calls={tracer.calls[ours]} but the "
                f"program counted {theirs}={expected}"
            )
    return problems


def calibrate_overhead(tasks: list) -> float:
    """Traced ÷ untraced cells per second on the same shards: each shard
    runs untraced, then with the wrappers installed."""
    from repro.experiments.executor import execute_shard

    untraced = traced = 0.0
    cells = 0
    for task in tasks:
        start = time.perf_counter()
        execute_shard(task)
        untraced += time.perf_counter() - start
        with LayerTracer():
            start = time.perf_counter()
            execute_shard(task)
            traced += time.perf_counter() - start
        cells += len(task.techniques)
    return (cells / traced) / (cells / untraced)
