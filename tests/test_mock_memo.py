"""Differential tests for the simulated GPT's shard-scoped reasoning memo.

Inside a shard the eight LLM columns read the same faulty spec, so
``MockGPT`` replays its mental-verification verdicts, derived
counterexamples and top-level proposal lists from the shard cache.  The
``--no-canon`` arm recomputes everything from scratch; both arms must
produce the same cells, the same response texts and — under an active
chaos plan — the same fault schedule.
"""

from __future__ import annotations

import pytest

from repro.benchmarks.cache import load_benchmark
from repro.chaos.plan import FaultPlan, SiteConfig
from repro.experiments.executor import ShardTask, execute_shard
from repro.llm.mock_gpt import MockGPT
from repro.obs.metrics import parse_key
from repro.repair.registry import MULTI_ROUND, SINGLE_ROUND

LLM_COLUMNS = tuple(SINGLE_ROUND + MULTI_ROUND)


def _pick(specs, count: int) -> list:
    """``count`` specs, spread over as many domains as possible."""
    chosen, domains = [], set()
    for spec in specs:
        domain = spec.spec_id.split("#")[0]
        if domain not in domains:
            domains.add(domain)
            chosen.append(spec)
    return (chosen + [s for s in specs if s not in chosen])[:count]


@pytest.fixture(scope="module")
def specs():
    alloy4fun = load_benchmark("alloy4fun", seed=0, scale=0.02, use_cache=False)
    arepair = load_benchmark("arepair", seed=0, scale=0.1, use_cache=False)
    return _pick(alloy4fun, 4) + _pick(arepair, 2)


@pytest.fixture
def responses(monkeypatch):
    """Every MockGPT response text, in the order the shard produced them."""
    seen: list[str] = []
    complete = MockGPT.complete

    def recording(self, conversation):
        response = complete(self, conversation)
        seen.append(response)
        return response

    monkeypatch.setattr(MockGPT, "complete", recording)
    return seen


def _run(spec, canonical: bool, responses: list[str], chaos=None):
    del responses[:]
    result = execute_shard(
        ShardTask(
            spec=spec,
            techniques=LLM_COLUMNS,
            seed=0,
            trace=True,
            canonical=canonical,
            chaos=chaos,
        )
    )
    payload = {
        technique: (o.rep, o.status, o.tm, o.sm)
        for technique, o in result.outcomes.items()
    }
    replays: dict[str, int] = {}
    for key, value in result.metrics["counters"].items():
        name, labels = parse_key(key)
        if name == "llm.mock.replays":
            replays[labels["kind"]] = replays.get(labels["kind"], 0) + value
    return payload, list(responses), replays, result.chaos_events


class TestReasoningMemo:
    def test_cells_and_responses_match_the_ablation(self, specs, responses):
        kinds: set[str] = set()
        for spec in specs:
            cells, texts, replays, _ = _run(spec, True, responses)
            scratch_cells, scratch_texts, scratch_replays, _ = _run(
                spec, False, responses
            )
            assert set(cells) == set(LLM_COLUMNS)
            assert cells == scratch_cells, spec.spec_id
            assert texts == scratch_texts, spec.spec_id
            assert texts, "the LLM columns issued no completions"
            assert not scratch_replays
            kinds |= {kind for kind, count in replays.items() if count}
        # The memo must actually have replayed every kind of reasoning on
        # this sample, or the comparison above proves nothing.
        assert kinds == {"verify", "cex", "proposals"}

    def test_chaos_schedule_matches_the_ablation(self, specs, responses):
        plan = FaultPlan(
            seed=5,
            sites={
                "sat.budget": SiteConfig(probability=0.05),
                "llm.garbage": SiteConfig(probability=0.2),
            },
        )
        spec = specs[0]
        cells, texts, replays, events = _run(spec, True, responses, plan)
        scratch = _run(spec, False, responses, plan)
        assert events, "the plan injected no faults"
        assert (cells, texts, events) == (scratch[0], scratch[1], scratch[3])
        # Replays are suppressed under chaos: skipping solves would move
        # the per-invocation fault schedule.
        assert not replays


# -- the invariants behind the memo and the reduced-scope path copy ------------

APPENDED_SPEC = """
sig Node { next: lone Node } { this not in next }
sig Tag { tagged: set Node }
fact Acyclic { all n: Node | n not in n.^next }
assert NoSelfLoop { no n: Node | n.next = n }
check NoSelfLoop for 4 but 5 Node, exactly 2 Tag expect 0
run { some next } for 3 but 4 Node
"""


def _fingerprint(module):
    """Printed text, paragraph identities and each command's scopes."""
    from repro.alloy.nodes import Command
    from repro.alloy.pretty import print_module

    return (
        print_module(module),
        [id(paragraph) for paragraph in module.paragraphs],
        [
            (p.default_scope, [(s.sig, s.bound, s.exact) for s in p.sig_scopes])
            for p in module.paragraphs
            if isinstance(p, Command)
        ],
    )


class TestInputsStayUntouched:
    """Replays hand one module's results to another, and mental
    verification shares every non-command paragraph with its input, so
    the analysis pipeline must never mutate the module it is given."""

    def test_analysis_pipeline_never_mutates_its_input(self):
        import copy

        from repro.alloy.parser import parse_module
        from repro.alloy.pretty import print_module
        from repro.alloy.resolver import resolve_module
        from repro.analyzer.analyzer import Analyzer

        module = parse_module(APPENDED_SPEC)
        assert module.sigs[0].appended is not None
        before = _fingerprint(module)
        snapshot = copy.deepcopy(module)
        print_module(module)
        resolve_module(module)
        analyzer = Analyzer(module)
        results = analyzer.execute_all(max_instances=2)
        assert [r.sat for r in results] == [False, True]
        assert _fingerprint(module) == before
        assert module == snapshot

    def test_reduced_scope_copy_leaves_the_caller_alone(self):
        from repro.alloy.nodes import Command
        from repro.alloy.parser import parse_module
        from repro.llm.mock_gpt import GPT4_PROFILE, reduced_scope

        module = parse_module(APPENDED_SPEC)
        before = _fingerprint(module)
        reduced = reduced_scope(module, 2)
        assert _fingerprint(module) == before
        assert [
            (c.default_scope, [s.bound for s in c.sig_scopes])
            for c in reduced.commands
        ] == [(2, [2, 2]), (2, [2])]
        for original, copied in zip(module.paragraphs, reduced.paragraphs):
            # Commands are rebuilt; everything else is shared, not copied.
            assert (copied is original) != isinstance(original, Command)
        MockGPT(profile=GPT4_PROFILE)._mentally_verifies(module)
        assert _fingerprint(module) == before
