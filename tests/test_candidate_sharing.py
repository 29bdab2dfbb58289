"""Repair candidates share subtrees with their base module, safely.

``replace_at``/``insert_at`` put a replacement in place without copying it,
so mutants share every untouched subtree (and the replacement's embedded
pieces) with their base, and ``print_paragraph`` memoizes by node identity.
Both rest on one contract: ASTs are immutable.  These tests pin it:

- the four traditional tools and the simulated GPT's proposal enumeration
  leave the base module's text and node structure untouched;
- mutant texts equal those of a deep-copying ``replace_at``;
- memoized printing equals uncached printing, and the memo is dropped when
  its ``paragraph_memo_scope`` ends.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import random
import weakref

import pytest

from repro.alloy import pretty, walk
from repro.alloy.nodes import Node
from repro.alloy.parser import parse_module
from repro.alloy.pretty import print_module
from repro.analysis.lint import paragraph_memo_scope
from repro.benchmarks.cache import load_benchmark
from repro.benchmarks.models.registry import all_models
from repro.llm.mock_gpt import MockGPT
from repro.repair import localization, mutation, registry, templates
from repro.repair.base import RepairTask
from repro.repair.mutation import Mutator, mutation_points
from repro.repair.templates import strengthening_candidates, template_candidates


def _pick(specs, count: int) -> list:
    """``count`` specs, spread over as many domains as possible."""
    chosen, domains = [], set()
    for spec in specs:
        domain = spec.spec_id.split("#")[0]
        if domain not in domains:
            domains.add(domain)
            chosen.append(spec)
    return chosen[:count]


@pytest.fixture(scope="module")
def specs():
    arepair = load_benchmark("arepair", seed=0, scale=0.1, use_cache=False)
    alloy4fun = load_benchmark("alloy4fun", seed=0, scale=0.02, use_cache=False)
    return _pick(arepair, 4) + _pick(alloy4fun, 2)


def _fingerprint(root: Node) -> list:
    """Every node's identity, type and fields (children by identity)."""
    rows = []
    for node in root.walk():
        fields = []
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            if isinstance(value, Node):
                value = ("node", id(value))
            elif isinstance(value, list):
                value = tuple(
                    ("node", id(v)) if isinstance(v, Node) else v for v in value
                )
            fields.append((f.name, value))
        rows.append((id(node), type(node).__name__, tuple(fields)))
    return rows


def _proposal_texts(module, info) -> list[str]:
    """The candidate texts the search tools and the simulated GPT build."""
    texts = [print_module(m.module) for m in Mutator(module, info).all_mutants()]
    for path in mutation_points(module)[:8]:
        texts += [
            print_module(m.module)
            for m in template_candidates(module, info, path, max_per_location=20)
        ]
    texts += [print_module(c) for c, _ in strengthening_candidates(module, info)]
    proposals = MockGPT(seed=0)._enumerate_proposals(
        module, info, random.Random(0)
    )
    texts += [print_module(m.module) for m in proposals]
    return texts


_REAL_REPLACE_AT = walk.replace_at
_REAL_INSERT_AT = walk.insert_at


def _deep_replace_at(root, path, replacement):
    """The reference: the replacement deep-copied before it goes in."""
    return _REAL_REPLACE_AT(root, path, copy.deepcopy(replacement))


def _deep_insert_at(root, path, index, new_node, field_name):
    return _REAL_INSERT_AT(root, path, index, copy.deepcopy(new_node), field_name)


def test_tools_and_proposals_leave_the_base_module_untouched(specs):
    for spec in specs:
        task = RepairTask.from_source(spec.faulty_source)
        text = print_module(task.module)
        shape = _fingerprint(task.module)
        for technique in registry.TRADITIONAL:
            registry.create(technique, spec, 0).repair(task)
            assert print_module(task.module) == text, (spec.spec_id, technique)
            assert _fingerprint(task.module) == shape, (spec.spec_id, technique)
        _proposal_texts(task.module, task.info)
        assert print_module(task.module) == text, spec.spec_id
        assert _fingerprint(task.module) == shape, spec.spec_id


def test_mutant_texts_equal_deep_copying_reference(specs, monkeypatch):
    for spec in specs:
        task = RepairTask.from_source(spec.faulty_source)
        shared = _proposal_texts(task.module, task.info)
        with monkeypatch.context() as patch:
            for owner in (walk, mutation, templates, localization):
                patch.setattr(owner, "replace_at", _deep_replace_at)
            patch.setattr(walk, "insert_at", _deep_insert_at)
            fresh = RepairTask.from_source(spec.faulty_source)
            reference = _proposal_texts(fresh.module, fresh.info)
        assert shared == reference, spec.spec_id
        assert len(shared) > 10


def test_memoized_printing_equals_uncached_printing(monkeypatch):
    modules = []
    for model in all_models():
        module = parse_module(model.source)
        info = RepairTask.from_module(module).info
        modules.append(module)
        modules += [
            m.module for m in Mutator(module, info).all_mutants(limit=40)
        ]
    with paragraph_memo_scope():
        memoized = [print_module(m) for m in modules]
        memoized_again = [print_module(m) for m in modules]
    with monkeypatch.context() as patch:
        patch.setattr(pretty, "_PRINT_MEMO_LIMIT", 0)
        with paragraph_memo_scope():
            uncached = [print_module(m) for m in modules]
            assert len(pretty._print_memo()) == 0
    assert memoized == memoized_again == uncached


def test_memo_is_an_lru_of_bounded_size():
    module = parse_module(all_models()[0].source)
    with paragraph_memo_scope():
        print_module(module)
        first = module.paragraphs[0]
        for index in range(pretty._PRINT_MEMO_LIMIT + 10):
            if index % 50 == 0:
                pretty.print_paragraph(first)  # a hit keeps it recent
            pretty.print_paragraph(parse_module(f"sig S{index} {{}}").paragraphs[0])
        memo = pretty._print_memo()
        assert len(memo) == pretty._PRINT_MEMO_LIMIT
        assert memo[id(first)][0] is first


def test_leaving_the_scope_drops_the_memo():
    outer = pretty._print_memo()
    outer_size = len(outer)
    with paragraph_memo_scope():
        module = parse_module(all_models()[0].source)
        print_module(module)
        inner = pretty._print_memo()
        assert inner is not outer
        assert len(inner) == len(module.paragraphs)
        probe = weakref.ref(module.paragraphs[0])
        del module, inner
    assert pretty._print_memo() is outer
    assert len(outer) == outer_size
    gc.collect()
    assert probe() is None
