"""The structural template: a clone equals a from-scratch grounding.

:func:`repro.analyzer.analyzer.ground_structure` grounds a command's
structure (signature hierarchy, multiplicities, field declarations) once per
thread and hands every query a clone.  The clone must be indistinguishable
from a from-scratch build — same variable numbering, clause lists, unit
trail, circuit nodes and literals — so the SAT search and every enumerated
instance are the same, whether the template cache is cold or warm.  Checked
for every corpus model and every command at its own scope, at scope 1 and
at scope 4 with a per-signature scope.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

import pytest

from repro.alloy.nodes import SigScope
from repro.alloy.parser import parse_module
from repro.alloy.resolver import resolve_module
from repro.analyzer import analyzer as analyzer_module
from repro.analyzer.analyzer import (
    Analyzer,
    _structure_key,
    ground_structure,
)
from repro.analyzer.semantics import field_constraints
from repro.analyzer.translate import Translator
from repro.analyzer.universe import Bounds, resolve_scopes
from repro.benchmarks.models.registry import all_models
from repro.sat.circuit import CircuitBuilder
from repro.sat.solver import SatSolver

MAX_INSTANCES = 3


def _scratch(info, command):
    """The structural grounding built from nothing, as before templates."""
    solver = SatSolver()
    builder = CircuitBuilder(solver)
    bounds = Bounds(info, command, builder)
    translator = Translator(info, bounds)
    for formula in field_constraints(info):
        builder.assert_true(translator.formula(formula))
    return solver, builder, bounds


def _state(solver, builder, bounds) -> dict:
    return {
        "num_vars": solver.num_vars,
        "clauses": [list(clause) for clause in solver._clauses],
        "watches": {lit: list(w) for lit, w in solver._watches.items()},
        "trail": list(solver._trail),
        "values": list(solver._values),
        "levels": list(solver._levels),
        "phases": list(solver._phases),
        "heap": list(solver._heap),
        "root_conflict": solver._root_conflict,
        "nodes": list(builder._nodes),
        "memo": dict(builder._memo),
        "literals": dict(builder._literals),
        "sig_vars": bounds.sig_vars,
        "field_vars": bounds.field_vars,
        "scopes": bounds.scopes,
    }


def _cold() -> None:
    analyzer_module._TEMPLATES.entries = OrderedDict()


def _variants(info, command) -> list:
    """The command at its own scope, at scope 1, and at scope 4 with an
    exact per-signature scope on the last top-level signature."""
    last = info.top_level_sigs()[-1].name
    kept = [s for s in command.sig_scopes if s.sig != last]
    return [
        command,
        dataclasses.replace(command, default_scope=1),
        dataclasses.replace(
            command,
            default_scope=4,
            sig_scopes=kept + [SigScope(sig=last, bound=2, exact=True)],
        ),
    ]


def _cases():
    for model in all_models():
        info = resolve_module(parse_module(model.source))
        for index, command in enumerate(info.commands):
            yield pytest.param(model.name, index, id=f"{model.name}-{index}")


def _load(name: str, index: int):
    model = next(m for m in all_models() if m.name == name)
    module = parse_module(model.source)
    info = resolve_module(module)
    return module, info, info.commands[index]


def _stream(module, command) -> list:
    instances = []
    for instance in Analyzer(module).solutions(command):
        instances.append(instance.relations)
        if len(instances) >= MAX_INSTANCES:
            break
    return instances


@pytest.mark.parametrize("name,index", list(_cases()))
def test_clone_matches_scratch_build(name, index):
    _, info, command = _load(name, index)
    for variant in _variants(info, command):
        reference = _state(*_scratch(info, variant))
        _cold()
        assert _state(*ground_structure(info, variant)) == reference
        # Warm: the template now exists and is cloned again.
        assert _state(*ground_structure(info, variant)) == reference


@pytest.mark.parametrize("name,index", list(_cases()))
def test_instance_streams_equal_cold_warm_and_scratch(name, index, monkeypatch):
    module, info, command = _load(name, index)
    for variant in _variants(info, command):
        _cold()
        cold = _stream(module, variant)
        warm = _stream(module, variant)
        with monkeypatch.context() as patch:
            patch.setattr(analyzer_module, "ground_structure", _scratch)
            scratch = _stream(module, variant)
        assert cold == warm == scratch


@pytest.mark.parametrize("name", ["farmer", "Student", "balancedBSt", "cv_a"])
def test_solving_a_clone_leaves_the_template_untouched(name):
    module, info, command = _load(name, 0)
    _cold()
    ground_structure(info, command)
    key = _structure_key(info, resolve_scopes(info, command))
    template = analyzer_module._TEMPLATES.entries[key]
    before = _state(*template)
    for variant_command in info.commands:
        for index, _ in enumerate(Analyzer(module).solutions(variant_command)):
            if index >= 5:
                break
    assert analyzer_module._TEMPLATES.entries[key] is template
    assert _state(*template) == before


def test_template_cache_is_bounded():
    _, info, command = _load("Student", 0)
    _cold()
    for scope in range(1, analyzer_module._TEMPLATE_LIMIT + 4):
        ground_structure(info, dataclasses.replace(command, default_scope=scope))
    assert len(analyzer_module._TEMPLATES.entries) == analyzer_module._TEMPLATE_LIMIT


def test_structure_key_tracks_field_types():
    """Two modules that differ only in a field's multiplicity must not
    share a template: the field constraints differ."""
    lone = resolve_module(parse_module("sig A { f: lone A }\nrun {} for 2"))
    some = resolve_module(parse_module("sig A { f: some A }\nrun {} for 2"))
    command = lone.commands[0]
    assert _structure_key(lone, resolve_scopes(lone, command)) != _structure_key(
        some, resolve_scopes(some, command)
    )
    _cold()
    for info in (lone, some, lone):
        assert _state(*ground_structure(info, command)) == _state(
            *_scratch(info, command)
        )


def test_clone_after_search_is_rejected():
    solver = SatSolver()
    a, b = solver.new_var(), solver.new_var()
    solver.add_clause([a, b])
    twin = solver.clone()
    assert solver.solve()
    with pytest.raises(ValueError):
        solver.clone()
    # The clone is independent: constraining it leaves the original alone.
    twin.add_clause([-a])
    twin.add_clause([-b])
    assert not twin.solve()
    assert solver.solve()
