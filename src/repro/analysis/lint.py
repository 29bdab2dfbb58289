"""The spec lint engine: rule-driven diagnostics over a resolved module.

:func:`lint_module` walks every paragraph with a scope-aware environment of
binder types (from :mod:`repro.analysis.reltypes`) and applies the
registered rules, yielding :class:`~repro.analysis.diagnostics.Diagnostic`
records with source positions.  The walk is purely static — no translation,
no solving — which is what makes it cheap enough to run on every repair
candidate before the SAT pipeline sees it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator

from repro.alloy.errors import AlloyError
from repro.alloy.nodes import (
    BinaryExpr,
    BinOp,
    Block,
    BoolBin,
    CardExpr,
    Compare,
    CmpOp,
    Comprehension,
    Decl,
    Expr,
    Formula,
    FunCall,
    ImpliesElse,
    Let,
    Module,
    Mult,
    MultTest,
    NameExpr,
    Node,
    Not,
    PredCall,
    Quant,
    Quantified,
    UnaryExpr,
)
from repro.alloy.pretty import print_expr, print_memo_scope
from repro.alloy.resolver import ModuleInfo, resolve_module
from repro.analysis.cardinality import (
    CardinalityAnalyzer,
    _interval_compare,
    cardinality_analyzer,
)
from repro.analysis.diagnostics import (
    CONTRADICTION,
    CONTRADICTORY_MULT,
    DISJOINT_JOIN,
    EMPTY_DOMAIN_DECL,
    EMPTY_INTERSECTION,
    INFEASIBLE_CARD_COMPARE,
    LintError,
    Diagnostic,
    Rule,
    SHADOWED_BINDING,
    Severity,
    STATICALLY_UNSAT_FACT,
    STATICALLY_VALID_ASSERT,
    TAUTOLOGY,
    UNUSED_FIELD,
    UNUSED_FUN,
    UNUSED_PRED,
    UNUSED_SIG,
    VACUOUS_QUANTIFIER,
)
from repro.analysis.reltypes import RelType, TypeInferencer, inferencer_for


def lint_module(
    module: Module,
    info: ModuleInfo | None = None,
    *,
    rules: set[str] | None = None,
) -> list[Diagnostic]:
    """Every lint finding for one module, in source order.

    ``info`` may be supplied when the caller already resolved the module
    (the repair pipeline always has); otherwise it is computed here.
    ``rules`` optionally restricts the run to a set of rule codes/names.
    """
    if info is None:
        info = resolve_module(module)
    linter = _Linter(module, info)
    findings = linter.run()
    if rules is not None:
        wanted = {r.lower() for r in rules}
        findings = [
            d
            for d in findings
            if d.rule.code.lower() in wanted or d.rule.name in wanted
        ]
    return findings


def lint_source(source: str, **kwargs) -> list[Diagnostic]:
    """Parse, resolve, and lint a specification text."""
    from repro.alloy.parser import parse_module

    return lint_module(parse_module(source), **kwargs)


def check_module(
    module: Module,
    info: ModuleInfo | None = None,
    *,
    fail_on: Severity = Severity.ERROR,
) -> list[Diagnostic]:
    """Lint and raise :class:`LintError` if any finding reaches ``fail_on``."""
    findings = lint_module(module, info)
    fatal = [d for d in findings if d.severity >= fail_on]
    if fatal:
        raise LintError(
            f"{len(fatal)} lint finding(s) at or above "
            f"{fail_on.name.lower()}: "
            + "; ".join(f"{d.code} {d.message}" for d in fatal[:3])
            + ("; ..." if len(fatal) > 3 else ""),
            fatal,
        )
    return findings


def render_diagnostics(diagnostics: list[Diagnostic]) -> str:
    """The CLI / feedback rendering: one line per finding."""
    if not diagnostics:
        return "no findings"
    return "\n".join(d.render() for d in diagnostics)


_PARAGRAPH_MEMO = threading.local()

_PARAGRAPH_MEMO_LIMIT = 4096
"""Cap on the per-thread paragraph lint memo (entries pin paragraph ASTs)."""


def _paragraph_memo() -> OrderedDict:
    memo = getattr(_PARAGRAPH_MEMO, "entries", None)
    if memo is None:
        memo = _PARAGRAPH_MEMO.entries = OrderedDict()
    return memo


@contextmanager
def paragraph_memo_scope() -> Iterator[None]:
    """Give the dynamic extent a fresh paragraph memo, dropped on exit.

    Memo hits need the *same* paragraph objects, and a shard's modules die
    with the shard, so entries left over from an earlier shard can never
    hit again; they only pin ASTs (parsed LLM responses, mostly) until the
    cap evicts them.  The experiment engine installs one scope per shard,
    which keeps memory flat however many shards a process runs.  The scope
    covers the paragraph print memo of :mod:`repro.alloy.pretty` too."""
    previous = getattr(_PARAGRAPH_MEMO, "entries", None)
    _PARAGRAPH_MEMO.entries = OrderedDict()
    try:
        with print_memo_scope():
            yield
    finally:
        _PARAGRAPH_MEMO.entries = previous


class _Linter:
    """One lint pass over one module.

    Per-paragraph findings are memoized by paragraph *identity* together
    with the identities of every declaration that can influence typing (sig
    declarations and function result declarations).  Repair candidates are
    path-copied edits of a base module, so all but the edited paragraph are
    the same objects and lint a mutant at the cost of one paragraph.  The
    module-level hygiene rules (unused declarations) depend on the whole
    module and are recomputed every run from the cached per-paragraph
    used/called name sets.
    """

    def __init__(self, module: Module, info: ModuleInfo) -> None:
        self._module = module
        self._info = info
        self._types: TypeInferencer = inferencer_for(info)
        self._cards: CardinalityAnalyzer = cardinality_analyzer(info)
        self._findings: list[Diagnostic] = []
        self._context = ""
        self._used_names: set[str] = set()
        self._called: set[str] = set()
        # Identity context for the paragraph memo: typing reads sig
        # hierarchies/fields and fun result declarations, nothing else.
        self._type_ctx = tuple(
            [sig.decl for sig in info.sigs.values()]
            + [fun.result for fun in info.funs.values()]
        )

    def _paragraph_jobs(self):
        """Yield ``(paragraph, context, walk)`` for every cacheable unit."""
        info = self._info
        for fact in info.facts:

            def walk_fact(fact=fact):
                self._formula(fact.body, {})
                self._check_fact_truth(fact)

            yield fact, f"fact {fact.name or '<anonymous>'}", walk_fact
        for pred in info.preds.values():

            def walk_pred(pred=pred):
                env = self._param_env(pred.params)
                self._formula(pred.body, env)

            yield pred, f"pred {pred.name}", walk_pred
        for fun in info.funs.values():

            def walk_fun(fun=fun):
                env = self._param_env(fun.params)
                self._expr(fun.body, env)
                for node in fun.result.walk():
                    if isinstance(node, NameExpr):
                        self._used_names.add(node.name)

            yield fun, f"fun {fun.name}", walk_fun
        for assertion in info.asserts.values():

            def walk_assert(assertion=assertion):
                self._formula(assertion.body, {})
                self._check_assert_truth(assertion)

            yield assertion, f"assert {assertion.name}", walk_assert
        for command in info.commands:
            if command.block is not None:
                yield (
                    command,
                    f"{command.kind} <block>",
                    lambda command=command: self._formula(command.block, {}),
                )

    @staticmethod
    def _same_ctx(left: tuple, right: tuple) -> bool:
        return len(left) == len(right) and all(
            a is b for a, b in zip(left, right)
        )

    def run(self) -> list[Diagnostic]:
        info = self._info
        memo = _paragraph_memo()
        all_findings: list[Diagnostic] = []
        all_used: set[str] = set()
        all_called: set[str] = set()
        for paragraph, context, walk in self._paragraph_jobs():
            entry = memo.get(id(paragraph))
            if entry is not None and (
                entry[0] is paragraph and self._same_ctx(entry[1], self._type_ctx)
            ):
                memo.move_to_end(id(paragraph))
                _, _, findings, used, called = entry
            else:
                self._findings = []
                self._used_names = set()
                self._called = set()
                self._context = context
                walk()
                findings = tuple(self._findings)
                used = frozenset(self._used_names)
                called = frozenset(self._called)
                memo[id(paragraph)] = (
                    paragraph,
                    self._type_ctx,
                    findings,
                    used,
                    called,
                )
                if len(memo) > _PARAGRAPH_MEMO_LIMIT:
                    memo.popitem(last=False)
            all_findings.extend(findings)
            all_used.update(used)
            all_called.update(called)
        for command in info.commands:
            if command.target is not None:
                all_called.add(command.target)
        self._findings = all_findings
        self._used_names = all_used
        self._called = all_called
        self._context = "module"
        self._unused_decls()
        self._empty_field_domains()
        self._findings.sort(key=lambda d: (d.pos.line, d.pos.column, d.code))
        return self._findings

    # -- plumbing -------------------------------------------------------------

    def _report(self, rule: Rule, message: str, node: Node) -> None:
        self._findings.append(
            Diagnostic(
                rule=rule, message=message, pos=node.pos, context=self._context
            )
        )

    def _param_env(self, params: list[Decl]) -> dict[str, RelType]:
        env: dict[str, RelType] = {}
        for decl in params:
            self._expr(decl.bound, env)
            bound = self._type_of(decl.bound, env)
            if bound.empty:
                rendered = _safe_print(decl.bound) or "<expr>"
                names = ", ".join(decl.names)
                self._report(
                    EMPTY_DOMAIN_DECL,
                    f"parameter {names} is declared over '{rendered}', "
                    "which is statically empty",
                    decl,
                )
            for name in decl.names:
                env[name] = bound
        return env

    def _truth(self, formula: Formula) -> bool | None:
        """Scope-independent three-valued truth; failures stay undecided."""
        try:
            return self._cards.truth(formula)
        except (AlloyError, RecursionError):  # pragma: no cover - safety net
            return None

    def _check_fact_truth(self, fact) -> None:
        if self._truth(fact.body) is False:
            self._report(
                STATICALLY_UNSAT_FACT,
                f"fact '{fact.name or '<anonymous>'}' is unsatisfiable "
                "under any scope: the specification has no instances",
                fact,
            )

    def _check_assert_truth(self, assertion) -> None:
        if self._truth(assertion.body) is True:
            self._report(
                STATICALLY_VALID_ASSERT,
                f"assertion '{assertion.name}' holds in every instance at "
                "every scope: the check verifies nothing",
                assertion,
            )

    def _type_of(self, expr: Expr, env: dict[str, RelType]) -> RelType:
        try:
            return self._types.type_of(expr, env)
        except (AlloyError, RecursionError):  # pragma: no cover - safety net
            from repro.analysis.reltypes import wildcard

            return wildcard(1)

    # -- formula walk ---------------------------------------------------------

    def _formula(self, formula: Formula, env: dict[str, RelType]) -> None:
        if isinstance(formula, Compare):
            self._compare(formula, env)
            self._expr(formula.left, env)
            self._expr(formula.right, env)
        elif isinstance(formula, MultTest):
            self._mult_test(formula, env)
            self._expr(formula.operand, env)
        elif isinstance(formula, Not):
            self._formula(formula.operand, env)
        elif isinstance(formula, BoolBin):
            self._bool_bin(formula, env)
        elif isinstance(formula, ImpliesElse):
            self._formula(formula.cond, env)
            self._formula(formula.then, env)
            self._formula(formula.other, env)
        elif isinstance(formula, Quantified):
            self._quantified(formula, env)
        elif isinstance(formula, Let):
            self._let(formula, env)
        elif isinstance(formula, PredCall):
            self._called.add(formula.name)
            for arg in formula.args:
                self._expr(arg, env)
        elif isinstance(formula, Block):
            for inner in formula.formulas:
                self._formula(inner, env)

    def _compare(self, formula: Compare, env: dict[str, RelType]) -> None:
        left_text = _safe_print(formula.left)
        right_text = _safe_print(formula.right)
        if left_text is None or left_text != right_text:
            # Interval-refuted cardinality comparisons (`#e < 0`,
            # `#one-sig = 0`).  Self-compares are A301/A302 territory.
            self._check_card_compare(formula, env)
        if left_text is not None and left_text == right_text:
            if formula.op in (CmpOp.EQ, CmpOp.IN, CmpOp.LTE, CmpOp.GTE):
                self._report(
                    TAUTOLOGY,
                    f"'{left_text} {formula.op.value} {right_text}' "
                    "compares an expression with itself and always holds",
                    formula,
                )
            elif formula.op in (CmpOp.NEQ, CmpOp.NOT_IN, CmpOp.LT, CmpOp.GT):
                self._report(
                    CONTRADICTION,
                    f"'{left_text} {formula.op.value} {right_text}' "
                    "compares an expression with itself and never holds",
                    formula,
                )

    def _check_card_compare(
        self, formula: Compare, env: dict[str, RelType]
    ) -> None:
        from repro.analysis.cardinality import TOP

        # Binder names widen to TOP so a binder shadowing a signature never
        # borrows the signature's bounds.
        ienv = {name: TOP for name in env}
        try:
            left = self._cards.int_interval(formula.left, ienv)
            right = self._cards.int_interval(formula.right, ienv)
            if left is None or right is None:
                return
            verdict = _interval_compare(formula.op, left, right)
        except (AlloyError, RecursionError):  # pragma: no cover - safety net
            return
        if verdict is False:
            left_text = _safe_print(formula.left) or "<expr>"
            right_text = _safe_print(formula.right) or "<expr>"
            self._report(
                INFEASIBLE_CARD_COMPARE,
                f"'{left_text} {formula.op.value} {right_text}' can never "
                f"hold: the bounds are {left.describe()} vs "
                f"{right.describe()}",
                formula,
            )

    def _mult_test(self, formula: MultTest, env: dict[str, RelType]) -> None:
        operand = self._type_of(formula.operand, env)
        if not operand.empty:
            return
        rendered = _safe_print(formula.operand) or "<expr>"
        if formula.mult in (Mult.SOME, Mult.ONE):
            self._report(
                CONTRADICTORY_MULT,
                f"'{formula.mult.value} {rendered}' can never hold: "
                "the operand is statically empty",
                formula,
            )
        elif formula.mult in (Mult.NO, Mult.LONE):
            self._report(
                TAUTOLOGY,
                f"'{formula.mult.value} {rendered}' always holds: "
                "the operand is statically empty",
                formula,
            )

    def _bool_bin(self, formula: BoolBin, env: dict[str, RelType]) -> None:
        left_text = _safe_print_formula(formula.left)
        right_text = _safe_print_formula(formula.right)
        if left_text is not None and left_text == right_text:
            self._report(
                TAUTOLOGY,
                f"both sides of '{formula.op.value}' are the identical "
                f"formula '{_clip(left_text)}'",
                formula,
            )
        self._formula(formula.left, env)
        self._formula(formula.right, env)

    def _quantified(self, formula: Quantified, env: dict[str, RelType]) -> None:
        inner = dict(env)
        for decl in formula.decls:
            self._check_binder_domain(
                decl, inner, quant=formula.quant, node=formula
            )
            bound = self._type_of(decl.bound, inner)
            for name in decl.names:
                self._check_shadowing(name, inner, decl)
                inner[name] = bound
            self._expr(decl.bound, env)
        self._formula(formula.body, inner)

    def _let(self, formula: Let, env: dict[str, RelType]) -> None:
        self._expr(formula.value, env)
        self._check_shadowing(formula.name, env, formula)
        inner = dict(env)
        inner[formula.name] = self._type_of(formula.value, env)
        self._formula(formula.body, inner)

    def _check_binder_domain(
        self,
        decl: Decl,
        env: dict[str, RelType],
        *,
        quant: Quant | None,
        node: Node,
    ) -> None:
        bound = self._type_of(decl.bound, env)
        if not bound.empty:
            return
        rendered = _safe_print(decl.bound) or "<expr>"
        names = ", ".join(decl.names)
        what = f"'{quant.value}'" if quant is not None else "comprehension"
        self._report(
            VACUOUS_QUANTIFIER,
            f"{what} binds {names} over '{rendered}', which is statically "
            "empty — the body can never execute",
            node,
        )

    def _check_shadowing(
        self, name: str, env: dict[str, RelType], node: Node
    ) -> None:
        if name in env:
            self._report(
                SHADOWED_BINDING,
                f"binder '{name}' shadows an enclosing binder",
                node,
            )
        elif name in self._info.sigs or name in self._info.fields:
            kind = "signature" if name in self._info.sigs else "field"
            self._report(
                SHADOWED_BINDING,
                f"binder '{name}' shadows the {kind} of the same name",
                node,
            )

    # -- expression walk ------------------------------------------------------

    def _expr(self, expr: Expr, env: dict[str, RelType]) -> None:
        if isinstance(expr, NameExpr):
            self._used_names.add(expr.name)
            return
        if isinstance(expr, BinaryExpr):
            self._binary(expr, env)
            return
        if isinstance(expr, UnaryExpr):
            self._expr(expr.operand, env)
            return
        if isinstance(expr, CardExpr):
            self._expr(expr.operand, env)
            return
        if isinstance(expr, FunCall):
            self._called.add(expr.name)
            self._used_names.add(expr.name)
            for arg in expr.args:
                self._expr(arg, env)
            return
        if isinstance(expr, Comprehension):
            inner = dict(env)
            for decl in expr.decls:
                self._check_binder_domain(decl, inner, quant=None, node=expr)
                bound = self._type_of(decl.bound, inner)
                for name in decl.names:
                    self._check_shadowing(name, inner, decl)
                    inner[name] = bound
                self._expr(decl.bound, env)
            self._formula(expr.body, inner)
            return

    def _binary(self, expr: BinaryExpr, env: dict[str, RelType]) -> None:
        left = self._type_of(expr.left, env)
        right = self._type_of(expr.right, env)
        if not left.is_int and not right.is_int:
            if expr.op is BinOp.JOIN and not left.empty and not right.empty:
                joined = self._types.join(left, right)
                if joined.empty:
                    self._report(
                        DISJOINT_JOIN,
                        f"join of {left.describe()} with {right.describe()} "
                        "is always empty: no columns overlap",
                        expr,
                    )
            elif (
                expr.op is BinOp.INTERSECT
                and not left.empty
                and not right.empty
            ):
                met = self._types.intersect(left, right)
                if met.empty:
                    self._report(
                        EMPTY_INTERSECTION,
                        f"intersection of {left.describe()} with "
                        f"{right.describe()} is always empty",
                        expr,
                    )
        self._expr(expr.left, env)
        self._expr(expr.right, env)

    # -- module-level hygiene -------------------------------------------------

    def _unused_decls(self) -> None:
        info = self._info
        used = set(self._used_names)
        called = set(self._called)
        # Structural uses: hierarchy parents and field column types keep a
        # signature alive even when no formula names it.
        structurally_used: set[str] = set()
        for sig in info.sigs.values():
            if sig.parent is not None:
                structurally_used.add(sig.parent)
        for field_info in info.fields.values():
            structurally_used.update(field_info.columns)
        for scope_holder in info.commands:
            for scope in scope_holder.sig_scopes:
                structurally_used.add(scope.sig)

        for sig in info.sigs.values():
            if sig.name in used or sig.name in structurally_used:
                continue
            if sig.children:
                continue  # parents of used children are structural
            self._report(
                UNUSED_SIG,
                f"signature '{sig.name}' is never referenced",
                sig.decl,
            )
        for field_info in info.fields.values():
            if field_info.name not in used:
                self._report(
                    UNUSED_FIELD,
                    f"field '{field_info.name}' is never referenced",
                    field_info.decl,
                )
        for pred in info.preds.values():
            if pred.name not in called:
                self._report(
                    UNUSED_PRED,
                    f"predicate '{pred.name}' is never called or run",
                    pred,
                )
        for fun in info.funs.values():
            if fun.name not in called and fun.name not in used:
                self._report(
                    UNUSED_FUN,
                    f"function '{fun.name}' is never applied",
                    fun,
                )

    def _empty_field_domains(self) -> None:
        """A503 for fields declared over statically empty column types."""
        for field_info in self._info.fields.values():
            dead = [
                column
                for column in field_info.columns
                if column in self._info.sigs
                and self._types.sig_type(column).empty
            ]
            if dead:
                self._report(
                    EMPTY_DOMAIN_DECL,
                    f"field '{field_info.name}' spans statically empty "
                    f"signature(s) {', '.join(sorted(set(dead)))}: it can "
                    "never hold a tuple",
                    field_info.decl,
                )


def _safe_print(expr: Expr) -> str | None:
    try:
        return print_expr(expr)
    except Exception:  # pragma: no cover - printer is total in practice
        return None


def _safe_print_formula(formula: Formula) -> str | None:
    from repro.alloy.pretty import print_formula

    try:
        return print_formula(formula)
    except Exception:  # pragma: no cover
        return None


def _clip(text: str, limit: int = 60) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."
