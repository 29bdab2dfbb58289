"""Pretty-printer for the Alloy dialect AST.

Produces canonical source text that round-trips through the parser.  Repair
tools use this both to materialize candidate patches as text (for the TM
metric) and to embed specifications in LLM prompts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator

from repro.alloy.nodes import (
    ArrowType,
    AssertDecl,
    BinaryExpr,
    BinOp,
    Block,
    BoolBin,
    CardExpr,
    Command,
    Compare,
    Comprehension,
    Decl,
    DeclType,
    Expr,
    FactDecl,
    FieldDecl,
    Formula,
    FunCall,
    FunDecl,
    IdenExpr,
    ImpliesElse,
    IntLit,
    Let,
    LogicOp,
    Module,
    Mult,
    MultTest,
    NameExpr,
    NoneExpr,
    Not,
    Paragraph,
    PredCall,
    PredDecl,
    Quantified,
    SigDecl,
    UnaryExpr,
    UnaryType,
    UnivExpr,
)

_BIN_TEXT = {
    BinOp.UNION: "+",
    BinOp.DIFF: "-",
    BinOp.INTERSECT: "&",
    BinOp.JOIN: ".",
    BinOp.PRODUCT: "->",
    BinOp.OVERRIDE: "++",
    BinOp.DOM_RESTRICT: "<:",
    BinOp.RAN_RESTRICT: ":>",
}

_LOGIC_TEXT = {
    LogicOp.AND: "and",
    LogicOp.OR: "or",
    LogicOp.IMPLIES: "implies",
    LogicOp.IFF: "iff",
}

# Binding strength for expression printing (higher binds tighter).
_EXPR_PREC = {
    BinOp.UNION: 1,
    BinOp.DIFF: 1,
    BinOp.OVERRIDE: 3,
    BinOp.INTERSECT: 4,
    BinOp.PRODUCT: 5,
    BinOp.DOM_RESTRICT: 6,
    BinOp.RAN_RESTRICT: 6,
    BinOp.JOIN: 8,
}

_LOGIC_PREC = {
    LogicOp.OR: 1,
    LogicOp.IFF: 2,
    LogicOp.IMPLIES: 3,
    LogicOp.AND: 4,
}


def print_expr(expr: Expr, parent_prec: int = 0) -> str:
    """Render an expression as source text."""
    if isinstance(expr, NameExpr):
        return f"@{expr.name}" if expr.raw else expr.name
    if isinstance(expr, NoneExpr):
        return "none"
    if isinstance(expr, UnivExpr):
        return "univ"
    if isinstance(expr, IdenExpr):
        return "iden"
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, UnaryExpr):
        inner = print_expr(expr.operand, 9)
        return f"{expr.op.value}{inner}"
    if isinstance(expr, CardExpr):
        text = f"#{print_expr(expr.operand, 3)}"
        return f"({text})" if parent_prec > 2 else text
    if isinstance(expr, BinaryExpr):
        prec = _EXPR_PREC[expr.op]
        left = print_expr(expr.left, prec)
        # Product is right-associative; everything else left-associative.
        right_prec = prec if expr.op is BinOp.PRODUCT else prec + 1
        right = print_expr(expr.right, right_prec)
        op = _BIN_TEXT[expr.op]
        if expr.op is BinOp.JOIN:
            text = f"{left}.{right}"
        else:
            text = f"{left} {op} {right}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, FunCall):
        args = ", ".join(print_expr(a) for a in expr.args)
        return f"{expr.name}[{args}]"
    if isinstance(expr, Comprehension):
        decls = ", ".join(print_decl(d) for d in expr.decls)
        return f"{{ {decls} | {print_formula(expr.body)} }}"
    raise TypeError(f"cannot print expression {expr!r}")


def print_decl(decl: Decl) -> str:
    """Render a declaration such as ``x, y: set e``."""
    names = ", ".join(decl.names)
    prefix = "disj " if decl.disj else ""
    mult = f"{decl.mult.value} " if decl.mult is not None else ""
    return f"{prefix}{names}: {mult}{print_expr(decl.bound)}"


def print_formula(formula: Formula, parent_prec: int = 0) -> str:
    """Render a formula as source text."""
    if isinstance(formula, Compare):
        left = print_expr(formula.left)
        right = print_expr(formula.right)
        text = f"{left} {formula.op.value} {right}"
        return f"({text})" if parent_prec > 5 else text
    if isinstance(formula, MultTest):
        text = f"{formula.mult.value} {print_expr(formula.operand)}"
        return f"({text})" if parent_prec > 5 else text
    if isinstance(formula, Not):
        return f"not {print_formula(formula.operand, 6)}"
    if isinstance(formula, BoolBin):
        prec = _LOGIC_PREC[formula.op]
        if formula.op is LogicOp.IMPLIES:
            # Right-associative: the left operand needs parentheses at equal
            # precedence, the right does not.
            left = print_formula(formula.left, prec + 1)
            right = print_formula(formula.right, prec)
        else:
            left = print_formula(formula.left, prec)
            right = print_formula(formula.right, prec + 1)
        text = f"{left} {_LOGIC_TEXT[formula.op]} {right}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(formula, ImpliesElse):
        cond = print_formula(formula.cond, 4)
        then = print_formula(formula.then, 4)
        other = print_formula(formula.other, 4)
        text = f"{cond} implies {then} else {other}"
        return f"({text})" if parent_prec > 3 else text
    if isinstance(formula, Quantified):
        decls = ", ".join(print_decl(d) for d in formula.decls)
        text = f"{formula.quant.value} {decls} | {print_formula(formula.body)}"
        return f"({text})" if parent_prec > 0 else text
    if isinstance(formula, Let):
        text = (
            f"let {formula.name} = {print_expr(formula.value)} | "
            f"{print_formula(formula.body)}"
        )
        return f"({text})" if parent_prec > 0 else text
    if isinstance(formula, PredCall):
        if not formula.args:
            return formula.name
        args = ", ".join(print_expr(a) for a in formula.args)
        return f"{formula.name}[{args}]"
    if isinstance(formula, Block):
        if len(formula.formulas) == 1:
            return print_formula(formula.formulas[0], parent_prec)
        inner = " ".join(print_formula(f) for f in formula.formulas)
        return f"{{ {inner} }}"
    raise TypeError(f"cannot print formula {formula!r}")


def print_decl_type(decl_type: DeclType) -> str:
    """Render a declared field type."""
    if isinstance(decl_type, UnaryType):
        return f"{decl_type.mult.value} {print_expr(decl_type.expr)}"
    if isinstance(decl_type, ArrowType):
        left = _print_arrow_side(decl_type.left)
        right = _print_arrow_side(decl_type.right)
        left_mult = (
            "" if decl_type.left_mult is Mult.SET else f" {decl_type.left_mult.value}"
        )
        right_mult = (
            "" if decl_type.right_mult is Mult.SET else f"{decl_type.right_mult.value} "
        )
        return f"{left}{left_mult} -> {right_mult}{right}"
    raise TypeError(f"cannot print decl type {decl_type!r}")


def _print_arrow_side(side: DeclType) -> str:
    if isinstance(side, UnaryType):
        return print_expr(side.expr)
    return print_decl_type(side)


def _print_block_lines(block: Block, indent: str) -> list[str]:
    return [f"{indent}{print_formula(f)}" for f in block.formulas]


_PRINT_MEMO = threading.local()

_PRINT_MEMO_LIMIT = 256
"""Cap on the per-thread paragraph print memo (entries pin paragraph ASTs).
A candidate stream re-prints the same dozen base paragraphs over and over,
so a small LRU keeps them hot."""


def _print_memo() -> OrderedDict:
    memo = getattr(_PRINT_MEMO, "entries", None)
    if memo is None:
        memo = _PRINT_MEMO.entries = OrderedDict()
    return memo


@contextmanager
def print_memo_scope() -> Iterator[None]:
    """Give the dynamic extent a fresh paragraph print memo, dropped on
    exit (memo hits need the same paragraph objects, which die with the
    shard that made them)."""
    previous = getattr(_PRINT_MEMO, "entries", None)
    _PRINT_MEMO.entries = OrderedDict()
    try:
        yield
    finally:
        _PRINT_MEMO.entries = previous


def print_paragraph(paragraph: Paragraph) -> str:
    """Render a top-level paragraph.

    Memoized per thread by node identity: repair candidates share every
    untouched paragraph with their base module, and ASTs are immutable, so
    printing a candidate costs one paragraph."""
    memo = _print_memo()
    key = id(paragraph)
    entry = memo.get(key)
    if entry is not None and entry[0] is paragraph:
        memo.move_to_end(key)
        return entry[1]
    text = _render_paragraph(paragraph)
    memo[key] = (paragraph, text)
    if len(memo) > _PRINT_MEMO_LIMIT:
        memo.popitem(last=False)
    return text


def _render_paragraph(paragraph: Paragraph) -> str:
    if isinstance(paragraph, SigDecl):
        parts = []
        if paragraph.abstract:
            parts.append("abstract")
        if paragraph.mult is not None:
            parts.append(paragraph.mult.value)
        parts.append("sig")
        parts.append(", ".join(paragraph.names))
        if paragraph.parent is not None:
            parts.append(f"extends {paragraph.parent}")
        header = " ".join(parts)
        appended = ""
        if paragraph.appended is not None:
            inner = " ".join(print_formula(f) for f in paragraph.appended.formulas)
            appended = f" {{ {inner} }}"
        if not paragraph.fields:
            return f"{header} {{}}{appended}"
        fields = ",\n".join(
            f"  {f.name}: {print_decl_type(f.type)}" for f in paragraph.fields
        )
        return f"{header} {{\n{fields}\n}}{appended}"
    if isinstance(paragraph, FactDecl):
        name = f" {paragraph.name}" if paragraph.name else ""
        body = "\n".join(_print_block_lines(paragraph.body, "  "))
        return f"fact{name} {{\n{body}\n}}"
    if isinstance(paragraph, PredDecl):
        params = ""
        if paragraph.params:
            params = "[" + ", ".join(print_decl(d) for d in paragraph.params) + "]"
        body = "\n".join(_print_block_lines(paragraph.body, "  "))
        return f"pred {paragraph.name}{params} {{\n{body}\n}}"
    if isinstance(paragraph, FunDecl):
        params = ""
        if paragraph.params:
            params = "[" + ", ".join(print_decl(d) for d in paragraph.params) + "]"
        result = print_decl_type(paragraph.result)
        return (
            f"fun {paragraph.name}{params}: {result} {{\n"
            f"  {print_expr(paragraph.body)}\n}}"
        )
    if isinstance(paragraph, AssertDecl):
        body = "\n".join(_print_block_lines(paragraph.body, "  "))
        return f"assert {paragraph.name} {{\n{body}\n}}"
    if isinstance(paragraph, Command):
        if paragraph.target is not None:
            head = f"{paragraph.kind} {paragraph.target}"
        else:
            inner = " ".join(print_formula(f) for f in paragraph.block.formulas)
            head = f"{paragraph.kind} {{ {inner} }}"
        scope = f" for {paragraph.default_scope}"
        if paragraph.sig_scopes:
            buts = ", ".join(
                f"{'exactly ' if s.exact else ''}{s.bound} {s.sig}"
                for s in paragraph.sig_scopes
            )
            scope += f" but {buts}"
        expect = f" expect {paragraph.expect}" if paragraph.expect is not None else ""
        return f"{head}{scope}{expect}"
    raise TypeError(f"cannot print paragraph {paragraph!r}")


def print_module(module: Module) -> str:
    """Render a complete specification as canonical source text."""
    lines: list[str] = []
    if module.name:
        lines.append(f"module {module.name}")
        lines.append("")
    for paragraph in module.paragraphs:
        lines.append(print_paragraph(paragraph))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
