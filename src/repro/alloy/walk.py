"""Generic AST traversal and rewriting utilities.

Nodes are addressed by *paths*: tuples of ``(field_name, index)`` steps from a
root node, where ``index`` is ``None`` for scalar fields and an integer for
list fields.  Paths survive pretty-print/re-parse round trips of an unchanged
tree, which lets fault localization, mutation, and repair tools name and
rewrite arbitrary subtrees without bespoke visitors.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator

from repro.alloy.nodes import Node

Path = tuple[tuple[str, int | None], ...]
"""A structural address of a node below some root."""


def iter_paths(root: Node) -> Iterator[tuple[Path, Node]]:
    """Yield ``(path, node)`` for the root and every descendant, pre-order."""
    yield (), root
    for step, child in _child_steps(root):
        for sub_path, node in iter_paths(child):
            yield (step,) + sub_path, node


def _child_steps(node: Node) -> Iterator[tuple[tuple[str, int | None], Node]]:
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Node):
            yield (f.name, None), value
        elif isinstance(value, list):
            for index, item in enumerate(value):
                if isinstance(item, Node):
                    yield (f.name, index), item


def get_at(root: Node, path: Path) -> Node:
    """Return the node addressed by ``path`` below ``root``."""
    node: Node = root
    for field_name, index in path:
        value = getattr(node, field_name)
        node = value if index is None else value[index]
    return node


def _shallow_node(node: Node) -> Node:
    """A one-level copy of ``node``: fresh object, fresh list containers,
    shared child subtrees.  (Node dataclasses keep every field in
    ``__dict__`` and have no ``__post_init__``, so copying the dict is
    the same as re-running the constructor, only cheaper.)"""
    fresh = object.__new__(type(node))
    fresh.__dict__.update(
        (name, list(value) if isinstance(value, list) else value)
        for name, value in node.__dict__.items()
    )
    return fresh


def _copy_spine(root: Node, path: Path) -> tuple[Node, Node]:
    """Copy the nodes along ``path`` (exclusive of its last step), sharing
    every subtree off the path.  Returns ``(new_root, parent_copy)``.

    Rewrites built on this are persistent-data-structure updates: the result
    shares all untouched paragraphs with ``root``, so producing hundreds of
    candidate mutants costs O(depth) copies each instead of a full deep copy
    — and downstream identity-keyed caches (translation fragments, paragraph
    digests) see unchanged subtrees as the *same* objects.  Callers must
    treat ASTs as immutable, which every consumer in this codebase does.
    """
    new_root = _shallow_node(root)
    parent = new_root
    for field_name, index in path[:-1]:
        value = getattr(parent, field_name)
        child = value if index is None else value[index]
        fresh = _shallow_node(child)
        if index is None:
            setattr(parent, field_name, fresh)
        else:
            value[index] = fresh
        parent = fresh
    return new_root, parent


def replace_at(root: Node, path: Path, replacement: Node) -> Node:
    """Return a copy of ``root`` with the node at ``path`` replaced.

    The copy shares every subtree not on the path with ``root``, and the
    replacement is put in place as it is, not copied.  Proposals often
    embed pieces of the original tree, so the result may share those
    pieces with ``root`` too; that is sound because ASTs are immutable
    (see :func:`_copy_spine`).  The returned root is always a fresh node:
    replacing the root itself yields a one-level copy of ``replacement``."""
    if not path:
        return _shallow_node(replacement)
    new_root, parent = _copy_spine(root, path)
    field_name, index = path[-1]
    if index is None:
        setattr(parent, field_name, replacement)
    else:
        getattr(parent, field_name)[index] = replacement
    return new_root


def remove_at(root: Node, path: Path) -> Node:
    """Return a copy of ``root`` with the list element at ``path`` removed.

    The addressed node must live in a list field (e.g. a formula inside a
    block); removing a scalar child would leave the parent malformed.
    Unaffected subtrees are shared with ``root``.
    """
    if not path:
        raise ValueError("cannot remove the root node")
    field_name, index = path[-1]
    if index is None:
        raise ValueError(f"node at field {field_name!r} is not a list element")
    new_root, parent = _copy_spine(root, path)
    del getattr(parent, field_name)[index]
    return new_root


def insert_at(root: Node, path: Path, index: int, new_node: Node, field_name: str) -> Node:
    """Return a copy of ``root`` with ``new_node`` inserted into the list
    field ``field_name`` of the node at ``path``, at position ``index``.
    Unaffected subtrees are shared with ``root``, and ``new_node`` is
    inserted as it is, not copied (ASTs are immutable)."""
    new_root, parent = _copy_spine(root, path + ((field_name, None),))
    getattr(parent, field_name).insert(index, new_node)
    return new_root


def count_nodes(root: Node) -> int:
    """Total number of nodes in the tree rooted at ``root``."""
    return sum(1 for _ in root.walk())


def find_paths(root: Node, predicate: Callable[[Node], bool]) -> list[Path]:
    """All paths whose node satisfies ``predicate``, pre-order."""
    return [path for path, node in iter_paths(root) if predicate(node)]
