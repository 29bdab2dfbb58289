"""Atom universes and per-command bounds.

A :class:`Universe` fixes the pool of atoms for each *top-level* signature
based on a command's scope; subsignatures draw their atoms from the parent's
pool.  :class:`Bounds` then assigns one boolean circuit input to each
(sig, atom) membership and each potential field tuple — the "primary
variables" in Kodkod terminology.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.alloy.errors import ScopeError
from repro.alloy.nodes import Command, Mult
from repro.alloy.resolver import ModuleInfo
from repro.sat.circuit import FALSE, TRUE, CircuitBuilder

Atom = str
"""Atoms are interned strings like ``Room$0``."""

DEFAULT_SCOPE = 3


@dataclass(frozen=True)
class SigBound:
    """The scope resolved for one top-level signature."""

    sig: str
    size: int
    exact: bool


def resolve_scopes(info: ModuleInfo, command: Command) -> dict[str, SigBound]:
    """Compute the atom budget for every top-level signature of a command.

    ``one sig`` signatures get an exact scope of 1 regardless of the default;
    explicit per-sig scopes override the default.  Scopes on non-top-level
    signatures are rejected (the dialect allocates atoms at the roots only).
    """
    overrides: dict[str, tuple[int, bool]] = {}
    for sig_scope in command.sig_scopes:
        sig_info = info.sigs[sig_scope.sig]
        if not sig_info.is_top_level:
            raise ScopeError(
                f"scope on non-top-level signature {sig_scope.sig!r} "
                "is not supported",
                sig_scope.pos,
            )
        overrides[sig_scope.sig] = (sig_scope.bound, sig_scope.exact)

    bounds: dict[str, SigBound] = {}
    for sig_info in info.top_level_sigs():
        name = sig_info.name
        if name in overrides:
            size, exact = overrides[name]
        elif sig_info.mult is Mult.ONE:
            size, exact = 1, True
        elif sig_info.mult is Mult.SOME:
            size, exact = command.default_scope, False
        else:
            size, exact = command.default_scope, False
        if sig_info.mult is Mult.ONE and size != 1:
            size, exact = 1, True
        if size < 0:
            raise ScopeError(f"negative scope for {name!r}", command.pos)
        bounds[name] = SigBound(sig=name, size=size, exact=exact)
    return bounds


@dataclass
class Universe:
    """The atom pools for one command execution."""

    pools: dict[str, list[Atom]] = field(default_factory=dict)

    @classmethod
    def build(cls, info: ModuleInfo, scopes: dict[str, SigBound]) -> "Universe":
        pools = {
            name: [f"{name}${i}" for i in range(bound.size)]
            for name, bound in scopes.items()
        }
        return cls(pools=pools)

    @property
    def atoms(self) -> list[Atom]:
        return [atom for pool in self.pools.values() for atom in pool]

    def pool_of(self, info: ModuleInfo, sig: str) -> list[Atom]:
        """The candidate atoms of any signature (its root's pool)."""
        return self.pools[info.root_of(sig)]


class Bounds:
    """Primary circuit variables for signatures and fields.

    - ``sig_vars[sig][atom]``: handle that is true iff ``atom ∈ sig``.
    - ``field_vars[field][tuple]``: handle that is true iff the tuple is in
      the field relation.

    Exactly-bounded top-level signatures use the constant ``TRUE`` handle for
    membership, which prunes the search space the same way Kodkod's exact
    bounds do.
    """

    def __init__(
        self,
        info: ModuleInfo,
        command: Command,
        builder: CircuitBuilder,
    ) -> None:
        self.info = info
        self.builder = builder
        self.scopes = resolve_scopes(info, command)
        self.universe = Universe.build(info, self.scopes)
        self.sig_vars: dict[str, dict[Atom, int]] = {}
        self.field_vars: dict[str, dict[tuple[Atom, ...], int]] = {}
        self._allocate_sig_vars()
        self._allocate_field_vars()
        self._constrain_hierarchy()

    def clone(self, info: ModuleInfo, builder: CircuitBuilder) -> "Bounds":
        """These bounds over ``builder`` (a clone of this one's builder) for
        ``info``, a module with the same signatures, fields and scopes.
        Handles are plain integers, so the variable maps are shared."""
        twin = copy.copy(self)
        twin.info = info
        twin.builder = builder
        return twin

    # -- allocation ----------------------------------------------------------

    def _allocate_sig_vars(self) -> None:
        for sig_info in self.info.sigs.values():
            pool = self.universe.pool_of(self.info, sig_info.name)
            row: dict[Atom, int] = {}
            root = self.info.root_of(sig_info.name)
            exact_root = self.scopes[root].exact
            for atom in pool:
                if sig_info.is_top_level and exact_root:
                    row[atom] = TRUE
                elif sig_info.mult is Mult.ONE and sig_info.is_top_level:
                    row[atom] = TRUE
                else:
                    row[atom] = self.builder.fresh_var()
            self.sig_vars[sig_info.name] = row

    def _allocate_field_vars(self) -> None:
        for field_info in self.info.fields.values():
            pools = [
                self.universe.pool_of(self.info, column)
                for column in field_info.columns
            ]
            row: dict[tuple[Atom, ...], int] = {}
            for tup in _product(pools):
                row[tup] = self.builder.fresh_var()
            self.field_vars[field_info.name] = row

    # -- structural constraints ------------------------------------------------

    def _constrain_hierarchy(self) -> None:
        builder = self.builder
        # Subsignature containment, sibling disjointness, abstract coverage.
        for sig_info in self.info.sigs.values():
            if sig_info.parent is not None:
                parent_row = self.sig_vars[sig_info.parent]
                for atom, handle in self.sig_vars[sig_info.name].items():
                    builder.assert_true(builder.implies(handle, parent_row[atom]))
            children = sig_info.children
            for i in range(len(children)):
                for j in range(i + 1, len(children)):
                    row_i = self.sig_vars[children[i]]
                    row_j = self.sig_vars[children[j]]
                    for atom in row_i:
                        builder.assert_true(
                            builder.or_([-row_i[atom], -row_j[atom]])
                        )
            if sig_info.abstract and children:
                own_row = self.sig_vars[sig_info.name]
                for atom in own_row:
                    child_handles = [self.sig_vars[c][atom] for c in children]
                    builder.assert_true(
                        builder.implies(own_row[atom], builder.or_(child_handles))
                    )
        # Signature multiplicities (`one sig`, `lone sig`, `some sig`).
        for sig_info in self.info.sigs.values():
            handles = list(self.sig_vars[sig_info.name].values())
            if sig_info.mult is Mult.ONE:
                builder.assert_true(builder.exactly(handles, 1))
            elif sig_info.mult is Mult.LONE:
                builder.assert_true(builder.at_most(handles, 1))
            elif sig_info.mult is Mult.SOME:
                builder.assert_true(builder.at_least(handles, 1))
        # Field tuples require column membership.
        for field_info in self.info.fields.values():
            for tup, handle in self.field_vars[field_info.name].items():
                for column, atom in zip(field_info.columns, tup):
                    member = self.sig_vars[column][atom]
                    if member != TRUE:
                        builder.assert_true(builder.implies(handle, member))
        # Symmetry breaking: top-level presence is downward closed in atom
        # index (any instance can be relabeled to satisfy this).
        for sig_info in self.info.top_level_sigs():
            row = self.sig_vars[sig_info.name]
            pool = self.universe.pools[sig_info.name]
            for earlier, later in zip(pool, pool[1:]):
                builder.assert_true(builder.implies(row[later], row[earlier]))

    # -- queries ---------------------------------------------------------------

    def atom_exists(self, atom: Atom) -> int:
        """Handle for "atom is present": membership in its top-level sig."""
        sig = atom.split("$", 1)[0]
        return self.sig_vars[sig][atom]

    def primary_handles(self) -> dict[str, dict[tuple[Atom, ...], int]]:
        """All primary relations: sigs (as 1-tuples) plus fields."""
        relations: dict[str, dict[tuple[Atom, ...], int]] = {}
        for sig, row in self.sig_vars.items():
            relations[sig] = {(atom,): handle for atom, handle in row.items()}
        relations.update(self.field_vars)
        return relations


def _product(pools: list[list[Atom]]) -> list[tuple[Atom, ...]]:
    result: list[tuple[Atom, ...]] = [()]
    for pool in pools:
        result = [tup + (atom,) for tup in result for atom in pool]
    return result
