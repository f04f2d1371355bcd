"""Meta-object chains with validated composition.

Composition is a constrained topological sort: explicit
``must_precede``/``must_follow`` relations are hard edges, priorities
break remaining ties, and the validator enforces exclusivity groups,
mandatory members and unambiguous ordering of modificatory wrappers —
the "proper composition of meta objects" [Pawl99, Blay02].
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import networkx as nx

from repro.errors import ChainOrderError, MetaObjectError
from repro.kernel.component import Invocation, run_chain
from repro.metaobjects.metaobject import MetaObject


def validate(metaobjects: Sequence[MetaObject],
             required: Iterable[str] = ()) -> None:
    """Check a candidate set for composability (before ordering).

    Raises :class:`MetaObjectError`/:class:`ChainOrderError` describing
    the first violation found.
    """
    names = [m.name for m in metaobjects]
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise MetaObjectError(f"duplicate meta-object names: {duplicates}")

    present = set(names)
    for name in required:
        if name not in present:
            raise MetaObjectError(f"mandatory meta-object {name!r} is missing")
    for metaobject in metaobjects:
        if metaobject.mandatory and metaobject.name not in present:
            raise MetaObjectError(
                f"mandatory meta-object {metaobject.name!r} is missing"
            )

    groups: dict[str, list[str]] = {}
    for metaobject in metaobjects:
        if metaobject.exclusive_group:
            groups.setdefault(metaobject.exclusive_group, []).append(metaobject.name)
    for group, members in groups.items():
        if len(members) > 1:
            raise MetaObjectError(
                f"exclusive group {group!r} has multiple members: "
                f"{sorted(members)}"
            )

    for metaobject in metaobjects:
        for other in metaobject.must_precede | metaobject.must_follow:
            if other not in present:
                raise ChainOrderError(
                    f"meta-object {metaobject.name!r} is ordered against "
                    f"unknown wrapper {other!r}"
                )


def order(metaobjects: Sequence[MetaObject],
          strict_modificatory: bool = True) -> list[MetaObject]:
    """Compute a valid total order for the chain.

    Hard constraints come from ``must_precede``/``must_follow``; the
    remaining freedom is resolved by (priority desc, declaration order).
    With ``strict_modificatory`` two modificatory wrappers must be
    related (directly or transitively) by constraints or distinct
    priorities, otherwise their effect would depend on accidental order.
    """
    validate(metaobjects)
    by_name = {m.name: m for m in metaobjects}
    graph = nx.DiGraph()
    graph.add_nodes_from(by_name)
    for metaobject in metaobjects:
        for later in metaobject.must_precede:
            graph.add_edge(metaobject.name, later)
        for earlier in metaobject.must_follow:
            graph.add_edge(earlier, metaobject.name)

    try:
        cycles = list(nx.find_cycle(graph))
    except nx.NetworkXNoCycle:
        cycles = []
    if cycles:
        path = " -> ".join(edge[0] for edge in cycles) + f" -> {cycles[0][0]}"
        raise ChainOrderError(f"ordering constraints form a cycle: {path}")

    if strict_modificatory:
        closure = nx.transitive_closure(graph)
        modificatory = [m for m in metaobjects if m.modificatory]
        for i, first in enumerate(modificatory):
            for second in modificatory[i + 1:]:
                related = (
                    closure.has_edge(first.name, second.name)
                    or closure.has_edge(second.name, first.name)
                    or first.priority != second.priority
                )
                if not related:
                    raise ChainOrderError(
                        f"modificatory meta-objects {first.name!r} and "
                        f"{second.name!r} are unordered; add a constraint "
                        "or distinct priorities"
                    )

    declaration_index = {m.name: i for i, m in enumerate(metaobjects)}

    def sort_key(name: str) -> tuple[int, int]:
        metaobject = by_name[name]
        return (-metaobject.priority, declaration_index[name])

    ordered_names = list(nx.lexicographical_topological_sort(graph, key=sort_key))
    return [by_name[name] for name in ordered_names]


class MetaChain:
    """A live, revalidating chain installed as one interceptor."""

    def __init__(self, name: str,
                 metaobjects: Sequence[MetaObject] = (),
                 strict_modificatory: bool = True) -> None:
        self.name = name
        self.strict_modificatory = strict_modificatory
        self._declared: list[MetaObject] = []
        self._ordered: list[MetaObject] = []
        for metaobject in metaobjects:
            self._declared.append(metaobject)
        self._recompose()

    def _recompose(self) -> None:
        self._ordered = order(self._declared, self.strict_modificatory)

    # -- runtime composition ------------------------------------------------

    def add(self, metaobject: MetaObject) -> None:
        """Insert a wrapper; the chain re-validates and re-orders."""
        self._declared.append(metaobject)
        try:
            self._recompose()
        except (MetaObjectError, ChainOrderError):
            self._declared.remove(metaobject)
            raise

    def remove(self, name: str) -> MetaObject:
        """Remove a wrapper by name (mandatory wrappers refuse)."""
        for metaobject in self._declared:
            if metaobject.name == name:
                if metaobject.mandatory:
                    raise MetaObjectError(
                        f"meta-object {name!r} is mandatory and cannot be "
                        "removed"
                    )
                self._declared.remove(metaobject)
                self._recompose()
                return metaobject
        raise MetaObjectError(f"chain {self.name!r} has no meta-object {name!r}")

    @property
    def order_names(self) -> list[str]:
        return [m.name for m in self._ordered]

    def __len__(self) -> int:
        return len(self._ordered)

    # -- execution ----------------------------------------------------------

    def interceptor(self) -> Callable[[Invocation, Callable], Any]:
        """Compile the chain into a single interceptor (live view: each
        call runs the order in force when it entered the chain)."""

        def run(invocation: Invocation,
                proceed: Callable[[Invocation], Any]) -> Any:
            return run_chain([m.apply for m in self._ordered], invocation,
                             proceed)

        return run
