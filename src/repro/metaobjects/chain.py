"""Meta-object chains with validated composition.

Composition is a constrained topological sort: explicit
``must_precede``/``must_follow`` relations are hard edges, priorities
break remaining ties, and the validator enforces exclusivity groups,
mandatory members and unambiguous ordering of modificatory wrappers —
the "proper composition of meta objects" [Pawl99, Blay02].
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.errors import ChainOrderError, MetaObjectError
from repro.graphs import descendants, find_cycle, topological_sort
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

    # Sorted, like the edges in order(): set order follows the hash seed.
    for metaobject in metaobjects:
        for other in sorted(metaobject.must_precede | metaobject.must_follow):
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
    graph: dict[str, dict[str, None]] = {name: {} for name in by_name}
    # Edges go in sorted name order: a frozenset's order follows the
    # hash seed, and the first cycle found follows the edge order.
    for metaobject in metaobjects:
        for later in sorted(metaobject.must_precede):
            graph[metaobject.name][later] = None
        for earlier in sorted(metaobject.must_follow):
            graph[earlier][metaobject.name] = None

    cycle = find_cycle(graph)
    if cycle:
        path = " -> ".join(edge[0] for edge in cycle) + f" -> {cycle[0][0]}"
        raise ChainOrderError(f"ordering constraints form a cycle: {path}")

    if strict_modificatory:
        modificatory = [m for m in metaobjects if m.modificatory]
        reach = {m.name: descendants(graph, m.name) for m in modificatory}
        for i, first in enumerate(modificatory):
            for second in modificatory[i + 1:]:
                related = (
                    second.name in reach[first.name]
                    or first.name in reach[second.name]
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

    return [by_name[name] for name in topological_sort(graph, sort_key)]


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
            self._declared.pop()
            raise

    def remove(self, name: str) -> MetaObject:
        """Remove a wrapper by name (mandatory wrappers refuse); the
        chain re-validates and re-orders, or stays as it was."""
        for index, metaobject in enumerate(self._declared):
            if metaobject.name == name:
                if metaobject.mandatory:
                    raise MetaObjectError(
                        f"meta-object {name!r} is mandatory and cannot be "
                        "removed"
                    )
                del self._declared[index]
                try:
                    self._recompose()
                except (MetaObjectError, ChainOrderError):
                    self._declared.insert(index, metaobject)
                    raise
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
