"""Static cycle detection over the rule-induced calling tree.

A rule whose *action* matches another rule's *trigger* chains them; if
the chain ever reaches back to the first trigger the system could loop
forever.  FLO/C rejects such rule sets at parse time; so do we.
"""

from __future__ import annotations

from repro.errors import RuleCycleError
from repro.graphs import find_cycle
from repro.rules.operators import Rule, RuleOperator

_ACTION_OPERATORS = (
    RuleOperator.IMPLIES,
    RuleOperator.IMPLIES_BEFORE,
    RuleOperator.IMPLIES_LATER,
)


def calling_graph(rules: list[Rule]) -> dict[str, dict[str, str]]:
    """Build the directed trigger→action graph of a rule set as
    ``{node: {successor: rule name}}``, nodes and edges in insertion
    order (see :mod:`repro.graphs`).

    Nodes are concrete ``component.operation`` strings; wildcard triggers
    are connected to any action they could match (conservative
    over-approximation: a wildcard trigger node is linked from every
    action that matches it).
    """
    graph: dict[str, dict[str, str]] = {}

    def add_edge(tail: str, head: str, rule: str) -> None:
        graph.setdefault(tail, {})[head] = rule
        graph.setdefault(head, {})

    action_rules = [r for r in rules if r.operator in _ACTION_OPERATORS]
    for rule in action_rules:
        assert rule.action is not None
        add_edge(str(rule.trigger), str(rule.action), rule.name)
    # Wildcard matching: an action a chains to rule r if r's trigger
    # pattern matches a.  When the pattern is the same string as the
    # action they already share a node; a bridging edge is only needed
    # when a wildcard pattern names a distinct node.
    for rule in action_rules:
        assert rule.action is not None
        action_node = str(rule.action)
        for other in action_rules:
            trigger_node = str(other.trigger)
            if trigger_node == action_node:
                continue
            if other.trigger.matches(rule.action.component,
                                     rule.action.operation):
                add_edge(action_node, trigger_node, other.name)
    return graph


def check_acyclic(rules: list[Rule]) -> None:
    """Raise :class:`RuleCycleError` when the calling tree has a cycle."""
    cycle = find_cycle(calling_graph(rules))
    if cycle:
        path = " -> ".join(edge[0] for edge in cycle) + f" -> {cycle[0][0]}"
        raise RuleCycleError(
            f"rule set would create a cycle in the calling tree: {path}"
        )


def is_acyclic(rules: list[Rule]) -> bool:
    """Boolean form of :func:`check_acyclic`."""
    try:
        check_acyclic(rules)
    except RuleCycleError:
        return False
    return True
