"""Property: :mod:`repro.graphs` decides exactly as networkx does.

Meta-object ordering, rule cycle checks and the composition-path
planner used to call networkx; they now call ``repro.graphs``, which
must return the same cycle, the same order and the same path on every
tie.  networkx stays the oracle here, on graphs built in the same node
and edge insertion order.  ``networkx_order`` and
``networkx_calling_graph`` are the networkx-based implementations the
package replaced, kept verbatim apart from their names and from
``networkx_order`` adding constraint edges in sorted name order, as
``order()`` now does.
"""

import hypothesis.strategies as st
import networkx as nx
from hypothesis import example, given, settings

from repro.errors import (
    ChainOrderError,
    MetaObjectError,
    PathError,
    RuleCycleError,
)
from repro.graphs import (
    descendants,
    find_cycle,
    shortest_path,
    topological_sort,
)
from repro.metaobjects import MetaObject, order, validate
from repro.paths import PathFamily, PathPlanner, ServiceOption
from repro.rules import CallAction, CallPattern, Rule, RuleOperator
from repro.rules.cycle_check import check_acyclic

WEIGHTS = (0.0, 0.5, 1.0, 2.0)


@st.composite
def digraphs(draw, max_nodes=8):
    """(nodes in insertion order, edges as (tail, head, weight) in
    insertion order).  Edges may repeat a pair with a new weight and
    may be self-loops; half the graphs only have edges that go forward
    in node order, so they are acyclic."""
    nodes = draw(st.permutations(range(draw(st.integers(1, max_nodes)))))
    forward_only = draw(st.booleans())
    edges = []
    for _ in range(draw(st.integers(0, 3 * len(nodes)))):
        tail, head = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        if forward_only and nodes.index(tail) >= nodes.index(head):
            continue
        edges.append((tail, head, draw(st.sampled_from(WEIGHTS))))
    return nodes, edges


def build(spec):
    """The networkx graph and its successor and predecessor maps."""
    nodes, edges = spec
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    succ = {node: {} for node in nodes}
    pred = {node: {} for node in nodes}
    for tail, head, weight in edges:
        graph.add_edge(tail, head, weight=weight)
        succ[tail][head] = pred[head][tail] = weight
    return graph, succ, pred


def nx_cycle(graph):
    try:
        return list(nx.find_cycle(graph))
    except nx.NetworkXNoCycle:
        return []


# ---------------------------------------------------------------------------
# The routines
# ---------------------------------------------------------------------------

@given(spec=digraphs())
@example(spec=([0], [(0, 0, 1.0)]))
@example(spec=([0, 1, 2, 3], [(0, 1, 1.0), (0, 2, 1.0), (2, 1, 1.0),
                              (1, 3, 1.0), (3, 2, 1.0)]))
@settings(max_examples=300, deadline=None)
def test_find_cycle_matches_networkx(spec):
    graph, succ, _ = build(spec)
    assert find_cycle(succ) == nx_cycle(graph)


@given(spec=digraphs(), keys=st.lists(st.integers(0, 2), min_size=8,
                                      max_size=8))
@settings(max_examples=200, deadline=None)
def test_topological_sort_and_descendants_match_networkx(spec, keys):
    graph, succ, _ = build(spec)
    for node in graph:
        assert descendants(succ, node) == nx.descendants(graph, node)
    if nx_cycle(graph):
        return
    # Few distinct keys, so the insertion index breaks most ties.
    expected = list(nx.lexicographical_topological_sort(
        graph, key=keys.__getitem__))
    assert topological_sort(succ, keys.__getitem__) == expected


@given(spec=digraphs())
@example(spec=([0, 1, 2, 3], [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0),
                              (2, 3, 1.0)]))
@settings(max_examples=300, deadline=None)
def test_directed_shortest_path_matches_networkx(spec):
    graph, succ, pred = build(spec)
    for source in graph:
        for target in graph:
            try:
                expected = nx.shortest_path(graph, source, target,
                                            weight="weight")
            except nx.NetworkXNoPath:
                expected = None
            assert shortest_path(succ, source, target, pred) == expected, (
                source, target)


# ---------------------------------------------------------------------------
# Meta-object ordering
# ---------------------------------------------------------------------------

def networkx_order(metaobjects, strict_modificatory=True):
    validate(metaobjects)
    by_name = {m.name: m for m in metaobjects}
    graph = nx.DiGraph()
    graph.add_nodes_from(by_name)
    for metaobject in metaobjects:
        for later in sorted(metaobject.must_precede):
            graph.add_edge(metaobject.name, later)
        for earlier in sorted(metaobject.must_follow):
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


def constraints(draw, others):
    """Mostly none, so that valid chains stay common at 12 wrappers."""
    if not others or draw(st.integers(0, 3)):
        return frozenset()
    return draw(st.frozensets(st.sampled_from(others), min_size=1,
                              max_size=2))


@st.composite
def chains(draw):
    """E9-shaped chains: 1-12 wrappers declared in a random order,
    priorities 0-5, exclusive groups, modificatory flags and
    ``must_precede``/``must_follow`` constraints, and sometimes one
    wrapper ordered against itself (set after construction, which
    refuses it)."""
    names = draw(st.permutations([f"m{i}" for i in range(
        draw(st.integers(1, 12)))]))
    chain = []
    for name in names:
        others = [n for n in names if n != name]
        chain.append(MetaObject(
            name, lambda invocation, proceed: proceed(invocation),
            priority=draw(st.integers(0, 5)),
            exclusive_group=draw(st.sampled_from(
                [None] * 10 + ["compression", "crypto"])),
            modificatory=draw(st.booleans()),
            must_precede=constraints(draw, others),
            must_follow=constraints(draw, others),
        ))
    if draw(st.integers(0, 4)) == 0:
        member = draw(st.sampled_from(chain))
        member.must_precede = member.must_precede | {member.name}
    return chain


def outcome(order_fn, chain, strict):
    try:
        return [m.name for m in order_fn(chain, strict)]
    except (MetaObjectError, ChainOrderError) as error:
        return type(error).__name__, str(error)


def wrapper(name, **kwargs):
    return MetaObject(name, lambda invocation, proceed: proceed(invocation),
                      **kwargs)


@given(chain=chains(), strict=st.booleans())
# Two modificatory wrappers of one priority, related only through a third.
@example(chain=[wrapper("r2", modificatory=True,
                        must_follow=frozenset({"mid"})),
                wrapper("mid", must_follow=frozenset({"r1"})),
                wrapper("r1", modificatory=True),
                wrapper("r0", modificatory=True, priority=1)],
         strict=True)
@example(chain=[wrapper("r1", modificatory=True,
                        must_precede=frozenset({"mid"})),
                wrapper("mid", must_precede=frozenset({"r2"})),
                wrapper("r2", modificatory=True)],
         strict=True)
@settings(max_examples=400, deadline=None)
def test_order_matches_networkx_order(chain, strict):
    assert outcome(order, chain, strict) == outcome(networkx_order, chain,
                                                    strict)


# ---------------------------------------------------------------------------
# Rule cycle checks
# ---------------------------------------------------------------------------

_ACTION_OPERATORS = (
    RuleOperator.IMPLIES,
    RuleOperator.IMPLIES_BEFORE,
    RuleOperator.IMPLIES_LATER,
)


def networkx_calling_graph(rules: list[Rule]) -> nx.DiGraph:
    graph = nx.DiGraph()
    action_rules = [r for r in rules if r.operator in _ACTION_OPERATORS]
    for rule in action_rules:
        assert rule.action is not None
        trigger_node = str(rule.trigger)
        action_node = str(rule.action)
        graph.add_edge(trigger_node, action_node, rule=rule.name)
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
                graph.add_edge(action_node, trigger_node, rule=other.name)
    return graph


CALLS = [f"c{i}.op{j}" for i in range(3) for j in range(2)]
PATTERNS = CALLS + ["*.op0", "c1.*", "*.*"]


@st.composite
def rule_sets(draw):
    rules = []
    for i in range(draw(st.integers(1, 10))):
        trigger = CallPattern.parse(draw(st.sampled_from(PATTERNS)))
        if draw(st.integers(0, 5)) == 0:
            rules.append(Rule(f"r{i}", trigger, RuleOperator.PERMITTED_IF,
                              guard=lambda invocation: True))
            continue
        rules.append(Rule(
            f"r{i}", trigger,
            draw(st.sampled_from(_ACTION_OPERATORS)),
            action=CallAction.parse(draw(st.sampled_from(CALLS)))))
    return rules


@given(rules=rule_sets())
@settings(max_examples=300, deadline=None)
def test_check_acyclic_message_matches_networkx(rules):
    cycle = nx_cycle(networkx_calling_graph(rules))
    expected = None
    if cycle:
        path = " -> ".join(edge[0] for edge in cycle) + f" -> {cycle[0][0]}"
        expected = f"rule set would create a cycle in the calling tree: {path}"
    try:
        check_acyclic(rules)
    except RuleCycleError as error:
        assert str(error) == expected
    else:
        assert expected is None


# ---------------------------------------------------------------------------
# Composition-path planning
# ---------------------------------------------------------------------------

def networkx_plan(self, context=None):
    context = context or {}
    self.plan_count += 1
    graph = nx.DiGraph()
    graph.add_node("source")
    graph.add_node("sink")
    # Cost shift keeps edge weights non-negative for Dijkstra.
    shift = max(
        (abs(self._option_cost(o))
         for stage in self.family.stages
         for o in self.family.options_for(stage)),
        default=0.0,
    )
    previous_layer = [None]
    for stage in self.family.stages:
        layer = [
            option
            for option in self.family.options_for(stage)
            if option.feasible(context)
        ]
        if not layer:
            raise PathError(
                f"no feasible option for stage {stage!r} of family "
                f"{self.family.name!r} under context {dict(context)}"
            )
        for option in layer:
            graph.add_node(option.name, option=option)
            for prev in previous_layer:
                if prev is None:
                    graph.add_edge("source", option.name,
                                   weight=self._option_cost(option) + shift)
                elif option.compatible_after(prev):
                    graph.add_edge(prev.name, option.name,
                                   weight=self._option_cost(option) + shift)
        previous_layer = layer
    for prev in previous_layer:
        if prev is not None:
            graph.add_edge(prev.name, "sink", weight=0.0)
    try:
        node_path = nx.shortest_path(graph, "source", "sink", weight="weight")
    except nx.NetworkXNoPath:
        raise PathError(
            f"stage options of family {self.family.name!r} are "
            f"format-incompatible under context {dict(context)}"
        ) from None
    options = [graph.nodes[n]["option"] for n in node_path[1:-1]]
    return options


FORMATS = ("*", "raw", "h264")


@st.composite
def planners(draw):
    """A planner over 1-4 stages of 1-4 options each, costs drawn so
    that equal-cost paths are common, and a context."""
    stages = [f"s{i}" for i in range(draw(st.integers(1, 4)))]
    family = PathFamily("f", stages)
    for stage in stages:
        for index in range(draw(st.integers(1, 4))):
            family.add_option(ServiceOption(
                f"{stage}o{index}", stage, lambda value: value,
                input_format=draw(st.sampled_from(FORMATS)),
                output_format=draw(st.sampled_from(FORMATS)),
                latency=draw(st.sampled_from((0.5, 1.0, 2.0))),
                quality=draw(st.sampled_from((0.5, 1.0))),
                bandwidth_required=draw(st.sampled_from((0.0, 2.0, 8.0)))))
    planner = PathPlanner(family,
                          quality_weight=draw(st.sampled_from((0.0, 0.5, 1.0))))
    context = draw(st.sampled_from(({}, {"bandwidth": 1.0},
                                    {"bandwidth": 4.0})))
    return planner, context


def plan_outcome(plan_fn, planner, context):
    try:
        return [option.name for option in plan_fn(planner, context)]
    except PathError as error:
        return str(error)


@given(spec=planners())
@settings(max_examples=300, deadline=None)
def test_plan_matches_networkx_plan(spec):
    planner, context = spec
    assert plan_outcome(lambda p, c: p.plan(c).options, planner,
                        context) == plan_outcome(networkx_plan, planner,
                                                 context)
