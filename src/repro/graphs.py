"""Graph algorithms over plain adjacency maps.

The one home of the package's graph decisions: :class:`Network` routes
hosts and :class:`Partition` routes regions with the shortest-path
routines, meta-object chains are checked and ordered with
:func:`find_cycle`, :func:`descendants` and
:func:`topological_sort`, rule sets are checked with
:func:`find_cycle`, and the composition-path planner runs the directed
:func:`shortest_path`.  A graph is ``{node: {successor: weight}}``
(weights are ignored where a routine has no use for them), with every
node a key, built in node insertion order and then edge insertion
order.

Which of several valid answers a routine returns is part of its
contract: a route fixes every later hop, loss draw and trace checksum,
a chain order fixes which wrapper runs first, and a reported cycle is
an error message.  Each docstring states its tie rules.  They are those
of the general-purpose graph library the package used to call, which
the test suite keeps as its oracle, so no answer changed when the
package stopped importing it: that library alone outweighed the rest
of the package at import.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Callable, Hashable, Mapping

Adjacency = dict[Hashable, dict[Hashable, float]]
Successors = Mapping[Hashable, Mapping[Hashable, Any]]


def shortest_path(adj: Adjacency, source: Hashable, target: Hashable,
                  pred: Adjacency | None = None) -> list | None:
    """Minimum-weight node path from ``source`` to ``target``, inclusive,
    or ``None`` when there is none (or either end is not in ``adj``).

    ``pred`` maps each node to its predecessors and the weights of the
    edges from them, for the backward search on a directed graph; it
    defaults to ``adj``, which is right for a symmetric adjacency.

    Bidirectional Dijkstra.  Tie rules: the two searches alternate,
    forward first; one shared counter orders equal heap keys; neighbours
    are scanned in insertion order; a node is relaxed only on a strictly
    shorter length, and the meeting node moves only on a strictly
    shorter total.
    """
    if source not in adj or target not in adj:
        return None
    if source == target:
        return [source]
    neighbours = (adj, adj if pred is None else pred)
    dists: tuple[dict, dict] = ({}, {})
    preds: tuple[dict, dict] = ({source: None}, {target: None})
    seen: tuple[dict, dict] = ({source: 0}, {target: 0})
    fringe: tuple[list, list] = ([], [])
    counter = count()
    heappush(fringe[0], (0, next(counter), source))
    heappush(fringe[1], (0, next(counter), target))
    best = None
    meet = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, node = heappop(fringe[direction])
        done = dists[direction]
        if node in done:
            continue
        done[node] = dist
        if node in dists[1 - direction]:
            path: list = []
            step = meet
            while step is not None:
                path.append(step)
                step = preds[0][step]
            path.reverse()
            step = preds[1][meet]
            while step is not None:
                path.append(step)
                step = preds[1][step]
            return path
        reached = seen[direction]
        other = seen[1 - direction]
        back = preds[direction]
        heap = fringe[direction]
        for neighbour, weight in neighbours[direction][node].items():
            if neighbour in done:
                continue
            length = dist + weight
            if neighbour not in reached or length < reached[neighbour]:
                reached[neighbour] = length
                heappush(heap, (length, next(counter), neighbour))
                back[neighbour] = node
                if neighbour in other:
                    total = length + other[neighbour]
                    if best is None or total < best:
                        best, meet = total, neighbour
    return None


def first_hops(adj: Adjacency, source: Hashable) -> dict[Hashable, Hashable]:
    """``{node: first hop}`` for every node reachable from ``source``
    other than itself, in order of distance.

    Single-source Dijkstra.  Tie rules: equal heap keys in push order,
    neighbours in insertion order, and a strictly shorter relaxation
    replaces the predecessor (so an equal-length path found later never
    does).
    """
    dist: dict = {}
    seen: dict = {source: 0}
    first: dict = {}
    counter = count()
    fringe = [(0, next(counter), source)]
    while fringe:
        length, _, node = heappop(fringe)
        if node in dist:
            continue
        dist[node] = length
        for neighbour, weight in adj[node].items():
            if neighbour in dist:
                continue
            total = length + weight
            if neighbour not in seen or total < seen[neighbour]:
                seen[neighbour] = total
                heappush(fringe, (total, next(counter), neighbour))
                first[neighbour] = (neighbour if node == source
                                    else first[node])
    return {node: first[node] for node in dist if node != source}


def find_cycle(succ: Successors) -> list[tuple]:
    """Edges ``(tail, head)`` of one directed cycle, in order, or ``[]``
    when the graph has none.

    Depth-first search, returning the cycle networkx's edge-by-edge
    search returns.  Tie rules: start nodes in insertion order, skipping
    any an earlier search finished; successors in insertion order; the
    first edge to a node on the current path closes the cycle, which
    runs from that node.
    """
    finished: set = set()
    for start in succ:
        if start in finished:
            continue
        # The current path, root first, each node with its unread
        # successors.
        path = {start: iter(succ[start])}
        while path:
            node, successors = next(reversed(path.items()))
            for head in successors:
                if head in path:
                    nodes = list(path)
                    cycle = nodes[nodes.index(head):] + [head]
                    return list(zip(cycle, cycle[1:]))
                if head not in finished:
                    path[head] = iter(succ[head])
                    break
            else:
                finished.add(node)
                del path[node]
    return []


def descendants(succ: Successors, source: Hashable) -> set:
    """Every node other than ``source`` that a path from it reaches."""
    found = {source}
    stack = [source]
    while stack:
        for head in succ[stack.pop()]:
            if head not in found:
                found.add(head)
                stack.append(head)
    found.remove(source)
    return found


def topological_sort(succ: Successors,
                     key: Callable[[Hashable], Any]) -> list:
    """The nodes of an acyclic graph, each after all its predecessors,
    taking the smallest ``key`` among the nodes that are ready.

    Kahn's algorithm.  Tie rules: a heap of ``(key, insertion index,
    node)``, so equal keys go in node insertion order.
    """
    index = {node: i for i, node in enumerate(succ)}
    indegree = dict.fromkeys(succ, 0)
    for heads in succ.values():
        for head in heads:
            indegree[head] += 1
    ready = [(key(node), index[node], node)
             for node, degree in indegree.items() if degree == 0]
    heapify(ready)
    ordered = []
    while ready:
        node = heappop(ready)[2]
        ordered.append(node)
        for head in succ[node]:
            indegree[head] -= 1
            if indegree[head] == 0:
                heappush(ready, (key(head), index[head], head))
    return ordered
