"""Shortest-latency paths over a plain adjacency map.

The one home of the simulator's shortest paths: :class:`Network` routes
hosts and :class:`Partition` routes regions with these two routines.
An adjacency is ``{node: {neighbour: weight}}`` with non-negative
weights, built in node insertion order and then link insertion order.

Which of several equal-length paths a routine returns is part of its
contract, because a route fixes every later hop, loss draw and trace
checksum.  Each docstring states its tie rules.  They are those of the
general-purpose graph library the simulator used to call, which the
test suite keeps as its oracle, so no route changed when the simulator
stopped importing it: that library alone outweighed the rest of the
package at import, in every process.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Hashable

Adjacency = dict[Hashable, dict[Hashable, float]]


def shortest_path(adj: Adjacency, source: Hashable,
                  target: Hashable) -> list | None:
    """Minimum-weight node path from ``source`` to ``target``, inclusive,
    or ``None`` when there is none (or either end is not in ``adj``).

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
        pred = preds[direction]
        heap = fringe[direction]
        for neighbour, weight in adj[node].items():
            if neighbour in done:
                continue
            length = dist + weight
            if neighbour not in reached or length < reached[neighbour]:
                reached[neighbour] = length
                heappush(heap, (length, next(counter), neighbour))
                pred[neighbour] = node
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
