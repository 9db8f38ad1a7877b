"""Adjoint graph construction and directed-cycle detection.

The adjoint graph has one vertex per dual pair ``{i, dual(i)}`` and an edge
from a non-vacuum pair to every pair appearing in ``x (dual x)``.  A fusion
rule is acyclic when this graph has no directed cycle; self-loops count.
Both the pair graph and cycle detection use one label adjacency (edge
``i -> j`` iff ``N[i, dual(i), j] > 0``, the vacuum a sink); label-level cycles
correspond one-to-one with pair-graph cycles because targets are
dual-symmetric.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import FusionRule

__all__ = [
    "AdjointGraph",
    "CycleWitness",
    "adjoint_graph",
    "find_cycle",
    "is_acyclic",
]


@dataclass(frozen=True)
class AdjointGraph:
    """Directed graph on dual pairs with multiplicity-weighted edges.

    ``vertices`` are sorted tuples (singleton for self-dual labels), ordered
    by smallest member; the vacuum pair is vertex 0 and never has outgoing
    edges.  ``edges`` holds ``(src_vertex, dst_vertex, multiplicity)`` sorted
    by source then target.
    """

    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class CycleWitness:
    """A label sequence certifying a directed cycle in the adjoint graph.

    ``labels`` is the closed walk ``(i_1, ..., i_n, i_1)`` with ``i_1 != 0``;
    ``multiplicities[k] = N[i_k, dual(i_k), i_{k+1}] > 0``.
    """

    labels: tuple[int, ...]
    multiplicities: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.multiplicities)

    def holds_in(self, rule: FusionRule) -> bool:
        if len(self.labels) != len(self.multiplicities) + 1:
            return False
        if self.labels[0] != self.labels[-1] or self.labels[0] == 0:
            return False
        for k, mult in enumerate(self.multiplicities):
            i, j = self.labels[k], self.labels[k + 1]
            if mult <= 0 or rule.tensor[i, rule.dual[i], j] != mult:
                return False
        return True


def _adjoint_targets(rule: FusionRule) -> list[list[int]]:
    """Label adjacency of the adjoint graph: ``i -> j`` iff ``j`` occurs in
    ``x_i (dual x_i)``, i.e. ``N[i, dual(i), j] > 0``, with the vacuum as a
    target.  The vacuum itself has no outgoing edges."""
    rows = rule.tensor[np.arange(rule.rank), list(rule.dual)]
    return [[]] + [np.flatnonzero(row).tolist() for row in rows[1:]]


def adjoint_graph(rule: FusionRule) -> AdjointGraph:
    """Build the dual-pair graph with edges weighted by fusion multiplicity.

    For a non-self-dual pair both orientations ``x (dual x)`` and
    ``(dual x) x`` contribute edges (the pair vertex stands for both labels);
    the stored weight comes from the smaller label's orientation when that one
    is nonzero.
    """
    pairs = [tuple(sorted({i, d})) for i, d in enumerate(rule.dual) if i <= d]
    where = {i: n for n, pair in enumerate(pairs) for i in pair}
    adj = _adjoint_targets(rule)
    edges = []
    for n, pair in enumerate(pairs):
        if 0 in pair:
            continue
        i = pair[0]
        forward = rule.tensor[i, rule.dual[i]]
        backward = rule.tensor[rule.dual[i], i]
        targets = sorted({where[k] for k in adj[i] + adj[rule.dual[i]]})
        for m in targets:
            k = pairs[m][0]
            weight = int(forward[k]) if forward[k] > 0 else int(backward[k])
            edges.append((n, m, weight))
    edges.sort()
    return AdjointGraph(vertices=tuple(pairs), edges=tuple(edges))


def find_cycle(rule: FusionRule) -> CycleWitness | None:
    """Shortest directed cycle in the adjoint graph, or None if acyclic.

    Breadth-first search from each non-vacuum label in ascending order finds
    the shortest cycle through it; ties on length break toward the smallest
    starting label.  A search only looks for cycles shorter than the best one
    so far, since a later start cannot win a tie.
    """
    adj = _adjoint_targets(rule)
    best: list[int] | None = None  # start -> ... -> last label before start
    for start in range(1, rule.rank):
        parent: dict[int, int] = {}
        found = None
        queue = deque([start])
        dist = {start: 0}
        while queue and found is None:
            u = queue.popleft()
            if best is not None and dist[u] + 1 >= len(best):
                break
            for w in adj[u]:
                if w == start:
                    found = u
                    break
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
        if found is None:
            continue
        path = [found]
        while path[-1] != start:
            path.append(parent[path[-1]])
        path.reverse()
        best = path
    if best is None:
        return None
    labels = tuple(best) + (best[0],)
    mults = tuple(int(rule.tensor[labels[k], rule.dual[labels[k]], labels[k + 1]]) for k in range(len(best)))
    return CycleWitness(labels=labels, multiplicities=mults)


def is_acyclic(rule: FusionRule) -> bool:
    return find_cycle(rule) is None

