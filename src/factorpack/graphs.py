"""Plain simple graphs on dense 0-based vertex ids, with canonical edges."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations


def edge(u: int, v: int) -> tuple[int, int]:
    """Canonical unordered pair (min, max)."""
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def all_pairs(n: int):
    """Every pair (u, v), u < v, in lexicographic order: the order of coloring's pair index."""
    return combinations(range(n), 2)


@dataclass
class SimpleGraph:
    """Undirected simple graph: no loops, no parallel edges."""

    n: int
    edges: set[tuple[int, int]] = field(default_factory=set)

    def __post_init__(self):
        for (u, v) in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "SimpleGraph":
        return cls(n, {edge(u, v) for (u, v) in edges})

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for (u, v) in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for (u, v) in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def complement(self) -> "SimpleGraph":
        return SimpleGraph(self.n, {p for p in all_pairs(self.n) if p not in self.edges})

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def connected_components(g: SimpleGraph) -> list[list[int]]:
    """Vertex lists of the components, each sorted, ordered by smallest vertex."""
    adj = g.adjacency()
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        comp = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def cycles_of_two_regular(n: int, edges: set[tuple[int, int]]) -> list[tuple[int, ...]]:
    """The cycles of a 2-regular edge set on 0 .. n-1: ``euler_circuit``'s walks less their closing vertex.

    Each starts at its smallest vertex and heads to that vertex's smaller
    neighbour; cycles come ordered by smallest vertex.  O(n + |E| log |E|).
    ValueError names the lowest vertex whose degree is neither 0 nor 2.
    """
    g = SimpleGraph.from_edges(n, edges)
    for x, d in enumerate(g.degrees()):
        if d not in (0, 2):
            raise ValueError(f"vertex {x} has degree {d}, expected 2")
    return [tuple(walk[:-1]) for walk in euler_circuit(g)]


def euler_circuit(g: SimpleGraph) -> list[list[int]]:
    """A closed walk through all edges of each component that has any (Hierholzer); degrees must be even.

    Walks start at their component's lowest vertex, so they come in that
    order, and take the lowest unwalked edge at each vertex: edge ids index the
    sorted edges, so each vertex's row of ids ascends by neighbour, and one
    pointer per row skips walked ids.  O(|E| log |E|) to sort, then O(n + |E|).
    """
    edges = g.sorted_edges()
    rows: list[list[int]] = [[] for _ in range(g.n)]
    for j, (u, v) in enumerate(edges):
        rows[u].append(j)
        rows[v].append(j)
    walked = [False] * len(edges)
    ptr = [0] * g.n
    walks = []
    for start in range(g.n):
        if ptr[start] == len(rows[start]):  # no edges, or its component is walked
            continue
        stack, walk = [start], []  # walk: vertices in the order Hierholzer closes them
        while stack:
            x = stack[-1]
            row, i = rows[x], ptr[x]
            while i < len(row) and walked[row[i]]:
                i += 1
            ptr[x] = i
            if i < len(row):
                walked[row[i]] = True
                u, v = edges[row[i]]
                stack.append(v if u == x else u)
            else:
                walk.append(stack.pop())
        walks.append(walk[::-1])
    return walks
