"""Plain simple graphs on dense 0-based vertex ids, with canonical edges."""

from __future__ import annotations

from dataclasses import dataclass, field


def edge(u: int, v: int) -> tuple[int, int]:
    """Canonical unordered pair (min, max)."""
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def all_pairs(n: int):
    """Every pair (u, v), u < v, in lexicographic order: the order of coloring's pair index."""
    for u in range(n):
        for v in range(u + 1, n):
            yield (u, v)


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

    def copy(self) -> "SimpleGraph":
        return SimpleGraph(self.n, set(self.edges))

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

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(self.degrees(), reverse=True))

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
    """Decompose a 2-regular edge set into vertex cycles.

    Each cycle starts at its smallest vertex and proceeds toward that vertex's
    smaller neighbour; cycles are ordered by their smallest vertex.
    """
    adj: dict[int, list[int]] = {}
    for (u, v) in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for x, nbrs in adj.items():
        if len(nbrs) != 2:
            raise ValueError(f"vertex {x} has degree {len(nbrs)}, expected 2")
        nbrs.sort()
    cycles = []
    visited: set[int] = set()
    for start in sorted(adj):
        if start in visited:
            continue
        cycle = [start]
        visited.add(start)
        prev, cur = None, start
        while True:
            a, b = adj[cur]
            nxt = a if a != prev else b
            if nxt == start:
                break
            cycle.append(nxt)
            visited.add(nxt)
            prev, cur = cur, nxt
        cycles.append(tuple(cycle))
    return cycles


def euler_circuit(g: SimpleGraph, start: int) -> list[int]:
    """Closed walk using every edge exactly once (Hierholzer); degrees must be even."""
    remaining: list[set[int]] = [set() for _ in range(g.n)]
    for (u, v) in g.edges:
        remaining[u].add(v)
        remaining[v].add(u)
    stack = [start]
    circuit: list[int] = []
    while stack:
        x = stack[-1]
        if remaining[x]:
            y = min(remaining[x])
            remaining[x].discard(y)
            remaining[y].discard(x)
            stack.append(y)
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    return circuit
