"""Plain simple graphs on dense 0-based vertex ids, with canonical edges."""

from __future__ import annotations

from itertools import combinations


def edge(u: int, v: int) -> tuple[int, int]:
    """Canonical unordered pair (min, max)."""
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def all_pairs(n: int):
    """Every pair (u, v), u < v, in lexicographic order: the order of coloring's pair index."""
    return combinations(range(n), 2)


class SimpleGraph:
    """Undirected simple graph: no loops, no parallel edges; equal when ``(n, edges)`` are."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: set[tuple[int, int]] | None = None):
        self.n = n
        self.edges = set() if edges is None else edges
        for (u, v) in self.edges:
            if not (0 <= u < v < n):
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return (self.n, self.edges) == (other.n, other.edges) if same else NotImplemented

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n!r}, edges={self.edges!r})"

    @classmethod
    def from_edges(cls, n: int, edges) -> "SimpleGraph":
        return cls(n, {edge(u, v) for (u, v) in edges})

    def adjacency(self) -> list[list[int]]:
        return neighbour_rows(self.n, self.edges)

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


def neighbour_rows(n: int, edges) -> list[list[int]]:
    """Each vertex's neighbours among ``edges`` (pairs u < v), ascending: appended, then sorted per row."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for (u, v) in edges:
        rows[u].append(v)
        rows[v].append(u)
    for row in rows:
        row.sort()
    return rows


def cycles_of_two_regular(rows: list[list[int]]) -> list[tuple[int, ...]]:
    """The cycles of a 2-regular graph's rows: ``euler_circuit``'s walks less their closing vertex.

    Each starts at its smallest vertex and heads to that vertex's smaller
    neighbour; cycles come ordered by smallest vertex.  O(n + |E|).
    ValueError names the lowest vertex whose degree is neither 0 nor 2.
    """
    for x, row in enumerate(rows):
        if len(row) not in (0, 2):
            raise ValueError(f"vertex {x} has degree {len(row)}, expected 2")
    return [tuple(walk[:-1]) for walk in euler_circuit(rows)]


def euler_circuit(rows: list[list[int]]) -> list[list[int]]:
    """A closed walk through all edges of each component that has any (Hierholzer); degrees must be even.

    ``rows`` are ascending neighbour rows.  Walks start at their component's
    lowest vertex, so they come in that order, and take the lowest unwalked
    edge at each vertex: edge ids are numbered in sorted edge order, so each
    vertex's row of ids ascends with its row of neighbours, and one pointer
    per row skips walked ids.  O(n + |E|).
    """
    n = len(rows)
    ids: list[list[int]] = [[] for _ in range(n)]  # ids[x][i] numbers the edge x - rows[x][i]
    walked: list[bool] = []
    for u, row in enumerate(rows):
        for v in row[len(ids[u]):]:  # the ids of u's lower neighbours are already in place
            ids[u].append(len(walked))
            ids[v].append(len(walked))
            walked.append(False)
    ptr = [0] * n
    walks = []
    for start in range(n):
        if ptr[start] == len(rows[start]):  # no edges, or its component is walked
            continue
        stack, walk = [start], []  # walk: vertices in the order Hierholzer closes them
        while stack:
            x = stack[-1]
            row, i = ids[x], ptr[x]
            while i < len(row) and walked[row[i]]:
                i += 1
            ptr[x] = i
            if i < len(row):
                walked[row[i]] = True
                stack.append(rows[x][i])
            else:
                walk.append(stack.pop())
        walks.append(walk[::-1])
    return walks
