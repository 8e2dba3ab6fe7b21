"""The one Hierholzer walk, ``graphs.euler_circuit``, against the walks it replaced.

``reference_euler_circuit`` is the set-and-``min()`` walk from one start
vertex, and ``reference_euler_round`` the rounding walk with its own stack,
kept as ``quadratic_erdos_gallai`` is kept: the production code must walk
exactly as they do.
"""

from __future__ import annotations

import random

import pytest

import factorpack.realize as realize
from factorpack.graphs import SimpleGraph, connected_components, cycles_of_two_regular, edge, euler_circuit
from factorpack.realize import (
    _circulant_fill,
    _euler_round,
    _greedy_fill,
    find_k_factor,
    havel_hakimi_realize,
    max_degree_bounded_subgraph,
)
from tests.test_realize import _perfbench_corpus


def reference_euler_circuit(g: SimpleGraph, start: int) -> list[int]:
    """Closed walk using every edge of start's component exactly once; the lowest unwalked neighbour first."""
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


def reference_euler_round(n: int, half: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Every other edge around one Euler circuit of each component of the sorted, even-degree ``half``."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j, (u, v) in enumerate(half):
        rows[u].append((v, j))
        rows[v].append((u, j))
    walked = [False] * len(half)
    ptr = [0] * n
    kept = []
    for start in range(n):
        stack, circuit = [(start, -1)], []  # circuit: edge ids in the order Hierholzer closes them, then -1
        while stack:
            x, j = stack[-1]
            row, i = rows[x], ptr[x]
            while i < len(row) and walked[row[i][1]]:
                i += 1
            ptr[x] = i
            if i < len(row):
                walked[row[i][1]] = True
                stack.append(row[i])
            else:
                circuit.append(stack.pop()[1])
        kept += (half[j] for j in circuit[1:-1:2])
    return kept


def assert_walks_match_the_references(g: SimpleGraph) -> None:
    walks = euler_circuit(g.adjacency())
    assert walks == [reference_euler_circuit(g, comp[0]) for comp in connected_components(g) if len(comp) > 1]
    assert sum(len(w) - 1 for w in walks) == len(g.edges)
    half = g.sorted_edges()
    assert set(_euler_round(g.n, half)) == set(reference_euler_round(g.n, half))


def cycle_through(vertices: list[int]) -> set[tuple[int, int]]:
    return {edge(vertices[i], vertices[i - 1]) for i in range(len(vertices))}


def even_graphs(rng: random.Random):
    """Seeded even-degree graphs up to n = 200, some with isolated vertices."""
    for n in (3, 6, 13, 25, 40, 64, 101, 150, 200):
        for r in (1, 2, 5):
            if r > (n - 1) // 2:
                continue
            perm = rng.sample(range(n), n)  # 2r-regular: r circulant rings of a shuffled vertex order
            offsets = rng.sample(range(1, (n - 1) // 2 + 1), r)
            yield SimpleGraph(n, {edge(perm[i], perm[(i + o) % n]) for o in offsets for i in range(n)})
        for _ in range(3):
            used = rng.sample(range(n), rng.randint(3, n))  # the rest are isolated
            edges: set[tuple[int, int]] = set()
            for _ in range(rng.randint(1, 6)):  # a symmetric difference of even graphs is even
                edges ^= cycle_through(rng.sample(used, rng.randint(3, len(used))))
            yield SimpleGraph(n, edges)
            disjoint: set[tuple[int, int]] = set()
            while len(used) >= 3:  # vertex-disjoint cycles: a 2-regular graph
                size = rng.randint(3, len(used))
                disjoint |= cycle_through(used[:size])
                used = used[size:]
            yield SimpleGraph(n, disjoint)


def test_euler_circuit_and_rounding_walk_as_the_references_on_seeded_graphs():
    graphs = list(even_graphs(random.Random(2584)))
    two_regular = 0
    for g in graphs:
        assert_walks_match_the_references(g)
        if all(d in (0, 2) for d in g.degrees()):
            walks = [reference_euler_circuit(g, comp[0]) for comp in connected_components(g) if len(comp) > 1]
            assert cycles_of_two_regular(g.adjacency()) == [tuple(w[:-1]) for w in walks]
            two_regular += 1
    assert len(graphs) > 70 and two_regular > 30


def test_rounding_walks_as_the_reference_on_the_bench_stage_inputs(monkeypatch):
    """The half-edge graph of every engine search in a dense-random and a sweep-n10 pass at seed 1."""
    halves: list[tuple[int, list[tuple[int, int]]]] = []

    def recording(n, half):
        halves.append((n, list(half)))
        return _euler_round(n, half)

    monkeypatch.setattr(realize, "_euler_round", recording)
    corpus = _perfbench_corpus()
    seen = set()
    for workload in ("dense-random", "sweep-n10"):
        for _mode, pi, k in corpus.build(workload, 1)[0]:
            pi = sorted(pi, reverse=True)
            r = havel_hakimi_realize([d - k for d in pi])
            if (tuple(pi), k) in seen or _greedy_fill(r, k) is not None or _circulant_fill(r, k) is not None:
                continue
            seen.add((tuple(pi), k))
            if find_k_factor(r.complement(), k) is None:
                max_degree_bounded_subgraph(havel_hakimi_realize(pi), k)
    assert len(halves) > 150 and any(n == 40 for n, _ in halves)
    for n, half in halves:
        assert_walks_match_the_references(SimpleGraph(n, set(half)))


@pytest.mark.parametrize("edges,lowest", [
    ({(0, 1), (1, 2), (0, 2), (4, 5), (5, 6)}, 4),  # a path: its ends have degree 1
    ({(5, 6), (6, 7), (5, 7), (2, 3), (2, 4), (2, 8), (3, 4)}, 2),  # degree 3 below the degree-1 vertex 8
    ({(0, 3), (3, 4), (0, 4), (1, 6), (6, 7), (7, 8), (8, 1), (6, 9)}, 6),  # degree 3, then degree 1 at 9
    ({(3, 9), (7, 9), (8, 9), (0, 1), (1, 2), (0, 2)}, 3),  # degree 1 below the degree-3 vertex 9
])
def test_cycles_of_two_regular_names_the_lowest_vertex_of_odd_degree(edges, lowest):
    with pytest.raises(ValueError, match=rf"^vertex {lowest} has degree [13], expected 2$"):
        cycles_of_two_regular(SimpleGraph.from_edges(10, edges).adjacency())
