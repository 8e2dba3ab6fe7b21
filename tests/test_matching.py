import random
import sys
from collections import Counter, deque

import pytest

from factorpack import (
    Matching,
    SimpleGraph,
    bf_max_matching,
    lemma_odd_certificate,
    maximum_matching,
    toggle_alternating_path,
)
from factorpack.errors import InvalidInitial, NotAlternating, NotRegular, OddLengthPath
from factorpack.graphs import edge
from factorpack.matching import (
    OddCycleCertificate,
    _canonical_cycle,
    _maximize,
    _tree_path,
    check_odd_cycle_certificate,
)
from tests.conftest import random_regular_graph
from tests.test_realize import _perfbench_corpus, reference_gadget


def cycle_graph(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def two_triangles():
    return SimpleGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


PETERSEN = SimpleGraph.from_edges(10, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
])


def test_toggle_empty_path_is_identity():
    m = Matching.from_edges([(1, 2)])
    assert toggle_alternating_path(m, []) is m
    assert toggle_alternating_path(m, [0]) is m


def test_toggle_three_vertex_path():
    m = Matching.from_edges([(1, 2)])
    out = toggle_alternating_path(m, [0, 1, 2])
    assert out.sorted_edges() == [(0, 1)]
    assert 2 not in out.covered


def test_toggle_walks_around_c5():
    m = Matching.from_edges([(1, 2), (3, 4)])
    out = toggle_alternating_path(m, [0, 1, 2, 3, 4])
    assert out.size == 2
    assert out.sorted_edges() == [(0, 1), (2, 3)]
    assert 4 not in out.covered


def test_toggle_rejects_bad_paths():
    m = Matching.from_edges([(1, 2)])
    with pytest.raises(OddLengthPath):
        toggle_alternating_path(m, [0, 1])
    with pytest.raises(NotAlternating):
        toggle_alternating_path(m, [1, 2, 3])  # starts covered
    with pytest.raises(NotAlternating):
        toggle_alternating_path(m, [0, 3, 4])  # second edge not matched


def test_maximum_matching_small_cases():
    assert maximum_matching(cycle_graph(4)).size == 2
    assert maximum_matching(cycle_graph(3)).size == 1
    assert maximum_matching(two_triangles()).size == 2
    assert maximum_matching(PETERSEN).size == 5


def warm_matching(g, start):
    """``_maximize`` grown from the matching ``start``, as the gadget search runs it."""
    match = [-1] * g.n
    for (u, v) in start.edges:
        match[u], match[v] = v, u
    _maximize(g.adjacency(), match)
    return Matching.from_edges((v, match[v]) for v in range(g.n) if match[v] > v)


def test_maximum_matching_respects_initial():
    g = cycle_graph(6)
    init = Matching.from_edges([(1, 2)])
    out = warm_matching(g, init)
    assert out.size == 3
    assert out.edges == reference_maximum_matching(g, init).edges
    with pytest.raises(InvalidInitial):
        Matching.from_edges([(0, 1), (1, 2)])


def test_maximum_matching_agrees_with_brute_force_randomized(rng):
    for _ in range(120):
        n = rng.randint(2, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = SimpleGraph(n, {p for p in pairs if rng.random() < 0.45})
        assert maximum_matching(g).size == bf_max_matching(g)[0]


# Reference: the search as it was before contraction became proportional to the
# blossom.  Each contraction scans all vertices, so the queue order it yields is
# the one the faster search must reproduce.
def reference_augment_from(root: int, adj: list[list[int]], match: list[int]) -> bool:
    n = len(adj)
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    q: deque[int] = deque([root])

    def lca(a: int, b: int) -> int:
        walked = [False] * n
        x = a
        while True:
            x = base[x]
            walked[x] = True
            if match[x] == -1:
                break
            x = p[match[x]]
        y = b
        while True:
            y = base[y]
            if walked[y]:
                return y
            y = p[match[y]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    while q:
        v = q.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                cur = lca(v, to)
                in_blossom = [False] * n
                mark_path(v, cur, to, in_blossom)
                mark_path(to, cur, v, in_blossom)
                for x in range(n):
                    if in_blossom[base[x]]:
                        base[x] = cur
                        if not used[x]:
                            used[x] = True
                            q.append(x)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    while to != -1:
                        pv = p[to]
                        ppv = match[pv]
                        match[to] = pv
                        match[pv] = to
                        to = ppv
                    return True
                used[match[to]] = True
                q.append(match[to])
    return False


def reference_maximum_matching(g, initial=None):
    """Reference: ``maximum_matching`` with the O(V)-per-contraction search it had before."""
    n = g.n
    adj = g.adjacency()
    match = [-1] * n
    for (u, v) in (initial.edges if initial is not None else ()):
        match[u] = v
        match[v] = u
    for v in range(n):
        if match[v] == -1:
            reference_augment_from(v, adj, match)
    return Matching.from_edges((v, match[v]) for v in range(n) if match[v] > v)


def reference_maximize(adj: list[list[int]], match: list[int]) -> None:
    """``_maximize`` without its root step: every uncovered root runs the reference search."""
    for v in range(len(adj)):
        if match[v] == -1:
            reference_augment_from(v, adj, match)


def assert_maximize_as_the_reference(adj: list[list[int]], match: list[int]) -> None:
    """``_maximize`` grows ``match`` in place to the mates the reference gives from the same start."""
    want = list(match)
    reference_maximize(adj, want)
    _maximize(adj, match)
    assert match == want


def gnp(rng, n, p):
    return SimpleGraph(n, {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p})


def partial_matching(rng, g):
    """Some edges of g, taken greedily in a seeded order, about half of a maximal matching."""
    edges = g.sorted_edges()
    rng.shuffle(edges)
    taken, covered = [], set()
    for (u, v) in edges:
        if u not in covered and v not in covered and rng.random() < 0.5:
            taken.append((u, v))
            covered.update((u, v))
    return Matching.from_edges(taken)


def gadgets_of(h, k):
    """The (gadget, seed matching) pair of the cold reference search on h.

    The gadget is built as adjacency rows and a mate array, as
    ``_maximize`` takes it, and rebuilt as the graph and matching the
    reference search takes.
    """
    adj, match = reference_gadget(h, k)
    g = SimpleGraph.from_edges(len(adj), [(u, w) for u, row in enumerate(adj) for w in row])
    assert g.adjacency() == adj, "gadget rows must be ascending and symmetric"
    return [(g, Matching.from_edges((v, w) for v, w in enumerate(match) if w > v))]


def test_maximum_matching_same_edges_as_reference():
    """Same edge set as the reference, cold and warm-started from a partial matching."""
    rng = random.Random(20261018)
    plain = [PETERSEN, two_triangles()]
    plain += [gnp(rng, n, p) for n in (5, 9, 16, 25, 40, 60) for p in (2.0 / n, 0.1, 0.3, 0.5, 0.8)]
    plain += [random_regular_graph(rng, n, r) for n, r in ((10, 3), (16, 5), (20, 4), (30, 7), (44, 3), (60, 6))]
    cases = [(g, partial_matching(rng, g)) for g in plain]
    for n, p, k in ((8, 0.6, 2), (12, 0.5, 3), (12, 0.9, 5), (16, 0.5, 4), (24, 0.5, 6), (30, 0.3, 3)):
        h = gnp(rng, n, p)
        cases += gadgets_of(h, k) + gadgets_of(h.complement(), k)
    for g, initial in cases:
        assert maximum_matching(g).edges == reference_maximum_matching(g).edges, (g.n, sorted(g.edges))
        expected = reference_maximum_matching(g, initial)
        assert warm_matching(g, initial).edges == expected.edges, (g.n, sorted(g.edges), initial)


def test_root_step_skips_a_blossom_that_the_root_row_closes():
    """Root 0's row reaches a and b, matched to each other, before uncovered c.

    The search contracts the blossom 0-a-b while it scans that row, then
    augments at c; the root step matches 0 to c without a search.  When the
    row has no uncovered vertex, the search runs and finds 0-a-b-c.
    """
    a, b, c = 1, 2, 3
    adj = [[a, b, c], [0, b], [0, a], [0]]
    match = [-1, b, a, -1]
    assert_maximize_as_the_reference(adj, match)
    assert match == [c, b, a, 0]
    adj = [[a, b], [0, b], [0, a, c], [b]]
    match = [-1, b, a, -1]
    assert_maximize_as_the_reference(adj, match)
    assert match == [a, 0, c, b]


def test_root_step_as_the_reference_on_the_rows_of_every_split_round_and_merge(monkeypatch):
    """Every ``_maximize`` call of ``factorize`` in a pack-regular and a dense-random pass at seed 1.

    Those are each round of ``petersen_two_factorize``'s bipartite rows and
    the rows ``_matching_on`` builds for merges; splits of seeded
    2r-regular graphs add rounds at other sizes.
    """
    import factorpack.factorize as factorize

    calls = Counter()

    def checking(rows, mate):
        calls[sys._getframe(1).f_code.co_name] += 1
        assert_maximize_as_the_reference(rows, mate)

    monkeypatch.setattr(factorize, "_maximize", checking)
    corpus = _perfbench_corpus()
    for workload in ("pack-regular", "dense-random"):
        for mode, pi, k in corpus.build(workload, 1)[0]:
            build = factorize.four_ones_realization if mode == "four-ones" else factorize.half_k_realization
            build(pi, k)
    assert calls["petersen_two_factorize"] > 100 and calls["_matching_on"] > 100, calls
    rng = random.Random(1597)
    for n, r in ((9, 1), (16, 2), (31, 3), (64, 4), (100, 5)):
        factorize.petersen_two_factorize(random_regular_graph(rng, n, 2 * r).adjacency(), r)
    assert set(calls) == {"petersen_two_factorize", "_matching_on"}, calls


def test_maximum_matching_size_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(20261018)
    for n in (10, 31, 64, 101, 150, 200):
        for p in (1.0 / n, 2.0 / n, 4.0 / n, 0.3):
            g = gnp(rng, n, p)
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges)
            assert maximum_matching(g).size == len(nx.max_weight_matching(h, maxcardinality=True)), (n, p)


def test_lemma_odd_perfect_matching_case():
    cert = lemma_odd_certificate(cycle_graph(4).adjacency())
    assert cert.matching.size == 2
    assert cert.cycles == {}


def test_lemma_odd_triangle():
    cert = lemma_odd_certificate(cycle_graph(3).adjacency())
    assert cert.matching.size == 1
    assert len(cert.cycles) == 1
    (z, cyc), = cert.cycles.items()
    assert set(cyc) == {0, 1, 2} and cyc[0] == z
    assert check_odd_cycle_certificate(cert) == []


def test_lemma_odd_two_triangles():
    g = two_triangles()
    cert = lemma_odd_certificate(g.adjacency())
    assert cert.matching.size == bf_max_matching(g)[0] == 2
    assert len(cert.cycles) == 2
    assert {frozenset(c) for c in cert.cycles.values()} == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
    assert check_odd_cycle_certificate(cert) == []


def test_lemma_odd_rejects_irregular():
    with pytest.raises(NotRegular):
        lemma_odd_certificate(SimpleGraph.from_edges(3, [(0, 1)]).adjacency())


def test_lemma_odd_monotone_and_parity(rng):
    for _ in range(40):
        n, r = rng.choice([(8, 3), (9, 4), (10, 3), (7, 4)])
        g = random_regular_graph(rng, n, r)
        cert = lemma_odd_certificate(g.adjacency())
        uncovered = n - 2 * cert.matching.size
        assert uncovered % 2 == n % 2
        assert check_odd_cycle_certificate(cert) == []
        assert cert.matching.size == bf_max_matching(g)[0]


def reference_lemma_odd_certificate(g: SimpleGraph) -> OddCycleCertificate:
    """Reference: the lemma as it was before it stopped at the first blossom.

    Each pass recomputes the uncovered vertices, grows the first one's full
    alternating tree (breadth first, no contraction) and closes the cycle of
    the outer-outer edge with the least (depth of z, root path to z, cycle)
    key, z being the last common vertex of the two root paths.
    """
    adj = g.adjacency()
    m = maximum_matching(g)
    cycles: dict[int, tuple[int, ...]] = {}
    while True:
        mate = {x: y for (u, v) in m.edges for x, y in ((u, v), (v, u))}
        uncovered = [v for v in range(g.n) if v not in mate and v not in cycles]
        if not uncovered:
            return OddCycleCertificate(matching=m, cycles=cycles, rows=adj)
        root = uncovered[0]
        parent, depth, outer = {root: -1}, {root: 0}, {root}
        q = deque([root])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if y not in parent:
                    z = mate[y]
                    parent[y], parent[z] = x, y
                    depth[y], depth[z] = depth[x] + 1, depth[x] + 2
                    outer.add(z)
                    q.append(z)
        best = None
        for x in sorted(outer):
            for y in adj[x]:
                if y <= x or y not in outer:
                    continue
                px, py = _tree_path(parent, x), _tree_path(parent, y)
                j = 0
                while j < min(len(px), len(py)) and px[j] == py[j]:
                    j += 1
                z = px[j - 1]
                cycle = tuple(px[j - 1:]) + tuple(reversed(py[j:]))
                key = (depth[z], tuple(px[:j]), cycle)
                if best is None or key < best[0]:
                    best = (key, z, cycle)
        _, z, cycle = best
        m = toggle_alternating_path(m, _tree_path(parent, z))
        cycles[z] = _canonical_cycle(cycle, z)


def assert_lemma_matches_the_reference(g: SimpleGraph) -> int:
    """The lemma's matching and cycles equal the reference's; returns the number of cycles."""
    cert, ref = lemma_odd_certificate(g.adjacency()), reference_lemma_odd_certificate(g)
    assert (cert.matching, cert.cycles) == (ref.matching, ref.cycles), (g.n, g.sorted_edges())
    assert check_odd_cycle_certificate(cert) == []
    return len(cert.cycles)


def odd_cycle_union(rng: random.Random) -> SimpleGraph:
    """Vertex-disjoint odd cycles on shuffled labels: every cycle leaves one vertex uncovered."""
    sizes = [rng.randrange(3, 16, 2) for _ in range(rng.randint(1, 6))]
    order = rng.sample(range(sum(sizes)), sum(sizes))
    edges, start = set(), 0
    for size in sizes:
        ring = order[start:start + size]
        edges |= {edge(ring[i], ring[i - 1]) for i in range(size)}
        start += size
    return SimpleGraph(len(order), edges)


def test_lemma_matches_the_reference_on_odd_cycle_unions():
    rng = random.Random(20261019)
    for _ in range(300):
        assert assert_lemma_matches_the_reference(odd_cycle_union(rng)) > 0


def test_lemma_matches_the_reference_on_the_residual_classes_a_bench_pass_peels(monkeypatch):
    """Every residual class that a pack-regular and a dense-random pass peel at seed 1."""
    import factorpack.factorize as factorize

    graphs = []

    def recording(rows):
        graphs.append(SimpleGraph.from_edges(len(rows), ((u, v) for u, row in enumerate(rows) for v in row if u < v)))
        return lemma_odd_certificate(rows)

    monkeypatch.setattr(factorize, "lemma_odd_certificate", recording)
    corpus = _perfbench_corpus()
    for workload in ("pack-regular", "dense-random"):
        for mode, pi, k in corpus.build(workload, 1)[0]:
            build = factorize.four_ones_realization if mode == "four-ones" else factorize.half_k_realization
            build(pi, k)
    with_cycles = sum(assert_lemma_matches_the_reference(g) > 0 for g in graphs)
    assert len(graphs) > 200 and with_cycles >= 4


def test_lemma_and_the_reference_certify_seeded_regular_graphs():
    """Equal on every 2-regular graph, where each tree has one blossom; valid and maximum on all.

    With r >= 3 a tree can hold several blossoms, and the first one the
    search meets need not be the reference's least key: 29 of the 91 graphs
    here that leave a vertex uncovered, all 4-regular on an odd n, differ.
    """
    rng = random.Random(20261019)
    graphs = [random_regular_graph(rng, n, r) for _ in range(4) for n in range(6, 61, 3)
              for r in range(2, 6) if n * r % 2 == 0 and r < n]
    uncovered = 0
    for g in graphs:
        if g.degrees()[0] == 2:
            assert_lemma_matches_the_reference(g)
            continue
        cert, ref = lemma_odd_certificate(g.adjacency()), reference_lemma_odd_certificate(g)
        assert check_odd_cycle_certificate(cert) == check_odd_cycle_certificate(ref) == []
        assert cert.matching.size == ref.matching.size
        uncovered += bool(cert.cycles)
    assert len(graphs) > 200 and uncovered > 20


# A 4-regular graph on 21 vertices whose uncovered vertex 20 reaches a 5-cycle
# blossom first, while the reference's least key is a 7-cycle through it.
FIRST_BLOSSOM_DIFFERS = SimpleGraph.from_edges(21, [
    (0, 1), (0, 15), (0, 18), (0, 20), (1, 4), (1, 9), (1, 10), (2, 5), (2, 6), (2, 13), (2, 16),
    (3, 5), (3, 10), (3, 14), (3, 20), (4, 5), (4, 12), (4, 17), (5, 8), (6, 13), (6, 15), (6, 16),
    (7, 9), (7, 14), (7, 17), (7, 20), (8, 15), (8, 17), (8, 18), (9, 12), (9, 16), (10, 11),
    (10, 19), (11, 12), (11, 14), (11, 18), (12, 18), (13, 19), (13, 20), (14, 19), (15, 16),
    (17, 19),
])


@pytest.mark.parametrize("g", [FIRST_BLOSSOM_DIFFERS, odd_cycle_union(random.Random(20261020))],
                         ids=["first-blossom-differs", "odd-cycle-union"])
def test_lemma_builds_the_adjacency_rows_once(monkeypatch, g):
    """The matching, each tree and each stem toggle share the caller's rows and one mate list."""
    adjacency = SimpleGraph.adjacency
    calls = []

    def counting(self):
        calls.append(self)
        return adjacency(self)

    rows = g.adjacency()
    monkeypatch.setattr(SimpleGraph, "adjacency", counting)
    cert = lemma_odd_certificate(rows)
    assert calls == [] and cert.rows is rows and cert.cycles
    assert check_odd_cycle_certificate(cert) == []


def test_lemma_closes_the_first_blossom_where_the_reference_takes_another():
    cert = lemma_odd_certificate(FIRST_BLOSSOM_DIFFERS.adjacency())
    ref = reference_lemma_odd_certificate(FIRST_BLOSSOM_DIFFERS)
    assert cert.cycles == {20: (20, 0, 1, 9, 7)}
    assert ref.cycles == {20: (20, 0, 1, 4, 17, 19, 13)}
    assert check_odd_cycle_certificate(cert) == check_odd_cycle_certificate(ref) == []
    assert cert.matching.size == ref.matching.size == 10
