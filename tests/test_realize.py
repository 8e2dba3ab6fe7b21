import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from factorpack import (
    SimpleGraph,
    erdos_gallai_graphic,
    four_ones,
    four_ones_realization,
    half_k_realization,
    havel_hakimi_realize,
    kundu_realize,
    replay_trace,
    switch_randomize,
    verify_certificate,
)
from factorpack.coloring import BLACK, RESIDUAL, WHITE, DegreeSequence, certificate_from_realization
from factorpack.errors import InternalInvariantError, NotGraphic, NotGraphicMinusK, PreconditionViolated
from factorpack.graphs import all_pairs, edge
from factorpack.matching import _maximize
from factorpack.oracle import enumerate_graphic
from factorpack.realize import (
    _circulant_fill,
    _flow_start,
    _greedy_fill,
    _pair_off,
    _switch_repair,
    erdos_gallai_graphic_raw,
    find_k_factor,
    max_degree_bounded_subgraph,
)

# The n=20, k=1 input that kept the old exhaustive fallback busy for over 150 s.
N20_K1 = [19, 18, 17, 17, 16, 16, 15, 14, 13, 13, 13, 12, 12, 12, 8, 6, 6, 4, 3, 2]

# One (pi, k) per outcome of the flow on the complement of pi - k's realization, found by a
# seeded search: the Euler rounding completes, it leaves deficits for the gadget, and there
# is no fractional k-factor.
ROUNDS = ([8, 8, 7, 7, 7, 6, 5, 5, 5, 4], 4)
DEFICIT = ([5, 5, 5, 5, 4, 4, 3, 3, 3, 3], 1)
NO_FRACTIONAL = ([6, 6, 6, 6, 6, 6, 2, 2, 2, 2], 1)


def brute_degree_multisets(n: int) -> set[tuple[int, ...]]:
    """Degree multisets of every labeled graph on n vertices (oracle)."""
    pairs = list(all_pairs(n))
    out = set()
    for mask in range(1 << len(pairs)):
        deg = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                deg[u] += 1
                deg[v] += 1
        out.add(tuple(sorted(deg, reverse=True)))
    return out


def test_erdos_gallai_small_cases():
    assert erdos_gallai_graphic([2, 2, 2, 2])
    assert erdos_gallai_graphic([0, 0, 0])
    assert not erdos_gallai_graphic([3, 3, 1, 1])


def test_erdos_gallai_matches_exhaustive_enumeration_n4():
    realizable = brute_degree_multisets(4)
    for cand in itertools.combinations_with_replacement(range(4), 4):
        desc = tuple(sorted(cand, reverse=True))
        assert erdos_gallai_graphic(desc) == (desc in realizable), desc
    assert (3, 3, 1, 1) not in realizable


def quadratic_erdos_gallai(sorted_desc: list[int]) -> bool:
    """Reference: every Erdos-Gallai inequality summed out term by term, O(n^2)."""
    n = len(sorted_desc)
    if n == 0:
        return True
    if sorted_desc[-1] < 0 or sum(sorted_desc) % 2 != 0:
        return False
    prefix = 0
    for k in range(1, n + 1):
        prefix += sorted_desc[k - 1]
        tail = sum(min(k, sorted_desc[i]) for i in range(k, n))
        if prefix > k * (k - 1) + tail:
            return False
    return True


def test_erdos_gallai_matches_quadratic_reference_exhaustively():
    for n in range(8):
        for asc in itertools.combinations_with_replacement(range(-1, n + 1), n):
            desc = list(reversed(asc))
            expected = quadratic_erdos_gallai(desc)
            assert erdos_gallai_graphic_raw(desc) == expected, desc
            assert erdos_gallai_graphic(asc) == expected, asc


def test_erdos_gallai_matches_quadratic_reference_random():
    rng = random.Random(20261018)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 200)
        skew = rng.choice([0.5, 1.0, 2.0, 4.0])
        values = [int((n - 1) * rng.random() ** skew) for _ in range(n)]
        if sum(values) % 2:
            values[rng.randrange(n)] += rng.choice([-1, 1])
        desc = sorted(values, reverse=True)
        expected = quadratic_erdos_gallai(desc)
        outcomes[expected] += 1
        assert erdos_gallai_graphic_raw(desc) == expected, desc
        assert erdos_gallai_graphic(values) == expected, values
    assert min(outcomes.values()) >= 50, outcomes


def test_havel_hakimi_examples():
    assert havel_hakimi_realize([1, 1]).sorted_edges() == [(0, 1)]
    assert havel_hakimi_realize([2, 2, 2]).sorted_edges() == [(0, 1), (0, 2), (1, 2)]
    g = havel_hakimi_realize([3, 3, 2, 2, 1, 1])
    assert g.degrees() == [3, 3, 2, 2, 1, 1]


def test_havel_hakimi_rejects_non_graphic():
    with pytest.raises(NotGraphic):
        havel_hakimi_realize([3, 3, 1, 1])


def test_havel_hakimi_vertexwise_degrees_match_sorted_input():
    for seq in [(4, 3, 3, 2, 2, 2), (5, 5, 4, 4, 3, 3, 2, 2), (2, 1, 1, 0)]:
        g = havel_hakimi_realize(seq)
        assert tuple(g.degrees()) == tuple(sorted(seq, reverse=True))


def reference_pair_off(target, forbidden):
    """Reference: the greedy pairing with a max scan for the vertex and a keyed sort of its partners."""
    n = len(target)
    left = list(target)
    edges = set()
    while True:
        v = max(range(n), key=lambda i: (left[i], -i))
        need = left[v]
        if need == 0:
            return edges
        left[v] = 0
        partners = sorted(
            (w for w in range(n) if left[w] > 0 and edge(v, w) not in forbidden),
            key=lambda w: (-left[w], w),
        )
        if len(partners) < need:
            return None
        for w in partners[:need]:
            edges.add(edge(v, w))
            left[w] -= 1


def _random_forbidden(rng, n):
    density = rng.random() ** 2
    return {e for e in all_pairs(n) if rng.random() < density}


def test_pair_off_matches_reference_on_every_small_target():
    """Every target list with n <= 6 and entries < n, with no forbidden pair and with seeded ones."""
    rng = random.Random(4181)
    outcomes = {True: 0, False: 0}
    for n in range(1, 7):
        for target in itertools.product(range(n), repeat=n):
            for forbidden in (set(), _random_forbidden(rng, n), _random_forbidden(rng, n)):
                expected = reference_pair_off(target, forbidden)
                outcomes[expected is not None] += 1
                assert _pair_off(list(target), forbidden) == expected, (target, forbidden)
    assert min(outcomes.values()) > 10_000, outcomes


def test_pair_off_matches_reference_on_random_targets():
    rng = random.Random(6765)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 120)
        target = [rng.randrange(n) for _ in range(n)]
        if rng.random() < 0.5:  # the degrees of a random graph: met in full when nothing is forbidden
            target = [0] * n
            p = rng.random()
            for e in all_pairs(n):
                if rng.random() < p:
                    for x in e:
                        target[x] += 1
        forbidden = _random_forbidden(rng, n) if rng.random() < 0.7 else set()
        expected = reference_pair_off(target, forbidden)
        outcomes[expected is not None] += 1
        assert _pair_off(target, forbidden) == expected, (target, sorted(forbidden))
    assert min(outcomes.values()) >= 30, outcomes


def test_pair_off_matches_reference_on_constant_targets():
    """[d]*n with nothing forbidden: every vertex ties at first, so the tie order decides every edge."""
    for n in (128, 192, 256):
        for d in sorted({1, 2, 3, 5, n // 8, n // 4 - 1, n // 2, n // 2 + 1, n - 2, n - 1}):
            got = _pair_off([d] * n, set())
            assert got == reference_pair_off([d] * n, set()), (n, d)
            assert len(got) == n * d // 2, (n, d)


def test_pair_off_matches_reference_as_the_greedy_fill_of_every_pack_regular_point():
    """[k]*n against the edges of HH(pi - k), the greedy fill's own call, on the bench's pack-regular grid."""
    points = sorted({(tuple(pi), k) for _mode, pi, k in _perfbench_corpus().build("pack-regular", 1)[0]})
    filled = 0
    for pi, k in points:
        r = havel_hakimi_realize([d - k for d in pi])
        got = _pair_off([k] * r.n, r.edges)
        assert got == reference_pair_off([k] * r.n, r.edges), (len(pi), pi[0], k)
        filled += got is not None
    assert len(points) == 14 and 0 < filled < 14, filled  # the rest fill by circulant rings


def reference_circulant_fill(r: SimpleGraph, k: int) -> set[tuple[int, int]] | None:
    """Reference: ``_circulant_fill`` as it was, each ring built in full as a set and tested against r and the fill."""
    n = r.n
    need = k
    fill: set[tuple[int, int]] = set()
    if k % 2 == 1:
        if n % 2 != 0:
            return None
        half = {edge(i, i + n // 2) for i in range(n // 2)}
        if half & r.edges:
            return None
        fill |= half
        need -= 1
    for off in range(1, (n - 1) // 2 + 1):
        if need < 2:
            break
        ring = {edge(i, (i + off) % n) for i in range(n)}
        if ring & r.edges or ring & fill:
            continue
        fill |= ring
        need -= 2
    if need != 0:
        return None
    return fill


def test_circulant_fill_matches_the_set_reference():
    """HH(pi - k) of every pack-regular point, then random graphs r with n <= 40 and random k < n."""
    points = sorted({(tuple(pi), k) for _mode, pi, k in _perfbench_corpus().build("pack-regular", 1)[0]})
    for pi, k in points:
        r = havel_hakimi_realize([d - k for d in pi])
        got = _circulant_fill(r, k)
        assert got == reference_circulant_fill(r, k), (len(pi), pi[0], k)
        assert got is not None  # every point's r leaves room for whole rings
    rng = random.Random(20261020)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        n = rng.randint(1, 40)
        p = rng.choice((0.0, 0.02, 0.05, 0.1, 0.3))
        r = SimpleGraph(n, {e for e in all_pairs(n) if rng.random() < p})
        k = rng.randrange(n)
        expected = reference_circulant_fill(r, k)
        outcomes[expected is not None] += 1
        assert _circulant_fill(r, k) == expected, (n, k, r.sorted_edges())
    assert len(points) == 14 and min(outcomes.values()) >= 100, outcomes


@pytest.mark.parametrize("build,pi,k", [
    (kundu_realize, [3, 5, 5, 5, 5, 7, 7, 7], 1),  # unsorted, and reaches switch repair
    (four_ones_realization, [3, 5, 5, 5, 5, 7, 7, 7], 1),
    (half_k_realization, [6, 6, 5, 5, 5, 5, 5, 5], 4),
])
def test_a_request_runs_erdos_gallai_once_on_pi_and_once_on_pi_minus_k(monkeypatch, build, pi, k):
    """Kundu's theorem needs pi and pi - k graphic; each is tested once, whichever pipeline takes the request."""
    import factorpack.realize as realize

    seen = []

    def recording(sorted_desc):
        seen.append(list(sorted_desc))
        return erdos_gallai_graphic_raw(sorted_desc)

    monkeypatch.setattr(realize, "erdos_gallai_graphic_raw", recording)
    build(pi, k)
    desc = sorted(pi, reverse=True)
    assert seen == [desc, [d - k for d in desc]]


def test_switch_randomize_identity_and_triangle():
    g = havel_hakimi_realize([2, 2, 2, 2])
    assert switch_randomize(g, 0, seed=5).edges == g.edges
    tri = havel_hakimi_realize([2, 2, 2])
    assert switch_randomize(tri, 500, seed=5).edges == tri.edges


def test_switch_randomize_c6_stays_two_regular():
    c6 = SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    out = switch_randomize(c6, 1000, seed=11)
    assert out.degrees() == [2] * 6


def test_switch_randomize_preserves_degrees_many_trials():
    rng = random.Random(7)
    sequences = [(3, 3, 2, 2, 1, 1), (4, 4, 4, 4, 4, 4, 4, 4), (2, 2, 2, 2, 2, 2),
                 (5, 4, 4, 3, 3, 3, 2, 2), (3, 3, 3, 3)]
    for trial in range(10_000):
        seq = sequences[trial % len(sequences)]
        g = havel_hakimi_realize(seq)
        out = switch_randomize(g, 15, seed=rng.randrange(1 << 30))
        assert out.degrees() == g.degrees()
        assert sorted(out.degrees(), reverse=True) == sorted(seq, reverse=True)
        assert len(out.edges) == len(g.edges)


def brute_has_k_factor_in_some_realization(pi: tuple[int, ...], k: int) -> bool:
    """Oracle: enumerate all labeled graphs on n vertices, look for a realization
    of pi containing a spanning k-regular subgraph (independent of the builder)."""
    n = len(pi)
    pairs = list(all_pairs(n))
    target = tuple(sorted(pi, reverse=True))
    for mask in range(1 << len(pairs)):
        deg = [0] * n
        chosen = []
        for i, p in enumerate(pairs):
            if mask >> i & 1:
                chosen.append(p)
                deg[p[0]] += 1
                deg[p[1]] += 1
        if tuple(sorted(deg, reverse=True)) != target:
            continue
        for sub in range(1 << len(chosen)):
            sdeg = [0] * n
            for i, p in enumerate(chosen):
                if sub >> i & 1:
                    sdeg[p[0]] += 1
                    sdeg[p[1]] += 1
            if all(d == k for d in sdeg):
                return True
    return False


def test_kundu_trivial_cases():
    real = kundu_realize([3, 3, 3, 3], 3)
    assert real.edges_of(RESIDUAL) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert real.edges_of(BLACK) == []
    real = kundu_realize([2, 2, 2, 2], 2)
    assert len(real.edges_of(RESIDUAL)) == 4
    assert real.class_graph(RESIDUAL).degrees() == [2, 2, 2, 2]


def test_kundu_on_4444_33_confirmed_by_oracle():
    pi = (4, 4, 4, 4, 3, 3)
    assert brute_has_k_factor_in_some_realization(pi, 3)
    real = kundu_realize(pi, 3)
    assert real.class_graph(RESIDUAL).degrees() == [3] * 6
    assert tuple(real.degrees) == pi


def test_kundu_errors():
    with pytest.raises(NotGraphic):
        kundu_realize([3, 3, 1, 1], 1)
    with pytest.raises(NotGraphic):
        kundu_realize([3, 1, 1], 1)  # degree out of range for n=3
    with pytest.raises(PreconditionViolated):
        kundu_realize([2, 2, 2], -1)
    with pytest.raises(NotGraphicMinusK):
        kundu_realize([2, 2, 1, 1], 2)


def test_kundu_k_zero_and_odd_n():
    real = kundu_realize([2, 2, 1, 1], 0)
    assert real.declared[RESIDUAL] == 0
    assert real.edges_of(RESIDUAL) == []
    real = kundu_realize([2, 2, 2, 2, 2], 2)  # odd n is allowed here
    assert real.class_graph(RESIDUAL).degrees() == [2] * 5


def test_find_k_factor_gadget_agrees_with_brute_force():
    rng = random.Random(3)
    for trial in range(60):
        n = rng.choice([4, 5, 6])
        pairs = list(all_pairs(n))
        edges = {p for p in pairs if rng.random() < 0.6}
        g = SimpleGraph(n, edges)
        k = rng.randint(1, 3)
        found = find_k_factor(g, k)
        # brute force: any spanning k-regular subgraph?
        chosen = sorted(edges)
        exists = False
        for sub in range(1 << len(chosen)):
            deg = [0] * n
            for i, p in enumerate(chosen):
                if sub >> i & 1:
                    deg[p[0]] += 1
                    deg[p[1]] += 1
            if all(d == k for d in deg):
                exists = True
                break
        assert (found is not None) == exists, (sorted(edges), k)
        if found is not None:
            deg = [0] * n
            for (u, v) in found:
                deg[u] += 1
                deg[v] += 1
            assert all(d == k for d in deg)
            assert found <= edges


def reference_gadget(h: SimpleGraph, k: int) -> tuple[list[list[int]], list[int]]:
    """Tutte's gadget for h as adjacency rows and a mate array, every stub pair matched to itself.

    Copies u*k .. u*k+k-1 of each vertex u, then two stubs per edge, in sorted
    edge order, joined to each other and to every copy of their own end.
    """
    stub_base = h.n * k
    at: list[list[int]] = [[] for _ in range(h.n)]
    stub_rows: list[list[int]] = []
    match = [-1] * stub_base
    for j, (u, v) in enumerate(h.sorted_edges()):
        su = stub_base + 2 * j
        at[u].append(su)
        at[v].append(su + 1)
        stub_rows += ([*range(u * k, u * k + k), su + 1], [*range(v * k, v * k + k), su])
        match += (su + 1, su)
    return [row for row in at for _ in range(k)] + stub_rows, match


def reference_max_degree_bounded_subgraph(h: SimpleGraph, k: int) -> tuple[int, set[tuple[int, int]]]:
    """Reference: the cold start, one blossom pass over the gadget from every stub pair matched."""
    if k <= 0 or not h.edges:
        return 0, set()
    adj, match = reference_gadget(h, k)
    _maximize(adj, match)
    chosen = {e for j, e in enumerate(h.sorted_edges()) if match[h.n * k + 2 * j] < h.n * k}
    return len(chosen), chosen


def reference_has_k_factor(h: SimpleGraph, k: int) -> bool:
    if k == 0:
        return True
    if h.n * k % 2 or any(d < k for d in h.degrees()):
        return False
    return reference_max_degree_bounded_subgraph(h, k)[0] == h.n * k // 2


def assert_engine_matches_reference(h: SimpleGraph, k: int) -> None:
    """Same size as the cold reference, a valid degree-<=k subgraph, and the same k-factor answer."""
    size, chosen = max_degree_bounded_subgraph(h, k)
    assert size == reference_max_degree_bounded_subgraph(h, k)[0], (h.n, k, sorted(h.edges))
    assert size == len(chosen) and chosen <= h.edges
    assert all(d <= k for d in SimpleGraph(h.n, chosen).degrees())
    found = find_k_factor(h, k)
    assert (found is not None) == reference_has_k_factor(h, k), (h.n, k, sorted(h.edges))
    if found is not None:
        assert found <= h.edges and SimpleGraph(h.n, found).degrees() == [k] * h.n


def engine_path(h: SimpleGraph, k: int) -> str:
    """Which path the engine takes on h: 'rounds', 'deficit' (the gadget runs) or 'no-fractional'."""
    full, start = _flow_start(h.n, k, h.sorted_edges())
    if not full:
        return "no-fractional"
    return "rounds" if 2 * len(start) == h.n * k else "deficit"


def test_max_degree_bounded_subgraph_matches_the_cold_reference_on_random_graphs():
    """Seeded G(n, p) up to n = 200, sparse to dense, with small and large k."""
    rng = random.Random(10946)
    paths = {"rounds": 0, "deficit": 0, "no-fractional": 0}
    for n in (2, 5, 8, 13, 21, 34, 64, 120, 200):
        for p in (1.5 / n, 0.1, 0.5, 0.9):
            h = SimpleGraph(n, {e for e in all_pairs(n) if rng.random() < p})
            for k in ((1, 2, 3, max(1, int(n * p / 3))) if n <= 64 else (1, 3)):
                assert_engine_matches_reference(h, k)
                if h.edges:
                    paths[engine_path(h, k)] += 1
    assert min(paths.values()) >= 5, paths


def _perfbench_corpus():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_max_degree_bounded_subgraph_matches_the_cold_reference_on_the_bench_stage_inputs():
    """Every graph the engine searches in a dense-random and a sweep-n10 pass at seed 1."""
    corpus = _perfbench_corpus()
    complements, hh = {}, {}
    for workload in ("dense-random", "sweep-n10"):
        for _mode, pi, k in corpus.build(workload, 1)[0]:
            r = havel_hakimi_realize([d - k for d in sorted(pi, reverse=True)])
            if _greedy_fill(r, k) is None and _circulant_fill(r, k) is None:
                complements[(tuple(pi), k)] = r.complement()
    for (pi, k), h in complements.items():
        assert_engine_matches_reference(h, k)
        if find_k_factor(h, k) is None:
            hh[(pi, k)] = havel_hakimi_realize(pi)
            assert_engine_matches_reference(hh[(pi, k)], k)
    assert sum(1 for (pi, _k) in complements if len(pi) == 40) == 16
    assert len(hh) > 20


def test_find_k_factor_answers_as_the_reference_on_every_admissible_input_up_to_n8():
    """Every graphic pi with n <= 8 and k >= 1, pi - k graphic: pi - k's complement and pi's realization."""
    paths = {"rounds": 0, "deficit": 0, "no-fractional": 0}
    for n in range(1, 9):
        for ds in enumerate_graphic(n, n - 1):
            for k in range(1, n):
                if not erdos_gallai_graphic_raw([d - k for d in ds.degrees]):
                    continue
                complement = havel_hakimi_realize([d - k for d in ds.degrees]).complement()
                for h in (complement, havel_hakimi_realize(ds)):
                    assert (find_k_factor(h, k) is not None) == reference_has_k_factor(h, k), (ds.degrees, k)
                    if h.n * k % 2 == 0 and min(h.degrees()) >= k:
                        paths[engine_path(h, k)] += 1
    assert min(paths.values()) >= 10, paths


def test_explicit_inputs_take_the_engine_path_they_are_named_for():
    for (pi, k), path in ((ROUNDS, "rounds"), (DEFICIT, "deficit"), (NO_FRACTIONAL, "no-fractional")):
        r = havel_hakimi_realize([d - k for d in pi])
        assert _greedy_fill(r, k) is None and _circulant_fill(r, k) is None, pi
        h = r.complement()
        assert engine_path(h, k) == path, pi
        assert_engine_matches_reference(h, k)
        assert (find_k_factor(h, k) is None) == (path == "no-fractional")
        real = kundu_realize(pi, k)
        assert verify_certificate(pi, k, certificate_from_realization(real, "kundu", k)).passed


def test_find_k_factor_on_a_long_cycle_needs_no_recursion():
    n = 3000
    cycle = SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    assert len(find_k_factor(cycle, 1)) == n // 2
    assert find_k_factor(cycle, 2) == cycle.edges


def reaches_switch_repair(pi, k: int) -> bool:
    """kundu_realize's greedy, circulant and gadget fills all miss on the pi - k realization."""
    r = havel_hakimi_realize([d - k for d in sorted(pi, reverse=True)])
    return (_greedy_fill(r, k) is None and _circulant_fill(r, k) is None
            and find_k_factor(r.complement(), k) is None)


def test_switch_repair_two_triangles_needs_one_switch():
    g = havel_hakimi_realize([2] * 6)
    assert g.sorted_edges() == [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    assert max_degree_bounded_subgraph(g, 1)[0] == 2
    h, matching = _switch_repair(g, 1)
    assert len(h.edges - g.edges) == 2 and len(g.edges - h.edges) == 2  # one two-switch
    assert h.degrees() == [2] * 6
    assert matching <= h.edges
    assert sorted(v for e in matching for v in e) == list(range(6))


def test_switch_repair_raises_when_no_switch_helps():
    star = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])  # no realization of 3,1,1,1 has a 1-factor
    with pytest.raises(InternalInvariantError):
        _switch_repair(star, 1)


def test_switch_repair_on_the_one_small_input_hh_misses():
    pi = [7, 7, 7, 7, 7, 7, 5, 5, 1, 1]
    assert reaches_switch_repair(pi, 1)
    assert find_k_factor(havel_hakimi_realize(pi), 1) is None
    real = kundu_realize(pi, 1)
    assert real.class_graph(RESIDUAL).degrees() == [1] * 10
    assert list(real.degrees) == pi


def test_switch_repair_on_the_worst_n12_input():
    """Of the 32 n = 12 requests whose switch repair applies a switch, this one needs the most trial searches."""
    pi = [9, 8, 8, 8, 8, 8, 8, 6, 6, 1, 1, 1]
    assert reaches_switch_repair(pi, 1)
    assert find_k_factor(havel_hakimi_realize(pi), 1) is None
    real = kundu_realize(pi, 1)
    assert real.class_graph(RESIDUAL).degrees() == [1] * 12
    assert list(real.degrees) == pi


def test_four_ones_on_the_n20_k1_input():
    cert = four_ones(N20_K1, 1)
    assert verify_certificate(N20_K1, 1, cert).passed


def _replays(real, pi, k: int) -> bool:
    """The pipeline's trace, replayed over kundu_realize's coloring, gives its final coloring."""
    start = kundu_realize(pi, k).coloring_map()
    return replay_trace(real.n, start, real.trace) == real.coloring_map()


def test_switch_repair_fuzz():
    """Seeded random (pi, k), n even in 10..24, kept when they reach the switch-repair stage."""
    rng = random.Random(20261018)
    found = []
    while len(found) < 20:
        n = rng.randrange(10, 25, 2)
        p = rng.random()
        deg = [0] * n
        for (u, v) in all_pairs(n):
            if rng.random() < p:
                deg[u] += 1
                deg[v] += 1
        pi = sorted(deg, reverse=True)
        if pi[-1] < 1:
            continue
        k = rng.randint(1, pi[-1])
        if erdos_gallai_graphic_raw([d - k for d in pi]) and reaches_switch_repair(pi, k):
            found.append((pi, k))
    assert any(k >= 4 for (_pi, k) in found)
    pipelines = [("kundu", kundu_realize), ("four-ones", four_ones_realization),
                 ("half-k", half_k_realization)]
    for pi, k in found:
        for mode, build in pipelines:
            if mode == "half-k" and k < 4:
                continue
            real = build(pi, k)
            report = verify_certificate(pi, k, certificate_from_realization(real, mode, k))
            assert report.passed, (mode, pi, k, report.violations)
            assert _replays(real, pi, k), (mode, pi, k)


def test_gadget_stage_at_n64():
    """A seeded G(64, 1/2) degree sequence, k=16, whose greedy and circulant fills both miss."""
    rng = random.Random(20261018)
    n, k = 64, 16
    while True:
        deg = [0] * n
        for (u, v) in all_pairs(n):
            if rng.random() < 0.5:
                deg[u] += 1
                deg[v] += 1
        pi = sorted(deg, reverse=True)
        if pi[-1] < k or not erdos_gallai_graphic_raw([d - k for d in pi]):
            continue
        r = havel_hakimi_realize([d - k for d in pi])
        if _greedy_fill(r, k) is None and _circulant_fill(r, k) is None:
            break
    real = kundu_realize(pi, k)
    assert verify_certificate(pi, k, certificate_from_realization(real, "kundu", k)).passed
    half = half_k_realization(pi, k)
    report = verify_certificate(pi, k, certificate_from_realization(half, "half-k", k))
    assert report.passed, report.violations
    assert replay_trace(n, real.coloring_map(), half.trace) == half.coloring_map()
