"""Graphicality tests, realization builders, and realizations carrying a k-factor.

``kundu_realize`` produces a realization of pi whose edges split into a
k-regular spanning "residual" class plus black leftovers: it realizes pi - k
deterministically, then fills the complement with a k-regular spanning
subgraph.  The fill runs in stages: a greedy pairing pass and a circulant
sweep for the common cases, then an exact complement search.  The pairing,
which is also the Havel-Hakimi pass, keeps the vertices in one ascending
list per remaining need instead of sorting them at every step: a step
reads its partners off the lists from the highest need down and moves
each partner down one list by bisection.  When pi - k's
realization has no k-regular complement, the last stage starts over from
the Havel-Hakimi realization of pi and applies two-switches, each chosen
deterministically so that a maximum degree-<=k subgraph grows, until that
subgraph is a k-factor.  Every stage is deterministic and polynomial.  The
realization is handed over as two classes: the fill as the residual, and
every other realization edge as black.

The exact searches start near their answer.  A max flow on the bipartite
double cover gives a fractional k-factor, or shows there is none, in
O(|E|^1.5) steps; rounding it along Euler circuits in O(n + |E| log |E|)
leaves at most one vertex an edge short per odd circuit.  Only then is
Tutte's degree-capacity gadget (n*k + 2|E| vertices, O(|E| k) adjacency
entries) built, with the rounded edges already matched, and the blossom
search runs once per missing edge end instead of n*k times."""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import accumulate, islice

from .coloring import BLACK, RESIDUAL, ColoredRealization, DegreeSequence
from .errors import InternalInvariantError, NotGraphic, NotGraphicMinusK, PreconditionViolated
from .graphs import SimpleGraph, edge, euler_circuit, neighbour_rows
from .matching import _maximize


def erdos_gallai_graphic(seq) -> bool:
    """True iff the integer list is the degree sequence of a simple graph."""
    if isinstance(seq, DegreeSequence):
        return erdos_gallai_graphic_raw(list(seq.degrees))
    return erdos_gallai_graphic_raw(sorted((int(x) for x in seq), reverse=True))


def erdos_gallai_graphic_raw(sorted_desc: list[int]) -> bool:
    """Erdos-Gallai on an already sorted non-increasing list (no normalization), in O(n).

    Inequality k bounds the first k entries by k(k-1) plus sum(min(k, d_i))
    over the rest.  The entries >= k form a prefix d[:p] that shrinks as k
    grows, so each later entry contributes k inside that prefix and itself
    beyond it, which prefix sums give in O(1).
    """
    d = sorted_desc
    n = len(d)
    if n == 0:
        return True
    acc = [0, *accumulate(d)]
    if d[-1] < 0 or acc[n] % 2 != 0:
        return False
    p = n
    for k in range(1, n + 1):
        while p > 0 and d[p - 1] < k:
            p -= 1
        split = max(p, k)
        if acc[k] > k * (k - 1) + k * (split - k) + acc[n] - acc[split]:
            return False
    return True


def degree_sequence_checked(pi, k: int = 0) -> DegreeSequence:
    """The one check of a request: pi graphic, k >= 0, and pi - k graphic.

    Raises NotGraphic (degrees outside [0, n-1] included), then
    PreconditionViolated for k < 0, then NotGraphicMinusK.
    """
    values = list(pi.degrees) if isinstance(pi, DegreeSequence) else [int(x) for x in pi]
    if not erdos_gallai_graphic(values):
        raise NotGraphic(f"{values} is not graphic")
    ds = pi if isinstance(pi, DegreeSequence) else DegreeSequence.of(values)
    if k < 0:
        raise PreconditionViolated(f"k must be non-negative, got {k}")
    if not erdos_gallai_graphic_raw([d - k for d in ds.degrees]):
        raise NotGraphicMinusK(f"{list(ds.degrees)} minus {k} is not graphic")
    return ds


def _pair_off(target: list[int], forbidden: set[tuple[int, int]]) -> set[tuple[int, int]] | None:
    """Greedy pairing: vertex i gets target[i] edges, none of them in `forbidden`.

    Each step orders the vertices that still have need by need, largest
    first and ties by lowest id; the first vertex joins the first vertices
    after it whose pair with it is not forbidden.  Returns None when a vertex
    runs out of partners; a processed vertex's need is 0, so no edge repeats.

    That order is kept, not rebuilt: one ascending id list per need, read
    from the highest need down, is the order of a stable sort by need.  A
    step costs its scan, which passes only the vertices forbidden to it,
    plus a bisection and a list shift (one memmove) per partner as it moves
    down one list: O(n + |F| + |E| log n) steps and O(|E|) memmoves for a
    pass, for |E| edges placed and |F| forbidden pairs, with no sort.
    """
    top = max(target, default=0)
    by_need: list[list[int]] = [[] for _ in range(top + 1)]
    for i, t in enumerate(target):
        if t > 0:
            by_need[t].append(i)
    edges: set[tuple[int, int]] = set()
    while True:
        while top > 0 and not by_need[top]:
            top -= 1
        if top <= 0:
            return edges
        v = by_need[top].pop(0)
        partners = list(islice(((d, w) for d in range(top, 0, -1) for w in by_need[d]
                                if ((v, w) if v < w else (w, v)) not in forbidden), top))
        if len(partners) < top:
            return None
        for d, w in partners:
            edges.add((v, w) if v < w else (w, v))
            row = by_need[d]
            del row[bisect_left(row, w)]
            if d > 1:
                insort(by_need[d - 1], w)


def havel_hakimi_realize(seq) -> SimpleGraph:
    """Deterministic realization: highest-degree vertex first, ties by lowest id."""
    ds = degree_sequence_checked(seq)
    return SimpleGraph(ds.n, _pair_off(list(ds.degrees), set()))  # never None on a graphic sequence


def switch_randomize(g: SimpleGraph, steps: int, seed: int) -> SimpleGraph:
    """Apply up to `steps` random degree-preserving two-switches; seed-deterministic."""
    import random  # here, not at module level: nothing else needs it, and it slows every import
    rng = random.Random(seed)
    out = SimpleGraph(g.n, set(g.edges))
    edges = sorted(out.edges)
    for _ in range(steps):
        if len(edges) < 2:
            break
        i = rng.randrange(len(edges))
        j = rng.randrange(len(edges))
        if i == j:
            continue
        (a, b), (c, d) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4:
            continue
        e1, e2 = edge(a, d), edge(c, b)
        if e1 in out.edges or e2 in out.edges:
            continue
        out.edges.discard(edges[i])
        out.edges.discard(edges[j])
        out.edges.add(e1)
        out.edges.add(e2)
        edges[i], edges[j] = e1, e2
    return out


# --- k-regular fills of a graph's complement ---


def _euler_round(n: int, half: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Every other edge of ``euler_circuit``'s walk of each component of ``half``, whose degrees are even.

    From a walk w of m edges it keeps w[j]w[j+1] for j = m-2, m-4, ... >= 0,
    which gives each vertex half its edges, except the start of an odd
    circuit, one short.  Cost: the walk's, O(n + |E| log |E|).
    """
    return [edge(w[j], w[j + 1]) for w in euler_circuit(neighbour_rows(n, half))
            for j in range(len(w) - 3, -1, -2)]


def _flow_start(n: int, k: int, edges: list[tuple[int, int]]) -> tuple[bool, list[tuple[int, int]]]:
    """(whether the graph of ``edges`` has a fractional k-factor, a start: some of its edges, degree <= k).

    Max flow y on the double cover: s -> u (capacity k), u -> v' (1) for each
    edge uv both ways, v' -> t (k), by Dinic's algorithm without recursion
    after a greedy pass; left u is node u, right v' is n + v.  A flow of n*k
    makes x_uv = (y_uv' + y_vu') / 2 a fractional k-factor; the start is its
    1-edges plus its 1/2-edges rounded by ``_euler_round``.  A shorter flow
    starts from its 1-edges.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for (u, v) in edges:
        adj[u].append(v)
        adj[v].append(u)
    on: set[int] = set()  # u * n + v for each unit on u -> v'; only tested, never iterated
    out, inn = [0] * n, [0] * n
    for u in range(n):
        for v in adj[u]:
            if out[u] < k and inn[v] < k:
                on.add(u * n + v)
                out[u] += 1
                inn[v] += 1
    flow = sum(out)
    while flow < n * k:
        level = [-1] * (2 * n)
        queue = [u for u in range(n) if out[u] < k]
        for u in queue:
            level[u] = 0
        top = -1  # the level of the first right vertices with room: t's, less one
        for x in queue:
            if 0 <= top <= level[x]:
                break
            for y in adj[x % n]:
                z = n + y if x < n else y
                if level[z] < 0 and (x * n + y not in on if x < n else y * n + x - n in on):
                    level[z] = level[x] + 1
                    queue.append(z)
                    if z >= n and inn[y] < k and top < 0:
                        top = level[z]
        if top < 0:
            break
        it = [0] * (2 * n)
        for root in range(n):
            path = [root] if level[root] == 0 else []
            while path and out[root] < k:
                x = path[-1]
                row, i, want = adj[x % n] if level[x] < top else [], it[x], level[x] + 1
                while i < len(row) and (level[row[i]] != want or row[i] * n + x - n not in on if x >= n
                                        else level[n + row[i]] != want or x * n + row[i] in on):
                    i += 1
                it[x] = i
                if i == len(row):  # a dead end (at t's level, a full right vertex): step back, skip its arc
                    path.pop()
                    if path:
                        it[path[-1]] += 1
                    continue
                path.append(row[i] if x >= n else n + row[i])
                if level[path[-1]] == top and inn[row[i]] < k:  # t: flip the path's arcs
                    on.update(path[j] * n + path[j + 1] - n for j in range(0, len(path), 2))
                    on.difference_update(path[j + 1] * n + path[j] - n for j in range(1, len(path) - 1, 2))
                    out[root] += 1
                    inn[row[i]] += 1
                    flow += 1
                    del path[1:]
    y = [(u * n + v in on) + (v * n + u in on) for (u, v) in edges]
    start = [e for e, w in zip(edges, y) if w == 2]
    if flow < n * k:
        return False, start
    return True, start + _euler_round(n, [e for e, w in zip(edges, y) if w == 1])


def _warm_gadget(n: int, k: int, edges: list[tuple[int, int]],
                 start: list[tuple[int, int]]) -> tuple[int, set[tuple[int, int]]]:
    """Grow ``start`` (degree <= k, inside ``edges``) into a largest degree-<=k edge set.

    Tutte's gadget: copies u*k .. u*k+k-1 of each vertex u, then two stubs per
    edge, in ``edges`` order, joined to each other and to every copy of their
    own end.  A start edge's stubs are matched to the lowest free copies of its
    ends, every other stub pair to itself.  A matched vertex stays matched, so
    an edge's stubs leave each other together, and the edge is chosen when they
    do.  Rows are built ascending; a vertex's copies share one.
    """
    fill = set(start)
    if 2 * len(fill) == n * k:
        return len(fill), fill
    stub_base = n * k
    at: list[list[int]] = [[] for _ in range(n)]  # the stubs at each vertex
    stub_rows: list[list[int]] = []
    match = [-1] * stub_base
    used = [0] * n  # copies of each vertex matched to a start edge's stub
    for j, (u, v) in enumerate(edges):
        su = stub_base + 2 * j
        at[u].append(su)
        at[v].append(su + 1)
        stub_rows += ([*range(u * k, u * k + k), su + 1], [*range(v * k, v * k + k), su])
        if (u, v) in fill:
            cu, cv = u * k + used[u], v * k + used[v]
            used[u] += 1
            used[v] += 1
            match[cu], match[cv] = su, su + 1
            match += (cu, cv)
        else:
            match += (su + 1, su)
    _maximize([row for row in at for _ in range(k)] + stub_rows, match)
    chosen = {e for j, e in enumerate(edges) if match[stub_base + 2 * j] < stub_base}
    return len(chosen), chosen


def max_degree_bounded_subgraph(h: SimpleGraph, k: int) -> tuple[int, set[tuple[int, int]]]:
    """Largest edge set of h with every vertex degree <= k.

    ``_flow_start`` gives a start of degree <= k; one blossom pass over
    Tutte's gadget grows it to a maximum, since an augmenting path the pass
    misses never appears later.  Cost: O(|E|^1.5) for the flow,
    O(n + |E| log |E|) for the rounding, and only if the start is short,
    O(|E| k) to build the gadget plus one search per missing edge end.
    """
    if k <= 0 or not h.edges:
        return 0, set()
    edges = h.sorted_edges()
    return _warm_gadget(h.n, k, edges, _flow_start(h.n, k, edges)[1])


def find_k_factor(h: SimpleGraph, k: int) -> set[tuple[int, int]] | None:
    """A k-regular spanning subgraph of h, or None if h has none; None with no gadget if no fractional one."""
    if k == 0:
        return set()
    if h.n * k % 2 != 0 or any(d < k for d in h.degrees()):
        return None
    edges = h.sorted_edges()
    full, start = _flow_start(h.n, k, edges)
    if not full:
        return None
    size, chosen = _warm_gadget(h.n, k, edges, start)
    return chosen if size == h.n * k // 2 else None


def _greedy_fill(r: SimpleGraph, k: int) -> set[tuple[int, int]] | None:
    """Pair off deficits greedily, avoiding r's edges; may fail, never lies."""
    return _pair_off([k] * r.n, r.edges)


def _circulant_fill(r: SimpleGraph, k: int) -> set[tuple[int, int]] | None:
    """Assemble the fill from whole circulant offset classes that avoid r.

    Rings of distinct offsets up to n/2 share no pair, so each is tested against r alone."""
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
        if any(edge(i, (i + off) % n) in r.edges for i in range(n)):
            continue
        fill.update(edge(i, (i + off) % n) for i in range(n))
        need -= 2
    if need != 0:
        return None
    return fill


def _two_switches(g: SimpleGraph):
    """Two-switches of g as new graphs: ab, cd -> ac, bd then ad, bc, over sorted edge pairs ab < cd."""
    edges = g.sorted_edges()
    for i, (a, b) in enumerate(edges):
        for (c, d) in edges[i + 1:]:
            if len({a, b, c, d}) < 4:
                continue
            for e1, e2 in ((edge(a, c), edge(b, d)), (edge(a, d), edge(b, c))):
                if e1 not in g.edges and e2 not in g.edges:
                    yield SimpleGraph(g.n, (g.edges - {(a, b), (c, d)}) | {e1, e2})


def _switch_repair(g: SimpleGraph, k: int) -> tuple[SimpleGraph, set[tuple[int, int]]]:
    """A graph with g's vertex degrees and a k-factor of it, reached by two-switches of g.

    While a maximum degree-<=k subgraph F has fewer than n*k/2 edges, apply the
    first switch in ``_two_switches`` order that makes F larger.  Kundu's theorem
    puts a k-factor in some realization; if no switch helps, raise, never guess.
    """
    target = g.n * k // 2
    size, fill = max_degree_bounded_subgraph(g, k)
    while size < target:
        for trial in _two_switches(g):
            trial_size, trial_fill = max_degree_bounded_subgraph(trial, k)
            if trial_size > size:
                g, size, fill = trial, trial_size, trial_fill
                break
        else:
            raise InternalInvariantError(f"no two-switch grows the degree-<={k} subgraph past {size} edges")
    return g, fill


def kundu_realize(pi, k: int, seed: int = 0) -> ColoredRealization:
    """Realization of pi with a k-regular residual class; black = the rest, white = non-edges.

    Deterministic: `seed` is accepted for compatibility and changes nothing.
    """
    return _kundu_realization(degree_sequence_checked(pi, k), k)


def _kundu_realization(ds: DegreeSequence, k: int) -> ColoredRealization:
    """``kundu_realize`` on a request that ``degree_sequence_checked`` has passed."""
    r = SimpleGraph(ds.n, _pair_off([d - k for d in ds.degrees], set()))  # HH(pi - k)
    fill = _greedy_fill(r, k)
    if fill is None:
        fill = _circulant_fill(r, k)
    if fill is None:
        fill = find_k_factor(r.complement(), k)
    if fill is None:  # switch HH(pi) into a realization of pi holding the fill
        r, fill = _switch_repair(SimpleGraph(ds.n, _pair_off(list(ds.degrees), set())), k)
    return ColoredRealization(ds.n, {RESIDUAL: fill, BLACK: r.edges - fill}, {RESIDUAL: k})
