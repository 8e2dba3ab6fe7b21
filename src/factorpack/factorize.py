"""Pipelines that pack edge-disjoint regular factors into a realization.

``four_ones`` peels perfect matchings out of the k-regular residual class one
at a time.  Each peel computes one odd-cycle certificate of the residual
class (a maximum matching plus one fully matched odd cycle per uncovered
vertex) and merges its cycles in pairs: a residual edge between two cycles
bridges directly; otherwise a monotone degree triple on each cycle yields
four cross edges, and a case analysis (white switch, black switch, or a
parallel same-class pair resolved by a plain two-switch) always produces a
bridge while preserving every class's regularity.  With at most three peeled
1-factors present, the pigeonhole over the four cross edges makes the case
table total.  A merge recolors only edges with an endpoint in its two
cycles, so the certificate's other cycles stay valid for the later pairs.

``half_k`` peels four 1-factors for even k and three for odd k, which leaves
a residual of even degree k - 4 or k - 3.  It then trades that residual away:
it splits it into 2-factors (Euler orientation plus maximum matching) and
turns each 2-factor into a 1-factor by matching inside it, bridging odd
cycles with black edges, manufacturing a black bridge with a black-mode
multi-switch when none exists.  That makes 4 + (k - 4)/2 or
3 + (k - 3)/2 1-factors, floor(k/2) + 2 either way.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple

from .coloring import (
    BLACK,
    RESIDUAL,
    WHITE,
    Color,
    ColoredRealization,
    FactorCertificate,
    certificate_from_realization,
    one_factor,
    two_factor,
)
from .errors import (
    CaseAnalysisExhausted,
    ChainStuck,
    EvenCycle,
    InternalInvariantError,
    KTooSmall,
    NoResidual,
    NotEvenRegular,
    OddVertexCount,
    PreconditionViolated,
    TooManyOneFactors,
)
from .graphs import cycles_of_two_regular, edge, euler_circuit
from .matching import Matching, _maximize, lemma_odd_certificate
from .realize import _kundu_realization, degree_sequence_checked
from .switching import multi_switch, parallel_two_switch


class TripleChoice(namedtuple("TripleChoice", "cycle vertices direction")):
    """Three consecutive cycle vertices with non-increasing realization degrees.
    ``direction`` is +1 along the cycle's stored order, -1 against it."""

    __slots__ = ()


class CrossEdgeCase(namedtuple("CrossEdgeCase", "edges resolution")):
    """Resolution of the four cross edges between two monotone triples.
    ``resolution`` is "bridge" | "white-e<i>" | "black-e<i>" | "parallel-e1e4" | "parallel-e2e3"."""

    __slots__ = ()


def monotone_triple(cycle, degrees) -> TripleChoice:
    """First consecutive triple (a, b, c) along the cycle with d_a >= d_b >= d_c.

    Scans the stored direction start by start, then the reverse direction. An
    odd cycle always has one: strict alternation of the comparison direction
    is impossible at odd length.
    """
    cycle = tuple(cycle)
    size = len(cycle)
    if size % 2 == 0:
        raise EvenCycle(f"cycle of length {size}")
    if size < 3:
        raise PreconditionViolated(f"cycle of length {size} is too short")
    for direction in (1, -1):
        for s in range(size):
            a = cycle[s]
            b = cycle[(s + direction) % size]
            c = cycle[(s + 2 * direction) % size]
            if degrees[a] >= degrees[b] >= degrees[c]:
                return TripleChoice(cycle, (a, b, c), direction)
    raise InternalInvariantError(f"odd cycle {cycle} has no monotone triple")


def _cycle_neighbors(cycle: tuple[int, ...], x: int) -> tuple[int, int]:
    i = cycle.index(x)
    return cycle[(i - 1) % len(cycle)], cycle[(i + 1) % len(cycle)]


def _cycle_edge_at(cycle: tuple[int, ...], x: int, avoid: set[int]) -> tuple[int, int]:
    """The cycle edge at x whose far endpoint is outside `avoid` (unique by construction)."""
    for t in _cycle_neighbors(cycle, x):
        if t not in avoid:
            return edge(x, t)
    raise InternalInvariantError(f"no cycle edge at {x} avoiding {sorted(avoid)}")


def merge_odd_cycle_pair(real: ColoredRealization, matching: Matching, c1, c2, work: Color):
    """Extend the matching to cover both odd cycles; returns (real, matching, case).

    ``work`` holds the cycles and the matching: RESIDUAL when peeling, BLACK
    when converting a 2-factor recolored black; it picks the switch strategy.
    The merge recolors only edges with an endpoint in c1 or c2 and matches the
    pair among their cycle edges, those recolored edges and the bridge ("Why the
    two cycles suffice", docs/merge-cases.md).  ``case`` produced the bridge.
    """
    if work not in (RESIDUAL, BLACK):
        raise PreconditionViolated(f"odd cycles must lie in {RESIDUAL} or {BLACK}, not {work}")
    c1, c2 = tuple(c1), tuple(c2)
    for cyc in (c1, c2):
        if len(cyc) % 2 == 0 or len(cyc) < 3:
            raise PreconditionViolated(f"{cyc} is not an odd cycle")
    cycle_edges = [edge(cyc[i], cyc[(i + 1) % len(cyc)]) for cyc in (c1, c2) for i in range(len(cyc))]
    stray = [e for e in cycle_edges if e not in real._edges.get(work, ())]
    if stray:
        raise PreconditionViolated(f"cycle edge {stray[0]} has color {real.color_of(*stray[0])}, not {work}")
    vs = set(c1) | set(c2)
    if len(vs) != len(c1) + len(c2):
        raise PreconditionViolated("cycles share vertices")
    for (a, b) in matching.edges:
        if (a in vs) != (b in vs):
            raise PreconditionViolated(f"matching edge ({a}, {b}) straddles the cycle pair")

    first_batch = len(real.trace.batches)
    bridge = _least_bridge(real, c1, c2, work)
    if bridge is not None:
        case = CrossEdgeCase(edges=(bridge,) * 4, resolution="bridge")
    elif work == RESIDUAL:
        case = _switch_residual_pair(real, c1, c2)
    else:
        case = _switch_temp_black_pair(real, c1, c2)

    moved = {e: new for batch in real.trace.batches[first_batch:] for (e, _, new) in batch.changes}
    if any(vs.isdisjoint(e) for e in moved):
        raise InternalInvariantError("a merge recolored an edge with no endpoint in its two cycles")

    sub_edges = {e for e in cycle_edges if e not in moved}
    if bridge is not None:  # a bridging merge switches nothing, so nothing moved
        sub_edges.add(bridge)
    sub_edges.update(e for e, c in moved.items() if c is work and vs.issuperset(e))
    sub = _matching_on(sorted(vs), sub_edges)
    if sub.covered != frozenset(vs):
        raise ChainStuck(
            f"perfect matching over the merged cycles is missing {sorted(vs - set(sub.covered))}")

    kept = {e for e in matching.edges if e[0] not in vs}
    merged = Matching.from_edges(kept | sub.edges)
    if merged.size <= matching.size:
        raise InternalInvariantError("merge did not grow the matching")
    return real, merged, case


def _least_bridge(real: ColoredRealization, c1, c2, work: Color) -> tuple[int, int] | None:
    """The least ``work`` edge between the two cycles, or None.

    Walks the pairs (a, b), a < b, one endpoint on each cycle, in ascending
    order and stops at the first one in the class index.
    """
    class_edges = real._edges[work]
    sides = (sorted(c1), sorted(c2))
    side_of = {x: s for s, cyc in enumerate(sides) for x in cyc}
    for a in sorted(side_of):
        other = sides[1 - side_of[a]]
        for b in other[bisect_right(other, a):]:
            if (a, b) in class_edges:
                return (a, b)
    return None


def _matching_on(vertices: list[int], edges) -> Matching:
    """``maximum_matching`` of the graph on ``vertices`` (ascending) and ``edges``, built at its own size.

    Vertex ``vertices[i]`` becomes i.  The relabelling keeps the order of the
    ids, so ``_maximize`` searches the rows in the same order as it would on
    all n vertices and returns the same edges.
    """
    local = {x: i for i, x in enumerate(vertices)}
    rows: list[list[int]] = [[] for _ in vertices]
    for (a, b) in edges:
        rows[local[a]].append(local[b])
        rows[local[b]].append(local[a])
    for row in rows:
        row.sort()
    mate = [-1] * len(vertices)
    _maximize(rows, mate)
    return Matching(frozenset((vertices[i], vertices[j]) for i, j in enumerate(mate) if j > i))


def _switch_residual_pair(real: ColoredRealization, c1, c2) -> CrossEdgeCase:
    degrees = real.degrees
    t1 = monotone_triple(c1, degrees)
    t2 = monotone_triple(c2, degrees)
    if degrees[t1.vertices[1]] < degrees[t2.vertices[1]]:
        c1, c2, t1, t2 = c2, c1, t2, t1
    u1, u2, _u3 = t1.vertices
    v1, v2, v3 = t2.vertices
    quad = (edge(u1, v2), edge(u1, v3), edge(u2, v2), edge(u2, v3))
    colors = tuple(real.color_of(*e) for e in quad)

    for mode in (WHITE, BLACK):
        for pos, et in enumerate(quad):
            if colors[pos] != mode:
                continue
            a = u1 if u1 in et else u2
            b = v2 if v2 in et else v3
            if mode == WHITE:
                uu, ww = a, b
                vv = v3 if b == v2 else v2
                z3 = _cycle_edge_at(t2.cycle, vv, {v2, v3})
                z2 = _cycle_edge_at(t1.cycle, a, {u1, u2} - {a})
            else:
                uu, ww = b, a
                vv = u2 if a == u1 else u1
                z3 = _cycle_edge_at(t1.cycle, vv, {u1, u2})
                z2 = _cycle_edge_at(t2.cycle, b, {v2, v3} - {b})
            multi_switch(real, uu, vv, ww, mode, z3_hint=z3, z2_hint=z2)
            return CrossEdgeCase(quad, f"{mode.kind}-e{pos + 1}")

    if not all(c.kind == "one" for c in colors):
        raise CaseAnalysisExhausted(
            f"cross edges carry {[str(c) for c in colors]}: not covered by the case table")
    if colors[0] == colors[3]:
        pair, name = (quad[0], quad[3]), "parallel-e1e4"
    elif colors[1] == colors[2]:
        pair, name = (quad[1], quad[2]), "parallel-e2e3"
    else:
        raise CaseAnalysisExhausted(
            f"four 1-factor cross edges {[str(c) for c in colors]} with no parallel pair; "
            "unreachable with at most three 1-factors")
    parallel_two_switch(real, pair[0], pair[1], edge(u1, u2), edge(v2, v3))
    return CrossEdgeCase(quad, name)


def _switch_temp_black_pair(real: ColoredRealization, c1, c2) -> CrossEdgeCase:
    degrees = real.degrees
    pick = next(((ca, uu, vv) for ca, cb in ((c1, c2), (c2, c1)) for uu in sorted(ca)
                 for vv in sorted(cb) if degrees[uu] <= degrees[vv]), None)
    if pick is None:
        raise InternalInvariantError("no degree-ordered vertex pair across two cycles")
    ca, uu, vv = pick
    ww = min(_cycle_neighbors(tuple(ca), uu))
    x1 = edge(uu, ww)
    multi_switch(real, uu, vv, ww, BLACK)
    return CrossEdgeCase((x1,) * 4, "black-switch")


def peel_one_factor(real: ColoredRealization) -> ColoredRealization:
    """Move one perfect matching out of the residual class into a new 1-factor."""
    if RESIDUAL not in real.declared or real.declared[RESIDUAL] < 1:
        raise NoResidual("no residual class of degree >= 1")
    if real.one_factor_count() >= 4:
        raise TooManyOneFactors("already four 1-factors: the cross-edge pigeonhole expires")
    if real.n % 2 != 0:
        raise OddVertexCount(f"n={real.n} is odd")
    cert = lemma_odd_certificate(real.class_rows(RESIDUAL))
    return _complete_one_factor(
        real, RESIDUAL, cert.matching, [cert.cycles[h] for h in sorted(cert.cycles)],
        op="peel_one_factor", params={},
        declared_updates={RESIDUAL: real.declared[RESIDUAL] - 1})


def _complete_one_factor(real: ColoredRealization, work: Color, m: Matching, odd_cycles,
                         op: str, params: dict, declared_updates: dict) -> ColoredRealization:
    """Merge the odd cycles in consecutive pairs, then declare the perfect matching a 1-factor.

    The matching leaves ``work`` in one ``op`` batch whose params end with the
    new factor's ``index``.  ``m`` must cover every vertex outside the cycles.
    """
    if len(odd_cycles) % 2 != 0:
        raise InternalInvariantError("odd number of odd cycles on an even vertex count")
    for i in range(0, len(odd_cycles), 2):
        real, m, _case = merge_odd_cycle_pair(real, m, odd_cycles[i], odd_cycles[i + 1], work)
    if not m.edges <= real._edges[work]:
        e = min(m.edges - real._edges[work])
        raise InternalInvariantError(f"matching edge {e} left {work} during the merges")
    if not m.is_perfect(real.n):
        raise InternalInvariantError("the merges finished with an imperfect matching")
    idx = real.one_factor_count()
    new = one_factor(idx)
    real.apply_swap_batch(
        [(e, new) for e in m.sorted_edges()],
        op=op,
        params={**params, "index": idx},
        declared_updates={**declared_updates, new: 1},
    )
    return real


def petersen_two_factorize(adj: list[list[int]], r: int) -> list[list[tuple[int, int]]]:
    """Split a 2r-regular graph, given by its ascending rows, into r edge-disjoint spanning 2-regular subgraphs.

    Petersen's proof: an Euler circuit of each component gives every vertex r
    arcs out and r arcs in, so the arcs a -> b, as edges (a, n + b), form an
    r-regular bipartite graph.  Each of its perfect matchings is a 2-factor;
    remove one and the rest is (r - 1)-regular, so r matchings split the graph.
    """
    if any(len(row) != 2 * r for row in adj) or r < 0:
        raise NotEvenRegular(f"degrees {sorted({len(row) for row in adj})} are not constant 2r with r={r}")
    n = len(adj)
    rows: list[list[int]] = [[] for _ in range(2 * n)]
    for walk in euler_circuit(adj):
        for a, b in zip(walk, walk[1:]):
            rows[a].append(n + b)
            rows[n + b].append(a)
    for row in rows:
        row.sort()
    factors = []
    for _ in range(r):
        mate = [-1] * (2 * n)
        _maximize(rows, mate)
        if -1 in mate:
            raise InternalInvariantError("regular orientation lost its perfect matching")
        for a in range(n):
            rows[a].remove(mate[a])
            rows[mate[a]].remove(a)
        factors.append(sorted(edge(a, mate[a] - n) for a in range(n)))
    return factors


def convert_two_factor(real: ColoredRealization, f: Color) -> ColoredRealization:
    """Replace a 2-factor class by a 1-factor, shedding the rest of it to black."""
    if f.kind != "two" or f not in real.declared:
        raise PreconditionViolated(f"{f} is not a declared 2-factor class")
    if real.n % 2 != 0:
        raise OddVertexCount(f"n={real.n} is odd")
    rows = real.class_rows(f)
    cycles = cycles_of_two_regular(rows)
    real.apply_swap_batch(
        [((u, v), BLACK) for u, row in enumerate(rows) for v in row if v > u],
        op="temp_black",
        params={"factor": str(f)},
        declared_updates={f: None},
    )
    m = Matching.from_edges((cyc[i], cyc[i + 1]) for cyc in cycles if len(cyc) % 2 == 0
                            for i in range(0, len(cyc), 2))
    odd_cycles = [cyc for cyc in cycles if len(cyc) % 2 != 0]
    return _complete_one_factor(real, BLACK, m, odd_cycles,
                                op="convert_two_factor", params={"factor": str(f)},
                                declared_updates={})


def _peeled(pi, k: int, ones: int) -> ColoredRealization:
    """Kundu's realization of (pi, k), then ``ones`` peels; an odd n is refused before anything is built."""
    ds = degree_sequence_checked(pi, k)
    if ds.n % 2 != 0:
        raise OddVertexCount(f"n={ds.n} is odd")
    real = _kundu_realization(ds, k)
    for _ in range(ones):
        peel_one_factor(real)
    return real


def four_ones_realization(pi, k: int, seed: int = 0) -> ColoredRealization:
    """Realization with min(k, 4) peeled 1-factors and a max(k-4, 0)-regular residual."""
    if k < 1:
        raise PreconditionViolated(f"k must be >= 1, got {k}")
    return _peeled(pi, k, min(k, 4))


def four_ones(pi, k: int, seed: int = 0) -> FactorCertificate:
    """Certificate packing min(k, 4) 1-factors plus a (k-4)-regular residual into pi."""
    real = four_ones_realization(pi, k, seed)
    return certificate_from_realization(real, "four-ones", k)


def half_k(pi, k: int, seed: int = 0) -> FactorCertificate:
    """Certificate packing floor(k/2) + 2 edge-disjoint 1-factors into pi (k >= 4)."""
    return certificate_from_realization(half_k_realization(pi, k, seed), "half-k", k)


def half_k_realization(pi, k: int, seed: int = 0) -> ColoredRealization:
    """The realization behind ``half_k``, with its full recoloring trace.

    Peels 4 - k % 2 1-factors, so the residual has even degree, splits the
    residual into 2-factors and converts each one, highest index first, into
    a 1-factor.
    """
    if k < 4:
        raise KTooSmall(f"k must be >= 4 (got {k}); below that the target exceeds k itself")
    real = _peeled(pi, k, 4 - k % 2)
    residual_degree = real.declared[RESIDUAL]
    if residual_degree > 0:
        parts = petersen_two_factorize(real.class_rows(RESIDUAL), residual_degree // 2)
        declared_updates: dict[Color, int | None] = {RESIDUAL: 0}
        batch = []
        for j, part in enumerate(parts):
            two = two_factor(j)
            declared_updates[two] = 2
            batch.extend((e, two) for e in part)
        real.apply_swap_batch(batch, op="petersen_split",
                              params={"parts": len(parts)}, declared_updates=declared_updates)
        for j in reversed(range(len(parts))):
            convert_two_factor(real, two_factor(j))
    return real
