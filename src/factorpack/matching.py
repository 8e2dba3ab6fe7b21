"""Maximum matchings and odd-cycle certificates for regular graphs.

In a regular graph a maximum matching can always be arranged so that every
uncovered vertex sits on its own odd cycle whose remaining vertices are
matched to cycle neighbours, alternating around the cycle, and the cycles of
distinct uncovered vertices are vertex-disjoint.  ``lemma_odd_certificate``
constructs that arrangement: it grows an alternating tree from each uncovered
vertex until the first blossom, a non-matching edge between two even-level
vertices (one must exist by a counting argument on regular graphs), closes the
odd cycle at the last common tree vertex, and relocates the uncovered vertex
onto the cycle by toggling the tree path.
"""

from __future__ import annotations

from collections import deque, namedtuple

from .errors import (
    InternalInvariantError,
    InvalidInitial,
    NotAlternating,
    NotRegular,
    OddLengthPath,
)
from .graphs import SimpleGraph, edge


class Matching(namedtuple("Matching", "edges")):
    """A set of pairwise vertex-disjoint edges: ``edges``, a frozenset."""

    __slots__ = ()

    @classmethod
    def from_edges(cls, edges) -> "Matching":
        canon = frozenset(edge(u, v) for (u, v) in edges)
        seen: set[int] = set()
        for (u, v) in canon:
            if u in seen or v in seen:
                raise InvalidInitial(f"vertex reused at edge ({u}, {v})")
            seen.add(u)
            seen.add(v)
        return cls(canon)

    @property
    def size(self) -> int:
        return len(self.edges)

    @property
    def covered(self) -> frozenset[int]:
        return frozenset(x for e in self.edges for x in e)

    def is_perfect(self, n: int) -> bool:
        return 2 * self.size == n

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


class OddCycleCertificate(namedtuple("OddCycleCertificate", "matching cycles rows")):
    """A maximum matching plus one fully matched odd cycle per uncovered vertex.

    ``cycles`` maps each uncovered vertex to its cycle, written starting at
    that vertex; consecutive pairs after it are matching edges.  ``rows`` are
    the host graph's ascending neighbour rows.
    """

    __slots__ = ()


def toggle_alternating_path(m: Matching, path) -> Matching:
    """Complement the matching along an even alternating path.

    The path starts at an uncovered vertex with a non-matching edge; the
    uncovered endpoint migrates to the far end.  Paths with no edges are a
    no-op.
    """
    path = list(path)
    if len(path) <= 1:
        return m
    if (len(path) - 1) % 2 != 0:
        raise OddLengthPath(f"path has {len(path) - 1} edges, need an even count")
    covered = m.covered
    if path[0] in covered:
        raise NotAlternating(f"path start {path[0]} is covered")
    edges = set(m.edges)
    for i in range(len(path) - 1):
        e = edge(path[i], path[i + 1])
        if i % 2 == 0:
            if e in edges:
                raise NotAlternating(f"edge {e} at offset {i} should be outside the matching")
            edges.add(e)
        else:
            if e not in edges:
                raise NotAlternating(f"edge {e} at offset {i} should be in the matching")
            edges.remove(e)
    return Matching.from_edges(edges)


def maximum_matching(g: SimpleGraph) -> Matching:
    """Maximum matching via alternating search with odd-cycle contraction."""
    n = g.n
    match = [-1] * n
    _maximize(g.adjacency(), match)
    return Matching.from_edges((v, match[v]) for v in range(n) if match[v] > v)


def _maximize(adj: list[list[int]], match: list[int]) -> None:
    """Grow ``match`` (each vertex's mate, -1 if uncovered) into a maximum matching, in place.

    ``adj`` rows are ascending and only read, so vertices may share one; a covered vertex stays covered.

    A root with an uncovered neighbour is matched to the first one in its
    row, without a search, at the cost of scanning the row up to it.  That
    edge is the search's first augmenting path: the search scans the root's
    whole row before it pops any other vertex, and no contraction puts an
    uncovered vertex in the tree.  Only the other roots pay for
    ``_augment_from``, whose cost is the tree it grows.
    """
    n = len(adj)
    # Search state shared by every root; each search puts back what it set.
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    for v in range(n):
        if match[v] == -1 and adj[v]:
            for w in adj[v]:
                if match[w] == -1:
                    match[v], match[w] = w, v
                    break
            else:
                _augment_from(v, adj, match, p, base, used)


def _augment_from(root: int, adj: list[list[int]], match: list[int],
                  p: list[int], base: list[int], used: list[bool]) -> bool:
    """Grow one alternating tree from uncovered ``root``; augment along the first path found.

    Edmonds' search with blossom contraction.  ``p`` (tree parents), ``base``
    (blossom bases) and ``used`` (outer vertices) are all -1, identity and
    False on entry, and are put back so on return.  The cost is proportional
    to the tree the search grows, not to the graph: only reached vertices are
    reset, the LCA walk marks bases in a set, and a contraction relabels only
    the members of the bases it merges (``members`` lists them per blossom
    base) instead of scanning every vertex.  Vertices a contraction makes
    outer join the queue in ascending id order, the order such a full scan
    would give, so the search visits vertices in one fixed order and
    ``maximum_matching`` returns the same edge set on every input.
    """
    used[root] = True
    reached = [root]  # every vertex whose p, base or used this search may set
    members: dict[int, list[int]] = {}  # blossom base -> every vertex with that base
    q: deque[int] = deque([root])

    def lca(a: int, b: int) -> int:
        walked = set()
        x = a
        while True:
            x = base[x]
            walked.add(x)
            if match[x] == -1:
                break
            x = p[match[x]]
        y = b
        while True:
            y = base[y]
            if y in walked:
                return y
            y = p[match[y]]

    def mark_path(v: int, b: int, child: int, merged: set[int]) -> None:
        while base[v] != b:
            merged.add(base[v])
            merged.add(base[match[v]])
            p[v] = child
            child = match[v]
            v = p[match[v]]

    try:
        while q:
            v = q.popleft()
            bv, mv = base[v], match[v]
            for to in adj[v]:
                if to == mv or base[to] == bv:
                    continue
                mt = match[to]
                if to == root or (mt != -1 and p[mt] != -1):
                    cur = lca(v, to)
                    merged: set[int] = set()
                    mark_path(v, cur, to, merged)
                    mark_path(to, cur, v, merged)
                    # merged never holds cur: the mate of cur, if any, is its tree parent.
                    blossom = members.setdefault(cur, [cur])
                    fresh = []
                    for b in merged:
                        group = members.pop(b, (b,))
                        blossom.extend(group)
                        for x in group:
                            base[x] = cur
                            if not used[x]:
                                used[x] = True
                                fresh.append(x)
                    fresh.sort()
                    q.extend(fresh)
                    bv = base[v]
                elif p[to] == -1:
                    p[to] = v
                    reached.append(to)
                    if mt == -1:
                        while to != -1:
                            pv = p[to]
                            ppv = match[pv]
                            match[to] = pv
                            match[pv] = to
                            to = ppv
                        return True
                    reached.append(mt)
                    used[mt] = True
                    q.append(mt)
        return False
    finally:
        for x in reached:
            p[x] = -1
            base[x] = x
            used[x] = False


def _first_odd_cycle(adj: list[list[int]], mate: list[int], root: int):
    """Grow the alternating tree from an uncovered root up to its first blossom.

    Breadth first, without contraction, rows in ascending order: the tree
    Edmonds' search grows before its first contraction.  Returns
    (parent, x, y) for the first edge x-y that joins two outer vertices.
    """
    parent: dict[int, int] = {root: -1}
    outer: set[int] = {root}
    q: deque[int] = deque([root])
    while q:
        x = q.popleft()
        for y in adj[x]:
            if y in outer:
                return parent, x, y
            if y in parent:
                continue
            z = mate[y]
            if z == -1:
                raise InternalInvariantError(
                    f"augmenting path from {root} to uncovered {y}: matching was not maximum"
                )
            parent[y] = x
            parent[z] = y
            outer.add(z)
            q.append(z)
    raise InternalInvariantError(f"no odd cycle reachable from uncovered vertex {root} in a regular graph")


def _tree_path(parent: dict[int, int], frm: int) -> list[int]:
    out = [frm]
    while parent[out[-1]] != -1:
        out.append(parent[out[-1]])
    out.reverse()  # root ... frm
    return out


def lemma_odd_certificate(adj: list[list[int]]) -> OddCycleCertificate:
    """Build the disjoint fully-matched-odd-cycle arrangement for a regular graph's ascending rows.

    Each uncovered vertex of one maximum matching, in ascending order, grows
    its tree to the first blossom; the matching is toggled along the stem, so
    the blossom's base becomes the uncovered vertex of that odd cycle.
    """
    if not adj or any(len(row) != len(adj[0]) for row in adj) or not adj[0]:
        raise NotRegular(f"graph degrees {sorted({len(row) for row in adj})} are not r-regular with r >= 1")
    mate = [-1] * len(adj)
    _maximize(adj, mate)
    cycles: dict[int, tuple[int, ...]] = {}
    claimed: set[int] = set()
    for v in [v for v, w in enumerate(mate) if w == -1]:
        parent, x, y = _first_odd_cycle(adj, mate, v)
        overlap = claimed.intersection(parent)
        if overlap:
            raise InternalInvariantError(
                f"alternating tree from {v} entered finished cycles at {sorted(overlap)}"
            )
        # the cycle closes at z, the last common vertex of the two root paths
        px, py = _tree_path(parent, x), _tree_path(parent, y)
        j = 0
        while j < min(len(px), len(py)) and px[j] == py[j]:
            j += 1
        z = px[j - 1]
        cycle = tuple(px[j - 1:]) + tuple(reversed(py[j:]))
        for a, b in zip(px[:j - 1:2], px[1:j:2]):  # the stem root ... z: v covered, z uncovered
            mate[a], mate[b] = b, a
        mate[z] = -1
        cycles[z] = _canonical_cycle(cycle, z)
        claimed.update(cycle)
    m = Matching(frozenset((v, w) for v, w in enumerate(mate) if w > v))
    return OddCycleCertificate(matching=m, cycles=cycles, rows=adj)


def _canonical_cycle(cycle: tuple[int, ...], start: int) -> tuple[int, ...]:
    """Rotate to `start` and orient toward its smaller cycle neighbour."""
    i = cycle.index(start)
    rot = cycle[i:] + cycle[:i]
    if rot[1] > rot[-1]:
        rot = (rot[0],) + tuple(reversed(rot[1:]))
    return rot


def check_odd_cycle_certificate(cert: OddCycleCertificate) -> list[str]:
    """Linear-scan soundness check; returns a list of violation strings."""
    m = cert.matching
    host = {(u, v) for u, row in enumerate(cert.rows) for v in row if u < v}
    problems: list[str] = []
    for (u, v) in m.edges:
        if (u, v) not in host:
            problems.append(f"matching edge ({u}, {v}) not in host graph")
    uncovered = set(range(len(cert.rows))) - m.covered
    if uncovered != set(cert.cycles):
        problems.append(f"cycle map keys {sorted(cert.cycles)} != uncovered {sorted(uncovered)}")
    seen: set[int] = set()
    for z, cycle in cert.cycles.items():
        if len(cycle) < 3 or len(cycle) % 2 == 0:
            problems.append(f"cycle at {z} has even or short length {len(cycle)}")
            continue
        if cycle[0] != z:
            problems.append(f"cycle at {z} does not start at it")
        if seen.intersection(cycle):
            problems.append(f"cycle at {z} overlaps another cycle")
        seen.update(cycle)
        for i in range(len(cycle)):
            e = edge(cycle[i], cycle[(i + 1) % len(cycle)])
            if e not in host:
                problems.append(f"cycle at {z} uses non-edge {e}")
        for i in range(1, len(cycle) - 1, 2):
            e = edge(cycle[i], cycle[i + 1])
            if e not in m.edges:
                problems.append(f"cycle at {z}: pair {e} not matched along the cycle")
    return problems
