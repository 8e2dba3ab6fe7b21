"""Independent brute-force ground truth, the conjecture checker, and the verifier.

Everything here is deliberately separate from the constructive machinery:
plain backtracking with explicit node budgets, so a "not found" answer is an
exhausted search, never a timeout.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, combinations_with_replacement

from .coloring import DegreeSequence, FactorCertificate
from .errors import BudgetExceeded, OddVertexCount
from .graphs import SimpleGraph, edge
from .matching import Matching
from .realize import degree_sequence_checked, erdos_gallai_graphic_raw


class _Budget:
    """Search-node counter: raises BudgetExceeded once more than `limit` nodes are ticked."""

    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int):
        self.nodes = 0
        self.limit = limit

    def tick(self):
        self.nodes += 1
        if self.nodes > self.limit:
            raise BudgetExceeded(self.nodes, self.limit)


def _enumerate_realizations(degrees: tuple[int, ...], visit, budget: _Budget):
    """DFS over labeled realizations (vertex i gets degrees[i]); calls visit(edges).

    Rows are chosen vertex by vertex among later vertices, pruned by residual
    graphicality.  visit returns a non-None value to stop the search; that
    value is returned.  Returns None when the space is exhausted.  The budget
    is ticked once per search node.
    """
    n = len(degrees)
    residual = list(degrees)
    edges: set[tuple[int, int]] = set()

    def feasible(start: int) -> bool:
        rest = sorted(residual[start:], reverse=True)
        return erdos_gallai_graphic_raw(rest)

    def rec(i: int):
        budget.tick()
        if i == n:
            if all(x == 0 for x in residual):
                return visit(set(edges))
            return None
        need = residual[i]
        candidates = [j for j in range(i + 1, n) if residual[j] > 0]
        if need > len(candidates):
            return None
        if need == 0:
            return rec(i + 1) if feasible(i + 1) else None
        for pick in combinations(candidates, need):
            for j in pick:
                residual[j] -= 1
                edges.add((i, j))
            residual[i] = 0
            if feasible(i + 1):
                result = rec(i + 1)
                if result is not None:
                    return result
            residual[i] = need
            for j in pick:
                residual[j] += 1
                edges.discard((i, j))
        return None

    return rec(0)


def bf_max_matching(g: SimpleGraph, budget: int = 2_000_000) -> tuple[int, Matching]:
    """Exact maximum matching by branch and bound over the lowest uncovered vertex."""
    n = g.n
    adj = g.adjacency()
    counter = _Budget(budget)
    covered = [False] * n
    best_size = -1
    best_edges: list[tuple[int, int]] = []
    chosen: list[tuple[int, int]] = []

    def rec(v: int):
        nonlocal best_size, best_edges
        counter.tick()
        while v < n and covered[v]:
            v += 1
        if v == n:
            if len(chosen) > best_size:
                best_size, best_edges = len(chosen), list(chosen)
            return
        free_tail = sum(1 for x in range(v, n) if not covered[x])
        if len(chosen) + free_tail // 2 <= best_size:
            return
        for w in adj[v]:
            if not covered[w]:
                covered[v] = covered[w] = True
                chosen.append(edge(v, w))
                rec(v + 1)
                chosen.pop()
                covered[v] = covered[w] = False
        rec(v + 1)

    rec(0)
    return max(best_size, 0), Matching.from_edges(best_edges)


def bf_disjoint_one_factors(g: SimpleGraph, t: int,
                            budget: int = 5_000_000) -> list[Matching] | None:
    """t pairwise edge-disjoint perfect matchings inside g, or None after exhaustion.

    Matchings are forced lexicographically increasing, which cuts the t!
    orderings of any witness without losing completeness.
    """
    n = g.n
    if t == 0:
        return []
    if n % 2 != 0:
        return None
    adj = g.adjacency()
    counter = _Budget(budget)
    used: set[tuple[int, int]] = set()
    found: list[list[tuple[int, int]]] = []

    def build(current: list[tuple[int, int]], prev_key):
        counter.tick()
        covered = {x for e in current for x in e}
        if len(covered) == n:
            key = tuple(sorted(current))
            if prev_key is not None and key <= prev_key:
                return None
            found.append(sorted(current))
            if len(found) == t:
                return found
            result = build([], key)
            if result is None:
                found.pop()
            return result
        v = min(x for x in range(n) if x not in covered)
        for w in adj[v]:
            if w in covered:
                continue
            e = edge(v, w)
            if e in used:
                continue
            used.add(e)
            current.append(e)
            result = build(current, prev_key)
            if result is not None:
                return result
            current.pop()
            used.discard(e)
        return None

    result = build([], None)
    if result is None:
        return None
    return [Matching.from_edges(m) for m in result]


def bf_conjecture_search(pi, k: int, realization_budget: int = 2_000_000,
                         matching_budget: int = 2_000_000):
    """Some realization of pi with k edge-disjoint perfect matchings, or None.

    The realization space is searched exhaustively (depth-first over adjacency
    rows with residual-graphicality pruning), so a None return is an
    exhaustively verified absence: a counterexample to the packing conjecture.
    Raises OddVertexCount for odd n, where no perfect matching exists.
    """
    ds = degree_sequence_checked(pi, k)
    if ds.n % 2 != 0:
        raise OddVertexCount(f"n={ds.n} must be even")

    def visit(edges: set[tuple[int, int]]):
        g = SimpleGraph(ds.n, set(edges))
        ms = bf_disjoint_one_factors(g, k, budget=matching_budget)
        if ms is None:
            return None
        return (g, ms)

    return _enumerate_realizations(ds.degrees, visit, _Budget(realization_budget))


def enumerate_graphic(n: int, d_max: int) -> list[DegreeSequence]:
    """All non-increasing graphic sequences of length n with entries <= d_max, ascending."""
    bound = min(d_max, n - 1) if n > 0 else 0
    out = []
    for asc in combinations_with_replacement(range(bound + 1), n):
        desc = tuple(reversed(asc))
        if erdos_gallai_graphic_raw(list(desc)):
            out.append(desc)
    out.sort()
    return [DegreeSequence.of(t) for t in out]


class VerifyReport(namedtuple("VerifyReport", "passed violations counts")):
    """Result of certificate verification; passed iff violations, a list of (name, detail), is empty."""

    __slots__ = ()


def verify_certificate(pi, k: int, cert: FactorCertificate) -> VerifyReport:
    """Check a certificate against the packing statements, reporting every violation."""
    ds = pi if isinstance(pi, DegreeSequence) else DegreeSequence.of(pi)
    violations: list[tuple[str, object]] = []
    ones, twos = len(cert.one_factors), len(cert.two_factors)
    residual_degree = cert.residual[0] if cert.residual is not None else 0
    counts = {
        "one_factors": ones,
        "two_factors": twos,
        "residual_degree": residual_degree,
        "residual_edges": len(cert.residual[1]) if cert.residual else 0,
        "black_edges": len(cert.black_edges),
    }

    if cert.n != ds.n or tuple(cert.pi) != ds.degrees or cert.k != k:
        violations.append(("MetadataMismatch", {"n": cert.n, "pi": list(cert.pi), "k": cert.k}))
        if cert.n != ds.n:
            # Nothing else is checkable against a vertex count pi does not have.
            return VerifyReport(passed=False, violations=violations, counts=counts)
    n = ds.n

    classes: list[tuple[str, tuple[tuple[int, int], ...]]] = []
    for i, m in enumerate(cert.one_factors):
        classes.append((f"one:{i}", tuple(m)))
    for i, f in enumerate(cert.two_factors):
        classes.append((f"two:{i}", tuple(f)))
    if cert.residual is not None:
        classes.append(("residual", tuple(cert.residual[1])))
    classes.append(("black", tuple(cert.black_edges)))

    seen: dict[tuple[int, int], str] = {}
    degree = [0] * n
    for name, edges in classes:
        for (u, v) in edges:
            if not (0 <= u < v < n):
                violations.append(("BadEdge", (name, (u, v))))
                continue
            if (u, v) in seen:
                violations.append(("ClassOverlap", ((u, v), seen[(u, v)], name)))
                continue
            seen[(u, v)] = name
            degree[u] += 1
            degree[v] += 1

    for v in range(n):
        if degree[v] != ds.degrees[v]:
            violations.append(("DegreeMismatch", (v, degree[v], ds.degrees[v])))

    for i, m in enumerate(cert.one_factors):
        touched: set[int] = set()
        bad = False
        for (u, v) in m:
            if u in touched or v in touched:
                violations.append(("NotPerfectMatching", (f"one:{i}", "vertex reused", (u, v))))
                bad = True
            touched.update((u, v))
        if not bad and len(touched) != n:
            missing = sorted(set(range(n)) - touched)
            violations.append(("NotPerfectMatching", (f"one:{i}", "uncovered", missing)))

    def off_degree(edges, want: int) -> list[int]:
        """The vertices whose degree in ``edges`` is not ``want``; out-of-range edges count at neither end."""
        deg = [0] * n
        for (u, v) in edges:
            if 0 <= u < v < n:
                deg[u] += 1
                deg[v] += 1
        return [v for v in range(n) if deg[v] != want]

    for i, f in enumerate(cert.two_factors):
        bad_vertices = off_degree(f, 2)
        if bad_vertices:
            violations.append(("NotTwoRegular", (f"two:{i}", bad_vertices)))

    if cert.residual is not None:
        bad_vertices = off_degree(cert.residual[1], residual_degree)
        if bad_vertices:
            violations.append(("ResidualNotRegular", (residual_degree, bad_vertices)))

    if cert.mode == "kundu":
        if ones or twos or residual_degree != k:
            violations.append(("CountMismatch", ("kundu", ones, twos, residual_degree)))
    elif cert.mode == "four-ones":
        if ones != min(k, 4) or twos != 0 or residual_degree != max(k - 4, 0):
            violations.append(("CountMismatch", ("four-ones", ones, twos, residual_degree)))
    elif cert.mode == "half-k":
        if ones != k // 2 + 2 or twos != 0 or cert.residual is not None:
            violations.append(("CountMismatch", ("half-k", ones, twos)))
    else:
        violations.append(("UnknownMode", cert.mode))
    return VerifyReport(passed=not violations, violations=violations, counts=counts)
