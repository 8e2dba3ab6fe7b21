import itertools

import pytest

from factorpack import (
    SimpleGraph,
    bf_conjecture_search,
    bf_disjoint_one_factors,
    bf_max_matching,
    enumerate_graphic,
    four_ones,
    verify_certificate,
)
from factorpack.coloring import FactorCertificate
from factorpack.errors import BudgetExceeded, NotGraphic, OddVertexCount
from factorpack.graphs import all_pairs


def cycle_graph(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_bf_max_matching_small():
    assert bf_max_matching(cycle_graph(3))[0] == 1
    assert bf_max_matching(cycle_graph(6))[0] == 3
    pet = SimpleGraph.from_edges(10, [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])
    assert bf_max_matching(pet)[0] == 5


def test_bf_max_matching_budget():
    k10 = SimpleGraph.from_edges(10, list(all_pairs(10)))
    with pytest.raises(BudgetExceeded):
        bf_max_matching(k10, budget=10)


def test_bf_disjoint_one_factors_examples():
    k4 = SimpleGraph.from_edges(4, list(all_pairs(4)))
    found = bf_disjoint_one_factors(k4, 3)
    assert found is not None and len(found) == 3
    assert {e for m in found for e in m.edges} == k4.edges
    c6 = cycle_graph(6)
    found = bf_disjoint_one_factors(c6, 2)
    assert found is not None and len(found) == 2
    two_tri = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert bf_disjoint_one_factors(two_tri, 1) is None
    for n in range(1, 6):  # zero matchings exist at every n; one needs even n
        k_n = SimpleGraph.from_edges(n, list(all_pairs(n)))
        assert bf_disjoint_one_factors(k_n, 0) == []
        assert (bf_disjoint_one_factors(k_n, 1) is None) == (n % 2 == 1)


def test_bf_conjecture_rejects_odd_n():
    for pi, k in (([2, 2, 2], 0), ([4, 4, 4, 4, 4], 2), ([0], 0)):
        with pytest.raises(OddVertexCount):
            bf_conjecture_search(pi, k)
    with pytest.raises(NotGraphic):  # the degree check comes first
        bf_conjecture_search([3, 3, 1, 1, 1], 1)


def test_bf_conjecture_trivial_cases():
    g, ms = bf_conjecture_search([1, 1], 1)
    assert g.sorted_edges() == [(0, 1)] and len(ms) == 1
    g, ms = bf_conjecture_search([2, 2, 2, 2], 2)
    assert len(ms) == 2
    assert {e for m in ms for e in m.edges} == g.edges


def test_bf_conjecture_quantifies_over_realizations():
    # the two-triangle realization of 2^6 has no perfect matching at all,
    # yet the search succeeds through a different realization
    two_tri = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert bf_max_matching(two_tri)[0] == 2
    result = bf_conjecture_search([2, 2, 2, 2, 2, 2], 2)
    assert result is not None
    g, ms = result
    assert len(ms) == 2
    for m in ms:
        assert m.is_perfect(6)
        assert m.edges <= g.edges


def brute_realizable_multisets(n):
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


def test_enumerate_graphic_small():
    assert [s.degrees for s in enumerate_graphic(2, 1)] == [(0, 0), (1, 1)]
    got = [s.degrees for s in enumerate_graphic(3, 2)]
    assert got == sorted(brute_realizable_multisets(3))
    assert got == [(0, 0, 0), (1, 1, 0), (2, 1, 1), (2, 2, 2)]
    n4 = [s.degrees for s in enumerate_graphic(4, 3)]
    assert (3, 3, 3, 3) in n4
    assert (3, 3, 1, 1) not in n4
    assert set(n4) == {m for m in brute_realizable_multisets(4)}


def test_verify_certificate_accepts_generated():
    cert = four_ones([3, 3, 3, 3], 3)
    report = verify_certificate([3, 3, 3, 3], 3, cert)
    assert report.passed and report.violations == []
    assert report.counts["one_factors"] == 3


def test_verify_certificate_catches_deleted_matching_edge():
    cert = four_ones([3, 3, 3, 3], 3)
    broken = FactorCertificate(
        n=cert.n, pi=cert.pi, k=cert.k, mode=cert.mode,
        one_factors=(cert.one_factors[0][1:],) + cert.one_factors[1:],
        two_factors=cert.two_factors, residual=cert.residual, black_edges=cert.black_edges)
    report = verify_certificate([3, 3, 3, 3], 3, broken)
    assert not report.passed
    kinds = {kind for kind, _ in report.violations}
    assert "NotPerfectMatching" in kinds


def test_verify_certificate_catches_shared_edge():
    cert = four_ones([3, 3, 3, 3], 3)
    shared = cert.one_factors[0][0]
    broken = FactorCertificate(
        n=cert.n, pi=cert.pi, k=cert.k, mode=cert.mode,
        one_factors=(cert.one_factors[0], (shared,) + cert.one_factors[1][1:])
        + cert.one_factors[2:],
        two_factors=cert.two_factors, residual=cert.residual, black_edges=cert.black_edges)
    report = verify_certificate([3, 3, 3, 3], 3, broken)
    assert not report.passed
    assert any(kind == "ClassOverlap" and witness[0] == shared
               for kind, witness in report.violations)


def test_verify_certificate_mode_counts():
    cert = four_ones([3, 3, 3, 3], 2)
    wrong_mode = FactorCertificate(
        n=cert.n, pi=cert.pi, k=cert.k, mode="half-k",
        one_factors=cert.one_factors, two_factors=cert.two_factors,
        residual=None, black_edges=cert.black_edges)
    report = verify_certificate([3, 3, 3, 3], 2, wrong_mode)
    assert any(kind == "CountMismatch" for kind, _ in report.violations)
