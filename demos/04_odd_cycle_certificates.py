#!/usr/bin/env python3
"""Walkthrough: maximum matchings in regular graphs, with odd-cycle certificates.

In a regular graph, a maximum matching can be arranged so that every vertex
it misses sits on its own odd cycle whose other vertices are matched along
the cycle, and those cycles are pairwise disjoint.  The certificate makes the
leftover structure explicit, and a brute-force search confirms maximality.
"""

from factorpack import SimpleGraph, bf_max_matching, lemma_odd_certificate
from factorpack.matching import check_odd_cycle_certificate

examples = {
    "triangle": SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]),
    "two triangles": SimpleGraph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    "petersen": SimpleGraph.from_edges(10, [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]),
}

for name, g in examples.items():
    cert = lemma_odd_certificate(g.adjacency())
    exact, _ = bf_max_matching(g)
    print(f"{name}: n={g.n}")
    print(f"  matching size {cert.matching.size} (brute force agrees: {exact})")
    print(f"  matching: {cert.matching.sorted_edges()}")
    if cert.cycles:
        for z, cyc in sorted(cert.cycles.items()):
            print(f"  uncovered vertex {z} lives on odd cycle {cyc}")
    else:
        print("  perfect matching, no uncovered vertices")
    problems = check_odd_cycle_certificate(cert)
    print(f"  certificate soundness scan: {'clean' if not problems else problems}")
    print()
