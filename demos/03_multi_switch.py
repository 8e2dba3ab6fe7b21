#!/usr/bin/env python3
"""Walkthrough: the multi-switch, a chained recoloring between two vertices.

The move flips the colors of one length-two path u - w - v while preserving
every vertex's degree in every color.  It does so by chaining further u-to-v
paths: each link consumes a fresh edge at u colored like the previous link's
edge at v, and the chain stops at the first v-side edge that already carries
the terminal color.
"""

from factorpack import make_colored_realization, multi_switch
from factorpack.coloring import RESIDUAL, WHITE
from factorpack.graphs import all_pairs, cycles_of_two_regular

# Two disjoint residual triangles; every cross edge is white.
triangles = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
assignments = [(e, RESIDUAL if e in triangles else WHITE) for e in all_pairs(6)]
real = make_colored_realization(6, assignments, {RESIDUAL: 2})

print("before: residual cycles:", cycles_of_two_regular(real.class_rows(RESIDUAL)))
print()
print("switch the white edge {1,4} against the residual edge {4,5} (u=1, v=5, w=4):")
real, report = multi_switch(real, u=1, v=5, w=4, mode=WHITE)

for i, (x, y) in enumerate(report.chain, start=1):
    print(f"  link {i}: x={x[0]} ({x[1]})   y={y[0]} ({y[1]})")
print("  swapped links:", report.swapped_indices)
print("  physical recolorings, the trace's last batch:")
for (e, old, new) in real.trace.batches[-1].changes:
    print(f"    {e}: {old} -> {new}")

print()
print("after: residual cycles:", cycles_of_two_regular(real.class_rows(RESIDUAL)))
print("residual degrees stayed regular:", real.class_graph(RESIDUAL).degrees())
print("realization degrees unchanged:", list(real.degrees))
print()
print("The two triangles merged into one 6-cycle: a perfect matching now exists")
print("inside the residual class, which is exactly what the factor pipelines need.")
