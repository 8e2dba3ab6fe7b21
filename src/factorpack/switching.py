"""Verified atomic recoloring moves between two vertices.

``multi_switch`` flips the colors of one length-two path from u to v by
chaining further length-two paths: each step consumes a fresh edge at u whose
color matches the previous path's edge at v, and the chain ends at the first
path whose v-side edge already has the terminal color (white or black,
depending on the mode).  Swapping the two colors inside every chained path
preserves each vertex's degree in every color while exchanging the colors of
the first path's two edges.

Degree counting makes the chain total: in white mode, u carries at least as
many edges of every non-white color as v (factor classes are regular and the
black counts follow the non-white degree inequality), so a fresh same-colored
edge at u always exists; black mode is the mirror image.

Two optional hint edges refine which edges may move.  ``z3_hint`` (at v) is
never recolored: if it shows up inside the chain, the swap set is restricted
to the first path plus everything after the hint, which leaves it untouched.
``z2_hint`` (at u) is consumed only in that event, taking over right after
the hint; otherwise it is skipped when choosing fresh edges.  Consequently at
most one of {first-chosen edge at u, z2_hint} ever changes color, and exactly
one of them participates in the applied swap set.
"""

from __future__ import annotations

from collections import namedtuple

from .coloring import BLACK, WHITE, Color, ColoredRealization
from .errors import ChainStuck, PreconditionViolated
from .graphs import edge


class MultiSwitchReport(namedtuple(
        "MultiSwitchReport", "chain midpoints swapped_indices z1 z3_appeared_at consumed")):
    """Audit record of one multi-switch (colors are pre-switch); its recolorings are the trace's last batch.

    ``swapped_indices`` (the applied swap set) and ``z3_appeared_at`` (where z3 showed up as the
    v-side edge, or None) are 1-based chain positions; ``consumed`` names which of z1/z2 joins
    the swap set, or None."""

    __slots__ = ()


def multi_switch(real: ColoredRealization, u: int, v: int, w: int, mode: Color,
                 z3_hint: tuple[int, int] | None = None,
                 z2_hint: tuple[int, int] | None = None):
    """Exchange the colors of the path edges {u,w} and {w,v}; returns (real, report)."""
    if mode not in (WHITE, BLACK):
        raise PreconditionViolated(f"mode must be white or black, got {mode}")
    if len({u, v, w}) != 3:
        raise PreconditionViolated(f"u={u}, v={v}, w={w} must be distinct")
    x1 = edge(u, w)
    y1 = edge(w, v)
    uv = edge(u, v)
    if real.color_of(*x1) != mode:
        raise PreconditionViolated(f"edge {x1} has color {real.color_of(*x1)}, expected {mode}")
    c = real.color_of(*y1)
    if c == mode:
        raise PreconditionViolated(f"edge {y1} already has the mode color {mode}")
    deg_u, deg_v = real.degrees[u], real.degrees[v]
    if mode == WHITE and deg_u < deg_v:
        raise PreconditionViolated(
            f"white mode needs deg(u) >= deg(v); got deg({u})={deg_u} < deg({v})={deg_v}")
    if mode == BLACK and deg_u > deg_v:
        raise PreconditionViolated(
            f"black mode needs deg(u) <= deg(v); got deg({u})={deg_u} > deg({v})={deg_v}")
    if z3_hint is not None:
        z3_hint = edge(*z3_hint)
        if v not in z3_hint or z3_hint == y1 or z3_hint == uv:
            raise PreconditionViolated(f"z3 hint {z3_hint} must touch v and differ from {y1} and {uv}")
        if real.color_of(*z3_hint) != c:
            raise PreconditionViolated(f"z3 hint {z3_hint} must carry color {c}")
    if z2_hint is not None:
        z2_hint = edge(*z2_hint)
        if z3_hint is None:
            raise PreconditionViolated("z2 hint requires a z3 hint")
        if u not in z2_hint or z2_hint == uv or z2_hint == x1:
            raise PreconditionViolated(f"z2 hint {z2_hint} must touch u and differ from {x1} and {uv}")
        if real.color_of(*z2_hint) != c:
            raise PreconditionViolated(f"z2 hint {z2_hint} must carry color {c}")

    xs: list[tuple[int, int]] = [x1]
    ys: list[tuple[int, int]] = [y1]
    x_colors: list[Color] = [mode]
    y_colors: list[Color] = [c]
    mids: list[int] = [w]
    used: set[tuple[int, int]] = {x1, uv}
    z3_at: int | None = None
    cur = c
    while cur != mode:
        if len(xs) > real.n:
            raise ChainStuck(f"chain between {u} and {v} exceeded {real.n} links")
        forced = (z2_hint is not None and z3_at is not None and len(ys) == z3_at)
        if forced:
            nxt = z2_hint
            if nxt in used or real.color_of(*nxt) != cur:
                raise ChainStuck(f"z2 hint {nxt} unusable when its turn came")
        else:
            skip_z2 = z2_hint is not None and z3_at is None
            cand = None
            for t in real.colored_neighbors(u, cur):
                e = edge(u, t)
                if e in used or (skip_z2 and e == z2_hint):
                    continue
                cand = e
                break
            if cand is None:
                raise ChainStuck(
                    f"no fresh {cur}-colored edge at {u}; the counting argument should forbid this")
            nxt = cand
        used.add(nxt)
        t = nxt[0] if nxt[1] == u else nxt[1]
        y = edge(t, v)
        xs.append(nxt)
        x_colors.append(cur)
        mids.append(t)
        ys.append(y)
        if z3_hint is not None and y == z3_hint and z3_at is None:
            z3_at = len(ys)
        cur = real.color_of(*y)
        y_colors.append(cur)

    r = len(xs)
    if r < 2:
        raise ChainStuck("chain shorter than two links")
    if z3_at is None:
        swapped = list(range(1, r + 1))
    else:
        swapped = [1] + list(range(z3_at + 1, r + 1))
    batch = []
    for i in swapped:
        xi, yi = xs[i - 1], ys[i - 1]
        cx, cy = x_colors[i - 1], y_colors[i - 1]
        if cx != cy:
            batch.append((xi, cy))
            batch.append((yi, cx))
    report = MultiSwitchReport(
        chain=tuple(((xs[i], x_colors[i]), (ys[i], y_colors[i])) for i in range(r)),
        midpoints=tuple(mids),
        swapped_indices=tuple(swapped),
        z1=xs[1],
        z3_appeared_at=z3_at,
        consumed="z1" if z3_at is None else ("z2" if z2_hint is not None else None),
    )
    real.apply_swap_batch(
        batch,
        op="multi_switch",
        params={
            "u": u, "v": v, "w": w, "mode": str(mode), "r": r,
            "z3_appeared": z3_at is not None,
        },
    )
    return real, report


def parallel_two_switch(real: ColoredRealization, e, f, g, h) -> ColoredRealization:
    """Swap the colors of two parallel same-colored pairs forming an alternating 4-cycle."""
    e, f, g, h = edge(*e), edge(*f), edge(*g), edge(*h)
    if len({e, f, g, h}) != 4:
        raise PreconditionViolated("the four edges must be distinct")
    alpha = real.color_of(*e)
    beta = real.color_of(*g)
    if real.color_of(*f) != alpha:
        raise PreconditionViolated(f"{e} and {f} must share a color")
    if real.color_of(*h) != beta:
        raise PreconditionViolated(f"{g} and {h} must share a color")
    if alpha == beta:
        raise PreconditionViolated("the two pairs must carry different colors")
    quad = set(e) | set(f)
    if len(quad) != 4 or (set(g) | set(h)) != quad:
        raise PreconditionViolated("the four edges must cover the same four vertices")
    for a, b in ((e, g), (e, h), (f, g), (f, h)):
        if len(set(a) & set(b)) != 1:
            raise PreconditionViolated(f"edges {a} and {b} must share exactly one vertex")
    real.apply_swap_batch(
        [(e, beta), (f, beta), (g, alpha), (h, alpha)],
        op="parallel_two_switch",
        params={"pair": [list(e), list(f)], "other": [list(g), list(h)]},
    )
    return real
