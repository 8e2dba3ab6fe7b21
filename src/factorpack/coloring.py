"""Edge colorings of K_n into white, black, and declared regular factor classes.

The model stores one color per unordered vertex pair in a dense triangular
array.  White marks non-edges of the realization, black marks realization
edges outside every declared factor, and each declared class (the residual
factor, indexed 1-factors, indexed 2-factors) must be regular of its declared
degree at every vertex.

Colors are interned: ``Color(kind, index)`` returns one shared instance per
pair, so comparing and hashing a color is a pointer operation.  Beside the
array, a realization keeps the edge set of every class except white, so
reading a class, as sorted edges or as ascending neighbour rows, costs its
size rather than a scan of K_n.  White, the complement of the realization,
is never indexed: no pipeline reads it, and indexing it would hold a set
entry for every non-edge.  Every class, white included, also keeps one
degree list, so a class checked at every vertex is one ``list.count``.  A
class transition costs the batch it applies plus one such count per class
it updates; white is rechecked only where the batch moved a white edge.  A
realization is built from its non-white classes, at their size; only this
module knows the order of the pairs in the array.

Values are safe to share for reading; all mutation goes through
``apply_swap_batch`` which requires exclusive access (no internal locking).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from operator import itemgetter

from .errors import (
    ConservationViolation,
    DuplicateEdge,
    MissingEdge,
    PreconditionViolated,
    RegularityViolation,
)
from .graphs import SimpleGraph, all_pairs, edge, neighbour_rows

# After a conserving batch (no declared_updates), recheck the regularity of
# every class at the batch's endpoints when True; rely on the per-vertex
# conservation check alone when False.  Conservation already proves that no
# count moved, so the recheck is a second guard.  A class transition is always
# revalidated: its updated classes at every vertex, the rest at its endpoints.
STRICT_VALIDATION = True

_KIND_ORDER = {"white": 0, "black": 1, "residual": 2, "one": 3, "two": 4}
_INTERNED: dict[tuple[str, int], "Color"] = {}


class Color:
    """Edge class id: white | black | residual | one(i) | two(i).

    Interned: one instance per (kind, index), so ``==`` and ``hash`` are
    identity.  Copies and unpickled colors are the interned instance too.
    """

    __slots__ = ("kind", "index")

    def __new__(cls, kind: str, index: int = -1) -> "Color":
        self = _INTERNED.get((kind, index))
        if self is None:
            if kind not in _KIND_ORDER:
                raise ValueError(f"unknown color kind {kind!r}")
            if kind in ("one", "two"):
                if index < 0:
                    raise ValueError(f"{kind} factor needs a non-negative index")
            elif index != -1:
                raise ValueError(f"{kind} carries no index")
            self = super().__new__(cls)
            object.__setattr__(self, "kind", kind)
            object.__setattr__(self, "index", index)
            _INTERNED[(kind, index)] = self
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Color is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return (Color, (self.kind, self.index))

    def __repr__(self) -> str:
        return f"Color(kind={self.kind!r}, index={self.index!r})"

    @property
    def is_factor(self) -> bool:
        return self.kind in ("residual", "one", "two")

    def sort_key(self) -> tuple[int, int]:
        return (_KIND_ORDER[self.kind], self.index)

    def __str__(self) -> str:
        if self.kind in ("one", "two"):
            return f"{self.kind}:{self.index}"
        return self.kind

    @staticmethod
    def parse(text: str) -> "Color":
        if ":" in text:
            kind, _, idx = text.partition(":")
            return Color(kind, int(idx))
        return Color(text)


WHITE = Color("white")
BLACK = Color("black")
RESIDUAL = Color("residual")


def one_factor(i: int) -> Color:
    return Color("one", i)


def two_factor(i: int) -> Color:
    return Color("two", i)


class DegreeSequence(namedtuple("DegreeSequence", "degrees")):
    """Non-increasing degree list: ``degrees``, a tuple of ints."""

    __slots__ = ()

    @classmethod
    def of(cls, values) -> "DegreeSequence":
        original = tuple(int(v) for v in values)
        n = len(original)
        for d in original:
            if d < 0 or d > max(n - 1, 0):
                raise ValueError(f"degree {d} out of range for n={n}")
        return cls(tuple(sorted(original, reverse=True)))

    @property
    def n(self) -> int:
        return len(self.degrees)


class Batch(namedtuple("Batch", "op params changes")):
    """One atomic recoloring: its ``op``, ``params`` dict and (edge, old color, new color) ``changes``."""

    __slots__ = ()


class SwitchTrace:
    """Replayable log of recoloring batches, in application order."""

    __slots__ = ("batches",)

    def __init__(self, batches: list[Batch] | None = None):
        self.batches = [] if batches is None else batches

    def __eq__(self, other):
        return self.batches == other.batches if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"SwitchTrace(batches={self.batches!r})"


def replay_trace(n: int, initial: dict[tuple[int, int], Color], trace: SwitchTrace) -> dict[tuple[int, int], Color]:
    """Apply a trace to an initial coloring; raises if any old color disagrees."""
    colors = dict(initial)
    for batch in trace.batches:
        for (e, old, new) in batch.changes:
            if colors[e] != old:
                raise ValueError(f"trace replay mismatch at {e}: have {colors[e]}, batch says {old}")
            colors[e] = new
    return colors


def initial_coloring(real: ColoredRealization) -> dict[tuple[int, int], Color]:
    """The coloring before the first batch of ``real.trace``: every batch undone, last first."""
    colors = real.coloring_map()
    for batch in reversed(real.trace.batches):
        for (e, old, _new) in reversed(batch.changes):
            colors[e] = old
    return colors


def _pair_index(n: int, u: int, v: int) -> int:
    # u < v assumed
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


class ColoredRealization:
    """K_n's pairs colored by ``classes``, each non-white color's edges (disjoint, u < v), and white."""

    def __init__(self, n: int, classes: dict[Color, Iterable[tuple[int, int]]],
                 declared: dict[Color, int]):
        if n < 1:
            raise ValueError("need at least one vertex")
        self.n = n
        self._colors = colors = [WHITE] * (n * (n - 1) // 2)
        self.declared = dict(declared)
        self.trace = SwitchTrace()
        # Edge set of every class except white, and degree list of every
        # class, white included; apply_swap_batch keeps both current.
        self._edges: dict[Color, set[tuple[int, int]]] = {}
        self._deg: dict[Color, list[int]] = {}
        for c, class_edges in classes.items():
            self._edges[c] = edges = set(class_edges)
            self._deg[c] = deg = [0] * n
            for (u, v) in edges:
                colors[u * (2 * n - u - 1) // 2 + v - u - 1] = c  # _pair_index, inline
                deg[u] += 1
                deg[v] += 1
        # Per-vertex realization degree, pinned at construction; switches must
        # never change it, so white's degree list must stay ``_white``.
        self.degrees = tuple(map(sum, zip(*self._deg.values()))) if classes else (0,) * n
        self._white = [n - 1 - d for d in self.degrees]
        self._deg[WHITE] = list(self._white)
        self.validate()

    # --- queries ---

    def _checked_edge(self, u: int, v: int) -> tuple[int, int]:
        """The canonical pair (u, v); raises unless it is an edge of K_n."""
        e = edge(u, v)
        if e[0] < 0 or e[1] >= self.n:
            raise PreconditionViolated(f"edge {e} out of range for n={self.n}")
        return e

    def color_of(self, u: int, v: int) -> Color:
        e = self._checked_edge(u, v)
        return self._colors[_pair_index(self.n, e[0], e[1])]

    def edges_of(self, c: Color) -> list[tuple[int, int]]:
        """Edges of color c, ascending.

        Every class but white is sorted out of its index, at the cost of the
        class's size; white scans the color array.
        """
        if c is WHITE:
            return [e for e, color in zip(all_pairs(self.n), self._colors) if color is WHITE]
        return sorted(self._edges.get(c, ()))

    def class_rows(self, c: Color) -> list[list[int]]:
        """Each vertex's neighbours in class c, ascending, built from the class index at its size."""
        return neighbour_rows(self.n, self.edges_of(WHITE) if c is WHITE else self._edges.get(c, ()))

    def class_graph(self, c: Color) -> SimpleGraph:
        edges = set(self.edges_of(WHITE)) if c is WHITE else set(self._edges.get(c, ()))
        return SimpleGraph(self.n, edges)

    def colored_neighbors(self, v: int, c: Color) -> list[int]:
        """Far endpoints of the c-colored edges at v, ascending (a scan of v's row)."""
        n, colors = self.n, self._colors
        out = [w for w in range(v) if colors[_pair_index(n, w, v)] is c]
        first = _pair_index(n, v, v + 1)  # pairs (v, v + 1) .. (v, n - 1) are contiguous
        out.extend(w for w, color in enumerate(colors[first:first + n - v - 1], v + 1) if color is c)
        return out

    def coloring_map(self) -> dict[tuple[int, int], Color]:
        return dict(zip(all_pairs(self.n), self._colors))

    def one_factor_count(self) -> int:
        return sum(1 for c in self.declared if c.kind == "one")

    # --- validation ---

    def validate(self, vertices=None) -> None:
        """Check declared regularity and that white degrees still match pi.

        ``vertices`` limits the check to those vertices.  After a batch that
        conserved every count, checking its endpoints raises exactly what the
        full check would: no other vertex's counts moved.
        """
        checked = None if vertices is None else sorted(vertices)
        self._check(lambda c: checked, checked)

    def _check(self, vertices_of, white_vertices) -> None:
        """Check each declared class at ``vertices_of(class)``, in ``Color.sort_key`` order, then white.

        None stands for every vertex: one ``list.count`` tests the class, and
        only a failing class is scanned, to name its first bad vertex.
        """
        n = self.n
        for c in sorted(self.declared, key=Color.sort_key):
            if not c.is_factor:
                raise ValueError(f"{c} cannot be a declared class")
            m = self.declared[c]
            deg = self._deg.get(c) or [0] * n
            vertices = vertices_of(c)
            if vertices is None:
                if deg.count(m) == n:
                    continue
                vertices = range(n)
            for v in vertices:
                if deg[v] != m:
                    raise RegularityViolation(v, c, m, deg[v])
        white, pinned = self._deg[WHITE], self._white
        if white_vertices is None:
            if white == pinned:
                return
            white_vertices = range(n)
        for v in white_vertices:
            if white[v] != pinned[v]:
                raise RegularityViolation(v, WHITE, pinned[v], white[v])

    def _check_transition(self, changes, runs, updated) -> None:
        """After a class transition, check what it can break; raises what ``validate()`` raises first.

        Every check passed before the batch, and only the batch's endpoints
        changed counts.  So a class in ``updated`` is checked at every vertex,
        and any other class, white included, only at the endpoints where the
        batch moved it: white not at all if no edge left or entered it.
        """
        moved_at: dict[Color, set[int]] = {}  # endpoints, for the checked classes not updated
        for (old, new, i, j) in runs:
            for c in (old, new):
                if c not in updated and (c is WHITE or c in self.declared):
                    moved_at.setdefault(c, set()).update(x for (e, _, _) in changes[i:j] for x in e)
        self._check(lambda c: None if c in updated else sorted(moved_at.get(c, ())),
                    sorted(moved_at.get(WHITE, ())))

    # --- mutation ---

    def apply_swap_batch(self, batch, op: str = "batch", params: dict | None = None,
                         declared_updates: dict[Color, int | None] | None = None) -> "ColoredRealization":
        """Atomically recolor the given (edge, new color) pairs.

        Without ``declared_updates`` every per-vertex per-color degree must be
        unchanged.  Deliberate class transitions pass ``declared_updates``
        (color -> new degree, or None to undeclare); the classes they update
        are then revalidated at every vertex, and the other classes the batch
        moved, white included, at the endpoints where it moved them.  If any
        check fails, the colors, the class index, the degree lists and the
        declared degrees are restored and the batch is not traced.  An edge
        outside K_n is rejected before anything changes.  Each run of equal
        (old, new) changes is applied with its index sets and degree lists
        looked up once.
        """
        n, colors, deg, index = self.n, self._colors, self._deg, self._edges
        changes: list[tuple[tuple[int, int], Color, Color]] = []
        slots: list[int] = []  # each change's place in the color array
        seen: set[int] = set()
        starts: list[tuple[Color, Color, int]] = []  # (old, new, first change) of each run of equal pairs
        run_old = run_new = None
        for ((u, v), new_color) in batch:
            if u > v:
                u, v = v, u
            elif u == v:
                raise ValueError(f"loop at vertex {u}")
            if u < 0 or v >= n:
                raise PreconditionViolated(f"edge {(u, v)} out of range for n={n}")
            slot = u * (2 * n - u - 1) // 2 + v - u - 1  # _pair_index, inline
            if slot in seen:
                raise PreconditionViolated(f"edge {(u, v)} appears twice in batch")
            seen.add(slot)
            old = colors[slot]
            if old is new_color:
                raise PreconditionViolated(f"edge {(u, v)} already has color {new_color}")
            if old is not run_old or new_color is not run_new:
                run_old, run_new = old, new_color
                starts.append((old, new_color, len(changes)))
            changes.append(((u, v), old, new_color))
            slots.append(slot)
        stops = [first for (_, _, first) in starts[1:]] + [len(changes)]
        runs = [(old, new, first, stop) for (old, new, first), stop in zip(starts, stops)]

        def apply(forward: bool):
            for (old, new, i, j) in runs:
                src, dst = (old, new) if forward else (new, old)
                out, into = deg[src], deg.setdefault(dst, [0] * n)
                for slot, ((u, v), _, _) in zip(slots[i:j], changes[i:j]):
                    colors[slot] = dst
                    out[u] -= 1
                    out[v] -= 1
                    into[u] += 1
                    into[v] += 1
                if src is not WHITE:
                    index[src].difference_update(map(itemgetter(0), changes[i:j]))
                if dst is not WHITE:
                    index.setdefault(dst, set()).update(map(itemgetter(0), changes[i:j]))

        apply(forward=True)
        declared = self.declared
        try:
            if declared_updates:
                self.declared = {c: m for c, m in {**declared, **declared_updates}.items()
                                 if m is not None}
            else:
                delta: dict[tuple[int, Color], int] = {}
                for (e, old, new) in changes:
                    for x in e:
                        delta[(x, old)] = delta.get((x, old), 0) - 1
                        delta[(x, new)] = delta.get((x, new), 0) + 1
                moved = [(x, c, d) for (x, c), d in delta.items() if d != 0]
                if moved:
                    raise ConservationViolation(*min(moved, key=lambda t: (t[0], t[1].sort_key())))
            if declared_updates:
                self._check_transition(changes, runs, declared_updates)
            elif STRICT_VALIDATION:
                self.validate({x for (e, _, _) in changes for x in e})
        except (ConservationViolation, RegularityViolation, ValueError):
            apply(forward=False)
            self.declared = declared
            raise
        self.trace.batches.append(Batch(op, dict(params or {}), tuple(changes)))
        return self


def make_colored_realization(n: int, assignments, declared_degrees: dict[Color, int]) -> ColoredRealization:
    """Build a realization from (edge, color) assignments that color each pair of K_n exactly once."""
    if n < 1:
        raise ValueError("need at least one vertex")
    seen: set[tuple[int, int]] = set()
    classes: dict[Color, list[tuple[int, int]]] = {}
    for (e, c) in assignments:
        e = edge(*e)
        if not (0 <= e[0] < e[1] < n):
            raise ValueError(f"edge {e} out of range for n={n}")
        if e in seen:
            raise DuplicateEdge(f"edge {e} assigned twice")
        seen.add(e)
        if c is not WHITE:
            classes.setdefault(c, []).append(e)
    if len(seen) < n * (n - 1) // 2:
        u, v = next(e for e in all_pairs(n) if e not in seen)
        raise MissingEdge(f"edge ({u}, {v}) has no color")
    return ColoredRealization(n, classes, declared_degrees)


class FactorCertificate(namedtuple(
        "FactorCertificate", "n pi k mode one_factors two_factors residual black_edges")):
    """Final deliverable: a realization split into declared factors plus leftovers.
    ``mode`` is kundu | four-ones | half-k; ``residual`` is (degree, edges), or None in half-k."""

    __slots__ = ()


def certificate_from_realization(real: ColoredRealization, mode: str, k: int) -> FactorCertificate:
    """Read the declared classes out of a realization, canonically sorted."""
    ones = sorted(
        (tuple(real.edges_of(c)) for c in real.declared if c.kind == "one"),
    )
    twos = sorted(
        (tuple(real.edges_of(c)) for c in real.declared if c.kind == "two"),
    )
    residual = None
    if mode in ("kundu", "four-ones"):
        degree = real.declared.get(RESIDUAL, 0)
        residual = (degree, tuple(real.edges_of(RESIDUAL)))
    return FactorCertificate(
        n=real.n,
        pi=tuple(sorted(real.degrees, reverse=True)),
        k=k,
        mode=mode,
        one_factors=tuple(ones),
        two_factors=tuple(twos),
        residual=residual,
        black_edges=tuple(real.edges_of(BLACK)),
    )
