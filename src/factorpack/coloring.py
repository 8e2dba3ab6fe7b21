"""Edge colorings of K_n into white, black, and declared regular factor classes.

The model stores one color per unordered vertex pair in a dense triangular
array.  White marks non-edges of the realization, black marks realization
edges outside every declared factor, and each declared class (the residual
factor, indexed 1-factors, indexed 2-factors) must be regular of its declared
degree at every vertex.

Values are safe to share for reading; all mutation goes through
``apply_swap_batch`` which requires exclusive access (no internal locking).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    ConservationViolation,
    DuplicateEdge,
    MissingEdge,
    PreconditionViolated,
    RegularityViolation,
)
from .graphs import SimpleGraph, all_pairs, edge

# Full class-regularity revalidation after every batch when True; endpoint-only
# conservation checks otherwise.  The switching proofs guarantee conservation,
# so release builds may turn this off; the test suite keeps it on.
STRICT_VALIDATION = True

_KIND_ORDER = {"white": 0, "black": 1, "residual": 2, "one": 3, "two": 4}


@dataclass(frozen=True)
class Color:
    """Edge class id: white | black | residual | one(i) | two(i)."""

    kind: str
    index: int = -1

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown color kind {self.kind!r}")
        if self.kind in ("one", "two"):
            if self.index < 0:
                raise ValueError(f"{self.kind} factor needs a non-negative index")
        elif self.index != -1:
            raise ValueError(f"{self.kind} carries no index")

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


@dataclass(frozen=True)
class DegreeSequence:
    """Non-increasing degree list; the as-given order is kept for reporting."""

    degrees: tuple[int, ...]
    original: tuple[int, ...]

    @classmethod
    def of(cls, values) -> "DegreeSequence":
        original = tuple(int(v) for v in values)
        n = len(original)
        for d in original:
            if d < 0 or d > max(n - 1, 0):
                raise ValueError(f"degree {d} out of range for n={n}")
        return cls(tuple(sorted(original, reverse=True)), original)

    @property
    def n(self) -> int:
        return len(self.degrees)


@dataclass(frozen=True)
class Batch:
    """One atomic recoloring: (edge, old color, new color) triples."""

    op: str
    params: dict
    changes: tuple[tuple[tuple[int, int], Color, Color], ...]


@dataclass
class SwitchTrace:
    """Replayable log of recoloring batches, in application order."""

    batches: list[Batch] = field(default_factory=list)


def replay_trace(n: int, initial: dict[tuple[int, int], Color], trace: SwitchTrace) -> dict[tuple[int, int], Color]:
    """Apply a trace to an initial coloring; raises if any old color disagrees."""
    colors = dict(initial)
    for batch in trace.batches:
        for (e, old, new) in batch.changes:
            if colors[e] != old:
                raise ValueError(f"trace replay mismatch at {e}: have {colors[e]}, batch says {old}")
            colors[e] = new
    return colors


def _pair_index(n: int, u: int, v: int) -> int:
    # u < v assumed
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


class ColoredRealization:
    """A total coloring of K_n's edges with validated regular factor classes."""

    def __init__(self, n: int, colors: list[Color], declared: dict[Color, int],
                 trace: SwitchTrace | None = None):
        if n < 2:
            raise ValueError("need at least two vertices")
        if len(colors) != n * (n - 1) // 2:
            raise ValueError("color array does not cover K_n")
        self.n = n
        self._colors = colors
        self.declared = dict(declared)
        self.trace = trace if trace is not None else SwitchTrace()
        self._counts: list[dict[Color, int]] = [dict() for _ in range(n)]
        for (u, v), c in zip(all_pairs(n), colors):
            self._counts[u][c] = self._counts[u].get(c, 0) + 1
            self._counts[v][c] = self._counts[v].get(c, 0) + 1
        # Per-vertex realization degree, pinned at construction; switches must
        # never change it (white counts stay n - 1 - d_v).
        self.degrees = tuple(n - 1 - self._counts[v].get(WHITE, 0) for v in range(n))
        self.validate()

    # --- queries ---

    def color_of(self, u: int, v: int) -> Color:
        e = edge(u, v)
        return self._colors[_pair_index(self.n, e[0], e[1])]

    def color_degree(self, v: int, c: Color) -> int:
        """Number of edges of color c incident to v."""
        return self._counts[v].get(c, 0)

    def edges_of(self, c: Color) -> list[tuple[int, int]]:
        """Edges of color c, ascending (``all_pairs`` walks the color array in order)."""
        return [e for e, color in zip(all_pairs(self.n), self._colors) if color == c]

    def class_graph(self, c: Color) -> SimpleGraph:
        return SimpleGraph(self.n, set(self.edges_of(c)))

    def colored_neighbors(self, v: int, c: Color) -> list[int]:
        """Far endpoints of the c-colored edges at v, ascending."""
        out = [w for w in range(self.n) if w != v and self.color_of(v, w) == c]
        return out

    @property
    def pi(self) -> DegreeSequence:
        return DegreeSequence.of(self.degrees)

    def coloring_map(self) -> dict[tuple[int, int], Color]:
        return dict(zip(all_pairs(self.n), self._colors))

    def one_factor_count(self) -> int:
        return sum(1 for c in self.declared if c.kind == "one")

    # --- validation ---

    def validate(self) -> None:
        """Check declared regularity and that white degrees still match pi."""
        for c in sorted(self.declared, key=Color.sort_key):
            if not c.is_factor:
                raise ValueError(f"{c} cannot be a declared class")
            m = self.declared[c]
            for v in range(self.n):
                actual = self._counts[v].get(c, 0)
                if actual != m:
                    raise RegularityViolation(v, c, m, actual)
        for v in range(self.n):
            non_white = self.n - 1 - self._counts[v].get(WHITE, 0)
            if non_white != self.degrees[v]:
                raise RegularityViolation(v, WHITE, self.n - 1 - self.degrees[v],
                                          self._counts[v].get(WHITE, 0))

    # --- mutation ---

    def apply_swap_batch(self, batch, op: str = "batch", params: dict | None = None,
                         declared_updates: dict[Color, int | None] | None = None) -> "ColoredRealization":
        """Atomically recolor the given (edge, new color) pairs.

        Without ``declared_updates`` every per-vertex per-color degree must be
        unchanged.  Deliberate class transitions pass ``declared_updates``
        (color -> new degree, or None to undeclare), and the declared classes
        are then revalidated.  If any check fails, the colors and the declared
        degrees are restored and the batch is not traced.
        """
        seen: set[tuple[int, int]] = set()
        changes: list[tuple[tuple[int, int], Color, Color]] = []
        for (e, new_color) in batch:
            e = edge(*e)
            if e in seen:
                raise PreconditionViolated(f"edge {e} appears twice in batch")
            seen.add(e)
            old = self._colors[_pair_index(self.n, *e)]
            if old == new_color:
                raise PreconditionViolated(f"edge {e} already has color {new_color}")
            changes.append((e, old, new_color))

        def apply(forward: bool):
            for (e, old, new) in changes:
                src, dst = (old, new) if forward else (new, old)
                self._colors[_pair_index(self.n, *e)] = dst
                for x in e:
                    self._counts[x][src] -= 1
                    if self._counts[x][src] == 0:
                        del self._counts[x][src]
                    self._counts[x][dst] = self._counts[x].get(dst, 0) + 1

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
                for (x, c), d in sorted(delta.items(), key=lambda it: (it[0][0], it[0][1].sort_key())):
                    if d != 0:
                        raise ConservationViolation(x, c, d)
            if STRICT_VALIDATION or declared_updates:
                self.validate()
        except (ConservationViolation, RegularityViolation, ValueError):
            apply(forward=False)
            self.declared = declared
            raise
        self.trace.batches.append(Batch(op, dict(params or {}), tuple(changes)))
        return self


def make_colored_realization(n: int, assignments, declared_degrees: dict[Color, int]) -> ColoredRealization:
    """Build a realization from explicit (edge, color) assignments covering K_n."""
    if n < 2:
        raise ValueError("need at least two vertices")
    total = n * (n - 1) // 2
    colors: list[Color | None] = [None] * total
    for (e, c) in assignments:
        e = edge(*e)
        if not (0 <= e[0] < e[1] < n):
            raise ValueError(f"edge {e} out of range for n={n}")
        idx = _pair_index(n, *e)
        if colors[idx] is not None:
            raise DuplicateEdge(f"edge {e} assigned twice")
        colors[idx] = c
    for (u, v) in all_pairs(n):
        if colors[_pair_index(n, u, v)] is None:
            raise MissingEdge(f"edge ({u}, {v}) has no color")
    return ColoredRealization(n, colors, declared_degrees)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FactorCertificate:
    """Final deliverable: a realization split into declared factors plus leftovers."""

    n: int
    pi: tuple[int, ...]
    k: int
    mode: str  # kundu | four-ones | half-k
    one_factors: tuple[tuple[tuple[int, int], ...], ...]
    two_factors: tuple[tuple[tuple[int, int], ...], ...]
    residual: tuple[int, tuple[tuple[int, int], ...]] | None
    black_edges: tuple[tuple[int, int], ...]


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
