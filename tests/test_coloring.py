import copy
import pickle
import random
from collections import Counter

import pytest

from factorpack import (
    certificate_from_realization,
    half_k_realization,
    kundu_realize,
    make_colored_realization,
    replay_trace,
    verify_certificate,
)
from factorpack.coloring import (
    BLACK,
    RESIDUAL,
    WHITE,
    Color,
    ColoredRealization,
    initial_coloring,
    one_factor,
    two_factor,
)
from factorpack.errors import (
    ConservationViolation,
    DuplicateEdge,
    MissingEdge,
    PreconditionViolated,
    RegularityViolation,
)
from factorpack.cli import _PIPELINES
from factorpack.graphs import edge
from tests.conftest import random_colored_realization
from tests.test_realize import _perfbench_corpus


def test_single_edge_realization():
    real = make_colored_realization(2, [((0, 1), BLACK)], {})
    assert real.degrees == (1, 1)


def test_one_vertex_has_an_empty_coloring():
    for real in (ColoredRealization(1, {}, {RESIDUAL: 0}), make_colored_realization(1, [], {}),
                 kundu_realize([0], 0)):
        assert real.degrees == (0,)
        assert real.coloring_map() == {} and real.edges_of(BLACK) == []
    assert verify_certificate([0], 0, certificate_from_realization(real, "kundu", 0)).passed
    with pytest.raises(ValueError):
        make_colored_realization(0, [], {})


def test_triangle_as_residual():
    real = make_colored_realization(3, [((0, 1), RESIDUAL), ((0, 2), RESIDUAL), ((1, 2), RESIDUAL)],
                                    {RESIDUAL: 2})
    assert real.degrees == (2, 2, 2)
    assert real.colored_neighbors(0, RESIDUAL) == [1, 2]
    assert real.colored_neighbors(0, WHITE) == []


def test_matching_class_on_k4():
    c = one_factor(0)
    asg = [((0, 1), c), ((2, 3), c), ((0, 2), WHITE), ((0, 3), WHITE), ((1, 2), WHITE), ((1, 3), WHITE)]
    real = make_colored_realization(4, asg, {c: 1})
    assert real.degrees == (1, 1, 1, 1)


def test_k4_with_black_rest_color_degree():
    c = one_factor(0)
    asg = [((0, 1), c), ((2, 3), c)] + [(e, BLACK) for e in [(0, 2), (0, 3), (1, 2), (1, 3)]]
    real = make_colored_realization(4, asg, {c: 1})
    assert len(real.colored_neighbors(0, BLACK)) == 2


def test_missing_and_duplicate_edges():
    with pytest.raises(MissingEdge):
        make_colored_realization(3, [((0, 1), BLACK), ((0, 2), BLACK)], {})
    with pytest.raises(DuplicateEdge):
        make_colored_realization(3, [((0, 1), BLACK), ((1, 0), WHITE), ((0, 2), BLACK), ((1, 2), BLACK)], {})


def test_constructor_rejects_pairs_outside_k_n_and_pairs_colored_twice():
    for classes in ({BLACK: [(3, 1)]}, {BLACK: [(0, 7)]}, {BLACK: [(2, 2)]}, {BLACK: [(-1, 2)]},
                    {WHITE: [(0, 1)]}, {WHITE: [(0, 1)], BLACK: [(0, 1)]}):
        with pytest.raises(ValueError):
            ColoredRealization(4, classes, {})
    for classes in ({BLACK: [(0, 1)], RESIDUAL: [(0, 1)]}, {one_factor(0): [(0, 1), (2, 3)], BLACK: [(2, 3)]}):
        with pytest.raises(DuplicateEdge):
            ColoredRealization(4, classes, {})
    assert ColoredRealization(4, {BLACK: [(1, 3), (1, 3)]}, {}).degrees == (0, 1, 0, 1)


def test_regularity_violation_names_vertex_and_class():
    asg = [((0, 1), RESIDUAL), ((0, 2), RESIDUAL), ((1, 2), WHITE)]
    with pytest.raises(RegularityViolation) as info:
        make_colored_realization(3, asg, {RESIDUAL: 2})
    assert info.value.color == RESIDUAL
    assert info.value.vertex in (1, 2)


def _state(real):
    """What a rejected batch must leave as it found: colors, per-class degree lists, class index, declared, trace.

    Degree lists and classes are compared by content: an all-zero list or an
    empty class reads as an absent one, and a rollback may drop or keep either.
    """
    return (real.coloring_map(), {c: list(deg) for c, deg in real._deg.items() if any(deg)},
            {c: set(es) for c, es in real._edges.items() if es}, dict(real.declared),
            len(real.trace.batches))


def _four_vertex_instance():
    c = one_factor(0)
    asg = [((0, 2), WHITE), ((1, 2), c), ((0, 3), c), ((1, 3), WHITE), ((0, 1), BLACK), ((2, 3), BLACK)]
    return make_colored_realization(4, asg, {c: 1}), c


def test_swap_batch_conserving_pair_swap():
    real, c = _four_vertex_instance()
    real.apply_swap_batch([((0, 2), c), ((1, 2), WHITE), ((0, 3), WHITE), ((1, 3), c)])
    assert real.color_of(0, 2) == c
    assert real.color_of(1, 3) == c


def test_swap_batch_rolls_back_on_conservation_failure():
    real, c = _four_vertex_instance()
    before = _state(real)
    with pytest.raises(ConservationViolation) as info:
        real.apply_swap_batch([((0, 2), c), ((1, 2), WHITE)])
    assert _state(real) == before
    assert info.value.delta != 0
    with pytest.raises(ConservationViolation):
        real.apply_swap_batch([((0, 1), WHITE)])
    assert _state(real) == before
    with pytest.raises(ConservationViolation):  # the batch adds a class to the index
        real.apply_swap_batch([((0, 2), one_factor(1))])
    assert _state(real) == before
    assert real.trace.batches == []


def test_swap_batch_rolls_back_a_failed_class_transition():
    real = kundu_realize([3] * 6, 3)
    before = _state(real)
    e = real.edges_of(RESIDUAL)[0]
    with pytest.raises(RegularityViolation):
        real.apply_swap_batch([(e, one_factor(0))], declared_updates={one_factor(0): 1})
    assert _state(real) == before
    real.validate()


def test_swap_batch_rejects_noop_and_duplicates():
    real, c = _four_vertex_instance()
    before = _state(real)
    with pytest.raises(PreconditionViolated):
        real.apply_swap_batch([((0, 2), WHITE)])
    assert _state(real) == before
    with pytest.raises(PreconditionViolated):
        real.apply_swap_batch([((0, 2), c), ((2, 0), BLACK)])
    assert _state(real) == before


def test_swap_batch_rejects_a_loop_before_any_change():
    real, c = _four_vertex_instance()
    before = _state(real)
    for batch in ([((2, 2), c)], [((0, 2), c), ((2, 2), c)], [((0, 2), c), ((1, 2), WHITE), ((3, 3), BLACK)]):
        with pytest.raises(ValueError, match="loop at vertex"):
            real.apply_swap_batch(batch)
        assert _state(real) == before


def test_empty_batch_is_identity():
    real, _ = _four_vertex_instance()
    before = real.coloring_map()
    real.apply_swap_batch([])
    assert real.coloring_map() == before
    assert len(real.trace.batches) == 1


def test_partition_totality():
    real, _ = _four_vertex_instance()
    for v in range(real.n):
        total = sum(real._deg[Color.parse(s)][v] for s in ("white", "black", "one:0"))
        assert total == real.n - 1


def test_trace_replay_reproduces_final_coloring():
    real, c = _four_vertex_instance()
    initial = real.coloring_map()
    real.apply_swap_batch([((0, 2), c), ((1, 2), WHITE), ((0, 3), WHITE), ((1, 3), c)])
    real.apply_swap_batch([((0, 2), WHITE), ((1, 2), c), ((0, 3), c), ((1, 3), WHITE)])
    assert replay_trace(real.n, initial, real.trace) == real.coloring_map()


def test_white_consistency_invariant():
    real, _ = _four_vertex_instance()
    for v in range(real.n):
        assert real._deg[WHITE][v] == real.n - 1 - real.degrees[v]


def test_out_of_range_edge_is_rejected_before_any_change():
    real = kundu_realize([3] * 6, 3)
    before = _state(real)
    classes = {c: real.edges_of(c) for c in (WHITE, BLACK, RESIDUAL)}
    first = real.edges_of(RESIDUAL)[0]
    for bad in ((0, 6), (6, 0), (-1, 2), (6, 7)):
        with pytest.raises(PreconditionViolated):
            real.color_of(*bad)
        with pytest.raises(PreconditionViolated):
            real.apply_swap_batch([(first, BLACK), (bad, BLACK)])
        assert _state(real) == before
        assert {c: real.edges_of(c) for c in classes} == classes
        real.validate()


def test_colors_are_interned():
    assert Color("one", 3) is one_factor(3) is Color.parse("one:3")
    assert Color("white") is WHITE and Color.parse("residual") is RESIDUAL
    for c in (WHITE, BLACK, one_factor(3), two_factor(0)):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(c, protocol)) is c
        assert copy.copy(c) is c
        assert copy.deepcopy([c])[0] is c
        for attempt in (lambda: setattr(c, "kind", "black"), lambda: delattr(c, "index"),
                        lambda: setattr(c, "extra", 1)):
            with pytest.raises(AttributeError):
                attempt()
    assert repr(one_factor(3)) == "Color(kind='one', index=3)" and one_factor(3).index == 3
    for _ in range(2):  # a rejected color never enters the cache
        with pytest.raises(ValueError):
            Color("one")
    for bad in (("white", 2), ("purple",)):
        with pytest.raises(ValueError):
            Color(*bad)


class FullValidation(ColoredRealization):
    """Reference realization: its check counts every class at every vertex from the coloring itself."""

    def validate(self):
        counts = Counter()
        for (u, v), c in self.coloring_map().items():
            counts[u, c] += 1
            counts[v, c] += 1
        for c in sorted(self.declared, key=Color.sort_key):
            if not c.is_factor:
                raise ValueError(f"{c} cannot be a declared class")
            for v in range(self.n):
                if counts[v, c] != self.declared[c]:
                    raise RegularityViolation(v, c, self.declared[c], counts[v, c])
        for v in range(self.n):
            if counts[v, WHITE] != self.n - 1 - self.degrees[v]:
                raise RegularityViolation(v, WHITE, self.n - 1 - self.degrees[v], counts[v, WHITE])


def _raised(call):
    try:
        call()
    except Exception as exc:  # the outcome under test is the exception itself
        return exc
    return None


def _outcome(call):
    exc = _raised(call)
    return None if exc is None else (type(exc), exc.args)


def _assert_index_matches_coloring(real, palette):
    colors = real.coloring_map()
    for c in palette:
        assert real.edges_of(c) == sorted(e for e, x in colors.items() if x is c), c
        assert real.class_graph(c).edges == {e for e, x in colors.items() if x is c}, c


def _alternating_swap(rng, real):
    """Swap the colors of an alternating 4-cycle a-b-d-c; None if the draws found none."""
    for _ in range(40):
        a, b, c, d = rng.sample(range(real.n), 4)
        x, y = real.color_of(a, b), real.color_of(a, c)
        if x is not y and real.color_of(c, d) is x and real.color_of(b, d) is y:
            return [((a, b), y), ((c, d), y), ((a, c), x), ((b, d), x)]
    return None


def _transition(rng, real):
    """Undeclare a factor class into black, or move it to a fresh class of its kind."""
    c = rng.choice(sorted(real.declared, key=Color.sort_key))
    edges = real.edges_of(c)
    if c.kind == "residual" or rng.random() < 0.3:
        return [(e, BLACK) for e in edges], {c: None}
    fresh = Color(c.kind, max(x.index for x in real.declared if x.kind == c.kind) + 1)
    return [(e, fresh) for e in edges], {c: None, fresh: real.declared[c]}


def _corrupted(rng, real, palette):
    """One to three random recolorings, which almost never keep every class regular."""
    batch = {}
    for _ in range(rng.randint(1, 3)):
        e = edge(*rng.sample(range(real.n), 2))
        options = [c for c in palette if c is not real.color_of(*e)]
        batch[e] = rng.choice(options)
    declared_updates = None
    if rng.random() < 0.3 and real.declared:
        c = rng.choice(sorted(real.declared, key=Color.sort_key))
        declared_updates = {c: real.declared[c]}
    return list(batch.items()), declared_updates


def _corrupted_transition(rng, real, how):
    """A class transition that breaks one check; None if ``real`` has nothing to break it with.

    ``how`` is "updated" (a class it declares fails away from its endpoints),
    "moved" (a class it does not update loses an edge) or "white" (a white
    degree changes at its endpoints).
    """
    declared = sorted(real.declared, key=Color.sort_key)
    loose = real.edges_of(BLACK) + real.edges_of(WHITE)
    if how == "updated":
        # one edge declared a 1-factor: every vertex off the edge lacks its match
        fresh = one_factor(1 + max((c.index for c in declared if c.kind == "one"), default=-1))
        return ([(rng.choice(loose), fresh)], {fresh: 1}) if loose else None
    if not declared or not loose:
        return None
    batch, updates = _transition(rng, real)
    if how == "moved":
        others = [c for c in declared if c not in updates and real.edges_of(c)]
        if not others:
            return None
        return batch + [(rng.choice(real.edges_of(rng.choice(others))), BLACK)], updates
    e = rng.choice(loose)
    return batch + [(e, WHITE if real.color_of(*e) is BLACK else BLACK)], updates


def test_index_and_endpoint_validation_match_full_scans():
    rng = random.Random(8128)
    bad_rng = random.Random(6)  # draws the corrupted transitions, so rng's draws are as before
    seen = Counter()
    for _trial in range(60):
        n = rng.randint(4, 9)
        real = random_colored_realization(rng, n)
        twin = FullValidation(n, {c: real.edges_of(c) for c in (BLACK, *real.declared)}, real.declared)
        assert twin.coloring_map() == real.coloring_map()
        for _step in range(12):
            palette = [WHITE, BLACK, *sorted(real.declared, key=Color.sort_key)]
            draw = rng.random()
            if draw < 0.4:
                batch, updates, kind = _alternating_swap(rng, real), None, "conserving"
                if batch is None:
                    continue
            elif draw < 0.55 and real.declared:
                (batch, updates), kind = _transition(rng, real), "transition"
            else:
                (batch, updates), kind = _corrupted(rng, real, palette), "corrupted"
            state = _state(real)
            got = _outcome(lambda: real.apply_swap_batch(batch, declared_updates=updates))
            assert got == _outcome(lambda: twin.apply_swap_batch(batch, declared_updates=updates))
            assert real.coloring_map() == twin.coloring_map()
            assert real.declared == twin.declared
            if got is None:
                seen[kind, "applied"] += 1
            else:
                assert kind == "corrupted", got
                assert _state(real) == state
                seen[kind, "rejected"] += 1
            real.validate()
            _assert_index_matches_coloring(real, [*palette, *real.declared])
        for how in ("updated", "moved", "white"):
            drawn = _corrupted_transition(bad_rng, real, how)
            if drawn is None:
                continue
            batch, updates = drawn
            before, state = real.coloring_map(), _state(real)
            got = _raised(lambda: real.apply_swap_batch(batch, declared_updates=updates))
            want = _raised(lambda: twin.apply_swap_batch(batch, declared_updates=updates))
            assert isinstance(got, RegularityViolation), got
            assert (type(got), got.args) == (type(want), want.args)
            endpoints = {x for e, _ in batch for x in e}
            if how == "updated":
                assert got.vertex not in endpoints and got.color is batch[0][1], got
            elif how == "moved":
                assert got.vertex in endpoints and got.color not in (*updates, WHITE), got
            else:
                assert got.vertex in endpoints and got.color is WHITE, got
            assert real.coloring_map() == twin.coloring_map() == before
            assert real.declared == twin.declared
            assert _state(real) == state
            seen["corrupted transition", how] += 1
    wanted = (("conserving", "applied"), ("transition", "applied"), ("corrupted", "rejected"),
              ("corrupted transition", "updated"), ("corrupted transition", "moved"),
              ("corrupted transition", "white"))
    assert all(seen[w] > 10 for w in wanted), seen


def edge_by_edge_counts(n: int, classes) -> dict:
    """Per-class degree lists, one update per edge end, white as n - 1 less the rest."""
    counts = {c: [0] * n for c in classes}
    for c, class_edges in classes.items():
        for e in class_edges:
            for x in e:
                counts[c][x] += 1
    counts[WHITE] = [n - 1 - sum(deg[x] for deg in counts.values()) for x in range(n)]
    return counts


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_counts_are_the_edge_by_edge_count_on_every_sweep_task(n):
    """Kundu's start and a rebuild of each pipeline's end, on every ``factorpack sweep`` task at n."""
    tasks = _perfbench_corpus().sweep_tasks(n)
    for mode, pi, k in tasks:
        start = kundu_realize(pi, k)
        classes = {c: start.edges_of(c) for c in (RESIDUAL, BLACK)}
        assert start._deg == edge_by_edge_counts(n, classes), (pi, k)
        end = _PIPELINES[mode][0](pi, k, 0)
        classes = {c: end.edges_of(c) for c in (BLACK, *end.declared)}
        rebuilt = ColoredRealization(n, classes, end.declared)
        assert rebuilt._deg == edge_by_edge_counts(n, classes), (mode, pi, k)
        assert _state(end)[1] == _state(rebuilt)[1], (mode, pi, k)
    assert len(tasks) > (0 if n < 8 else 500), len(tasks)


def test_half_k_at_n64_verifies_replays_and_keeps_the_index():
    pi, k = [16] * 64, 16
    real = half_k_realization(pi, k)
    cert = certificate_from_realization(real, "half-k", k)
    assert len(cert.one_factors) == k // 2 + 2
    assert verify_certificate(pi, k, cert).passed
    initial = initial_coloring(real)
    assert initial == kundu_realize(pi, k).coloring_map()
    assert replay_trace(real.n, initial, real.trace) == real.coloring_map()
    _assert_index_matches_coloring(real, [WHITE, BLACK, RESIDUAL, *real.declared])
