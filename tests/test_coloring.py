import pytest

from factorpack import kundu_realize, make_colored_realization, replay_trace
from factorpack.coloring import BLACK, RESIDUAL, WHITE, Color, one_factor
from factorpack.errors import (
    ConservationViolation,
    DuplicateEdge,
    MissingEdge,
    PreconditionViolated,
    RegularityViolation,
)
from factorpack.graphs import all_pairs


def test_single_edge_realization():
    real = make_colored_realization(2, [((0, 1), BLACK)], {})
    assert real.degrees == (1, 1)
    assert real.pi.degrees == (1, 1)


def test_triangle_as_residual():
    real = make_colored_realization(3, [((0, 1), RESIDUAL), ((0, 2), RESIDUAL), ((1, 2), RESIDUAL)],
                                    {RESIDUAL: 2})
    assert real.degrees == (2, 2, 2)
    assert real.color_degree(0, RESIDUAL) == 2
    assert real.color_degree(0, WHITE) == 0


def test_matching_class_on_k4():
    c = one_factor(0)
    asg = [((0, 1), c), ((2, 3), c), ((0, 2), WHITE), ((0, 3), WHITE), ((1, 2), WHITE), ((1, 3), WHITE)]
    real = make_colored_realization(4, asg, {c: 1})
    assert real.degrees == (1, 1, 1, 1)


def test_k4_with_black_rest_color_degree():
    c = one_factor(0)
    asg = [((0, 1), c), ((2, 3), c)] + [(e, BLACK) for e in [(0, 2), (0, 3), (1, 2), (1, 3)]]
    real = make_colored_realization(4, asg, {c: 1})
    assert real.color_degree(0, BLACK) == 2


def test_missing_and_duplicate_edges():
    with pytest.raises(MissingEdge):
        make_colored_realization(3, [((0, 1), BLACK), ((0, 2), BLACK)], {})
    with pytest.raises(DuplicateEdge):
        make_colored_realization(3, [((0, 1), BLACK), ((1, 0), WHITE), ((0, 2), BLACK), ((1, 2), BLACK)], {})


def test_regularity_violation_names_vertex_and_class():
    asg = [((0, 1), RESIDUAL), ((0, 2), RESIDUAL), ((1, 2), WHITE)]
    with pytest.raises(RegularityViolation) as info:
        make_colored_realization(3, asg, {RESIDUAL: 2})
    assert info.value.color == RESIDUAL
    assert info.value.vertex in (1, 2)


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
    before = real.coloring_map()
    with pytest.raises(ConservationViolation) as info:
        real.apply_swap_batch([((0, 2), c), ((1, 2), WHITE)])
    assert real.coloring_map() == before
    assert info.value.delta != 0
    with pytest.raises(ConservationViolation):
        real.apply_swap_batch([((0, 1), WHITE)])
    assert real.coloring_map() == before
    assert real.trace.batches == []


def test_swap_batch_rolls_back_a_failed_class_transition():
    real = kundu_realize([3] * 6, 3)
    before, declared, traced = real.coloring_map(), dict(real.declared), len(real.trace.batches)
    e = real.edges_of(RESIDUAL)[0]
    with pytest.raises(RegularityViolation):
        real.apply_swap_batch([(e, one_factor(0))], declared_updates={one_factor(0): 1})
    assert real.coloring_map() == before
    assert real.declared == declared
    assert len(real.trace.batches) == traced
    real.validate()


def test_swap_batch_rejects_noop_and_duplicates():
    real, c = _four_vertex_instance()
    with pytest.raises(PreconditionViolated):
        real.apply_swap_batch([((0, 2), WHITE)])
    with pytest.raises(PreconditionViolated):
        real.apply_swap_batch([((0, 2), c), ((2, 0), BLACK)])


def test_empty_batch_is_identity():
    real, _ = _four_vertex_instance()
    before = real.coloring_map()
    real.apply_swap_batch([])
    assert real.coloring_map() == before
    assert len(real.trace.batches) == 1


def test_partition_totality():
    real, _ = _four_vertex_instance()
    for v in range(real.n):
        total = sum(real.color_degree(v, Color.parse(s)) for s in ("white", "black", "one:0"))
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
        assert real.color_degree(v, WHITE) == real.n - 1 - real.degrees[v]
