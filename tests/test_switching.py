import random

import pytest

from factorpack import make_colored_realization, multi_switch, parallel_two_switch
from factorpack.coloring import BLACK, RESIDUAL, WHITE, one_factor
from factorpack.errors import PreconditionViolated
from factorpack.graphs import all_pairs, cycles_of_two_regular, edge
from tests.conftest import random_colored_realization, recount_colors


def four_vertex_instance():
    c = one_factor(0)
    asg = [((0, 2), WHITE), ((1, 2), c), ((0, 3), c), ((1, 3), WHITE),
           ((0, 1), BLACK), ((2, 3), BLACK)]
    return make_colored_realization(4, asg, {c: 1}), c


def residual_pair_of_triangles():
    tri = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
    asg = [(e, RESIDUAL if e in tri else WHITE) for e in all_pairs(6)]
    return make_colored_realization(6, asg, {RESIDUAL: 2})


def test_multi_switch_four_vertex_chain():
    real, c = four_vertex_instance()
    before = recount_colors(real)
    real, report = multi_switch(real, 0, 1, 2, WHITE)
    assert [x[0] for (x, y) in report.chain] == [(0, 2), (0, 3)]
    assert [y[0] for (x, y) in report.chain] == [(1, 2), (1, 3)]
    assert report.swapped_indices == (1, 2)
    assert real.color_of(0, 2) == c and real.color_of(1, 2) == WHITE
    assert real.color_of(0, 3) == WHITE and real.color_of(1, 3) == c
    assert recount_colors(real) == before


def test_multi_switch_guards_degree_inequality():
    # vertex 1 has realization degree 1, vertex 0 has 2: white mode requires deg(u) >= deg(v)
    asg = [((0, 1), BLACK), ((0, 2), BLACK), ((1, 2), WHITE)]
    real = make_colored_realization(3, asg, {})
    with pytest.raises(PreconditionViolated):
        multi_switch(real, 1, 0, 2, WHITE)


def test_multi_switch_merges_two_triangles_into_six_cycle():
    real = residual_pair_of_triangles()
    real, report = multi_switch(real, 1, 5, 4, WHITE)
    cycles = cycles_of_two_regular(real.class_rows(RESIDUAL))
    assert cycles == [(0, 2, 1, 4, 3, 5)]
    assert report.chain[-1][1][1] is WHITE
    assert real.class_graph(RESIDUAL).degrees() == [2] * 6


def test_multi_switch_rejects_bad_inputs():
    real, c = four_vertex_instance()
    with pytest.raises(PreconditionViolated):
        multi_switch(real, 0, 0, 2, WHITE)
    with pytest.raises(PreconditionViolated):
        multi_switch(real, 0, 1, 3, WHITE)  # x1 = (0,3) is not white
    with pytest.raises(PreconditionViolated):
        multi_switch(real, 0, 1, 2, BLACK)  # x1 = (0,2) is not black
    with pytest.raises(PreconditionViolated):
        multi_switch(real, 0, 1, 2, WHITE, z2_hint=(0, 3))  # z2 without z3


def z3_consumption_instance():
    """Residual two triangles plus a 1-factor routing the chain through z3."""
    res = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
    alpha = {(0, 5), (1, 3), (2, 4)}
    asg = []
    for e in all_pairs(6):
        if e in res:
            asg.append((e, RESIDUAL))
        elif e in alpha:
            asg.append((e, one_factor(0)))
        else:
            asg.append((e, WHITE))
    return make_colored_realization(6, asg, {RESIDUAL: 2, one_factor(0): 1})


def test_multi_switch_z3_consumption_forces_z2():
    real = z3_consumption_instance()
    before = recount_colors(real)
    real, report = multi_switch(real, 1, 5, 4, WHITE, z3_hint=(3, 5), z2_hint=(1, 2))
    assert report.z3_appeared_at == 3
    assert report.swapped_indices == (1, 4)
    assert report.consumed == "z2"
    # z1 and z3 keep their colors; z2 was recolored
    assert real.color_of(0, 1) == RESIDUAL
    assert real.color_of(3, 5) == RESIDUAL
    assert real.color_of(1, 2) != RESIDUAL
    # the goal pair flipped
    assert real.color_of(1, 4) == RESIDUAL
    assert real.color_of(4, 5) == WHITE
    assert recount_colors(real) == before
    assert real.class_graph(RESIDUAL).degrees() == [2] * 6


def vacuous_pair_instance():
    """3-regular residual prism; the chain passes a residual-residual pair that swaps nothing."""
    prism = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)}
    asg = [(e, RESIDUAL if e in prism else WHITE) for e in all_pairs(6)]
    return make_colored_realization(6, asg, {RESIDUAL: 3})


def test_multi_switch_vacuous_pair_keeps_z1_color():
    real = vacuous_pair_instance()
    before = recount_colors(real)
    real, report = multi_switch(real, 0, 4, 5, WHITE, z3_hint=(3, 4), z2_hint=(0, 3))
    assert report.swapped_indices == (1, 2, 3)
    assert report.z1 == (0, 1)
    # pair 2 is residual-residual: z1 participates in the swap set but keeps its color
    assert real.color_of(0, 1) == RESIDUAL
    assert real.color_of(0, 3) == RESIDUAL  # z2 skipped
    assert real.color_of(3, 4) == RESIDUAL  # z3 untouched
    applied_edges = {e for (e, _, _) in real.trace.batches[-1].changes}
    assert applied_edges == {(0, 5), (4, 5), (0, 2), (2, 4)}
    assert recount_colors(real) == before
    assert real.class_graph(RESIDUAL).degrees() == [3] * 6


def test_parallel_two_switch_keeps_matching_perfect():
    res = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
    of0 = {(0, 4), (1, 5), (2, 3)}
    of1 = {(0, 5), (1, 3), (2, 4)}
    of2 = {(1, 4), (0, 3), (2, 5)}
    asg = []
    for e in all_pairs(6):
        if e in res:
            asg.append((e, RESIDUAL))
        elif e in of0:
            asg.append((e, one_factor(0)))
        elif e in of1:
            asg.append((e, one_factor(1)))
        else:
            asg.append((e, one_factor(2)))
    real = make_colored_realization(6, asg, {RESIDUAL: 2, one_factor(0): 1,
                                             one_factor(1): 1, one_factor(2): 1})
    before = recount_colors(real)
    parallel_two_switch(real, (0, 4), (1, 5), (0, 1), (4, 5))
    assert recount_colors(real) == before
    assert sorted(real.edges_of(one_factor(0))) == [(0, 1), (2, 3), (4, 5)]
    cycles = cycles_of_two_regular(real.class_rows(RESIDUAL))
    assert len(cycles) == 1 and len(cycles[0]) == 6


def test_parallel_two_switch_classic_black_white():
    asg = [((0, 1), BLACK), ((2, 3), BLACK), ((0, 2), WHITE), ((1, 3), WHITE),
           ((0, 3), BLACK), ((1, 2), WHITE)]
    real = make_colored_realization(4, asg, {})
    parallel_two_switch(real, (0, 1), (2, 3), (0, 2), (1, 3))
    assert real.color_of(0, 1) == WHITE and real.color_of(2, 3) == WHITE
    assert real.color_of(0, 2) == BLACK and real.color_of(1, 3) == BLACK


def test_parallel_two_switch_rejects_shared_vertex_pairs():
    real, c = four_vertex_instance()
    with pytest.raises(PreconditionViolated):
        parallel_two_switch(real, (0, 2), (0, 3), (1, 2), (1, 3))


def sample_switch_config(rng, real):
    """Random valid multi-switch configuration on a random structured coloring."""
    n = real.n
    for _ in range(300):
        u, v, w = rng.sample(range(n), 3)
        x1 = real.color_of(u, w)
        if x1 == WHITE and real.degrees[u] >= real.degrees[v]:
            mode = WHITE
        elif x1 == BLACK and real.degrees[u] <= real.degrees[v]:
            mode = BLACK
        else:
            continue
        c = real.color_of(w, v)
        if c == mode:
            continue
        uv = edge(u, v)
        z3 = z2 = None
        v_spares = [edge(v, t) for t in real.colored_neighbors(v, c)
                    if edge(v, t) not in (edge(w, v), uv)]
        if v_spares and rng.random() < 0.7:
            z3 = rng.choice(v_spares)
            u_spares = [edge(u, t) for t in real.colored_neighbors(u, c) if edge(u, t) != uv]
            if len(u_spares) >= 2 and rng.random() < 0.7:
                z2 = rng.choice(u_spares)
        return (u, v, w, mode, z3, z2)
    return None


def check_switch_postconditions(real, before_counts, before_map, u, v, w, mode, z3, z2, report):
    # conservation, by independent recount
    assert recount_colors(real) == before_counts
    after_map = real.coloring_map()
    # locality: only edges at u or v moved
    for e, old in before_map.items():
        if after_map[e] != old:
            assert u in e or v in e, (e, u, v)
    # goal flip
    x1, y1 = edge(u, w), edge(w, v)
    assert after_map[x1] == before_map[y1]
    assert after_map[y1] == mode
    # z-edge guarantees
    if z3 is not None:
        assert after_map[z3] == before_map[z3]
    if z2 is not None:
        z1 = report.z1
        participates = {name for name, e in (("z1", z1), ("z2", z2)) if report.consumed == name}
        assert len(participates) == 1
        recolored = {e for (e, old, new) in real.trace.batches[-1].changes}
        assert not ({z1, z2} <= recolored)  # never both
    # exactly one mode-colored edge at u and at v changed
    u_mode = [e for e, old in before_map.items()
              if u in e and old == mode and after_map[e] != old]
    v_mode = [e for e, old in before_map.items()
              if v in e and old == mode and after_map[e] != old]
    assert u_mode == [x1]
    assert len(v_mode) == 1
    # chain bound
    assert len(report.chain) <= real.n - 1
    # midpoints distinct and avoid the endpoints
    assert len(set(report.midpoints)) == len(report.midpoints)
    assert u not in report.midpoints and v not in report.midpoints


def test_multi_switch_randomized_conservation():
    rng = random.Random(99)
    done = 0
    modes = {WHITE: 0, BLACK: 0}
    while done < 600:
        n = rng.choice([6, 7, 8, 9, 10, 11, 12])
        real = random_colored_realization(rng, n)
        cfg = sample_switch_config(rng, real)
        if cfg is None:
            continue
        u, v, w, mode, z3, z2 = cfg
        before_counts = recount_colors(real)
        before_map = real.coloring_map()
        real, report = multi_switch(real, u, v, w, mode, z3_hint=z3, z2_hint=z2)
        check_switch_postconditions(real, before_counts, before_map, u, v, w, mode, z3, z2, report)
        modes[mode] += 1
        done += 1
    assert modes[WHITE] > 0 and modes[BLACK] > 0


def test_multi_switch_replay_of_applied_batch_conserves():
    real = z3_consumption_instance()
    initial = real.coloring_map()
    real, report = multi_switch(real, 1, 5, 4, WHITE, z3_hint=(3, 5), z2_hint=(1, 2))
    fresh = make_colored_realization(6, list(initial.items()),
                                     {RESIDUAL: 2, one_factor(0): 1})
    fresh.apply_swap_batch([(e, new) for (e, _, new) in real.trace.batches[-1].changes])
    assert fresh.coloring_map() == real.coloring_map()
