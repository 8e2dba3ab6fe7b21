import importlib.util
import itertools
import random

import pytest

from factorpack import (
    Matching,
    SimpleGraph,
    bf_disjoint_one_factors,
    certificate_from_realization,
    convert_two_factor,
    four_ones,
    four_ones_realization,
    half_k,
    half_k_realization,
    kundu_realize,
    merge_odd_cycle_pair,
    monotone_triple,
    parallel_two_switch,
    peel_one_factor,
    petersen_two_factorize,
    replay_trace,
    verify_certificate,
)
from factorpack.coloring import (
    BLACK,
    RESIDUAL,
    WHITE,
    Color,
    ColoredRealization,
    DegreeSequence,
    initial_coloring,
    make_colored_realization,
    one_factor,
    two_factor,
)
from factorpack.errors import (
    EvenCycle,
    InternalInvariantError,
    KTooSmall,
    NoResidual,
    NotEvenRegular,
    NotGraphic,
    NotGraphicMinusK,
    OddVertexCount,
    PreconditionViolated,
    TooManyOneFactors,
)
from factorpack.graphs import all_pairs, connected_components, cycles_of_two_regular, edge
from factorpack.oracle import enumerate_graphic
from factorpack.realize import erdos_gallai_graphic_raw
from tests.conftest import random_colored_realization, recount_colors


# --- monotone triples ---

def test_monotone_triple_triangle():
    choice = monotone_triple((0, 1, 2), {0: 1, 1: 2, 2: 3})
    assert choice.vertices == (2, 1, 0)


def test_monotone_triple_c5_unique_reverse():
    cycle = (0, 1, 2, 3, 4)
    degrees = {0: 5, 1: 1, 2: 4, 3: 2, 4: 3}
    # oracle: scan all 10 directed consecutive triples by hand
    monotone = []
    for direction in (1, -1):
        for s in range(5):
            a, b, c = (cycle[s], cycle[(s + direction) % 5], cycle[(s + 2 * direction) % 5])
            if degrees[a] >= degrees[b] >= degrees[c]:
                monotone.append((a, b, c))
    assert monotone == [(0, 4, 3)]
    choice = monotone_triple(cycle, degrees)
    assert choice.vertices == (0, 4, 3)
    assert choice.direction == -1


def test_monotone_triple_all_equal_and_even_rejection():
    assert monotone_triple((0, 1, 2, 3, 4), {v: 2 for v in range(5)}).vertices == (0, 1, 2)
    with pytest.raises(EvenCycle):
        monotone_triple((0, 1, 2, 3), {v: 1 for v in range(4)})


# --- merge_odd_cycle_pair ---

def prism_with_partial_matching():
    prism = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)}
    asg = [(e, RESIDUAL if e in prism else WHITE) for e in all_pairs(6)]
    real = make_colored_realization(6, asg, {RESIDUAL: 3})
    return real, Matching.from_edges([(1, 2), (4, 5)])


def test_merge_direct_bridge():
    real, m = prism_with_partial_matching()
    real, merged, case = merge_odd_cycle_pair(real, m, (0, 1, 2), (3, 4, 5), RESIDUAL)
    assert case.resolution == "bridge"
    assert merged.size == 3
    assert merged.covered == frozenset(range(6))


def test_merge_white_switch_two_triangles():
    tri = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
    asg = [(e, RESIDUAL if e in tri else WHITE) for e in all_pairs(6)]
    real = make_colored_realization(6, asg, {RESIDUAL: 2})
    m = Matching.from_edges([(1, 2), (4, 5)])
    before = recount_colors(real)
    real, merged, case = merge_odd_cycle_pair(real, m, (0, 1, 2), (3, 4, 5), RESIDUAL)
    assert case.resolution.startswith("white")
    assert merged.is_perfect(6)
    assert recount_colors(real) == before
    assert real.class_graph(RESIDUAL).degrees() == [2] * 6
    for e in merged.edges:
        assert real.color_of(*e) == RESIDUAL


def k6_parallel_pair_instance():
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
    return make_colored_realization(6, asg, {RESIDUAL: 2, one_factor(0): 1,
                                             one_factor(1): 1, one_factor(2): 1})


def test_merge_parallel_pair_case():
    real = k6_parallel_pair_instance()
    m = Matching.from_edges([(1, 2), (4, 5)])
    before = recount_colors(real)
    real, merged, case = merge_odd_cycle_pair(real, m, (0, 1, 2), (3, 4, 5), RESIDUAL)
    assert case.resolution.startswith("parallel")
    assert merged.is_perfect(6)
    assert recount_colors(real) == before
    for i in range(3):
        edges = real.edges_of(one_factor(i))
        assert len(edges) == 3 and len({x for e in edges for x in e}) == 6


# --- peel_one_factor ---

def test_peel_k4():
    real = kundu_realize([3, 3, 3, 3], 3)
    peel_one_factor(real)
    assert real.declared[RESIDUAL] == 2
    assert real.declared[one_factor(0)] == 1
    assert real.class_graph(one_factor(0)).degrees() == [1] * 4


def test_peel_two_triangle_residual_uses_a_switch():
    tri = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
    asg = [(e, RESIDUAL if e in tri else WHITE) for e in all_pairs(6)]
    real = make_colored_realization(6, asg, {RESIDUAL: 2})
    peel_one_factor(real)
    assert real.declared[RESIDUAL] == 1
    assert real.class_graph(one_factor(0)).degrees() == [1] * 6
    assert real.class_graph(RESIDUAL).degrees() == [1] * 6
    assert any(b.op == "multi_switch" for b in real.trace.batches)


def test_peel_residual_already_perfect_matching():
    pm = {(0, 1), (2, 3)}
    asg = [(e, RESIDUAL if e in pm else WHITE) for e in all_pairs(4)]
    real = make_colored_realization(4, asg, {RESIDUAL: 1})
    peel_one_factor(real)
    assert real.declared[RESIDUAL] == 0
    assert real.edges_of(RESIDUAL) == []
    assert sorted(real.edges_of(one_factor(0))) == [(0, 1), (2, 3)]


def test_peel_guards():
    pm = {(0, 1), (2, 3)}
    asg = [(e, RESIDUAL if e in pm else WHITE) for e in all_pairs(4)]
    real = make_colored_realization(4, asg, {RESIDUAL: 1})
    peel_one_factor(real)
    with pytest.raises(NoResidual):
        peel_one_factor(real)
    tri = {(0, 1), (0, 2), (1, 2)}
    asg = [(e, RESIDUAL if e in tri else WHITE) for e in all_pairs(3)]
    odd = make_colored_realization(3, asg, {RESIDUAL: 2})
    with pytest.raises(OddVertexCount):
        peel_one_factor(odd)


def test_peel_too_many_one_factors():
    real = kundu_realize([5, 5, 5, 5, 5, 5], 5)
    for _ in range(4):
        peel_one_factor(real)
    with pytest.raises(TooManyOneFactors):
        peel_one_factor(real)


def test_peel_certifies_once_and_merges_pairs(monkeypatch):
    import factorpack.factorize as factorize

    calls = {"certificates": 0, "merges": 0}
    per_peel = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    peel_one = factorize.peel_one_factor

    def peel(real):
        calls["certificates"] = calls["merges"] = 0
        result = peel_one(real)
        per_peel.append(dict(calls))
        return result

    monkeypatch.setattr(factorize, "lemma_odd_certificate",
                        counting("certificates", factorize.lemma_odd_certificate))
    monkeypatch.setattr(factorize, "merge_odd_cycle_pair",
                        counting("merges", factorize.merge_odd_cycle_pair))
    monkeypatch.setattr(factorize, "peel_one_factor", peel)
    pi = [6] * 18
    real = four_ones_realization(pi, 2)
    assert [p["certificates"] for p in per_peel] == [1, 1]
    assert max(p["merges"] for p in per_peel) >= 2
    assert verify_certificate(pi, 2, certificate_from_realization(real, "four-ones", 2)).passed
    initial = initial_coloring(real)
    assert initial == kundu_realize(pi, 2).coloring_map()
    assert replay_trace(real.n, initial, real.trace) == real.coloring_map()


def test_residual_merges_never_take_the_direct_bridge(monkeypatch):
    """No residual edge joins two certificate cycles, and no merge creates one.

    See "Why a residual merge never bridges" in docs/merge-cases.md.  Black
    merges do bridge (test_convert_odd_cycles_with_black_bridge).
    """
    import factorpack.factorize as factorize
    from tests.test_acceptance import SWEEP_SIZES, sweep_instances

    merge = factorize.merge_odd_cycle_pair
    resolutions = []

    def recording(real, matching, c1, c2, work):
        result = merge(real, matching, c1, c2, work)
        if work is RESIDUAL:
            resolutions.append(result[2].resolution)
        return result

    monkeypatch.setattr(factorize, "merge_odd_cycle_pair", recording)
    for ds, k in sweep_instances(SWEEP_SIZES):
        four_ones(ds, k)
    assert len(resolutions) > 100
    assert resolutions.count("bridge") == 0


# The first instance of each case-table row in a scan of every
# ``corpus.sweep_tasks(n)`` task for n = 4-10, in both modes.  No task there
# reaches black-e4, parallel-e1e4 or parallel-e2e3 (docs/merge-cases.md); the
# last three rows are the first n = 12 tasks that reach them, in the same scan.
CASE_ROW_INSTANCES = [
    ("white-e1", RESIDUAL, "four-ones", [2] * 6, 2),
    ("white-e2", RESIDUAL, "four-ones", [5, 4, 3, 3, 3, 2], 2),
    ("white-e3", RESIDUAL, "four-ones", [5, 5, 3, 3, 3, 3], 2),
    ("white-e4", RESIDUAL, "four-ones", [5, 5, 4, 4, 4, 2, 2, 2], 2),
    ("black-e1", RESIDUAL, "four-ones", [5, 5, 5, 5, 5, 3, 2, 2], 2),
    ("black-e2", RESIDUAL, "four-ones", [8, 8, 8, 8, 8, 8, 7, 7, 6, 4], 4),
    ("black-e3", RESIDUAL, "four-ones", [8, 8, 8, 6, 6, 6, 6, 4, 4, 4], 4),
    ("bridge", BLACK, "half-k", [6, 6, 6, 6, 5, 5, 5, 5, 5, 5], 5),
    ("black-switch", BLACK, "half-k", [6, 6, 5, 5, 5, 5, 5, 5, 5, 5], 5),
    ("black-e4", RESIDUAL, "four-ones", [10, 9, 8, 7, 7, 7, 7, 6, 6, 6, 5, 4], 4),
    ("parallel-e1e4", RESIDUAL, "four-ones", [9, 7, 7, 6, 6, 5, 5, 5, 5, 5, 5, 5], 5),
    ("parallel-e2e3", RESIDUAL, "four-ones", [10, 6, 6, 6, 6, 6, 6, 6, 5, 5, 5, 5], 5),
]


@pytest.mark.parametrize("row,work,mode,pi,k", CASE_ROW_INSTANCES, ids=[r[0] for r in CASE_ROW_INSTANCES])
def test_pipeline_reaches_case_table_row(monkeypatch, row, work, mode, pi, k):
    import factorpack.factorize as factorize

    merge = factorize.merge_odd_cycle_pair
    merges = []

    def recording(real, matching, c1, c2, w):
        result = merge(real, matching, c1, c2, w)
        merges.append((w, result[2].resolution))
        return result

    monkeypatch.setattr(factorize, "merge_odd_cycle_pair", recording)
    cert = (four_ones if mode == "four-ones" else half_k)(pi, k)
    assert (work, row) in merges, merges
    assert verify_certificate(pi, k, cert).passed


def _alternating_four_cycle(real, alpha, beta, avoid):
    """Vertices a, b, c, d outside ``avoid`` with ab, cd colored alpha and bc, da colored beta, or None."""
    outside = [x for x in range(real.n) if x not in avoid]
    return next(((a, b, c, d) for a, b, c, d in itertools.permutations(outside, 4)
                 if a < min(b, c, d) and real.color_of(a, b) is alpha and real.color_of(c, d) is alpha
                 and real.color_of(b, c) is beta and real.color_of(d, a) is beta), None)


@pytest.mark.parametrize("alpha,beta", [(RESIDUAL, BLACK), (BLACK, WHITE)])
def test_merge_guard_fires_on_a_recoloring_away_from_its_two_cycles(monkeypatch, alpha, beta):
    """A conserving two-switch with no endpoint in the pair, slipped into the switch step, is caught.

    The black/white switch leaves the residual class alone, so only a check
    of every recolored edge, not a snapshot of the work class, sees it.
    """
    import factorpack.factorize as factorize

    pi, k = [9, 7, 7, 5, 5, 5, 4, 4, 3, 3, 2, 2], 2
    switch = factorize._switch_residual_pair
    strays = []

    def switch_and_stray(real, c1, c2):
        case = switch(real, c1, c2)
        strays.append(_alternating_four_cycle(real, alpha, beta, set(c1) | set(c2)))
        a, b, c, d = strays[-1]
        parallel_two_switch(real, (a, b), (c, d), (b, c), (d, a))
        return case

    assert verify_certificate(pi, k, four_ones(pi, k)).passed
    monkeypatch.setattr(factorize, "_switch_residual_pair", switch_and_stray)
    with pytest.raises(InternalInvariantError, match="no endpoint in its two cycles"):
        four_ones_realization(pi, k)
    assert len(strays) == 1


def test_traced_pack_regular_pass_reads_no_sorted_class_in_a_merge():
    """At seed 1 the pass made 513 ``edges_of`` calls when each merge sorted its work class twice.

    Each conversion sorted its 2-factor once more; it now reads the class's rows.
    """
    import factorpack.factorize as factorize
    from tests.test_bench_tracing import TRACING
    from tests.test_realize import _perfbench_corpus

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mode, pi, k in _perfbench_corpus().build("pack-regular", 1)[0]:
            build = factorize.four_ones_realization if mode == "four-ones" else factorize.half_k_realization
            factorize.certificate_from_realization(build(DegreeSequence.of(pi), k), mode, k)
    finally:
        tracer.restore()
    names = [tracer.names[i] for i in tracer.name_id]
    merges = names.count("factorize.merge_odd_cycle_pair")

    def in_merge(i):
        while i >= 0 and names[i] != "factorize.merge_odd_cycle_pair":
            i = tracer.parent[i]
        return i >= 0

    reads = [i for i, name in enumerate(names) if name == "coloring.edges_of"]
    assert merges == 109 and not any(in_merge(i) for i in reads)
    conversions = names.count("factorize.convert_two_factor")
    assert conversions == 74 and len(reads) == 513 - 2 * merges - conversions
    copies = [i for i, name in enumerate(names) if name == "coloring.class_graph"]
    assert not copies


def test_no_peel_split_or_conversion_builds_a_simple_graph(monkeypatch):
    """Every peel, Petersen split and 2-factor conversion of a pack-regular and a dense-random pass at seed 1.

    They read the class index's rows: none builds a ``SimpleGraph`` or copies a
    class through ``class_graph``.  Kundu's realization, outside them, does.
    """
    import factorpack.factorize as factorize
    from factorpack.graphs import SimpleGraph
    from tests.test_realize import _perfbench_corpus

    inside: list[str] = []
    entered: dict[str, int] = {}
    built: dict[str | None, int] = {}

    def entering(name):
        fn = getattr(factorize, name)

        def wrapper(*args, **kwargs):
            entered[name] = entered.get(name, 0) + 1
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(factorize, name, wrapper)

    def counting(what, original):
        def wrapper(self, *args):
            key = (inside[-1] if inside else None, what)
            built[key] = built.get(key, 0) + 1
            return original(self, *args)
        return wrapper

    monkeypatch.setattr(SimpleGraph, "__init__", counting("graph", SimpleGraph.__init__))
    monkeypatch.setattr(ColoredRealization, "class_graph", counting("copy", ColoredRealization.class_graph))
    for name in ("peel_one_factor", "petersen_two_factorize", "convert_two_factor"):
        entering(name)
    corpus = _perfbench_corpus()
    for workload in ("pack-regular", "dense-random"):
        for mode, pi, k in corpus.build(workload, 1)[0]:
            (four_ones if mode == "four-ones" else half_k)(pi, k)
    assert entered["peel_one_factor"] > 200 and entered["petersen_two_factorize"] > 50, entered
    assert entered["convert_two_factor"] > 200, entered
    assert set(built) == {(None, "graph")}, built


def test_a_merge_matches_only_its_cycles_its_moved_edges_and_its_bridge(monkeypatch):
    """Every merge of every sweep task with n <= 8, both modes; see "Why the two cycles suffice".

    All of those are residual switch merges: no 2-factor conversion at n <= 8
    has odd cycles.  Two larger half-k inputs add a black bridge and a black switch.
    """
    import factorpack.factorize as factorize
    from tests.test_acceptance import SWEEP_SIZES, sweep_instances

    merge, matcher = factorize.merge_odd_cycle_pair, factorize._matching_on
    searched, resolutions = [], []

    def spying_matcher(vertices, edges):
        searched.append(set(edges))
        return matcher(vertices, edges)

    def recording(real, matching, c1, c2, work):
        first_batch = len(real.trace.batches)
        monkeypatch.setattr(factorize, "_matching_on", spying_matcher)
        try:
            result = merge(real, matching, c1, c2, work)
        finally:
            monkeypatch.setattr(factorize, "_matching_on", matcher)
        (matched_among,) = searched
        searched.clear()
        allowed = {edge(c[i], c[i - 1]) for c in (c1, c2) for i in range(len(c))}
        allowed |= {e for batch in real.trace.batches[first_batch:] for (e, _, _) in batch.changes}
        case = result[2]
        if case.resolution == "bridge":
            allowed.add(case.edges[0])
        assert matched_among <= allowed, (c1, c2, sorted(matched_among - allowed))
        assert set(c1) | set(c2) <= result[1].covered
        resolutions.append(case.resolution)
        return result

    monkeypatch.setattr(factorize, "merge_odd_cycle_pair", recording)
    for ds, k in sweep_instances(SWEEP_SIZES):
        four_ones(ds, k)
        if k >= 4:
            half_k(ds, k)
    half_k([10] * 12, 10)
    half_k([6] * 18, 6)
    assert len(resolutions) > 100
    assert {"white-e1", "white-e4", "black-e1", "bridge", "black-switch"} <= set(resolutions)


def reference_bridge(real, c1, c2, work):
    """The bridge scan before it walked the pairs in order: |C1|*|C2| ``color_of`` calls."""
    return min((edge(a, b) for a in c1 for b in c2 if real.color_of(a, b) is work), default=None)


def test_least_bridge_matches_the_reference_scan(monkeypatch):
    """Every merge of every sweep task with n <= 8, the black bridges of two larger half-k
    inputs, the prism's residual bridge, and random vertex sets in random colorings."""
    import factorpack.factorize as factorize
    from tests.test_acceptance import SWEEP_SIZES, sweep_instances

    scan, found = factorize._least_bridge, []

    def checked(real, c1, c2, work):
        bridge = scan(real, c1, c2, work)
        assert bridge == reference_bridge(real, c1, c2, work), (c1, c2, work)
        found.append((work, bridge))
        return bridge

    monkeypatch.setattr(factorize, "_least_bridge", checked)
    for ds, k in sweep_instances(SWEEP_SIZES):
        four_ones(ds, k)
        if k >= 4:
            half_k(ds, k)
    half_k([10] * 12, 10)
    half_k([6] * 18, 6)
    real, m = prism_with_partial_matching()
    merge_odd_cycle_pair(real, m, (0, 1, 2), (3, 4, 5), RESIDUAL)
    assert len(found) > 100
    assert found[-1] == (RESIDUAL, (0, 3))
    assert any(work is BLACK and bridge is not None for work, bridge in found)

    rng = random.Random(31)
    for _ in range(300):
        real = random_colored_realization(rng, rng.randint(4, 12))
        work = rng.choice(sorted(real._edges, key=Color.sort_key))
        vs = rng.sample(range(real.n), rng.randint(2, real.n))
        cut = rng.randint(1, len(vs) - 1)
        c1, c2 = vs[:cut], vs[cut:]
        assert scan(real, c1, c2, work) == reference_bridge(real, c1, c2, work)


# --- four_ones ---

def test_four_ones_k4_fully_factorized():
    cert = four_ones([3, 3, 3, 3], 3)
    assert len(cert.one_factors) == 3
    assert cert.residual == (0, ())
    assert verify_certificate([3, 3, 3, 3], 3, cert).passed


def test_four_ones_two_triangle_realization_path():
    cert = four_ones([2, 2, 2, 2, 2, 2], 2, seed=0)
    assert len(cert.one_factors) == 2
    assert verify_certificate([2, 2, 2, 2, 2, 2], 2, cert).passed


def test_four_ones_k6_with_residual_matching_left():
    # oracle first: K6 splits into five disjoint perfect matchings
    k6 = SimpleGraph.from_edges(6, list(all_pairs(6)))
    assert bf_disjoint_one_factors(k6, 5) is not None
    cert = four_ones([5, 5, 5, 5, 5, 5], 5)
    assert len(cert.one_factors) == 4
    assert cert.residual[0] == 1
    assert verify_certificate([5, 5, 5, 5, 5, 5], 5, cert).passed


def test_four_ones_propagates_parity_error():
    with pytest.raises(OddVertexCount):
        four_ones([2, 2, 2, 2, 2], 2)


@pytest.mark.parametrize("pipeline,pi,k,error", [
    (four_ones, [3, 1, 1], 0, PreconditionViolated),  # the k floor comes first
    (half_k, [3, 1, 1], 3, KTooSmall),
    (four_ones, [3, 1, 1], 1, NotGraphic),  # then pi, even at an odd n
    (half_k, [3, 1, 1], 4, NotGraphic),
    (four_ones, [3, 3, 1, 1], 1, NotGraphic),
    (four_ones, [2, 2, 2], 3, NotGraphicMinusK),  # then pi - k, even at an odd n
    (half_k, [4, 4, 4, 4, 4], 5, NotGraphicMinusK),
    (half_k, [4, 4, 4, 4, 2, 2], 4, NotGraphicMinusK),
    (four_ones, [2, 2, 2], 2, OddVertexCount),  # then the parity of n, before anything is built
    (half_k, [4, 4, 4, 4, 4], 4, OddVertexCount),
])
def test_pipelines_raise_in_the_documented_order(pipeline, pi, k, error):
    with pytest.raises(error):
        pipeline(pi, k)


@pytest.mark.parametrize("pipeline,pi,k", [
    (four_ones, [2, 2, 2], 2),
    (four_ones, [4] * 7, 2),
    (half_k, [4, 4, 4, 4, 4], 4),
    (half_k, [256] * 1023, 128),
])
def test_an_odd_n_request_is_refused_before_any_pairing(monkeypatch, pipeline, pi, k):
    import factorpack.realize as realize

    pair_off = realize._pair_off
    calls = []

    def counting(target, forbidden):
        calls.append(len(target))
        return pair_off(target, forbidden)

    monkeypatch.setattr(realize, "_pair_off", counting)
    with pytest.raises(OddVertexCount):
        pipeline(pi, k)
    assert calls == []


def test_every_odd_n_request_is_realized_then_refused_by_its_first_peel():
    """Kundu's realization exists at an odd n too, so only the pipelines' parity check refuses it."""
    refused = 0
    for n in (1, 3, 5, 7, 9):
        for ds in enumerate_graphic(n, n - 1):
            for k in range(1, n):
                if not erdos_gallai_graphic_raw([d - k for d in ds.degrees]):
                    continue
                kundu_realize(ds.degrees, k).validate()
                for pipeline in (four_ones, half_k) if k >= 4 else (four_ones,):
                    with pytest.raises(OddVertexCount):
                        pipeline(list(ds.degrees), k)
                    refused += 1
    assert refused > 2000, refused


# --- petersen_two_factorize ---

def test_petersen_c5_is_its_own_two_factor():
    c5 = SimpleGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    parts = petersen_two_factorize(c5.adjacency(), 1)
    assert parts == [c5.sorted_edges()]


def _check_two_factorization(g, parts, r):
    assert len(parts) == r
    seen = set()
    for part in parts:
        deg = [0] * g.n
        for (u, v) in part:
            assert (u, v) in g.edges
            assert (u, v) not in seen
            seen.add((u, v))
            deg[u] += 1
            deg[v] += 1
        assert all(d == 2 for d in deg)
    assert seen == g.edges


def test_petersen_k5():
    k5 = SimpleGraph.from_edges(5, list(all_pairs(5)))
    _check_two_factorization(k5, petersen_two_factorize(k5.adjacency(), 2), 2)


def test_petersen_circulant_c8():
    edges = {edge(i, (i + 1) % 8) for i in range(8)} | {edge(i, (i + 2) % 8) for i in range(8)}
    g = SimpleGraph(8, edges)
    _check_two_factorization(g, petersen_two_factorize(g.adjacency(), 2), 2)


def test_petersen_splits_a_long_euler_circuit():
    # C_1500(1, 2, 3, 4): one component, a 6,000-arc circuit, a 3,000-vertex bipartite graph.
    n = 1500
    g = SimpleGraph(n, {edge(i, (i + off) % n) for i in range(n) for off in (1, 2, 3, 4)})
    _check_two_factorization(g, petersen_two_factorize(g.adjacency(), 4), 4)


def test_petersen_splits_every_component():
    # K_5, C_8(1, 2) and C_9(1, 3), 4-regular each, on interleaved vertex ids.
    blocks = [(5, list(all_pairs(5))),
              (8, [(i, (i + o) % 8) for i in range(8) for o in (1, 2)]),
              (9, [(i, (i + o) % 9) for i in range(9) for o in (1, 3)])]
    n, edges, base = 22, set(), 0
    for size, block in blocks:
        edges |= {edge((base + u) * 7 % n, (base + v) * 7 % n) for u, v in block}
        base += size
    g = SimpleGraph(n, edges)
    assert len(connected_components(g)) == 3
    _check_two_factorization(g, petersen_two_factorize(g.adjacency(), 2), 2)


def test_petersen_rejects_odd_regular():
    k4 = SimpleGraph.from_edges(4, list(all_pairs(4)))
    with pytest.raises(NotEvenRegular):
        petersen_two_factorize(k4.adjacency(), 1)


# --- convert_two_factor ---

def hamiltonian_two_factor_instance():
    cyc = {edge(i, (i + 1) % 6) for i in range(6)}
    asg = [(e, two_factor(0) if e in cyc else WHITE) for e in all_pairs(6)]
    return make_colored_realization(6, asg, {two_factor(0): 2})


def test_convert_even_cycle_no_switches():
    real = hamiltonian_two_factor_instance()
    convert_two_factor(real, two_factor(0))
    assert two_factor(0) not in real.declared
    assert real.class_graph(one_factor(0)).degrees() == [1] * 6
    assert not any(b.op == "multi_switch" for b in real.trace.batches)
    # every former cycle edge is now in the new 1-factor or black
    for e in [edge(i, (i + 1) % 6) for i in range(6)]:
        assert real.color_of(*e) in (one_factor(0), BLACK)


def two_triangle_two_factor(with_black_bridge: bool):
    tri = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
    black = {(0, 3), (1, 4), (2, 5)} if with_black_bridge else set()
    asg = []
    for e in all_pairs(6):
        if e in tri:
            asg.append((e, two_factor(0)))
        elif e in black:
            asg.append((e, BLACK))
        else:
            asg.append((e, WHITE))
    return make_colored_realization(6, asg, {two_factor(0): 2})


def test_convert_odd_cycles_with_black_bridge():
    real = two_triangle_two_factor(with_black_bridge=True)
    convert_two_factor(real, two_factor(0))
    assert real.class_graph(one_factor(0)).degrees() == [1] * 6
    assert not any(b.op == "multi_switch" for b in real.trace.batches)


def test_convert_odd_cycles_without_bridge_uses_black_switch():
    real = two_triangle_two_factor(with_black_bridge=False)
    degrees_before = real.degrees
    convert_two_factor(real, two_factor(0))
    assert real.degrees == degrees_before
    assert real.class_graph(one_factor(0)).degrees() == [1] * 6
    switches = [b for b in real.trace.batches if b.op == "multi_switch"]
    assert len(switches) == 1
    assert switches[0].params["mode"] == "black"


def test_convert_reroutes_one_factor_on_cross_edge_but_keeps_it_perfect():
    # the chain's first hop lands on a 1-factor edge; that class must be rerouted,
    # not broken: it stays a perfect matching with the same declared degree
    tri = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
    of0 = {(1, 3), (0, 4), (2, 5)}
    asg = []
    for e in all_pairs(6):
        if e in tri:
            asg.append((e, two_factor(0)))
        elif e in of0:
            asg.append((e, one_factor(0)))
        else:
            asg.append((e, WHITE))
    real = make_colored_realization(6, asg, {two_factor(0): 2, one_factor(0): 1})
    before_of0 = set(real.edges_of(one_factor(0)))
    convert_two_factor(real, two_factor(0))
    after_of0 = set(real.edges_of(one_factor(0)))
    assert after_of0 != before_of0  # rerouted through the chain
    assert real.class_graph(one_factor(0)).degrees() == [1] * 6
    assert real.class_graph(one_factor(1)).degrees() == [1] * 6
    # locality of the rerouting: changed one-factor edges touch the switch endpoints
    switch = next(b for b in real.trace.batches if b.op == "multi_switch")
    endpoints = {switch.params["u"], switch.params["v"]}
    for e in before_of0 ^ after_of0:
        assert endpoints & set(e)


def test_convert_leaves_other_two_factors_unchanged():
    c1 = {edge(i, (i + 1) % 6) for i in range(6)}
    c2 = {edge(i, (i + 2) % 6) for i in range(6)}
    asg = []
    for e in all_pairs(6):
        if e in c1:
            asg.append((e, two_factor(0)))
        elif e in c2:
            asg.append((e, two_factor(1)))
        else:
            asg.append((e, BLACK))
    real = make_colored_realization(6, asg, {two_factor(0): 2, two_factor(1): 2})
    old_high = set(real.edges_of(two_factor(1)))
    convert_two_factor(real, two_factor(0))
    assert two_factor(0) not in real.declared
    assert real.declared[two_factor(1)] == 2
    assert all(len(real.colored_neighbors(v, two_factor(1))) == 2 for v in range(6))
    assert set(real.edges_of(two_factor(1))) == old_high


# --- half_k ---

def test_half_k_examples_verified():
    from factorpack import bf_conjecture_search

    assert bf_conjecture_search([4, 4, 4, 4, 4, 4], 4) is not None  # oracle first
    for pi, k, expect in [([4] * 6, 4, 4), ([5] * 6, 5, 4), ([6] * 8, 6, 5)]:
        cert = half_k(pi, k)
        assert len(cert.one_factors) == expect == k // 2 + 2
        assert cert.two_factors == ()
        assert cert.residual is None
        assert verify_certificate(pi, k, cert).passed


@pytest.mark.parametrize("pi,k,peels", [([5] * 6, 5, 3), ([7] * 8, 7, 3), ([6] * 8, 6, 4)])
def test_half_k_peels_only_the_one_factors_it_keeps(pi, k, peels):
    real = half_k_realization(pi, k)
    ops = [b.op for b in real.trace.batches]
    assert ops.count("peel_one_factor") == peels
    assert "fold_back" not in ops
    cert = certificate_from_realization(real, "half-k", k)
    assert len(cert.one_factors) == k // 2 + 2
    assert verify_certificate(pi, k, cert).passed
    initial = initial_coloring(real)
    assert initial == kundu_realize(pi, k).coloring_map()
    assert replay_trace(real.n, initial, real.trace) == real.coloring_map()


def test_half_k_rejects_small_k():
    with pytest.raises(KTooSmall):
        half_k([2, 2, 2, 2], 2)


def test_pipeline_switch_reports_respect_chain_bound():
    real = kundu_realize([5, 5, 5, 5, 5, 5], 5)
    for _ in range(4):
        peel_one_factor(real)
    for b in real.trace.batches:
        if b.op == "multi_switch":
            assert 2 <= b.params["r"] <= real.n - 1
