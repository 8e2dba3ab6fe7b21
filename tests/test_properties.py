"""Seeded property tests: every pipeline's output verifies, replays and recounts.

Random graphic (pi, k) with n = 10..48, each pi the degree list of a seeded
G(n, p) in vertex order, run through ``kundu_realize`` and, for even n,
``four_ones_realization`` (k >= 1) and ``half_k_realization`` (k >= 4).  The
explicit examples reach the gadget fill and switch repair, which random draws
rarely do.  ``derandomize=True`` draws the same examples on every run.
A last property draws arbitrary certificates and checks that
``certificate_to_json`` writes what ``json.dumps`` writes.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from factorpack import (  # noqa: E402
    certificate_from_realization,
    four_ones_realization,
    half_k_realization,
    kundu_realize,
    replay_trace,
    verify_certificate,
)
from factorpack.coloring import WHITE, FactorCertificate  # noqa: E402
from factorpack.graphs import all_pairs  # noqa: E402
from factorpack.realize import (  # noqa: E402
    _circulant_fill,
    _greedy_fill,
    erdos_gallai_graphic_raw,
    havel_hakimi_realize,
)
from factorpack.serialize import certificate_to_json  # noqa: E402
from tests.conftest import recount_colors  # noqa: E402
from tests.test_realize import engine_path, reaches_switch_repair  # noqa: E402
from tests.test_serialize import reference_json  # noqa: E402

# Found by a seeded search; the names say which fill of kundu_realize each one reaches.
GADGET = ([8, 8, 7, 7, 7, 6, 5, 5, 5, 4], 4)
GADGET_N14 = ([12, 10, 10, 10, 10, 10, 10, 8, 8, 8, 8, 8, 6, 6], 4)
GADGET_DEFICIT = ([5, 5, 5, 5, 4, 4, 3, 3, 3, 3], 1)  # the Euler rounding leaves deficits
SWITCH_REPAIR = ([11, 11, 11, 11, 11, 10, 10, 10, 10, 8, 8, 7], 7)
SWITCH_REPAIR_N16 = ([15, 15, 15, 15, 15, 14, 14, 14, 14, 13, 13, 12, 12, 12, 12, 11], 4)


@st.composite
def graphic_requests(draw):
    """(pi, k): pi graphic with n in 10..48, 0 <= k <= min(pi), and pi - k graphic."""
    n = draw(st.sampled_from(range(10, 49)))
    p = draw(st.floats(0.2, 0.9))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    pi = [0] * n
    for (u, v) in all_pairs(n):
        if rng.random() < p:
            pi[u] += 1
            pi[v] += 1
    k = rng.randint(0, min(pi))  # a drawn k would cluster at 0
    assume(erdos_gallai_graphic_raw(sorted((d - k for d in pi), reverse=True)))
    return pi, k


def _check(real, start, pi, k, mode):
    report = verify_certificate(pi, k, certificate_from_realization(real, mode, k))
    assert report.passed, (mode, report.violations)
    assert replay_trace(real.n, start, real.trace) == real.coloring_map(), mode
    table = recount_colors(real)
    assert {(v, c): d for c, deg in real._deg.items() for v, d in enumerate(deg) if d} == table, mode
    for c, degree in real.declared.items():
        assert all(table.get((v, c), 0) == degree for v in range(real.n)), (mode, c)
    assert [real.n - 1 - table.get((v, WHITE), 0) for v in range(real.n)] == list(real.degrees)
    assert sorted(real.degrees) == sorted(pi), mode


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(graphic_requests())
@example(GADGET)
@example(GADGET_N14)
@example(GADGET_DEFICIT)
@example(SWITCH_REPAIR)
@example(SWITCH_REPAIR_N16)
def test_pipeline_outputs_verify_replay_and_recount(request_pi_k):
    pi, k = request_pi_k
    start = kundu_realize(pi, k)
    _check(start, start.coloring_map(), pi, k, "kundu")
    if len(pi) % 2 == 0 and k >= 1:
        _check(four_ones_realization(pi, k), start.coloring_map(), pi, k, "four-ones")
    if len(pi) % 2 == 0 and k >= 4:
        _check(half_k_realization(pi, k), start.coloring_map(), pi, k, "half-k")


def test_explicit_examples_reach_the_fills_they_are_named_for():
    for pi, k in (GADGET, GADGET_N14, GADGET_DEFICIT):
        r = havel_hakimi_realize([d - k for d in pi])
        assert _greedy_fill(r, k) is None and _circulant_fill(r, k) is None
        assert not reaches_switch_repair(pi, k)
    pi, k = GADGET_DEFICIT
    assert engine_path(havel_hakimi_realize([d - k for d in pi]).complement(), k) == "deficit"
    for pi, k in (SWITCH_REPAIR, SWITCH_REPAIR_N16):
        assert reaches_switch_repair(pi, k)


_edge_lists = st.lists(st.tuples(st.integers(-5, 2 ** 40), st.integers(-5, 2 ** 40)), max_size=6)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.builds(
    FactorCertificate,
    n=st.integers(0, 2 ** 40),
    pi=st.lists(st.integers(0, 2 ** 40), max_size=6).map(tuple),
    k=st.integers(-3, 2 ** 40),
    mode=st.text(max_size=8),
    one_factors=st.lists(_edge_lists, max_size=3),
    two_factors=st.lists(_edge_lists, max_size=3),
    residual=st.none() | st.tuples(st.integers(0, 9), _edge_lists),
    black_edges=_edge_lists,
))
def test_certificate_writer_matches_json_dumps(cert):
    assert certificate_to_json(cert) == reference_json(cert)
