"""Acceptance criteria, one test per criterion, each printing a PASS line.

All checks are exact (combinatorial), oracle- or property-based; there are no
numeric tolerances.  The sweeps are exhaustive over graphic sequences at the
stated sizes.
"""

import io
import json
import random
import subprocess
import sys
import time

import pytest

from factorpack import (
    SimpleGraph,
    bf_conjecture_search,
    bf_max_matching,
    enumerate_graphic,
    four_ones,
    half_k,
    kundu_realize,
    lemma_odd_certificate,
    multi_switch,
    petersen_two_factorize,
    replay_trace,
    verify_certificate,
)
from factorpack.cli import run as cli_run
from factorpack.coloring import RESIDUAL, WHITE
from factorpack.matching import check_odd_cycle_certificate
from factorpack.realize import erdos_gallai_graphic_raw
from factorpack.serialize import trace_from_dict
from tests.conftest import (cli_subprocess_env, random_colored_realization, random_regular_graph,
                            recount_colors)
from tests.test_switching import sample_switch_config

SWEEP_SIZES = (4, 6, 8)
RUNTIME_LIMIT_SECONDS = 300.0


def sweep_instances(sizes):
    """Every (pi, k) with pi graphic of the given even length and pi - k graphic, k >= 1."""
    out = []
    for n in sizes:
        for ds in enumerate_graphic(n, n - 1):
            for k in range(1, n):
                reduced = [d - k for d in ds.degrees]
                if any(d < 0 for d in reduced):
                    break
                if erdos_gallai_graphic_raw(sorted(reduced, reverse=True)):
                    out.append((ds, k))
    return out


@pytest.fixture(scope="module")
def instances():
    return sweep_instances(SWEEP_SIZES)


def test_criterion_1_four_ones_sweep(instances):
    started = time.perf_counter()
    failures = []
    for ds, k in instances:
        cert = four_ones(ds, k, seed=0)
        report = verify_certificate(ds, k, cert)
        if not report.passed:
            failures.append((ds.degrees, k, report.violations))
            continue
        if len(cert.one_factors) != min(k, 4) or cert.residual[0] != max(k - 4, 0):
            failures.append((ds.degrees, k, "count mismatch"))
    elapsed = time.perf_counter() - started
    assert not failures, failures[:5]
    assert elapsed < RUNTIME_LIMIT_SECONDS, f"sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 four-ones sweep ({len(instances)} instances, {elapsed:.1f}s): PASS")


def test_criterion_2_half_k_sweep(instances):
    failures = []
    count = 0
    for ds, k in instances:
        if k < 4:
            continue
        count += 1
        cert = half_k(ds, k, seed=0)
        report = verify_certificate(ds, k, cert)
        if not report.passed or len(cert.one_factors) != k // 2 + 2:
            failures.append((ds.degrees, k, report.violations))
    assert not failures, failures[:5]
    print(f"\nACCEPTANCE 2 half-k sweep ({count} instances): PASS")


def test_criterion_3_multi_switch_conservation():
    rng = random.Random(31415)
    done = 0
    violations = []
    mode_counts = {"white": 0, "black": 0}
    z_pair_cases = 0
    while done < 10_000:
        n = rng.choice([6, 7, 8, 9, 10, 11, 12])
        real = random_colored_realization(rng, n)
        for _ in range(rng.randint(4, 24)):
            cfg = sample_switch_config(rng, real)
            if cfg is None:
                break
            u, v, w, mode, z3, z2 = cfg
            before_counts = recount_colors(real)
            before_map = real.coloring_map()
            real, report = multi_switch(real, u, v, w, mode, z3_hint=z3, z2_hint=z2)
            after_map = real.coloring_map()
            x1 = tuple(sorted((u, w)))
            y1 = tuple(sorted((w, v)))
            if recount_colors(real) != before_counts:
                violations.append(("conservation", cfg))
            if any(after_map[e] != c and u not in e and v not in e
                   for e, c in before_map.items()):
                violations.append(("locality", cfg))
            if after_map[x1] != before_map[y1] or after_map[y1] != mode:
                violations.append(("goal-flip", cfg))
            if z3 is not None and after_map[z3] != before_map[z3]:
                violations.append(("z3-touched", cfg))
            if z2 is not None:
                z_pair_cases += 1
                recolored = {e for (e, _, _) in real.trace.batches[-1].changes}
                if report.consumed not in ("z1", "z2") or {report.z1, z2} <= recolored:
                    violations.append(("z1-z2", cfg))
            mode_counts[mode.kind] += 1
            done += 1
            if done == 10_000:
                break
    assert not violations, violations[:5]
    assert mode_counts["white"] > 0 and mode_counts["black"] > 0
    assert z_pair_cases > 0
    print(f"\nACCEPTANCE 3 multi-switch conservation (10000 switches, "
          f"{mode_counts['white']} white / {mode_counts['black']} black, "
          f"{z_pair_cases} with both z-hints): PASS")


def test_criterion_4_lemma_odd_oracle_equivalence():
    rng = random.Random(2718)
    graphs = [SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
              for n in range(3, 11)]  # all connected 2-regular graphs with n <= 10
    while len(graphs) < 8 + 500:
        n = rng.randint(6, 14)
        r = rng.choice([3, 4])
        if n * r % 2 or r >= n:
            continue
        graphs.append(random_regular_graph(rng, n, r))
    violations = []
    for g in graphs:
        cert = lemma_odd_certificate(g.adjacency())
        exact, _ = bf_max_matching(g)
        if cert.matching.size != exact:
            violations.append(("size", g.sorted_edges(), cert.matching.size, exact))
        problems = check_odd_cycle_certificate(cert)
        if problems:
            violations.append(("certificate", g.sorted_edges(), problems))
    assert not violations, violations[:3]
    print(f"\nACCEPTANCE 4 odd-cycle certificate vs oracle ({len(graphs)} graphs): PASS")


def test_criterion_5_petersen_exactness():
    rng = random.Random(1618)
    cases = [
        SimpleGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]),
        SimpleGraph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
        SimpleGraph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)]
                               + [(i, (i + 2) % 8) for i in range(8)]),
    ]
    while len(cases) < 3 + 100:
        r = rng.randint(1, 4)
        n = rng.randint(2 * r + 1, 16)
        cases.append(random_regular_graph(rng, n, 2 * r))
    violations = []
    for g in cases:
        r = g.degrees()[0] // 2
        parts = petersen_two_factorize(g.adjacency(), r)
        if len(parts) != r:
            violations.append(("count", g.sorted_edges()))
            continue
        seen = set()
        for part in parts:
            deg = [0] * g.n
            for (u, v) in part:
                if (u, v) not in g.edges or (u, v) in seen:
                    violations.append(("partition", g.sorted_edges()))
                seen.add((u, v))
                deg[u] += 1
                deg[v] += 1
            if any(d != 2 for d in deg):
                violations.append(("not-2-regular", g.sorted_edges()))
        if seen != g.edges:
            violations.append(("not-exhaustive", g.sorted_edges()))
    assert not violations, violations[:3]
    print(f"\nACCEPTANCE 5 2-factorization exactness ({len(cases)} graphs): PASS")


def test_criterion_6_kundu_totality(instances):
    failures = []
    for ds, k in instances:
        real = kundu_realize(ds, k, seed=0)
        if real.class_graph(RESIDUAL).degrees() != [k] * ds.n:
            failures.append((ds.degrees, k, "residual not k-regular"))
        if tuple(real.degrees) != ds.degrees:
            failures.append((ds.degrees, k, "pi mismatch"))
    assert not failures, failures[:5]
    print(f"\nACCEPTANCE 6 realizer totality ({len(instances)} instances): PASS")


def test_criterion_7_conjecture_spot_check(tmp_path):
    pairs = sweep_instances((4, 6))
    for ds, k in pairs:
        result = bf_conjecture_search(ds, k)
        if result is None:
            artifact = tmp_path / f"counterexample_{'-'.join(map(str, ds.degrees))}_k{k}.json"
            artifact.write_text(json.dumps({"pi": list(ds.degrees), "k": k,
                                            "claim": "no realization admits k disjoint 1-factors"}))
            pytest.fail(f"conjecture counterexample found, artifact at {artifact}")
        g, ms = result
        assert len(ms) == k
        used = set()
        for m in ms:
            assert m.is_perfect(ds.n)
            assert m.edges <= g.edges
            assert not (m.edges & used)
            used |= m.edges
    print(f"\nACCEPTANCE 7 conjecture spot-check ({len(pairs)} instances): PASS")


def test_criterion_8_determinism(tmp_path):
    commands = [
        ["graphic", "--pi", "3,3,2,2,1,1"],
        ["realize", "--pi", "4,4,3,3,2,2"],
        ["kundu", "--pi", "4,4,4,4,3,3", "--k", "3", "--seed", "5"],
        ["four-ones", "--pi", "5,5,5,5,5,5", "--k", "5", "--seed", "5"],
        ["half-k", "--pi", "6,6,6,6,6,6,6,6", "--k", "6", "--seed", "5"],
        ["petersen", "--pi", "4,4,4,4,4"],
        ["conjecture", "--pi", "2,2,2,2", "--k", "2"],
        ["sweep", "--n", "4,6", "--mode", "both", "--seed", "5"],
    ]
    for argv in commands:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            cli_run(argv, out=buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1], argv
    # across processes with different hash randomization
    argv = [sys.executable, "-m", "factorpack.cli", "half-k",
            "--pi", "7,7,7,7,7,7,7,7", "--k", "7", "--seed", "2"]
    outs = []
    for hash_seed in ("3", "12345"):
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=cli_subprocess_env(hash_seed))
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    # trace replay reproduces the final coloring exactly
    trace_path = tmp_path / "trace.json"
    buf = io.StringIO()
    code = cli_run(["four-ones", "--pi", "5,5,4,4,3,3", "--k", "3", "--seed", "1",
                    "--trace", str(trace_path)], out=buf)
    assert code == 0
    n, initial, trace = trace_from_dict(json.loads(trace_path.read_text()))
    first = replay_trace(n, initial, trace)
    second = replay_trace(n, initial, trace)
    assert first == second
    real = kundu_realize([5, 5, 4, 4, 3, 3], 3, seed=1)
    assert initial == real.coloring_map()
    print("\nACCEPTANCE 8 determinism and trace replay: PASS")
