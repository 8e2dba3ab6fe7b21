"""Seeded request corpora for the factorpack benchmark, built with the stdlib only.

A request is a ``(mode, pi, k)`` triple.  The program under test receives
nothing but these lists; this module never imports ``factorpack``.

To stratify the corpora, ``needs_gadget`` classifies an instance by an input
property with a fixed definition: does the textbook Havel-Hakimi
realization of ``pi - k`` (highest remaining degree first, ties to the lowest
index) leave room for a k-regular fill found by greedy deficit pairing or by
whole circulant offset classes?  When neither finds one, the instance needs
an exact k-factor search ("gadget").  The traced run reports which stage the
program really used (``realize.gadget_share``), so the two can be compared.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations_with_replacement

WORKLOADS = ("pack-regular", "dense-random", "sweep-n10")

# pack-regular: per vertex count, the densest d of the grid as a share of n.
# At n=192 the grid stops at d = n/8: the denser points take 0.3-2.5 s each
# and would leave too few repeats of every request in one run.
REGULAR_DMAX = {128: 4, 192: 1}  # eighths of n
REGULAR_MODES = ("four-ones", "half-k")

# dense-random: G(n, 1/2) degree sequences, k = n/4, a fixed gadget:fast mix.
DENSE_N = 40
DENSE_GADGET = 16
DENSE_FAST = 32

# sweep-n10: every SWEEP_STRIDE-th task of the exhaustive n=10 task list.
SWEEP_N = 10
SWEEP_STRIDE = 20


def graphic(desc: list[int]) -> bool:
    """Erdos-Gallai test on a non-increasing list of non-negative integers."""
    n = len(desc)
    if n == 0:
        return True
    if desc[-1] < 0 or desc[0] > n - 1 or sum(desc) % 2:
        return False
    prefix = 0
    for r in range(1, n + 1):
        prefix += desc[r - 1]
        if prefix > r * (r - 1) + sum(min(r, d) for d in desc[r:]):
            return False
    return True


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def havel_hakimi(desc: list[int]) -> set[tuple[int, int]]:
    """Realization of a graphic non-increasing list; vertex i gets desc[i]."""
    n = len(desc)
    remaining = list(desc)
    edges: set[tuple[int, int]] = set()
    while True:
        v = max(range(n), key=lambda i: (remaining[i], -i))
        need = remaining[v]
        if need == 0:
            return edges
        remaining[v] = 0
        partners = sorted((w for w in range(n) if remaining[w] > 0), key=lambda w: (-remaining[w], w))
        if len(partners) < need:
            raise ValueError(f"{desc} is not graphic")
        for w in partners[:need]:
            edges.add(_pair(v, w))
            remaining[w] -= 1


def _greedy_fills(n: int, taken: set[tuple[int, int]], k: int) -> bool:
    deficit = [k] * n
    taken = set(taken)
    while True:
        v = max(range(n), key=lambda i: (deficit[i], -i))
        need = deficit[v]
        if need == 0:
            return True
        deficit[v] = 0
        partners = sorted((w for w in range(n) if deficit[w] > 0 and _pair(v, w) not in taken),
                          key=lambda w: (-deficit[w], w))
        if len(partners) < need:
            return False
        for w in partners[:need]:
            taken.add(_pair(v, w))
            deficit[w] -= 1


def _circulant_fills(n: int, taken: set[tuple[int, int]], k: int) -> bool:
    need = k
    used: set[tuple[int, int]] = set()
    if k % 2:
        half = {_pair(i, i + n // 2) for i in range(n // 2)}
        if n % 2 or half & taken:
            return False
        used |= half
        need -= 1
    for off in range(1, (n - 1) // 2 + 1):
        if need < 2:
            break
        ring = {_pair(i, (i + off) % n) for i in range(n)}
        if not (ring & taken or ring & used):
            used |= ring
            need -= 2
    return need == 0


def needs_gadget(pi: list[int], k: int) -> bool:
    """Neither the greedy nor the circulant fill works: see the module docstring."""
    desc = sorted(pi, reverse=True)
    r = havel_hakimi([d - k for d in desc])
    return not (_greedy_fills(len(desc), r, k) or _circulant_fills(len(desc), r, k))


def pack_regular(rng: random.Random) -> tuple[list, dict]:
    """Constant sequences [d]*n on a fixed grid, issued in seeded order.

    Per n and mode: d = 5 and d = n/8, n/4, ... up to REGULAR_DMAX[n] eighths
    of n, each with an even and an odd k: k = 4, 5 at d = 5 and k = d/2 - 1,
    d/2 above (n=128 up to d = n/2, k = n/4; n=192 up to d = n/8).  A
    request's time jumps by up to half between neighbouring k, so seeded grid
    points would swing the totals from seed to seed; the grid stays fixed.
    """
    requests = []
    for n, top in REGULAR_DMAX.items():
        grid = [(5, 4), (5, 5)] + [(n * i // 8, n * i // 16 + j) for i in range(1, top + 1) for j in (-1, 0)]
        for d, k in grid:
            if needs_gadget([d] * n, k):
                raise RuntimeError(f"pack-regular point n={n} d={d} k={k} needs the gadget")
            requests.extend((mode, [d] * n, k) for mode in REGULAR_MODES)
    rng.shuffle(requests)
    return requests, {}


def _gnp_degrees(rng: random.Random, n: int) -> list[int]:
    deg = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                deg[u] += 1
                deg[v] += 1
    return deg


def dense_random(rng: random.Random) -> tuple[list, dict]:
    """Degree sequences of G(n, 1/2) with min degree >= k and pi - k graphic.

    The mix is fixed: DENSE_GADGET instances that need the gadget and
    DENSE_FAST that do not.  Gadget instances take over ten times longer, so
    the drawn mix (about half each) would move throughput with the draw, and
    an even mix would put the median in the gap between the two kinds.
    """
    n, k = DENSE_N, DENSE_N // 4
    picked = {"gadget": [], "fast": []}
    want = {"gadget": DENSE_GADGET, "fast": DENSE_FAST}
    drawn = {"gadget": 0, "fast": 0}
    while any(len(picked[c]) < want[c] for c in picked):
        deg = _gnp_degrees(rng, n)
        if min(deg) < k or not graphic(sorted((d - k for d in deg), reverse=True)):
            continue
        cls = "gadget" if needs_gadget(deg, k) else "fast"
        drawn[cls] += 1
        if len(picked[cls]) < want[cls]:
            picked[cls].append(("half-k", deg, k))
    requests = picked["gadget"] + picked["fast"]
    rng.shuffle(requests)
    return requests, {"gadget_requests": DENSE_GADGET, "greedy_requests": DENSE_FAST,
                      "drawn_gadget": drawn["gadget"], "drawn_greedy": drawn["fast"]}


def sweep_tasks(n: int) -> list[tuple[str, list[int], int]]:
    """Every admissible (mode, pi, k) at n, in the order ``factorpack sweep`` builds them."""
    seqs = []
    for asc in combinations_with_replacement(range(n), n):
        desc = list(reversed(asc))
        if graphic(desc):
            seqs.append(tuple(desc))
    tasks = []
    for desc in sorted(seqs):
        for k in range(1, n):
            reduced = [d - k for d in desc]
            if reduced[-1] < 0:
                break
            if not graphic(reduced):
                continue
            for mode in ("four-ones", "half-k"):
                if mode == "half-k" and k < 4:
                    continue
                tasks.append((mode, list(desc), k))
    return tasks


def sweep_n10(rng: random.Random) -> tuple[list, dict]:
    """A fixed systematic sample of the n=10 sweep, issued in seeded order.

    The composition does not depend on the seed: about 2% of the tasks fall
    to the exponential fallback and take three quarters of the time, so a
    random sample of a size that fits one run swings throughput by more than
    10% from seed to seed.
    """
    tasks = sweep_tasks(SWEEP_N)
    requests = tasks[::SWEEP_STRIDE]
    rng.shuffle(requests)
    return requests, {"population": len(tasks), "stride": SWEEP_STRIDE}


def corpus_hash(requests) -> str:
    blob = json.dumps([[m, list(pi), k] for (m, pi, k) in requests], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build(workload: str, seed: int) -> tuple[list, dict]:
    """(requests, info) for a workload; the same seed gives the same requests."""
    makers = {"pack-regular": pack_regular, "dense-random": dense_random, "sweep-n10": sweep_n10}
    rng = random.Random(f"{workload}:{seed}")
    requests, info = makers[workload](rng)
    info.update(requests=len(requests), corpus_sha256=corpus_hash(requests))
    return requests, info
