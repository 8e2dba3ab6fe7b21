"""Golden corpus: the CLI's stdout, exit codes, one trace file and one sweep CSV, byte for byte.

The files under ``tests/golden/`` were recorded from the CLI and are the
"same outputs" contract for refactors: a change that alters any byte here
changes behaviour.  The kundu cases cover every fill stage of
``kundu_realize``: greedy (``4,4,4,4,4,4`` k=4), circulant (``2,2,2,2,2,2``
k=1), the exact gadget (``6,6,5,5,5,5,5,5`` k=4) and switch repair
(``4,4,4,4,2,2`` k=1 and ``7,7,7,5,5,5,5,3`` k=1).  The ``hillclimb`` and
``exhaustive`` cases keep the names of the two stages that switch repair
replaced; seeds 0 and 3 now give the same bytes, since ``--seed`` changes
no output.  ``four-ones-6x18-k2`` and ``half-k-4x20-k4-trace`` pin peels
that merge two or more pairs of odd cycles; every peel at n <= 8 merges at
most once.  ``half-k-7x6-6x2-k5`` and the trace of ``half-k-5x6-k5-trace``
were re-recorded when odd-k half-k stopped peeling a fourth 1-factor only to
fold it back into the residual.  In the first case that peel had run a
multi-switch, which changed the certificate; the trace lost the peel and
the fold-back batch.  Three text cases run the fill stages at scale:
``kundu-32x128-k16-text`` and ``four-ones-9x16-k5-text`` fill with whole
circulant rings, and ``half-k-40-gadget-k10-text``, a G(40, 1/2) degree
sequence, fills through the complement gadget.  When the exact searches
started from a max flow and its Euler rounding, the cases whose fill reaches
them and whose bytes moved were re-recorded: ``kundu-exhaustive``,
``kundu-exhaustive-text``, ``four-ones-exhaustive``,
``four-ones-unsorted-text``, ``half-k-7x6-6x2-k5`` and
``half-k-40-gadget-k10-text``, and the ``sweep-4-6-report`` summary and CSV.
``four-ones-deficit`` is an input whose rounding leaves deficits for the
gadget.  ``half-k-40-gadget-k10-text`` was re-recorded again when a merge
began to match only its two cycles, the edges it recolored and its bridge,
rather than all of its work class inside the pair.  ``DIGESTS_AT_SCALE`` pins
the sha256 of three n=256 certificates, in-process rather than through the
CLI, whose bytes would be megabytes each.  ``BENCH_PASS_DIGESTS`` pins the
seed-1 pass digest of each benchmark workload.

To re-record after a deliberate output change, from the repository root:
``PYTHONPATH=src python -m tests.test_golden NAME ...`` rewrites only the
named cases (an unknown name exits non-zero and writes nothing); with no
name it rewrites every case.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import sys
from pathlib import Path

import pytest

from factorpack import (
    certificate_from_realization,
    four_ones,
    four_ones_realization,
    half_k,
    half_k_realization,
    verify_certificate,
)
from factorpack.coloring import DegreeSequence
from factorpack.cli import run
from factorpack.serialize import certificate_to_json

GOLDEN = Path(__file__).parent / "golden"

# Per-run paths substituted into argv.
TRACE = "{trace}"
REPORT = "{report}"
CERT = str(GOLDEN / "half-k-5x6-k5.out")
TAMPERED = str(GOLDEN / "input-tampered-cert.json")

# (name, argv, exit code); each case's stdout is golden/<name>.out.
CASES = [
    # kundu: one case per fill stage, both formats
    ("kundu-greedy", ["kundu", "--pi", "4,4,4,4,4,4", "--k", "4"], 0),
    ("kundu-greedy-text", ["kundu", "--pi", "4,4,4,4,4,4", "--k", "4", "--format", "text"], 0),
    ("kundu-circulant", ["kundu", "--pi", "2,2,2,2,2,2", "--k", "1"], 0),
    ("kundu-circulant-text", ["kundu", "--pi", "2,2,2,2,2,2", "--k", "1", "--format", "text"], 0),
    ("kundu-gadget", ["kundu", "--pi", "6,6,5,5,5,5,5,5", "--k", "4"], 0),
    ("kundu-gadget-text", ["kundu", "--pi", "6,6,5,5,5,5,5,5", "--k", "4", "--format", "text"], 0),
    ("kundu-hillclimb-seed0", ["kundu", "--pi", "4,4,4,4,2,2", "--k", "1", "--seed", "0"], 0),
    ("kundu-hillclimb-seed0-text",
     ["kundu", "--pi", "4,4,4,4,2,2", "--k", "1", "--seed", "0", "--format", "text"], 0),
    ("kundu-hillclimb-seed3", ["kundu", "--pi", "4,4,4,4,2,2", "--k", "1", "--seed", "3"], 0),
    ("kundu-exhaustive", ["kundu", "--pi", "7,7,7,5,5,5,5,3", "--k", "1"], 0),
    ("kundu-exhaustive-text",
     ["kundu", "--pi", "7,7,7,5,5,5,5,3", "--k", "1", "--format", "text"], 0),
    ("kundu-unsorted", ["kundu", "--pi", "3,4,4,3,4,4", "--k", "3"], 0),
    ("kundu-k0", ["kundu", "--pi", "2,2,1,1", "--k", "0"], 0),
    ("kundu-one-vertex", ["kundu", "--pi", "0", "--k", "0"], 0),  # K_1: an empty coloring
    # the pack-regular circulant point: greedy misses, whole offset rings fill
    ("kundu-32x128-k16-text",
     ["kundu", "--pi", ",".join(["32"] * 128), "--k", "16", "--format", "text"], 0),
    ("kundu-odd-n-text", ["kundu", "--pi", "2,2,2,2,2", "--k", "2", "--format", "text"], 0),
    ("kundu-not-graphic", ["kundu", "--pi", "3,3,1,1", "--k", "1"], 1),
    ("kundu-minus-k-not-graphic", ["kundu", "--pi", "2,2,1,1", "--k", "2"], 2),
    # four-ones
    ("four-ones-5x6-k5", ["four-ones", "--pi", "5,5,5,5,5,5", "--k", "5", "--seed", "7"], 0),
    ("four-ones-5x6-k5-text",
     ["four-ones", "--pi", "5,5,5,5,5,5", "--k", "5", "--seed", "7", "--format", "text"], 0),
    ("four-ones-3x4-k3", ["four-ones", "--pi", "3,3,3,3", "--k", "3"], 0),
    ("four-ones-mixed", ["four-ones", "--pi", "5,5,4,4,3,3", "--k", "3", "--seed", "9"], 0),
    ("four-ones-mixed-text",
     ["four-ones", "--pi", "5,5,4,4,3,3", "--k", "3", "--seed", "9", "--format", "text"], 0),
    ("four-ones-gadget", ["four-ones", "--pi", "6,6,5,5,5,5,5,5", "--k", "4"], 0),
    ("four-ones-hillclimb", ["four-ones", "--pi", "4,4,4,4,2,2", "--k", "1", "--seed", "3"], 0),
    ("four-ones-exhaustive", ["four-ones", "--pi", "7,7,7,5,5,5,5,3", "--k", "1"], 0),
    ("four-ones-unsorted-text",
     ["four-ones", "--pi", "3,5,5,4,4,3", "--k", "2", "--format", "text"], 0),
    ("four-ones-not-graphic", ["four-ones", "--pi", "3,3,1,1", "--k", "1"], 1),
    ("four-ones-minus-k-not-graphic", ["four-ones", "--pi", "2,2,1,1", "--k", "2"], 2),
    ("four-ones-odd-n", ["four-ones", "--pi", "2,2,2,2,2", "--k", "2"], 3),
    ("four-ones-k0", ["four-ones", "--pi", "2,2,2,2", "--k", "0"], 5),
    # one peel that merges three pairs of odd cycles
    ("four-ones-6x18-k2", ["four-ones", "--pi", ",".join(["6"] * 18), "--k", "2"], 0),
    # a circulant fill under four peels
    ("four-ones-9x16-k5-text",
     ["four-ones", "--pi", ",".join(["9"] * 16), "--k", "5", "--format", "text"], 0),
    # the flow's Euler rounding leaves deficits, which the warm-started gadget fills
    ("four-ones-deficit", ["four-ones", "--pi", "5,5,5,5,4,4,3,3,3,3", "--k", "1"], 0),
    # half-k
    ("half-k-5x6-k5", ["half-k", "--pi", "5,5,5,5,5,5", "--k", "5"], 0),
    ("half-k-5x6-k5-text", ["half-k", "--pi", "5,5,5,5,5,5", "--k", "5", "--format", "text"], 0),
    ("half-k-6x8-k6", ["half-k", "--pi", "6,6,6,6,6,6,6,6", "--k", "6", "--seed", "3"], 0),
    ("half-k-6x8-k6-text",
     ["half-k", "--pi", "6,6,6,6,6,6,6,6", "--k", "6", "--seed", "3", "--format", "text"], 0),
    ("half-k-7x8-k7", ["half-k", "--pi", "7,7,7,7,7,7,7,7", "--k", "7", "--seed", "2"], 0),
    ("half-k-7x6-6x2-k5", ["half-k", "--pi", "7,7,7,7,7,7,6,6", "--k", "5"], 0),
    ("half-k-gadget", ["half-k", "--pi", "6,6,5,5,5,5,5,5", "--k", "4"], 0),
    # a degree-6 residual, split into three 2-factors
    ("half-k-10x12-k10", ["half-k", "--pi", ",".join(["10"] * 12), "--k", "10"], 0),
    # a G(40, 1/2) degree sequence whose fill reaches the complement gadget
    ("half-k-40-gadget-k10-text",
     ["half-k", "--pi", "15,17,25,16,18,18,22,16,23,18,17,24,23,14,22,22,22,18,20,19,"
                        "28,19,16,25,18,20,15,14,18,18,17,19,21,18,19,16,21,16,19,16",
      "--k", "10", "--format", "text"], 0),
    ("half-k-4x6-k4-text", ["half-k", "--pi", "4,4,4,4,4,4", "--k", "4", "--format", "text"], 0),
    ("half-k-k-too-small", ["half-k", "--pi", "2,2,2,2", "--k", "2"], 5),
    # graphic
    ("graphic-yes", ["graphic", "--pi", "2 2 2 2"], 0),
    ("graphic-yes-text", ["graphic", "--pi", "2 2 2 2", "--format", "text"], 0),
    ("graphic-no", ["graphic", "--pi", "3,3,1,1"], 1),
    ("graphic-no-text", ["graphic", "--pi", "3,3,1,1", "--format", "text"], 1),
    ("graphic-zeros", ["graphic", "--pi", "0,0,0"], 0),
    # realize
    ("realize", ["realize", "--pi", "3,3,2,2,1,1"], 0),
    ("realize-text", ["realize", "--pi", "3,3,2,2,1,1", "--format", "text"], 0),
    ("realize-unsorted", ["realize", "--pi", "2,1,1,3,2,3"], 0),
    ("realize-not-graphic", ["realize", "--pi", "3,3,1,1"], 1),
    # petersen
    ("petersen-4x5", ["petersen", "--pi", "4,4,4,4,4"], 0),
    ("petersen-4x5-text", ["petersen", "--pi", "4,4,4,4,4", "--format", "text"], 0),
    ("petersen-6x7", ["petersen", "--pi", "6,6,6,6,6,6,6"], 0),
    ("petersen-odd-degree", ["petersen", "--pi", "3,3,3,3"], 5),
    # verify
    ("verify", ["verify", "--cert", CERT], 0),
    ("verify-text", ["verify", "--cert", CERT, "--format", "text"], 0),
    ("verify-tampered", ["verify", "--cert", TAMPERED], 4),
    # conjecture
    ("conjecture-2x4-k2", ["conjecture", "--pi", "2,2,2,2", "--k", "2"], 0),
    ("conjecture-2x4-k2-text", ["conjecture", "--pi", "2,2,2,2", "--k", "2", "--format", "text"], 0),
    ("conjecture-2x6-k2", ["conjecture", "--pi", "2,2,2,2,2,2", "--k", "2"], 0),
    ("conjecture-3x6-k3", ["conjecture", "--pi", "3,3,3,3,3,3", "--k", "3"], 0),
    ("conjecture-odd-n", ["conjecture", "--pi", "4,4,4,4,4", "--k", "2"], 3),
    # sweep, plus the trace file
    ("sweep-4-6-report", ["sweep", "--n", "4,6", "--report", REPORT], 0),
    ("sweep-4-text", ["sweep", "--n", "4", "--format", "text"], 0),
    ("sweep-6-half-k", ["sweep", "--n", "6", "--mode", "half-k"], 0),
    ("sweep-odd-n", ["sweep", "--n", "5"], 3),
    ("half-k-5x6-k5-trace", ["half-k", "--pi", "5,5,5,5,5,5", "--k", "5", "--trace", TRACE], 0),
    ("half-k-4x20-k4-trace", ["half-k", "--pi", ",".join(["4"] * 20), "--k", "4", "--trace", TRACE], 0),
]

# Side files: case name -> (argv placeholder, golden file).
SIDE_FILES = {
    "sweep-4-6-report": (REPORT, "sweep-4-6-report.csv"),
    "half-k-5x6-k5-trace": (TRACE, "half-k-5x6-k5-trace.json"),
    "half-k-4x20-k4-trace": (TRACE, "half-k-4x20-k4-trace.json"),
}


def _drop_millis(csv_text: str) -> str:
    """The sweep CSV without its last column, the only one that depends on timing."""
    rows = []
    for line in csv_text.splitlines(keepends=True):
        body = line.rstrip("\r\n")
        rows.append(body[:body.rindex(",")] + line[len(body):])
    assert csv_text.startswith(rows[0].rstrip("\r\n") + ",millis")
    return "".join(rows)


def _run_case(argv, tmpdir: Path) -> tuple[int, str, dict[str, str]]:
    """(exit code, stdout, side file contents keyed by placeholder)."""
    paths = {TRACE: str(tmpdir / "trace.json"), REPORT: str(tmpdir / "report.csv")}
    out = io.StringIO()
    code = run([paths.get(a, a) for a in argv], out=out)
    side = {}
    for placeholder, path in paths.items():
        if placeholder in argv:
            text = Path(path).read_bytes().decode("utf-8")
            side[placeholder] = _drop_millis(text) if placeholder == REPORT else text
    return code, out.getvalue(), side


@pytest.mark.parametrize("name,argv,expected_code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, expected_code, tmp_path):
    code, stdout, side = _run_case(argv, tmp_path)
    assert code == expected_code
    assert stdout == (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")
    if name in SIDE_FILES:
        placeholder, filename = SIDE_FILES[name]
        assert side[placeholder] == (GOLDEN / filename).read_bytes().decode("utf-8")


def gnp_degrees(n: int, seed: int) -> list[int]:
    """Degrees of G(n, 1/2): each pair u < v, in order, is an edge when ``rng.random() < 0.5``."""
    rng = random.Random(seed)
    degrees = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                degrees[u] += 1
                degrees[v] += 1
    return degrees


# sha256 of certificate_to_json at n=256, pinned before refactors of the pack path.
DIGESTS_AT_SCALE = [
    ("four-ones-64x256-k64", four_ones, [64] * 256,
     "86ee9e7090fe6789343c9c0fdd6812961b622868c8328ec6ab7dd18c8a352464"),
    ("half-k-64x256-k64", half_k, [64] * 256,
     "bb57dd86a5ed69cf332c73bff46742d2fd6c2ef4dc2c0cd7fc59c45a0fed78f2"),
    ("half-k-gnp256-k64", half_k, gnp_degrees(256, 1),
     "a560efe8a4765512b6d80088f752b95fd7830b79f39c8b9315018033a53a7516"),
]


@pytest.mark.parametrize("build,pi,digest", [c[1:] for c in DIGESTS_AT_SCALE],
                         ids=[c[0] for c in DIGESTS_AT_SCALE])
def test_certificate_digest_at_n256(build, pi, digest):
    cert = build(pi, 64)
    assert verify_certificate(pi, 64, cert).passed
    assert hashlib.sha256(certificate_to_json(cert).encode()).hexdigest() == digest


# sha256 of one benchmark pass at seed 1: certificate_to_json(cert) + "\n" per
# request, in corpus order, as perfbench/run.py digests a pass.
BENCH_PASS_DIGESTS = {
    "pack-regular": "cdd1af2d322ab41771d4adab65f788cd0748aa73fd69b96e470113e575b5b31a",
    "dense-random": "e626f17a484cf72f1bbf6ec6662077239755aa61e6d6ef16bf3e7cf76d976587",
    "sweep-n10": "29a983008a30c424812999ea169c68b5d2dac914d6ff3905c2d229fe4de8b143",
}


@pytest.mark.parametrize("workload", BENCH_PASS_DIGESTS)
def test_bench_pass_digest_at_seed_1(workload):
    from tests.test_realize import _perfbench_corpus

    digest = hashlib.sha256()
    for mode, pi, k in _perfbench_corpus().build(workload, 1)[0]:
        build = four_ones_realization if mode == "four-ones" else half_k_realization
        cert = certificate_from_realization(build(DegreeSequence.of(pi), k, 0), mode, k)
        digest.update(certificate_to_json(cert).encode() + b"\n")
    assert digest.hexdigest() == BENCH_PASS_DIGESTS[workload]


def test_record_rewrites_only_the_named_cases(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    with pytest.raises(SystemExit):
        record(["graphic-yes", "no-such-case"])
    assert list(tmp_path.iterdir()) == []
    record(["graphic-yes"])
    assert [p.name for p in tmp_path.iterdir()] == ["graphic-yes.out"]
    recorded = (tmp_path / "graphic-yes.out").read_bytes()
    assert recorded == (Path(__file__).parent / "golden" / "graphic-yes.out").read_bytes()


def record(names=()) -> None:
    """Rewrite the golden files of the named cases, or of every case, from the current CLI."""
    import tempfile

    unknown = sorted(set(names) - {c[0] for c in CASES})
    if unknown:
        raise SystemExit(f"unknown golden case(s): {', '.join(unknown)}")
    chosen = [c for c in CASES if not names or c[0] in names]
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, expected_code in chosen:
            code, stdout, side = _run_case(argv, Path(tmp))
            if code != expected_code:
                raise SystemExit(f"{name}: exit {code}, expected {expected_code}")
            (GOLDEN / f"{name}.out").write_bytes(stdout.encode("utf-8"))
            if name in SIDE_FILES:
                placeholder, filename = SIDE_FILES[name]
                (GOLDEN / filename).write_bytes(side[placeholder].encode("utf-8"))
    print(f"recorded {len(chosen)} cases under {os.path.relpath(GOLDEN)}")


if __name__ == "__main__":
    record(sys.argv[1:])
