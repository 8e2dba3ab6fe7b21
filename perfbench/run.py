"""factorpack benchmark: verified certificates for seeded (pi, k, mode) corpora.

Usage, from the repository root:

    python3 perfbench/run.py --workload pack-regular --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process, one thread, one caller in a closed loop: the next request starts
when the previous one has completed.  A request builds the realization with
the call the CLI handler makes (``four_ones_realization`` or
``half_k_realization``, both of which start with ``kundu_realize``) and
reads its certificate with ``certificate_from_realization``; that is the
timed pipeline call.  Outside
it, the certificate is checked with ``verify_certificate``, the
realization's trace is replayed to its final coloring, and the certificate
is serialized; a sha256 over the serialized certificates, in corpus order,
is the output digest of a pass.

The loop runs whole passes over the corpus, then keeps cycling until
``--seconds`` have passed.  Each request's time is the mean of its repeats,
which lie a pass apart and so are spread over the whole run.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` runs one untraced and one traced
pass and prints the per-layer metrics.  Earlier
stdout lines are a readable report; the last line is one JSON object.  The
full result, with run metadata, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import tracing  # noqa: E402

SETUP_PROBES = 21
TAIL_BEYOND = 10
PROGRAM_SEED = 0
WARMUP = ("half-k", [6] * 16, 4)


def load_program():
    """Import factorpack from this checkout's src/, or exit non-zero."""
    if not (SRC / "factorpack" / "__init__.py").is_file():
        sys.exit(f"perfbench: no factorpack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import factorpack

    if Path(factorpack.__file__).resolve().parent != (SRC / "factorpack").resolve():
        sys.exit(f"perfbench: imported factorpack from {factorpack.__file__}, not from {SRC}")
    from factorpack import coloring, factorize, oracle, serialize

    return coloring, factorize, oracle, serialize


class Program:
    """The calls one request makes; looked up per call so tracing wrappers apply."""

    def __init__(self):
        self.coloring, self.factorize, self.oracle, self.serialize = load_program()

    def pipeline(self, mode: str, pi: list[int], k: int):
        ds = self.coloring.DegreeSequence.of(pi)
        if mode == "four-ones":
            real = self.factorize.four_ones_realization(ds, k, PROGRAM_SEED)
        else:
            real = self.factorize.half_k_realization(ds, k, PROGRAM_SEED)
        return real, self.coloring.certificate_from_realization(real, mode, k)

    def check(self, pi: list[int], k: int, real, cert) -> tuple[bool, str]:
        """(verified and replayed, canonical certificate JSON)."""
        report = self.oracle.verify_certificate(self.coloring.DegreeSequence.of(pi), k, cert)
        final = real.coloring_map()
        initial = dict(final)
        for batch in reversed(real.trace.batches):
            for (e, old, _new) in reversed(batch.changes):
                initial[e] = old
        replayed = self.coloring.replay_trace(real.n, initial, real.trace) == final
        return report.passed and replayed, self.serialize.certificate_to_json(cert)


class Passes:
    """Per-request times (ns) and outcomes of the closed loop."""

    def __init__(self, size: int):
        self.pipe = [[] for _ in range(size)]
        self.wall = [[] for _ in range(size)]
        self.failed: set[int] = set()
        self.attempted = 0
        self.failures = 0
        self.digests: list[str] = []
        self.elapsed_ns = 0


def run_passes(program: Program, requests, seconds: float, tracer: tracing.Tracer | None = None) -> Passes:
    """At least one whole pass, then more requests until `seconds` have passed."""
    clock = time.perf_counter_ns
    res = Passes(len(requests))
    started = clock()
    deadline = started + int(seconds * 1e9)
    while True:
        digest = hashlib.sha256()
        for idx, (mode, pi, k) in enumerate(requests):
            if res.digests and clock() >= deadline:
                res.elapsed_ns = clock() - started
                return res
            res.attempted += 1
            t0, t1 = clock(), None
            span = tracer.begin("bench.pipeline") if tracer else None
            try:
                real, cert = program.pipeline(mode, pi, k)
                t1 = clock()
                if tracer:
                    tracer.finish(span)
                    span = tracer.begin("bench.check")
                ok, text = program.check(pi, k, real, cert)
            except Exception as exc:  # one failing request must not end the run
                if not res.failures:
                    traceback.print_exc(file=sys.stderr)
                ok, text = False, f"FAILED {type(exc).__name__}"
            if tracer:
                tracer.finish(span)
            t2 = clock()
            if not ok:
                res.failures += 1
                res.failed.add(idx)
            res.pipe[idx].append((t1 or t2) - t0)
            res.wall[idx].append(t2 - t0)
            digest.update(text.encode() + b"\n")
        res.digests.append(digest.hexdigest())


def end_to_end(res: Passes) -> tuple[dict[str, float], dict]:
    """Metrics from each request's mean time; the tail has TAIL_BEYOND requests beyond it.

    A shared host's speed drifts by a quarter over tens of seconds.  The mean
    of repeats a pass apart averages that drift over the whole run; the fastest
    or the median repeat follows whichever phase a few repeats happened to hit.
    """
    m = len(res.pipe)
    pipe = sorted(statistics.fmean(t) for t in res.pipe)
    wall_s = sum(statistics.fmean(t) for t in res.wall) / 1e9
    rank = max(0, m - TAIL_BEYOND - 1)
    metrics = {
        "certs_per_s": (m - len(res.failed)) / wall_s,
        "cert_p50_ms": statistics.median(pipe) / 1e6,
        "cert_tail_ms": pipe[rank] / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail = {"percentile": 100 * (rank + 1) / m, "samples": m, "samples_beyond": m - rank - 1}
    return metrics, tail


def measure_setup() -> float:
    """Median over fresh processes of importing factorpack and one small request."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    times = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        if i:  # the first probe also writes the bytecode cache
            times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "factorpack").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def check_digest(key: str, digest: str) -> bool:
    """Compare with the digest an earlier run of the same sources and corpus stored."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if known.setdefault(key, digest) != digest:
        return False
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return True


def run_workload(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    program = Program()
    requests, info = corpus.build(args.workload, args.seed)
    problems = []
    src_sha = source_hash()
    OUT.mkdir(exist_ok=True)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "loop": "closed, 1 client, 1 thread", "host": platform.node(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_commit": git_commit(), "src_sha256": src_sha,
        "strict_validation": program.coloring.STRICT_VALIDATION, "corpus": info,
    }
    setup_s = None if args.trace else measure_setup()
    program.check(WARMUP[1], WARMUP[2], *program.pipeline(*WARMUP))

    if args.trace:
        untraced = run_passes(program, requests, 0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            res = run_passes(program, requests, 0, tracer)
        finally:
            tracer.restore()
        metrics = tracer.analyse(res.elapsed_ns, untraced.elapsed_ns)
        limit = min(m["bound"] for m in spec["end_to_end"])
        if metrics["trace.self_sum_gap"] > limit:
            problems.append(f"span self times miss the traced wall by {metrics['trace.self_sum_gap']:.2%}")
        if untraced.digests != res.digests:
            problems.append("the traced pass produced other certificates than the untraced pass")
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        attempted, failures = untraced.attempted + res.attempted, untraced.failures + res.failures
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        res = run_passes(program, requests, args.seconds)
        metrics, meta["tail"] = end_to_end(res)
        metrics["setup_s"] = setup_s
        attempted, failures = res.attempted, res.failures
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(metrics) != set(wanted):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(wanted))}")

    if len(set(res.digests)) != 1:
        problems.append(f"passes of one run produced different certificates: {res.digests}")
    elif not check_digest(f"{args.workload}:{info['corpus_sha256']}:{src_sha}", res.digests[0]):
        problems.append("output digest differs from an earlier run of the same sources and corpus")
    if failures:
        problems.append(f"{failures} of {attempted} requests failed")
    meta.update(passes=len(res.digests), digest=res.digests[0], elapsed_s=res.elapsed_ns / 1e9,
                failed_share=failures / attempted, problems=problems)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {info['requests']} requests, "
          f"{len(res.digests)} passes, corpus {info['corpus_sha256'][:16]}, digest {res.digests[0][:16]}")
    for name in wanted:
        print(f"  {name:44s} {metrics[name]:14.6g} {wanted[name]}")
    print(f"  {'failed_share':44s} {failures / attempted:14.6g} ratio")
    if "tail" in meta:
        print(f"  cert_tail_ms is p{meta['tail']['percentile']:.2f} of {meta['tail']['samples']} requests")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(f"  meta {json.dumps(meta)}")
    result = {
        "correct": not problems, "attempted": attempted, "failed": failures,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "meta": meta}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; metrics are prefixed with the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in corpus.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            sys.exit(f"perfbench: {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*corpus.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
