"""Command-line front end.

Subcommands: graphic, realize, kundu, four-ones, half-k, petersen, verify,
sweep, conjecture.  Output on stdout is byte-deterministic; --seed is
accepted and changes nothing.  Exit codes: 0 success, 1 pi not graphic,
2 pi - k not graphic, 3 odd length where evenness is required, 4 internal
invariant violation or failed verification, 5 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from .coloring import certificate_from_realization, initial_coloring, replay_trace
from .errors import (
    FactorpackError,
    InternalInvariantError,
    NotEvenRegular,
    NotGraphic,
    NotGraphicMinusK,
    OddVertexCount,
    UsageError,
)
from .factorize import four_ones_realization, half_k_realization, petersen_two_factorize
from .oracle import bf_conjecture_search, enumerate_graphic, verify_certificate
from .realize import erdos_gallai_graphic, erdos_gallai_graphic_raw, havel_hakimi_realize, kundu_realize
from .serialize import (
    certificate_from_dict,
    certificate_to_dict,
    certificate_to_json,
    graph_to_dict,
    trace_to_dict,
)

EXIT_OK = 0
EXIT_NOT_GRAPHIC = 1
EXIT_NOT_GRAPHIC_MINUS_K = 2
EXIT_ODD_LENGTH = 3
EXIT_INTERNAL = 4
EXIT_USAGE = 5

# Exit code per error type, the first match wins; any other library error exits 4.
_EXIT_CODES = (
    (NotGraphic, EXIT_NOT_GRAPHIC),
    (NotGraphicMinusK, EXIT_NOT_GRAPHIC_MINUS_K),
    (OddVertexCount, EXIT_ODD_LENGTH),
    ((UsageError, NotEvenRegular, OSError, ValueError), EXIT_USAGE),
)


def _parse_pi(text: str) -> list[int]:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    parts = text.replace(",", " ").split()
    if not parts:
        raise UsageError("empty degree sequence")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"bad degree entry: {exc}") from exc


def _emit(out, data: dict, fmt: str) -> None:
    if fmt == "json":
        out.write(json.dumps(data, indent=2) + "\n")
    else:
        for key, value in data.items():
            out.write(f"{key}: {value}\n")


def _certificate_text(cert_dict: dict) -> str:
    lines = [
        f"n: {cert_dict['n']}",
        f"pi: {' '.join(str(d) for d in cert_dict['pi'])}",
        f"k: {cert_dict['k']}",
        f"mode: {cert_dict['mode']}",
        f"one_factors: {len(cert_dict['one_factors'])}",
    ]
    for i, m in enumerate(cert_dict["one_factors"]):
        lines.append(f"  one[{i}]: " + " ".join(f"{u}-{v}" for (u, v) in m))
    for i, f in enumerate(cert_dict["two_factors"]):
        lines.append(f"  two[{i}]: " + " ".join(f"{u}-{v}" for (u, v) in f))
    res = cert_dict["residual"]
    if res is not None:
        lines.append(f"residual_degree: {res['degree']}")
        lines.append("residual: " + " ".join(f"{u}-{v}" for (u, v) in res["edges"]))
    lines.append("black: " + " ".join(f"{u}-{v}" for (u, v) in cert_dict["black_edges"]))
    return "\n".join(lines) + "\n"


def _write_trace(path: str, real) -> None:
    initial = initial_coloring(real)
    # sanity: replay must reproduce the final coloring
    if replay_trace(real.n, initial, real.trace) != real.coloring_map():
        raise InternalInvariantError("trace replay does not reproduce the final coloring")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace_to_dict(real.n, initial, real.trace), fh, indent=2)
        fh.write("\n")


def _switch_stats(real) -> tuple[int, int]:
    switches = 0
    max_r = 0
    for batch in real.trace.batches:
        if batch.op == "multi_switch":
            switches += 1
            max_r = max(max_r, int(batch.params.get("r", 0)))
        elif batch.op == "parallel_two_switch":
            switches += 1
    return switches, max_r


def _cmd_graphic(args, out) -> int:
    pi = _parse_pi(args.pi)
    ok = erdos_gallai_graphic(pi)
    _emit(out, {"pi": pi, "graphic": ok}, args.format)
    return EXIT_OK if ok else EXIT_NOT_GRAPHIC


def _cmd_realize(args, out) -> int:
    g = havel_hakimi_realize(_parse_pi(args.pi))
    _emit(out, graph_to_dict(g), args.format)
    return EXIT_OK


# Pipeline subcommands: name (also the certificate mode) -> (realization builder, help).
_PIPELINES = {
    "kundu": (kundu_realize, "realization with a k-regular residual class"),
    "four-ones": (four_ones_realization, "pack min(k,4) 1-factors plus a (k-4)-regular residual"),
    "half-k": (half_k_realization, "pack floor(k/2)+2 edge-disjoint 1-factors"),
}


def _cmd_pipeline(args, out) -> int:
    build, _help = _PIPELINES[args.command]
    real = build(_parse_pi(args.pi), args.k, args.seed)
    cert = certificate_from_realization(real, args.command, args.k)
    if args.trace:
        _write_trace(args.trace, real)
    out.write(certificate_to_json(cert) if args.format == "json"
              else _certificate_text(certificate_to_dict(cert)))
    return EXIT_OK


def _cmd_petersen(args, out) -> int:
    pi = _parse_pi(args.pi)
    values = set(pi)
    if len(values) != 1 or (pi[0] % 2) != 0:
        raise NotEvenRegular(f"petersen needs a constant even sequence, got {pi}")
    g = havel_hakimi_realize(pi)
    parts = petersen_two_factorize(g.adjacency(), pi[0] // 2)
    _emit(out, {
        "n": g.n,
        "r": pi[0] // 2,
        "graph_edges": [[u, v] for (u, v) in g.sorted_edges()],
        "two_factors": [[[u, v] for (u, v) in part] for part in parts],
    }, args.format)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    if args.cert == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.cert, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    cert = certificate_from_dict(data)
    report = verify_certificate(cert.pi, cert.k, cert)
    _emit(out, {
        "passed": report.passed,
        "violations": [[kind, repr(witness)] for (kind, witness) in report.violations],
        "counts": report.counts,
    }, args.format)
    return EXIT_OK if report.passed else EXIT_INTERNAL


def _cmd_conjecture(args, out) -> int:
    pi = _parse_pi(args.pi)
    result = bf_conjecture_search(pi, args.k)
    if result is None:
        _emit(out, {
            "pi": pi, "k": args.k, "found": False,
            "counterexample": "exhaustive search found no realization with "
                              f"{args.k} edge-disjoint perfect matchings",
        }, args.format)
        return EXIT_INTERNAL
    g, matchings = result
    _emit(out, {
        "pi": pi,
        "k": args.k,
        "found": True,
        "realization": [[u, v] for (u, v) in g.sorted_edges()],
        "matchings": [[[u, v] for (u, v) in m.sorted_edges()] for m in matchings],
    }, args.format)
    return EXIT_OK


def _sweep_instance(task):
    n, degrees, k, mode, seed = task
    started = time.perf_counter()
    ones = switches = max_r = 0
    try:
        build, _help = _PIPELINES[mode]
        real = build(degrees, k, seed)
        cert = certificate_from_realization(real, mode, k)
        report = verify_certificate(degrees, k, cert)
        ok = report.passed
        ones = len(cert.one_factors)
        switches, max_r = _switch_stats(real)
    except FactorpackError:
        ok = False
    millis = int((time.perf_counter() - started) * 1000)
    return {
        "n": n, "pi": ",".join(str(d) for d in degrees), "k": k, "mode": mode,
        "ok": ok, "n_one_factors": ones, "n_switches": switches,
        "max_chain_r": max_r, "millis": millis,
    }


def _sweep_workers(requested: int, tasks: int) -> int:
    """Sweep processes: the requested count, capped by the CPUs and the number of tasks."""
    return min(requested, os.cpu_count() or 1, tasks)


def _cmd_sweep(args, out) -> int:
    sizes = [int(x) for x in args.n.replace(",", " ").split()]
    for n in sizes:
        if n % 2:  # no perfect matching, so every task would fail
            raise OddVertexCount(f"n={n} must be even")
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    modes = ["four-ones", "half-k"] if args.mode == "both" else [args.mode]
    tasks = []
    for n in sizes:
        for ds in enumerate_graphic(n, n - 1):
            for k in range(1, n):
                if not erdos_gallai_graphic_raw([d - k for d in ds.degrees]):
                    continue
                for mode in modes:
                    if mode == "half-k" and k < 4:
                        continue
                    tasks.append((n, ds.degrees, k, mode, args.seed))
    workers = _sweep_workers(args.workers, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_instance, tasks))
    else:
        rows = [_sweep_instance(t) for t in tasks]
    rows.sort(key=lambda r: (r["n"], r["pi"], r["k"], r["mode"]))
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=[
                "n", "pi", "k", "mode", "ok", "n_one_factors", "n_switches",
                "max_chain_r", "millis"])
            writer.writeheader()
            writer.writerows(rows)
    failures = [r for r in rows if not r["ok"]]
    _emit(out, {
        "instances": len(rows),
        "failures": len(failures),
        "failed": [[r["pi"], r["k"], r["mode"]] for r in failures],
        "max_chain_r": max((r["max_chain_r"] for r in rows), default=0),
        "total_switches": sum(r["n_switches"] for r in rows),
    }, args.format)
    return EXIT_OK if not failures else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="factorpack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graphic", help="test whether a sequence is graphic")
    p.add_argument("--pi", required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_graphic)

    p = sub.add_parser("realize", help="build one realization of a graphic sequence")
    p.add_argument("--pi", required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_realize)

    for name, (_build, help_text) in _PIPELINES.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--pi", required=True, help="degrees, comma/space separated, or @file")
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--trace", default=None, help="write the recoloring trace to this path")
        p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("petersen", help="split a constant even-degree realization into 2-factors")
    p.add_argument("--pi", required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_petersen)

    p = sub.add_parser("verify", help="verify a certificate file ('-' reads stdin)")
    p.add_argument("--cert", required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("conjecture", help="exhaustive search for k disjoint 1-factors")
    p.add_argument("--pi", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("sweep", help="run four-ones/half-k over all graphic sequences")
    p.add_argument("--n", required=True, help="vertex counts, e.g. '4,6,8'")
    p.add_argument("--mode", choices=("four-ones", "half-k", "both"), default="both")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None, help="write per-instance CSV here")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_sweep)

    return parser


def run(argv, out=None) -> int:
    """Dispatch a subcommand; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse takes a lone --pi value like -1,1 for an option
        if argv[i - 1] == "--pi":
            argv[i - 1:i + 1] = [f"--pi={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args, out)
    except (FactorpackError, OSError, ValueError) as exc:  # ValueError covers bad JSON
        code = next((c for types, c in _EXIT_CODES if isinstance(exc, types)), EXIT_INTERNAL)
        print(f"{'internal error' if code == EXIT_INTERNAL else 'error'}: {exc}", file=sys.stderr)
        return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
