"""Canonical JSON encodings: certificates, traces, graphs.

Every edge is emitted as [u, v] with u < v, edge lists are sorted
lexicographically, and factor lists are sorted by first edge, so equal
objects always serialize to identical bytes.
"""

from __future__ import annotations

import json

from .coloring import Color, FactorCertificate, SwitchTrace
from .graphs import SimpleGraph


def _edges(edges) -> list[list[int]]:
    return [[u, v] for (u, v) in sorted(edges)]


def certificate_to_dict(cert: FactorCertificate) -> dict:
    return {
        "n": cert.n,
        "pi": list(cert.pi),
        "k": cert.k,
        "mode": cert.mode,
        "one_factors": [_edges(m) for m in cert.one_factors],
        "two_factors": [_edges(f) for f in cert.two_factors],
        "residual": (
            {"degree": cert.residual[0], "edges": _edges(cert.residual[1])}
            if cert.residual is not None else None
        ),
        "black_edges": _edges(cert.black_edges),
    }


def certificate_to_json(cert: FactorCertificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2) + "\n"


def certificate_from_dict(data: dict) -> FactorCertificate:
    residual = None
    if data.get("residual") is not None:
        residual = (int(data["residual"]["degree"]),
                    tuple((int(u), int(v)) for (u, v) in data["residual"]["edges"]))
    return FactorCertificate(
        n=int(data["n"]),
        pi=tuple(int(d) for d in data["pi"]),
        k=int(data["k"]),
        mode=str(data["mode"]),
        one_factors=tuple(tuple((int(u), int(v)) for (u, v) in m) for m in data["one_factors"]),
        two_factors=tuple(tuple((int(u), int(v)) for (u, v) in f) for f in data["two_factors"]),
        residual=residual,
        black_edges=tuple((int(u), int(v)) for (u, v) in data["black_edges"]),
    )


def graph_to_dict(g: SimpleGraph) -> dict:
    return {"n": g.n, "edges": _edges(g.edges), "degrees": g.degrees()}


def trace_to_dict(n: int, initial: dict, trace: SwitchTrace) -> dict:
    return {
        "n": n,
        "initial": [[u, v, str(c)] for ((u, v), c) in sorted(initial.items())],
        "batches": [
            {
                "op": b.op,
                "params": b.params,
                "changes": [[u, v, str(old), str(new)] for ((u, v), old, new) in b.changes],
            }
            for b in trace.batches
        ],
    }


def trace_from_dict(data: dict):
    from .coloring import Batch

    initial = {(int(u), int(v)): Color.parse(c) for (u, v, c) in data["initial"]}
    trace = SwitchTrace()
    for b in data["batches"]:
        trace.batches.append(Batch(
            op=str(b["op"]),
            params=dict(b["params"]),
            changes=tuple(((int(u), int(v)), Color.parse(old), Color.parse(new))
                          for (u, v, old, new) in b["changes"]),
        ))
    return int(data["n"]), initial, trace

