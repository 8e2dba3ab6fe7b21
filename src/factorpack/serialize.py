"""Canonical JSON encodings: certificates, traces, graphs.

Every edge is emitted as [u, v] with u < v, edge lists are sorted
lexicographically, and factor lists are sorted by first edge, so equal
objects always serialize to identical bytes.
"""

from __future__ import annotations

import json

from .coloring import Batch, Color, FactorCertificate, SwitchTrace
from .errors import UsageError
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


def _int_in(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{x!r} is not an integer")
    return x


def _str_in(x) -> str:
    if not isinstance(x, str):
        raise TypeError(f"{x!r} is not a string")
    return x


def _edges_in(rows) -> tuple[tuple[int, int], ...]:
    return tuple((_int_in(u), _int_in(v)) for (u, v) in rows)


# Certificate fields in FactorCertificate order, each with its parser; "residual" may be absent.
_CERT_FIELDS = {
    "n": _int_in,
    "pi": lambda ds: tuple(map(_int_in, ds)),
    "k": _int_in,
    "mode": _str_in,
    "one_factors": lambda fs: tuple(map(_edges_in, fs)),
    "two_factors": lambda fs: tuple(map(_edges_in, fs)),
    "residual": lambda r: None if r is None else (_int_in(r["degree"]), _edges_in(r["edges"])),
    "black_edges": _edges_in,
}


def certificate_from_dict(data) -> FactorCertificate:
    """Parse a certificate; raises UsageError naming the first missing or malformed field."""
    if not isinstance(data, dict):
        raise UsageError(f"certificate must be a JSON object, not {type(data).__name__}")
    fields = {}
    for key, parse in _CERT_FIELDS.items():
        if key not in data and key != "residual":
            raise UsageError(f"certificate has no {key!r} field")
        try:
            fields[key] = parse(data.get(key))
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"certificate field {key!r} is malformed: {exc!r}") from exc
    return FactorCertificate(**fields)


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

