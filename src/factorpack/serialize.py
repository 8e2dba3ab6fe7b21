"""Canonical JSON encodings: certificates, traces, graphs.

Every edge is emitted as [u, v] with u < v, edge lists are sorted
lexicographically, and factor lists are sorted by first edge, so equal
objects always serialize to identical bytes.

``certificate_to_json`` writes the bytes of ``json.dumps(certificate_to_dict(c),
indent=2)`` directly.  With an indent, ``json.dumps`` runs CPython's
pure-Python encoder, which costs more than building the certificate; the
writer formats each edge with one format string and calls ``json.dumps``
only to escape ``mode``.  ``tests/test_serialize.py`` holds it to
``json.dumps`` byte for byte on every sweep certificate up to n = 8 and on
hand-built edge cases, and ``tests/test_properties.py`` on drawn certificates.
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


def _rows(items, pad: str) -> str:
    """``json.dumps``'s indent=2 list of already-encoded items, its opening bracket at indent ``pad``."""
    if not items:
        return "[]"
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def _edge_rows(edges, pad: str) -> str:
    """``_rows`` of ``_edges(edges)``: one format string per edge."""
    inner = pad + "  "
    row = f"[\n{inner}  %d,\n{inner}  %d\n{inner}]"
    return _rows([row % (u, v) for (u, v) in sorted(edges)], pad)


def certificate_to_json(cert: FactorCertificate) -> str:
    """``json.dumps(certificate_to_dict(cert), indent=2) + "\\n"``, written directly; see the module docstring."""
    residual = "null"
    if cert.residual is not None:
        residual = (f'{{\n    "degree": {cert.residual[0]:d},\n'
                    f'    "edges": {_edge_rows(cert.residual[1], "    ")}\n  }}')
    return (
        f'{{\n  "n": {cert.n:d},\n'
        f'  "pi": {_rows(["%d" % d for d in cert.pi], "  ")},\n'
        f'  "k": {cert.k:d},\n'
        f'  "mode": {json.dumps(cert.mode)},\n'
        f'  "one_factors": {_rows([_edge_rows(m, "    ") for m in cert.one_factors], "  ")},\n'
        f'  "two_factors": {_rows([_edge_rows(f, "    ") for f in cert.two_factors], "  ")},\n'
        f'  "residual": {residual},\n'
        f'  "black_edges": {_edge_rows(cert.black_edges, "  ")}\n}}\n'
    )


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

