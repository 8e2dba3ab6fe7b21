"""factorpack's records: what they refuse, how they compare, and what importing them loads."""

import os
import subprocess
import sys

import pytest

import factorpack
from factorpack import (
    DegreeSequence,
    FactorCertificate,
    Matching,
    MultiSwitchReport,
    OddCycleCertificate,
    SimpleGraph,
    SwitchTrace,
    VerifyReport,
    half_k,
)
from factorpack.coloring import Batch
from factorpack.factorize import CrossEdgeCase, TripleChoice
from factorpack.serialize import _CERT_FIELDS, certificate_from_dict, certificate_to_dict

VALUE_RECORDS = {
    DegreeSequence: ("degrees",),
    Batch: ("op", "params", "changes"),
    FactorCertificate: ("n", "pi", "k", "mode", "one_factors", "two_factors", "residual", "black_edges"),
    TripleChoice: ("cycle", "vertices", "direction"),
    CrossEdgeCase: ("edges", "resolution"),
    Matching: ("edges",),
    OddCycleCertificate: ("matching", "cycles", "rows"),
    MultiSwitchReport: ("chain", "midpoints", "swapped_indices", "z1", "z3_appeared_at", "consumed"),
    VerifyReport: ("passed", "violations", "counts"),
}


def test_importing_factorpack_loads_no_dataclasses_inspect_typing_or_random():
    """A fresh ``python -S`` child: without ``site``, nothing else preloads these modules."""
    src = os.path.dirname(os.path.dirname(factorpack.__file__))
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import factorpack\n"
            "from factorpack import coloring, factorize, oracle, serialize\n"
            "print(*[m for m in ('dataclasses', 'inspect', 'typing', 'random') if m in sys.modules])\n")
    child = subprocess.run([sys.executable, "-S", "-B", "-c", code, src],
                           capture_output=True, text=True, timeout=60, check=True)
    assert child.stdout.split() == [], child.stdout


@pytest.mark.parametrize("cls", list(VALUE_RECORDS), ids=lambda c: c.__name__)
def test_value_records_keep_their_fields_and_refuse_assignment(cls):
    fields = VALUE_RECORDS[cls]
    assert cls._fields == fields
    record = cls(*range(len(fields)))
    assert record == cls(**dict(zip(fields, range(len(fields)))))
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, -1)
    assert list(record) == list(range(len(fields)))
    assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{f}={i}" for i, f in enumerate(fields)) + ")"


def test_simple_graph_validates_its_edges_and_compares_by_n_and_edges():
    for bad in ({(0, 3)}, {(1, 0)}, {(1, 1)}, {(-1, 2)}):
        with pytest.raises(ValueError, match="bad edge"):
            SimpleGraph(3, bad)
    g = SimpleGraph(3, {(0, 1), (1, 2)})
    assert g == SimpleGraph(3, {(1, 2), (0, 1)}) and g == SimpleGraph.from_edges(3, [(2, 1), (1, 0)])
    assert g != SimpleGraph(4, {(0, 1), (1, 2)}) and g != SimpleGraph(3, {(0, 1)})
    assert g != (3, {(0, 1), (1, 2)})
    assert SimpleGraph(3) == SimpleGraph(3, set()) and SimpleGraph(3).edges is not SimpleGraph(3).edges
    assert repr(g) == f"SimpleGraph(n=3, edges={g.edges!r})"
    with pytest.raises(TypeError):
        hash(g)
    with pytest.raises(AttributeError):
        g.extra = 1


def test_switch_trace_defaults_to_its_own_empty_list_and_compares_by_batches():
    a, b = SwitchTrace(), SwitchTrace()
    assert a == b and a.batches == [] and a.batches is not b.batches
    a.batches.append(Batch("swap", {}, ()))
    assert a != b and a == SwitchTrace([Batch("swap", {}, ())])
    assert repr(a) == "SwitchTrace(batches=[Batch(op='swap', params={}, changes=())])"


def test_certificate_from_dict_builds_a_factor_certificate_by_keyword():
    assert tuple(_CERT_FIELDS) == FactorCertificate._fields
    cert = half_k([5] * 8, 4)
    data = certificate_to_dict(cert)
    parsed = certificate_from_dict(dict(reversed(data.items())))
    assert type(parsed) is FactorCertificate and parsed == cert
    assert parsed._asdict() == cert._asdict()
