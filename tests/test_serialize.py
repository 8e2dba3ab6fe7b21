"""``certificate_to_json`` writes exactly what ``json.dumps(certificate_to_dict(c), indent=2)`` writes."""

import json

import pytest

from factorpack import certificate_from_realization
from factorpack.cli import _PIPELINES
from factorpack.coloring import FactorCertificate
from factorpack.serialize import certificate_from_dict, certificate_to_dict, certificate_to_json
from tests.test_realize import _perfbench_corpus


def reference_json(cert: FactorCertificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2) + "\n"


def sweep_certificates(n: int):
    """The certificate of every sweep task at n, and of kundu on each task's (pi, k)."""
    for mode, pi, k in _perfbench_corpus().sweep_tasks(n):
        for m in dict.fromkeys(("kundu", mode)):
            yield certificate_from_realization(_PIPELINES[m][0](pi, k, 0), m, k)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_writer_matches_json_dumps_on_every_sweep_certificate(n):
    modes = set()
    for cert in sweep_certificates(n):
        assert certificate_to_json(cert) == reference_json(cert), (cert.mode, cert.pi, cert.k)
        modes.add(cert.mode)
    assert modes == ({"kundu", "four-ones"} if n < 6 else {"kundu", "four-ones", "half-k"})


EDGE_CASES = {
    "no-two-factors": FactorCertificate(
        n=4, pi=(1, 1, 1, 1), k=1, mode="four-ones", one_factors=(((0, 1), (2, 3)),),
        two_factors=(), residual=(0, ()), black_edges=()),
    "residual-none": FactorCertificate(
        n=4, pi=(3, 3, 3, 3), k=3, mode="half-k",
        one_factors=(((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))),
        two_factors=(), residual=None, black_edges=()),
    "residual-empty": FactorCertificate(
        n=2, pi=(0, 0), k=0, mode="kundu", one_factors=(), two_factors=(),
        residual=(0, ()), black_edges=()),
    "no-black-edges": FactorCertificate(
        n=3, pi=(2, 2, 2), k=2, mode="kundu", one_factors=(),
        two_factors=(((0, 1), (0, 2), (1, 2)),), residual=(2, ((0, 1), (0, 2), (1, 2))),
        black_edges=()),
    "unsorted-edges-and-empty-factor": FactorCertificate(
        n=12, pi=(11,) * 12, k=1, mode='say "x"\né', one_factors=((), ((10, 11), (2, 3))),
        two_factors=(), residual=(1, ((3, 10), (0, 1))), black_edges=((5, 6), (1, 11), (-1, 0))),
    "no-vertices": FactorCertificate(
        n=0, pi=(), k=0, mode="", one_factors=(), two_factors=(), residual=None, black_edges=()),
}


@pytest.mark.parametrize("cert", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_writer_matches_json_dumps_on_edge_cases(cert):
    text = certificate_to_json(cert)
    assert text == reference_json(cert)
    assert certificate_to_json(certificate_from_dict(json.loads(text))) == text
