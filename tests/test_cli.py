import io
import json
import os
import subprocess
import sys

import pytest

from factorpack import replay_trace
from factorpack import cli
from factorpack.cli import _sweep_workers, run
from factorpack.coloring import Color
from factorpack.serialize import trace_from_dict
from tests.conftest import cli_subprocess_env


def run_cli(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_four_ones_success_and_content():
    code, text = run_cli(["four-ones", "--pi", "3,3,3,3", "--k", "3", "--seed", "7"])
    assert code == 0
    data = json.loads(text)
    assert data["mode"] == "four-ones"
    assert len(data["one_factors"]) == 3
    assert data["residual"] == {"degree": 0, "edges": []}


def test_exit_code_not_graphic():
    code, _ = run_cli(["four-ones", "--pi", "3,3,1,1", "--k", "1"])
    assert code == 1


def test_exit_code_minus_k_not_graphic():
    code, _ = run_cli(["four-ones", "--pi", "2,2,1,1", "--k", "2"])
    assert code == 2


def test_exit_code_odd_length():
    code, _ = run_cli(["four-ones", "--pi", "2,2,2,2,2", "--k", "2"])
    assert code == 3


def test_exit_code_k_too_small_is_usage():
    code, _ = run_cli(["half-k", "--pi", "2,2,2,2", "--k", "2"])
    assert code == 5


# A valid kundu certificate for pi = (1, 1), k = 0, which the rows below corrupt.
TWO_VERTEX_CERT = ('{"n": 2, "pi": [1, 1], "k": 0, "mode": "kundu", "one_factors": [], '
                   '"two_factors": [], "residual": {"degree": 0, "edges": []}, '
                   '"black_edges": [[0, 1]]}')


@pytest.mark.parametrize("argv,expected", [
    (["graphic", "--pi", "5,1,1,1"], 1),  # degree 5 out of range for n=4: not graphic
    (["four-ones", "--pi", "3,1,1", "--k", "1"], 1),
    (["realize", "--pi", "3,1,1"], 1),
    (["conjecture", "--pi", "4,1,1,1", "--k", "1"], 1),
    (["kundu", "--pi", "2,2,2", "--k", "-1"], 5),  # k < 0 is a usage error
    (["four-ones", "--pi", "2,2,2,2", "--k", "-1"], 5),
    (["half-k", "--pi", "2,2,2,2", "--k", "-1"], 5),
    (["graphic", "--pi", "-1,1"], 1),  # a leading negative degree is a value, not an option
    (["graphic", "--pi=-1,1"], 1),
    (["kundu", "--pi", "-1,1", "--k", "0"], 1),
    (["kundu", "--pi", "-1,3,2,2", "--k", "1", "--seed", "2"], 1),
    (["sweep", "--n", "4", "--workers", "0"], 5),
    (["sweep", "--n", "4", "--workers", "-2"], 5),
    (["verify", "--cert", "-", "<stdin>", "{}"], 5),  # malformed certificates are usage errors
    (["verify", "--cert", "-", "<stdin>", "[1, 2]"], 5),
    (["verify", "--cert", "-", "<stdin>", '{"n": 4.5}'], 5),
    (["verify", "--cert", "-", "<stdin>", TWO_VERTEX_CERT.replace('"n": 2', '"n": 6')], 4),
    (["verify", "--cert", "-", "<stdin>", TWO_VERTEX_CERT.replace('"kundu"', "null")], 5),
    (["verify", "--cert", "-", "<stdin>", TWO_VERTEX_CERT.replace('"kundu"', "3")], 5),
    (["kundu", "--pi", "0", "--k", "0"], 0),  # K_1: an empty coloring
    (["kundu", "--pi", "", "--k", "0"], 5),
    (["conjecture", "--pi", "2,2,2", "--k", "0"], 3),  # odd n, as four-ones: no perfect matching
    (["conjecture", "--pi", "4,4,4,4,4", "--k", "2"], 3),
    (["conjecture", "--pi", "3,3,1,1,1", "--k", "1"], 1),  # the degree check comes first
    (["sweep", "--n", "5"], 3),  # odd n, as four-ones: checked before any task is built
    (["sweep", "--n", "3,4"], 3),
    (["sweep", "--n", "10", "--workers", "0"], 5),  # checked before any task is built
])
def test_exit_codes_at_the_input_boundary(argv, expected, monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("sweep enumerated tasks for an input it rejects")

    monkeypatch.setattr(cli, "enumerate_graphic", no_enumeration)  # no row here builds a sweep task
    if "<stdin>" in argv:
        i = argv.index("<stdin>")
        argv, stdin = argv[:i], argv[i + 1]
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, _ = run_cli(argv)
    assert code == expected


def test_verify_reports_a_vertex_count_mismatch_alone(monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(TWO_VERTEX_CERT))
    assert run_cli(["verify", "--cert", "-"])[0] == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(TWO_VERTEX_CERT.replace('"n": 2', '"n": 6')))
    code, text = run_cli(["verify", "--cert", "-"])
    assert code == 4
    assert [kind for kind, _ in json.loads(text)["violations"]] == ["MetadataMismatch"]


def test_graphic_reports_out_of_range_degree_as_not_graphic():
    code, text = run_cli(["graphic", "--pi", "5,1,1,1"])
    assert code == 1
    assert json.loads(text) == {"pi": [5, 1, 1, 1], "graphic": False}


def test_exit_code_bad_usage():
    code, _ = run_cli(["four-ones", "--pi", "2,2,2,2"])  # missing --k
    assert code == 5
    code, _ = run_cli(["no-such-command"])
    assert code == 5


def test_graphic_and_realize():
    code, text = run_cli(["graphic", "--pi", "2 2 2 2"])
    assert code == 0 and json.loads(text)["graphic"] is True
    code, _ = run_cli(["graphic", "--pi", "3,3,1,1"])
    assert code == 1
    code, text = run_cli(["realize", "--pi", "3,3,2,2,1,1"])
    assert code == 0
    data = json.loads(text)
    assert sorted(data["degrees"], reverse=True) == [3, 3, 2, 2, 1, 1]


def test_pi_from_file(tmp_path):
    p = tmp_path / "pi.txt"
    p.write_text("3, 3, 3, 3\n")
    code, text = run_cli(["four-ones", "--pi", f"@{p}", "--k", "3"])
    assert code == 0
    assert json.loads(text)["n"] == 4


def test_verify_round_trip(tmp_path):
    code, text = run_cli(["half-k", "--pi", "5,5,5,5,5,5", "--k", "5"])
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(text)
    code, report = run_cli(["verify", "--cert", str(cert_path)])
    assert code == 0
    assert json.loads(report)["passed"] is True


def test_verify_rejects_tampered(tmp_path):
    code, text = run_cli(["four-ones", "--pi", "3,3,3,3", "--k", "3"])
    data = json.loads(text)
    data["one_factors"][0] = data["one_factors"][0][1:]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(data))
    code, report = run_cli(["verify", "--cert", str(cert_path)])
    assert code == 4
    assert json.loads(report)["passed"] is False


def test_conjecture_subcommand():
    code, text = run_cli(["conjecture", "--pi", "2,2,2,2", "--k", "2"])
    assert code == 0
    data = json.loads(text)
    assert data["found"] is True and len(data["matchings"]) == 2


def test_petersen_subcommand():
    code, text = run_cli(["petersen", "--pi", "4,4,4,4,4"])
    assert code == 0
    data = json.loads(text)
    assert data["r"] == 2 and len(data["two_factors"]) == 2
    code, _ = run_cli(["petersen", "--pi", "3,3,3,3"])
    assert code == 5


def test_petersen_on_1500_vertices_from_a_file(tmp_path):
    p = tmp_path / "pi.txt"
    p.write_text(",".join(["8"] * 1500))
    code, text = run_cli(["petersen", "--pi", f"@{p}"])
    assert code == 0
    data = json.loads(text)
    assert data["r"] == 4 and len(data["two_factors"]) == 4


def test_sweep_report_columns(tmp_path):
    report = tmp_path / "sweep.csv"
    code, text = run_cli(["sweep", "--n", "4", "--mode", "four-ones",
                          "--report", str(report)])
    assert code == 0
    header = report.read_text().splitlines()[0]
    assert header == "n,pi,k,mode,ok,n_one_factors,n_switches,max_chain_r,millis"
    assert json.loads(text)["failures"] == 0


def test_sweep_workers_capped_by_cpus_and_tasks():
    cpus = os.cpu_count() or 1
    assert _sweep_workers(10**6, 10**6) == cpus
    assert _sweep_workers(10**6, 3) == min(3, cpus)
    assert _sweep_workers(2, 10**6) == min(2, cpus)
    assert _sweep_workers(1, 10**6) == 1
    assert _sweep_workers(10**6, 0) == 0


def test_in_process_byte_determinism():
    for argv in (
        ["four-ones", "--pi", "5,5,4,4,3,3", "--k", "3", "--seed", "9"],
        ["half-k", "--pi", "6,6,6,6,6,6,6,6", "--k", "6", "--seed", "3"],
        ["kundu", "--pi", "4,4,4,4,3,3", "--k", "3"],
        ["sweep", "--n", "4", "--mode", "both"],
    ):
        _, first = run_cli(argv)
        _, second = run_cli(argv)
        assert first == second


def test_subprocess_determinism_across_hash_seeds():
    argv = [sys.executable, "-m", "factorpack.cli", "four-ones",
            "--pi", "5,5,5,5,5,5", "--k", "5", "--seed", "1"]
    outs = []
    for hash_seed in ("1", "7777"):
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=cli_subprocess_env(hash_seed))
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_python_dash_m_factorpack_runs_the_cli():
    for argv, code in ((["kundu", "--pi", "4,4,4,4,3,3", "--k", "3"], 0),
                       (["graphic", "--pi", "3,3,1,1"], 1)):
        proc = subprocess.run([sys.executable, "-m", "factorpack", *argv], capture_output=True,
                              text=True, env=cli_subprocess_env("0"))
        assert proc.returncode == code, proc.stderr
        assert (proc.returncode, proc.stdout) == run_cli(argv)


def test_trace_file_replays_to_final_coloring(tmp_path):
    trace_path = tmp_path / "trace.json"
    code, text = run_cli(["four-ones", "--pi", "2,2,2,2,2,2", "--k", "2",
                          "--trace", str(trace_path)])
    assert code == 0
    n, initial, trace = trace_from_dict(json.loads(trace_path.read_text()))
    final = replay_trace(n, initial, trace)
    # rebuild the certificate's one-factors from the replayed coloring
    ones = {}
    for (u, v), color in final.items():
        if color.kind == "one":
            ones.setdefault(color.index, []).append([u, v])
    data = json.loads(text)
    got = sorted(sorted(m) for m in ones.values())
    assert got == sorted(data["one_factors"])
