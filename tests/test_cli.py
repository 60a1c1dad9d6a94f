import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hgsim import cli, statesim

GROVER3 = "n 3\ne 1 2 3\n"
MIXED3_TABLE = "n 3\nEA\n"


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def grover_graph(tmp_path):
    path = tmp_path / "grover3.gr"
    path.write_text(GROVER3)
    return str(path)


@pytest.fixture
def mixed_table(tmp_path):
    path = tmp_path / "mixed3.tt"
    path.write_text(MIXED3_TABLE)
    return str(path)


def test_build_emits_sign_dump(grover_graph, capsys):
    code, out, err = run_cli(["build", grover_graph], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "n 3 backend sign"
    assert lines[1:] == [f"{x} {'-' if x == 7 else '+'}" for x in range(8)]


def test_extract_both_methods(mixed_table, capsys):
    code, out, err = run_cli(["extract", mixed_table], capsys)
    assert code == 0 and err == ""
    assert out == "n 3\ne 1\ne 2 3\ne 1 2 3\n"


def test_extract_single_method(mixed_table, capsys):
    for method in ("layered", "fast"):
        code, out, _ = run_cli(["extract", mixed_table, "--method", method], capsys)
        assert code == 0
        assert out == "n 3\ne 1\ne 2 3\ne 1 2 3\n"


def test_extract_rejects_unnormalized_table(tmp_path, capsys):
    path = tmp_path / "bad.tt"
    path.write_text("n 3\nEB\n")  # f(0) = 1
    code, out, err = run_cli(["extract", str(path)], capsys)
    assert code == 2 and out == "" and "f(0)" in err


def test_verify_reports_all_checks(grover_graph, capsys):
    code, out, err = run_cli(["verify", grover_graph], capsys)
    assert code == 0 and err == ""
    assert "stabilizer 1 X1 C2Z(2,3)" in out
    assert out.count("stabilized") == 3 and "fail" not in out
    assert out.count("commutator") == 3
    assert "residual 0" in out
    assert "uniqueness pass" in out


def test_classify_graph(grover_graph, capsys):
    code, out, _ = run_cli(["classify", grover_graph], capsys)
    assert code == 0 and out == "uniform 3\n"


def test_classify_table(mixed_table, capsys):
    code, out, _ = run_cli(["classify", "--table", mixed_table], capsys)
    assert code == 0
    assert out == "class unbalanced\nfull-edge present\n"


def test_classify_needs_input(capsys):
    code, _, err = run_cli(["classify"], capsys)
    assert code == 2 and "graph file or --table" in err


def test_entangle_graph_and_table(grover_graph, tmp_path, capsys):
    code, out, _ = run_cli(["entangle", grover_graph], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "E2 0.25"
    table = tmp_path / "grover3.tt"
    table.write_text("n 3\n80\n")
    code, out2, _ = run_cli(["entangle", str(table)], capsys)
    assert code == 0 and out2 == out


def test_lowercase_hex_table_starting_with_e_digit(tmp_path, capsys):
    table = tmp_path / "mixed3.tt"
    table.write_text("n 3\nea\n")
    code, out, _ = run_cli(["extract", str(table)], capsys)
    assert code == 0
    assert out == "n 3\ne 1\ne 2 3\ne 1 2 3\n"


def test_orbit_report(capsys):
    code, out, _ = run_cli(["orbit", "--n", "3"], capsys)
    assert code == 0
    assert "pair 1 2 violations 0" in out
    assert out.rstrip().endswith("total violations 0")


def test_count(capsys):
    assert run_cli(["count", "--n", "3"], capsys)[:2] == (0, "128\n")
    assert run_cli(["count", "--n", "3", "--k", "2"], capsys)[:2] == (0, "8\n")
    code, _, err = run_cli(["count", "--n", "3", "--k", "9"], capsys)
    assert code == 2 and err != ""


@pytest.mark.parametrize(
    "argv, out",
    [
        (["--n", "13"], f"{1 << 8191}\n"),  # 2467 digits: still printed in decimal
        (["--n", "14"], "2^16383\n"),
        (["--n", "64"], f"2^{(1 << 64) - 1}\n"),
        (["--n", "64", "--k", "32"], "2^1832624140942590534\n"),
    ],
)
def test_count_prints_a_power_past_the_decimal_limit(argv, out, capsys):
    assert run_cli(["count", *argv], capsys) == (0, out, "")


def test_extract_names_a_hypergraph_given_as_table(grover_graph, capsys):
    code, out, err = run_cli(["extract", grover_graph], capsys)
    assert code == 2 and out == ""
    assert "hypergraph" in err and "truth table or a sign dump" in err


def test_dot(grover_graph, capsys):
    code, out, _ = run_cli(["dot", grover_graph], capsys)
    assert code == 0
    assert out.startswith("graph hypergraph {") and "h0 -- 3;" in out


def test_malformed_graph_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.gr"
    path.write_text("n 3\ne 1 2\ne 1 2\n")
    code, out, err = run_cli(["build", str(path)], capsys)
    assert code == 2 and out == "" and "duplicate" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(["build", "/nonexistent/file.gr"], capsys)
    assert code == 2 and err != ""


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        cli.main(["orbit", "--n", "5"])
    assert info.value.code == 2


def test_selftest_passes(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "selftest PASS"
    assert all(line.endswith("PASS") for line in lines)


def test_build_pipes_into_extract_via_shell(grover_graph):
    build = subprocess.run(
        [sys.executable, "-m", "hgsim", "build", grover_graph],
        capture_output=True,
        text=True,
        check=True,
    )
    extracted = subprocess.run(
        [sys.executable, "-m", "hgsim", "extract", "-"],
        input=build.stdout,
        capture_output=True,
        text=True,
        check=True,
    )
    assert extracted.stdout == GROVER3


def test_selftest_output_is_byte_identical_across_runs():
    runs = [
        subprocess.run(
            [sys.executable, "-m", "hgsim", "selftest"], capture_output=True, check=True
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


GOLDEN = Path(__file__).parent / "golden"
N13_GRAPH = (
    "n 13\ne 7\ne 1 13\ne 2 3 4\ne 3 9\ne 5 6 7 8 9\ne 10 11 12 13\n"
    "e 1 2 3 4 5 6 7 8 9 10 11 12 13\n"
)


@pytest.mark.parametrize(
    "graph, golden",
    [
        (cli.SEVEN_VERTEX, "verify_seven_vertex.txt"),
        (N13_GRAPH, "verify_n13.txt"),  # above the uniqueness cap: "uniqueness skip"
    ],
)
def test_verify_output_is_golden(graph, golden, tmp_path, capsys):
    path = tmp_path / "g.gr"
    path.write_text(graph)
    assert run_cli(["verify", str(path)], capsys) == (0, (GOLDEN / golden).read_text(), "")


def test_verify_names_the_label_of_a_failing_commutator(grover_graph, monkeypatch, capsys):
    # swap in an operator of another graph: X2 Z1 does not commute with X1 C2Z(2,3)
    real = statesim.stabilizer
    wrong = statesim.StabilizerOperator(3, 2, frozenset({frozenset({1})}))
    monkeypatch.setattr(statesim, "stabilizer", lambda h, i: wrong if i == 2 else real(h, i))
    code, out, err = run_cli(["verify", grover_graph, "--seed", "9"], capsys)
    assert code == 1
    h = cli.hypergraph.parse(GROVER3)
    first = real(h, 1)
    label = statesim.commutation_witness(first, wrong)
    assert label is not None
    assert err.splitlines()[0] == f"commutator 1 2: K1K2 and K2K1 differ at label {label}"
    assert len(err.splitlines()) == 2  # the pair 2 3 fails too
    rng = np.random.default_rng(9)
    probes = [statesim.random_state(3, rng) for _ in range(10)]
    worst = max(statesim.commutator_residual(first, wrong, p) for p in probes)
    assert f"commutator 1 2 residual {worst:.12g}" in out.splitlines()
    assert "commutator 1 3 residual 0" in out.splitlines()
