import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from hgsim import boolfn, cli, entanglement, extract, hypergraph, orbits, statesim

# A `python -m hgsim` child imports the package from this checkout's src,
# installed or not: pytest's own pythonpath does not reach subprocesses.
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}
GROVER3 = "n 3\ne 1 2 3\n"
MIXED3_TABLE = "n 3\nEA\n"
TABLE_EXPECTED = "got a hypergraph file where a truth table or a sign dump was expected"


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


def test_extract_rejects_a_table_too_wide_for_its_n(tmp_path, capsys):
    path = tmp_path / "wide.tt"
    path.write_text("n 1\nF\n")  # one hex digit holds 4 bits; n = 1 has 2 labels
    assert run_cli(["extract", str(path)], capsys) == (
        2, "", "hgsim: hex string 'F' sets bits past label 1 for n=1\n"
    )


def test_load_table_gives_one_state_for_a_dump_and_a_table(mixed_table, tmp_path):
    # the same function, as a sign dump and as truth-table text
    dump = tmp_path / "mixed3.dump"
    dump.write_text(statesim.dump(statesim.StateVector(3, 0xEA)))
    from_dump = cli._load(str(dump), cli.TABLE, cli.DUMP)
    from_table = cli._load(mixed_table, cli.TABLE, cli.DUMP)
    assert from_dump is not from_table
    assert from_dump == from_table and hash(from_dump) == hash(from_table)
    assert type(from_dump) is boolfn.StateVector


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


def test_classify_refuses_a_graph_and_a_table(grover_graph, mixed_table, capsys):
    assert run_cli(["classify", grover_graph, "--table", mixed_table], capsys) == (
        2, "", f"classify: got {grover_graph} and --table {mixed_table}; give one\n"
    )


def test_entangle_graph_and_table(grover_graph, tmp_path, capsys):
    code, out, _ = run_cli(["entangle", grover_graph], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "E2 0.25"
    table = tmp_path / "grover3.tt"
    table.write_text("n 3\n80\n")
    code, out2, _ = run_cli(["entangle", str(table)], capsys)
    assert code == 0 and out2 == out
    # the sign dump that build writes for the same graph
    code, dump, _ = run_cli(["build", grover_graph], capsys)
    assert code == 0
    (tmp_path / "grover3.dump").write_text(dump)
    assert run_cli(["entangle", str(tmp_path / "grover3.dump")], capsys) == (0, out, "")


def test_lowercase_hex_table_starting_with_e_digit(tmp_path, capsys):
    table = tmp_path / "mixed3.tt"
    table.write_text("n 3\nea\n")
    code, out, _ = run_cli(["extract", str(table)], capsys)
    assert code == 0
    assert out == "n 3\ne 1\ne 2 3\ne 1 2 3\n"


@pytest.mark.parametrize("digit", ["e", "E"])
def test_one_digit_table_e_is_a_table(digit, tmp_path, capsys):
    """A bare `e` is never an edge line; at n <= 2 it is the whole hex line."""
    table = tmp_path / "t.tt"
    table.write_text(f"n 2\n{digit}\n")
    assert run_cli(["extract", str(table)], capsys) == (0, "n 2\ne 1\ne 2\ne 1 2\n", "")
    code, out, err = run_cli(["entangle", str(table)], capsys)
    assert (code, err) == (0, "") and out.splitlines()[-1].startswith("E2 ")
    assert run_cli(["build", str(table)], capsys) == (
        2, "", "hgsim: got a truth table where a hypergraph file was expected\n"
    )


def test_bare_e_past_two_qubits_is_an_empty_edge(tmp_path, capsys):
    graph = tmp_path / "g.gr"
    graph.write_text("n 3\ne\n")
    assert run_cli(["build", str(graph)], capsys) == (2, "", "hgsim: line 2: empty edge\n")


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.sampled_from("ab #\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\t")))
def test_sniff_sees_the_nonempty_lines_of_splitlines(text):
    assert cli._NONEMPTY_LINE.findall(text) == [ln for ln in text.splitlines() if ln]


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


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("verify", "n 3\ne 1\nn 3\n", "line 3: repeated vertex-count line"),
        ("verify", "n\ne 1\n", "line 1: expected 'n <int>'"),
        ("verify", "n 65\ne 1\n", "line 1: vertex count 65 out of range"),
        ("verify", "n 3\ne 1 x\n", "line 2: non-integer vertex"),
        ("verify", "n x\ne 1\n", "line 1: bad vertex count 'x'"),
        ("verify", "x\n", "line 1: unknown directive 'x'"),
        ("extract", "", "empty input"),
        ("extract", "x 3\n", "unrecognized first line 'x 3'"),
        # complex amplitudes are never written to a dump
        ("extract", "n 1 backend complex\n0 1.0 0.0\n1 0.0 0.0\n", "unknown backend 'complex'"),
        ("extract", "n 3 backend sign\n", "expected 8 sign lines, got 0"),
        # a text no kind fits goes to the graph parser only where a graph is all that is taken
        ("entangle", "", "empty input"),
        ("entangle", "x 3\n", "unrecognized first line 'x 3'"),
        ("classify --table", "", "empty input"),
        ("classify --table", "x 3\n", "unrecognized first line 'x 3'"),
        ("build", "", "missing vertex-count line 'n <int>'"),
        ("build", "x 3\n", "line 1: unknown directive 'x'"),
        ("dot", "", "missing vertex-count line 'n <int>'"),
        ("dot", "x 3\n", "line 1: unknown directive 'x'"),
        # a graph where only a table or a dump is read
        ("classify --table", GROVER3, TABLE_EXPECTED),
        ("extract --method layered", GROVER3, TABLE_EXPECTED),
        ("extract --method fast", GROVER3, TABLE_EXPECTED),
        ("extract --method both", GROVER3, TABLE_EXPECTED),
    ],
)
def test_faulty_input_exits_2_naming_the_fault(command, text, message, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_text(text)
    assert run_cli([*command.split(), str(path)], capsys) == (2, "", f"hgsim: {message}\n")


def test_extract_fails_when_the_two_routes_disagree(mixed_table, monkeypatch, capsys):
    # the layered route finds e 1, e 2 3 and e 1 2 3; e 1 comes first
    monkeypatch.setattr(extract, "extract_fast", lambda tt: hypergraph.Hypergraph(tt.n, ()))
    assert run_cli(["extract", mixed_table], capsys) == (
        1,
        "",
        "extraction mismatch between layered and fast routes\n"
        "edge 1 is in the layered route only\n",
    )


def test_extract_names_the_first_edge_only_the_fast_route_has(mixed_table, monkeypatch, capsys):
    # e 1 2 sorts before e 1 2 3, which the fast route lacks
    real = extract.extract_fast
    monkeypatch.setattr(
        extract, "extract_fast", lambda tt: hypergraph.Hypergraph(
            tt.n, np.setxor1d(real(tt).masks, np.uint64([0b111, 0b011]))
        )
    )
    assert run_cli(["extract", mixed_table], capsys) == (
        1,
        "",
        "extraction mismatch between layered and fast routes\n"
        "edge 1 2 is in the fast route only\n",
    )


def test_selftest_fails_when_an_item_fails(monkeypatch, capsys):
    real = statesim.verification
    monkeypatch.setattr(
        statesim, "verification", lambda s, ops: real(s, ops)._replace(dimension=2)
    )
    code, out, err = run_cli(["selftest"], capsys)
    assert (code, err) == (
        1, "seven-vertex: uniqueness: the joint +1 eigenspace has dimension 2\n"
    )
    assert [line for line in out.splitlines() if line.endswith("FAIL")] == [
        "seven-vertex FAIL", "selftest FAIL"
    ]


def test_selftest_names_the_first_failing_check_of_each_item(monkeypatch, capsys):
    monkeypatch.setattr(extract, "extract_fast", lambda tt: hypergraph.Hypergraph(tt.n, []))
    code, out, err = run_cli(["selftest"], capsys)
    assert (code, err) == (1, (
        "grover-3 extract: the layered and fast routes differ\n"
        "mixed-3 extract: the layered and fast routes differ\n"
        "mixed-3 balance: 6A does not extract to e 1, e 2 3\n"
    ))
    assert [line for line in out.splitlines() if line.endswith("FAIL")] == [
        "grover-3 extract FAIL", "mixed-3 extract FAIL", "mixed-3 balance FAIL", "selftest FAIL"
    ]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        cli.main(["orbit", "--n", str(max(orbits.REPORT_QUBITS) + 1)])
    assert info.value.code == 2


def test_selftest_passes(capsys):
    code, out, err = run_cli(["selftest"], capsys)
    assert (code, out, err) == (0, (GOLDEN / "selftest.txt").read_text(), "")
    lines = out.splitlines()
    assert lines[-1] == "selftest PASS"
    assert all(line.endswith("PASS") for line in lines)


def test_build_pipes_into_extract_via_shell(grover_graph):
    build = subprocess.run(
        [sys.executable, "-m", "hgsim", "build", grover_graph],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
        check=True,
    )
    extracted = subprocess.run(
        [sys.executable, "-m", "hgsim", "extract", "-"],
        env=CHILD_ENV,
        input=build.stdout,
        capture_output=True,
        text=True,
        check=True,
    )
    assert extracted.stdout == GROVER3


def test_selftest_output_is_byte_identical_across_runs():
    runs = [
        subprocess.run(
            [sys.executable, "-m", "hgsim", "selftest"],
            env=CHILD_ENV,
            capture_output=True,
            check=True,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


GOLDEN = Path(__file__).parent / "golden"
N13_GRAPH = (
    "n 13\ne 7\ne 1 13\ne 2 3 4\ne 3 9\ne 5 6 7 8 9\ne 10 11 12 13\n"
    "e 1 2 3 4 5 6 7 8 9 10 11 12 13\n"
)


# n = 10 with about 2**9 edges: every tuple size, mask 0 (C0Z()) included
N10_DENSE_GRAPH = helpers.set_serialize(
    10, helpers.random_hypergraph(10, np.random.default_rng(1010)).edges
)


@pytest.mark.parametrize(
    "graph, golden",
    [
        (cli.SEVEN_VERTEX, "verify_seven_vertex.txt"),
        (N13_GRAPH, "verify_n13.txt"),
        (N10_DENSE_GRAPH, "verify_n10_dense.txt"),
    ],
)
def test_verify_output_is_golden(graph, golden, tmp_path, capsys):
    path = tmp_path / "g.gr"
    path.write_text(graph)
    assert run_cli(["verify", str(path)], capsys) == (0, (GOLDEN / golden).read_text(), "")


def test_serialize_output_is_golden(tmp_path, capsys):
    # n = 12 with about 2**11 edges; extract writes the same text from the state
    h = helpers.random_hypergraph(12, np.random.default_rng(1212))
    golden = (GOLDEN / "serialize_n12_dense.txt").read_text()
    assert hypergraph.serialize(h) == golden
    path = tmp_path / "s.dump"
    path.write_text(statesim.dump(statesim.build_state(h)))
    assert run_cli(["extract", str(path)], capsys) == (0, golden, "")


def test_entangle_output_is_golden(tmp_path, capsys):
    # n = 10: 511 cuts, the |A| = n/2 tie filter, size classes split across blocks
    tt = helpers.random_table(10, np.random.default_rng(1010), normalized=True)
    path = tmp_path / "t.tt"
    path.write_text(boolfn.to_text(tt))
    golden = (GOLDEN / "entangle_n10.txt").read_text()
    assert run_cli(["entangle", str(path)], capsys) == (0, golden, "")


@pytest.mark.parametrize("n", orbits.REPORT_QUBITS)
def test_orbit_output_is_golden(n, capsys):
    golden = (GOLDEN / f"orbit_n{n}.txt").read_text()
    assert run_cli(["orbit", "--n", str(n)], capsys) == (0, golden, "")


def test_verify_names_the_label_of_a_failing_commutator(grover_graph, monkeypatch, capsys):
    # swap in an operator of another graph: X2 Z1 does not commute with X1 C2Z(2,3)
    real = statesim.stabilizer
    wrong = statesim.StabilizerOperator.from_sets(3, 2, [{1}])
    monkeypatch.setattr(statesim, "stabilizer", lambda h, i: wrong if i == 2 else real(h, i))
    code, out, err = run_cli(["verify", grover_graph, "--seed", "9"], capsys)
    assert code == 1
    h = cli.hypergraph.parse(GROVER3)
    first, third = real(h, 1), real(h, 3)
    assert err == (
        "stabilized 2: K2|H> and |H> differ at label 1\n"
        "commutator 1 2: K1K2 and K2K1 differ at label 0\n"
        "commutator 2 3: K2K3 and K3K2 differ at label 1\n"
    )
    # the labels, from the dense matrices: the first row where the products
    # differ, and the first amplitude K2 changes; the operator norm of the
    # commutator is 2
    k1, k2, k3 = (helpers.stabilizer_matrix(op) for op in (first, wrong, third))
    for ka, kb, label in [(k1, k2, 0), (k2, k3, 1)]:
        assert int(np.flatnonzero((ka @ kb - kb @ ka).any(axis=1))[0]) == label
        assert np.linalg.norm(ka @ kb - kb @ ka, 2) == 2.0
    psi = helpers.amplitudes(statesim.build_state(h))
    assert int(np.flatnonzero(k2 @ psi != psi)[0]) == 1
    assert "commutator 1 2 residual 2" in out.splitlines()
    assert "commutator 1 3 residual 0" in out.splitlines()


def test_verify_names_the_label_each_failing_stabilizer_moves(grover_graph, monkeypatch, capsys):
    # another graph's operators commute and fix one state, but not this one
    real = statesim.stabilizer
    other = hypergraph.Hypergraph.from_sets(3, [{1, 2}])
    monkeypatch.setattr(statesim, "stabilizer", lambda h, i: real(other, i))
    code, out, err = run_cli(["verify", grover_graph], capsys)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("stabilized")] == [
        "stabilized 1 fail", "stabilized 2 fail", "stabilized 3 fail"
    ]
    assert err == (
        "stabilized 1: K1|H> and |H> differ at label 2\n"
        "stabilized 2: K2|H> and |H> differ at label 1\n"
        "stabilized 3: K3|H> and |H> differ at label 3\n"
    )
    # the labels, from the dense matrices: the first amplitude K_i changes
    psi = helpers.amplitudes(statesim.build_state(hypergraph.parse(GROVER3)))
    moved = [helpers.stabilizer_matrix(real(other, i)) @ psi != psi for i in (1, 2, 3)]
    assert [int(np.flatnonzero(m)[0]) for m in moved] == [2, 1, 3]


def test_verify_names_the_joint_dimension_when_uniqueness_fails(grover_graph, monkeypatch, capsys):
    # K1 three times fixes the state and commutes, but leaves a 4-dimensional space
    real = statesim.stabilizer
    monkeypatch.setattr(statesim, "stabilizer", lambda h, i: real(h, 1))
    code, out, err = run_cli(["verify", grover_graph], capsys)
    assert (code, err) == (1, "uniqueness: the joint +1 eigenspace has dimension 4\n")
    assert out.endswith(
        "stabilized 1 pass\ncommutator 1 2 residual 0\ncommutator 1 3 residual 0\n"
        "commutator 2 3 residual 0\nuniqueness fail\n"
    )
    k1 = helpers.stabilizer_matrix(real(hypergraph.parse(GROVER3), 1))
    assert np.trace((np.eye(8) + k1) / 2) == 4.0


@pytest.mark.parametrize("swap", ["none", "other graph", "repeated"])
def test_verify_applies_each_operator_once_for_the_library_verdict(
    grover_graph, swap, monkeypatch, capsys
):
    # another graph's operators span a 1-dimensional space without this
    # state; repeating K1 fixes the state but leaves a 4-dimensional space
    real, apply = statesim.stabilizer, statesim.apply_stabilizer
    other = hypergraph.Hypergraph.from_sets(3, [{1, 2}])
    pick = {
        "none": real,
        "other graph": lambda h, i: real(other, i),
        "repeated": lambda h, i: real(h, 1),
    }[swap]
    monkeypatch.setattr(statesim, "stabilizer", pick)
    applied = []
    monkeypatch.setattr(statesim, "apply_stabilizer", lambda s, op: applied.append(op) or apply(s, op))
    code, out, _ = run_cli(["verify", grover_graph], capsys)
    h = hypergraph.parse(GROVER3)
    ops = [pick(h, i) for i in range(1, 4)]
    assert applied == ops
    unique = statesim.verification(statesim.build_state(h), ops).dimension == 1
    assert unique == (swap == "none")
    assert out.endswith(f"uniqueness {'pass' if unique else 'fail'}\n")
    assert code == (0 if unique else 1)


N11_GRAPH = hypergraph.serialize(helpers.random_hypergraph(11, np.random.default_rng(11)))


@pytest.mark.parametrize("graph", [cli.SEVEN_VERTEX, N11_GRAPH], ids=["seven", "n11"])
def test_verify_draws_no_probe_when_every_pair_commutes(graph, tmp_path, monkeypatch, capsys):
    path = tmp_path / "g.gr"
    path.write_text(graph)

    def no_probes(n, rng):
        raise AssertionError("verify drew a random probe")

    monkeypatch.setattr(statesim, "random_state", no_probes)
    code, out, err = run_cli(["verify", str(path)], capsys)
    assert (code, err) == (0, "")
    assert out.endswith("uniqueness pass\n")


# A generator made, or a draw from numpy's global one; annotations do not match.
RANDOM_SOURCE = re.compile(r"\bdefault_rng\b|\bRandomState\b|\bnp\.random\.\w+\(")


def test_no_source_file_creates_a_random_generator():
    # every check is exact, so no code path in the package draws random numbers
    sources = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            assert not RANDOM_SOURCE.search(line), f"{path.name}:{lineno}: {line.strip()}"


def test_main_reuses_one_parser_and_prints_as_a_fresh_process(grover_graph, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    calls = [["verify", grover_graph], ["verify"], ["dot", grover_graph, "--seed", "x"]]

    def in_process(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def fresh(argv):
        done = subprocess.run(
            [sys.executable, "-m", "hgsim", *argv], env=CHILD_ENV, capture_output=True, text=True
        )
        return done.returncode, done.stdout, done.stderr

    want = [fresh(argv) for argv in calls]
    assert [code for code, _, _ in want] == [0, 2, 2]
    assert [in_process(argv) for argv in calls + calls] == want + want
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("command", ["extract", "entangle"])
@pytest.mark.parametrize("n", ["99999999999", "-1"])
def test_sign_dump_past_the_dense_cap_exits_2(command, n, tmp_path, capsys):
    path = tmp_path / "huge.dump"
    path.write_text(f"n {n} backend sign\n0 +\n")
    code, out, err = run_cli([command, str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"hgsim: qubit count must be in 1..{boolfn.MAX_QUBITS}, got {n}\n"


@pytest.mark.parametrize("command", ["build", "verify", "dot", "classify"])
@pytest.mark.parametrize(
    "text, kind",
    [
        ("n 2 backend sign\n0 +\n1 +\n2 +\n3 -\n", "state dump"),
        (MIXED3_TABLE, "truth table"),
    ],
)
def test_graph_commands_name_the_kind_of_file_they_got(command, text, kind, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_text(text)
    code, out, err = run_cli([command, str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"hgsim: got a {kind} where a hypergraph file was expected\n"


# Qubit counts at and just past every cap, plus nonsense ones.
EDGE_COUNTS = sorted({
    0, -1, 10**11,
    hypergraph.MAX_VERTICES, hypergraph.MAX_VERTICES + 1,
    boolfn.MAX_QUBITS + 1,
    entanglement.MAX_QUBITS + 1,
    min(orbits.REPORT_QUBITS) - 1, orbits.MAX_QUBITS + 1, max(orbits.REPORT_QUBITS) + 1,
})
FILE_COMMANDS = [
    ["build"], ["verify"], ["dot"], ["classify"], ["classify", "--table"], ["entangle"],
    ["extract", "--method", "both"], ["extract", "--method", "layered"],
]


@st.composite
def file_texts(draw):
    """A small valid graph, table or sign dump, or a header with an extreme n."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["graph", "table", "dump", "extreme"]))
    if kind == "graph":
        edges = draw(st.frozensets(st.integers(1, (1 << n) - 1), max_size=8))
        return hypergraph.serialize(hypergraph.Hypergraph(n, edges))
    bits = draw(st.integers(0, (1 << (1 << n)) - 1))
    if kind == "table":
        return boolfn.to_text(boolfn.StateVector(n, bits))
    if kind == "dump":
        return statesim.dump(statesim.StateVector(n, signs=bits))
    big = draw(st.sampled_from(EDGE_COUNTS))
    body = draw(st.sampled_from(["", "e 1 2\n", "EA\n"]))
    header = draw(st.sampled_from([f"n {big}", f"n {big} backend sign", f"n {big} backend complex"]))
    return f"{header}\n{body}"


@st.composite
def invocations(draw):
    """(argv, stdin) for any subcommand."""
    count = st.sampled_from(EDGE_COUNTS + list(range(1, 6)))
    seed = ["--seed", str(draw(st.sampled_from([42, 0, -1])))]
    which = draw(st.integers(0, 3))
    if which == 0:
        return draw(st.sampled_from(FILE_COMMANDS)) + ["-"] + seed, draw(file_texts())
    if which == 1:
        return ["orbit", "--n", str(draw(count))], ""
    if which == 2:
        k = draw(st.none() | count)
        return ["count", "--n", str(draw(count))] + ([] if k is None else ["--k", str(k)]), ""
    return ["selftest"] + seed, ""


@settings(max_examples=120, deadline=None)
@given(invocations())
def test_every_command_exits_0_1_or_2_without_a_traceback(invocation):
    argv, stdin = invocation
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)  # an uncaught exception fails the test
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
