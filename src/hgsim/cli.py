"""Command-line surface: build, extract, verify, classify, entangle, orbit,
count, dot, selftest.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification/violation failure, 2 usage or parse error.  All randomness
sits behind a single --seed flag (default 42).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import _bits, boolfn, entanglement, extract, hypergraph, orbits, statesim
from .errors import FormatError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

MAX_COUNT_DIGITS = 4300  # longest count printed in decimal


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _sniff(text: str) -> str:
    """Guess whether a text is a hypergraph file, a truth table or a state dump."""
    lines = []  # the first two non-blank lines are enough
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
            if len(lines) == 2:
                break
    if not lines:
        raise FormatError("empty input")
    head = lines[0].split()
    if head[:1] == ["n"] and "backend" in head:
        return "state dump"
    if head[:1] != ["n"]:
        raise FormatError(f"unrecognized first line {lines[0]!r}")
    if len(lines) == 1 or lines[1].split()[0] == "e":
        return "hypergraph file"
    return "truth table"


def _load_graph(text: str) -> hypergraph.Hypergraph:
    """Accept the hypergraph format only; a state dump or a truth table is named."""
    try:
        kind = _sniff(text)
    except FormatError:
        kind = "hypergraph file"  # unrecognizable: the parser names the fault
    if kind != "hypergraph file":
        raise FormatError(f"got a {kind} where a hypergraph file was expected")
    return hypergraph.parse(text)


def _load_table(text: str) -> boolfn.TruthTable:
    """Accept the truth-table format or a sign-backend state dump."""
    kind = _sniff(text)
    if kind == "state dump":
        state = statesim.load(text)
        return statesim.table_from_state(state)
    if kind == "hypergraph file":
        raise FormatError("got a hypergraph file where a truth table or a sign dump was expected")
    return boolfn.from_text(text)


def cmd_build(args: argparse.Namespace) -> int:
    h = _load_graph(_read(args.graph))
    sys.stdout.write(statesim.dump(statesim.build_state(h)))
    return EXIT_OK


def cmd_extract(args: argparse.Namespace) -> int:
    tt = _load_table(_read(args.table))
    if args.method == "layered":
        h = extract.extract_layered(tt)
    elif args.method == "fast":
        h = extract.extract_fast(tt)
    else:
        h = extract.extract_layered(tt)
        if h != extract.extract_fast(tt):
            print("extraction mismatch between layered and fast routes", file=sys.stderr)
            return EXIT_FAIL
    sys.stdout.write(hypergraph.serialize(h))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    h = _load_graph(_read(args.graph))
    state = statesim.build_state(h)
    ops = [statesim.stabilizer(h, i) for i in range(1, h.n + 1)]
    ok = True
    for op in ops:
        print(f"stabilizer {op.i} {op}")
    for op in ops:
        fixed = statesim.apply_stabilizer(state, op).signs == state.signs
        ok &= fixed
        print(f"stabilized {op.i} {'pass' if fixed else 'fail'}")
    probes = None  # drawn from the seed only if some pair fails the exact check
    for a in range(len(ops)):
        for b in range(a + 1, len(ops)):
            witness = statesim.commutation_witness(ops[a], ops[b])
            worst = 0.0
            if witness is not None:
                ok = False
                if probes is None:
                    rng = np.random.default_rng(args.seed)
                    probes = [statesim.random_state(h.n, rng) for _ in range(10)]
                worst = max(statesim.commutator_residual(ops[a], ops[b], p) for p in probes)
                print(
                    f"commutator {a + 1} {b + 1}: K{a + 1}K{b + 1} and K{b + 1}K{a + 1} "
                    f"differ at label {witness}",
                    file=sys.stderr,
                )
            print(f"commutator {a + 1} {b + 1} residual {worst:.12g}")
    if h.n <= statesim.MAX_UNIQUENESS_QUBITS:
        unique = statesim.uniqueness_check(h, seed=args.seed, state=state, ops=ops)
        ok &= unique
        print(f"uniqueness {'pass' if unique else 'fail'}")
    else:
        print("uniqueness skip")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_classify(args: argparse.Namespace) -> int:
    if args.table is not None:
        report = extract.classify_balance(_load_table(_read(args.table)))
        print(f"class {report.kind}")
        print(f"full-edge {'present' if report.full_edge else 'absent'}")
        return EXIT_OK
    if args.graph is None:
        print("classify: need a graph file or --table", file=sys.stderr)
        return EXIT_USAGE
    print(str(hypergraph.classify_uniformity(_load_graph(_read(args.graph)))))
    return EXIT_OK


def cmd_entangle(args: argparse.Namespace) -> int:
    text = _read(args.input)
    kind = _sniff(text)
    if kind == "hypergraph file":
        state = statesim.build_state(hypergraph.parse(text))
    else:
        state = statesim.rew_state(_load_table(text))
    report = entanglement.genuine_multipartite_geometric(state)
    sys.stdout.write(report.to_text())
    return EXIT_OK


def cmd_orbit(args: argparse.Namespace) -> int:
    report = orbits.class_inequivalence_report(args.n)
    sys.stdout.write(report.to_text())
    return EXIT_OK if report.total_violations == 0 else EXIT_FAIL


def cmd_count(args: argparse.Namespace) -> int:
    exponent = hypergraph.count_exponent(args.n, args.k)
    # 2**K has floor(K log10 2) + 1 decimal digits; past Python's default
    # int-to-str limit print the power itself, without building 2**K.
    if exponent * math.log10(2) < MAX_COUNT_DIGITS:
        print(1 << exponent)
    else:
        print(f"2^{exponent}")
    return EXIT_OK


def cmd_dot(args: argparse.Namespace) -> int:
    sys.stdout.write(hypergraph.to_dot(_load_graph(_read(args.graph))))
    return EXIT_OK


GROVER3 = "n 3\n80\n"
MIXED3 = "n 3\nEA\n"
MIXED3_BALANCED = "n 3\n6A\n"
SEVEN_VERTEX = "n 7\ne 6\ne 1 4\ne 2 3 4 5\ne 1 2 3 4 5 6 7\n"


def _selftest_items(seed: int):
    def grover_extract() -> bool:
        tt = boolfn.from_text(GROVER3)
        h = extract.extract_layered(tt)
        return (
            h == extract.extract_fast(tt)
            and h.edge_sets() == frozenset({frozenset({1, 2, 3})})
            and statesim.build_state(h).signs == tt.bits
        )

    def grover_entangle() -> bool:
        report = entanglement.genuine_multipartite_geometric(
            statesim.rew_state(boolfn.from_text(GROVER3))
        )
        cuts_ok = all(abs(lam - 0.75) <= 1e-10 for _, lam in report.cuts)
        return len(report.cuts) == 3 and cuts_ok and abs(report.e2 - 0.25) <= 1e-9

    def mixed_extract() -> bool:
        tt = boolfn.from_text(MIXED3)
        h = extract.extract_layered(tt)
        want = frozenset({frozenset({1}), frozenset({2, 3}), frozenset({1, 2, 3})})
        return (
            h == extract.extract_fast(tt)
            and h.edge_sets() == want
            and statesim.build_state(h).signs == tt.bits
        )

    def mixed_balance() -> bool:
        full = extract.classify_balance(boolfn.from_text(MIXED3))
        flat = extract.classify_balance(boolfn.from_text(MIXED3_BALANCED))
        balanced_edges = extract.extract_fast(boolfn.from_text(MIXED3_BALANCED))
        return (
            full.kind == extract.UNBALANCED
            and full.full_edge
            and flat.kind == extract.BALANCED
            and not flat.full_edge
            and balanced_edges.edge_sets()
            == frozenset({frozenset({1}), frozenset({2, 3})})
        )

    def seven_vertex() -> bool:
        h = hypergraph.parse(SEVEN_VERTEX)
        want = frozenset(
            {frozenset({1}), frozenset({2, 3, 5}), frozenset({1, 2, 3, 5, 6, 7})}
        )
        if hypergraph.neighbourhood(h, 4) != want:
            return False
        if not statesim.verify_stabilized(h):
            return False
        return statesim.uniqueness_check(h, seed=seed)

    def counting() -> bool:
        for n, expected in ((2, 8), (3, 128)):
            # bit j of a choice picks the edge mask j + 1
            seen = {
                statesim.build_state(
                    hypergraph.Hypergraph(n, frozenset(_bits.mask_bits(pick, 1)))
                ).signs
                for pick in range(1 << ((1 << n) - 1))
            }
            if len(seen) != expected or hypergraph.count_states(n) != expected:
                return False
        return hypergraph.count_states(3, 2) == 8

    return [
        ("grover-3 extract", grover_extract),
        ("grover-3 entangle", grover_entangle),
        ("mixed-3 extract", mixed_extract),
        ("mixed-3 balance", mixed_balance),
        ("seven-vertex", seven_vertex),
        ("counting", counting),
    ]


def cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0
    for name, check in _selftest_items(args.seed):
        ok = check()
        failures += not ok
        print(f"{name} {'PASS' if ok else 'FAIL'}")
    print(f"selftest {'PASS' if failures == 0 else 'FAIL'}")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgsim",
        description="Hypergraph-state toolkit: build, recover and analyse "
        "equally weighted n-qubit states.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=statesim.DEFAULT_SEED, help="seed for randomized checks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common], help="hypergraph file -> state dump")
    p.add_argument("graph", help="hypergraph file ('-' for stdin)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser(
        "extract", parents=[common], help="truth table or sign dump -> hypergraph file"
    )
    p.add_argument("table", help="truth-table file or sign state dump ('-' for stdin)")
    p.add_argument("--method", choices=("layered", "fast", "both"), default="both")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser(
        "verify", parents=[common], help="stabilizers, commutators and uniqueness"
    )
    p.add_argument("graph")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "classify", parents=[common], help="uniformity class, or balance with --table"
    )
    p.add_argument("graph", nargs="?")
    p.add_argument("--table", help="classify a truth table instead of a graph")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "entangle", parents=[common], help="bipartition report for a graph or table"
    )
    p.add_argument("input", help="hypergraph or truth-table file ('-' for stdin)")
    p.set_defaults(func=cmd_entangle)

    p = sub.add_parser("orbit", parents=[common], help="local-Pauli class inequivalence")
    sizes = " or ".join(map(str, orbits.REPORT_QUBITS))
    p.add_argument(
        "--n", type=int, choices=orbits.REPORT_QUBITS, required=True, help=f"qubit count: {sizes}"
    )
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("count", parents=[common], help="number of hypergraph states")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="restrict to one edge order")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("dot", parents=[common], help="hypergraph file -> DOT")
    p.add_argument("graph")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("selftest", parents=[common], help="golden example suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, ValueError, OSError) as exc:
        print(f"hgsim: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
