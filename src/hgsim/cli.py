"""Command-line surface: build, extract, verify, classify, entangle, orbit,
count, dot, selftest.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification/violation failure, 2 usage or parse error.  Every output is
exact and draws no random number; --seed is still accepted and changes
nothing.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import re
import string
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


# The nonempty lines of str.splitlines(), found one at a time.
_NONEMPTY_LINE = re.compile(r"[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]+")


def _sniff(text: str) -> str:
    """Guess whether a text is a hypergraph file, a truth table or a state dump."""
    lines = []  # the first two non-blank lines are enough
    for match in _NONEMPTY_LINE.finditer(text):
        line = match[0].split("#", 1)[0].strip()
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
    if len(lines) == 1 or (lines[1].split()[0] == "e" and not _is_hex_line(head, lines[1])):
        return "hypergraph file"
    return "truth table"


def _is_hex_line(head: list[str], line: str) -> bool:
    """True iff line is the hex line of a table for the header `n <int>`: exactly
    ceil(2**n / 4) hex digits.  Of the lines that begin with an `e` field, that
    is only a bare `e` at n <= 2, which no edge line is."""
    try:
        n = int(head[1]) if len(head) == 2 else 0
    except ValueError:
        return False
    return (
        1 <= n <= boolfn.MAX_QUBITS
        and len(line) == boolfn.hex_digits(n)
        and all(c in string.hexdigits for c in line)
    )


def _load_graph(text: str) -> hypergraph.Hypergraph:
    """Accept the hypergraph format only; a state dump or a truth table is named."""
    try:
        kind = _sniff(text)
    except FormatError:
        kind = "hypergraph file"  # unrecognizable: the parser names the fault
    if kind != "hypergraph file":
        raise FormatError(f"got a {kind} where a hypergraph file was expected")
    return hypergraph.parse(text)


def _load_state(text: str) -> boolfn.StateVector:
    """The state of a hypergraph file, a truth table or a state dump."""
    kind = _sniff(text)
    if kind == "state dump":
        return statesim.load(text)
    if kind == "hypergraph file":
        return statesim.build_state(hypergraph.parse(text))
    return boolfn.from_text(text)


def _load_table(text: str) -> boolfn.StateVector:
    """Accept the truth-table format or a state dump."""
    if _sniff(text) == "hypergraph file":
        raise FormatError("got a hypergraph file where a truth table or a sign dump was expected")
    return _load_state(text)


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
        fast = extract.extract_fast(tt)
        if h != fast:
            first = int(hypergraph.sorted_masks(np.setxor1d(h.masks, fast.masks))[0])
            route = "layered" if first in h.masks else "fast"
            vertices = " ".join(map(str, _bits.mask_bits(first, 1)))
            print(
                "extraction mismatch between layered and fast routes\n"
                f"edge {vertices} is in the {route} route only",
                file=sys.stderr,
            )
            return EXIT_FAIL
    sys.stdout.write(hypergraph.serialize(h))
    return EXIT_OK


def _verdicts(h: hypergraph.Hypergraph) -> tuple[list[str], list[str]]:
    """verify's stdout lines for h, and a stderr witness line per failed check
    (none iff all pass; a moved state has no dimension, its operators name it)."""
    ops = [statesim.stabilizer(h, i) for i in range(1, h.n + 1)]
    report = statesim.verification(statesim.build_state(h), ops)
    out = [f"stabilizer {op.i} {text}" for op, text in zip(ops, statesim.stabilizer_texts(h))]
    failures = []
    for op, label in zip(ops, report.moved):
        out.append(f"stabilized {op.i} {'pass' if label is None else 'fail'}")
        if label is not None:
            failures.append(f"stabilized {op.i}: K{op.i}|H> and |H> differ at label {label}")
    pairs = itertools.combinations(range(1, h.n + 1), 2)
    for (a, b), witness in zip(pairs, report.witnesses):
        # Both products are one label permutation times +-1 diagonals, so
        # ||KaKb - KbKa|| is 2 if they differ anywhere, else 0.
        out.append(f"commutator {a} {b} residual {0 if witness is None else 2}")
        if witness is not None:
            failures.append(f"commutator {a} {b}: K{a}K{b} and K{b}K{a} differ at label {witness}")
    out.append(f"uniqueness {'pass' if report.dimension == 1 else 'fail'}")
    if report.dimension not in (None, 1):
        failures.append(f"uniqueness: the joint +1 eigenspace has dimension {report.dimension}")
    return out, failures


def cmd_verify(args: argparse.Namespace) -> int:
    out, failures = _verdicts(_load_graph(_read(args.graph)))
    sys.stderr.write("".join(line + "\n" for line in failures))
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_FAIL if failures else EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    if args.graph is not None and args.table is not None:
        print(f"classify: got {args.graph} and --table {args.table}; give one", file=sys.stderr)
        return EXIT_USAGE
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
    report = entanglement.genuine_multipartite_geometric(_load_state(_read(args.input)))
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


def _selftest_items():
    """(name, check) per item; a check gives (failure, ok) pairs, failures worded for stderr."""

    def extracts(table: str, edges: list[int]) -> list[tuple[str, bool]]:
        tt = boolfn.from_text(table)
        h = extract.extract_layered(tt)
        return [
            ("the layered and fast routes differ", h == extract.extract_fast(tt)),
            ("the edges are not the expected ones", h == hypergraph.Hypergraph(tt.n, edges)),
            ("the state of the edges is not the table", statesim.build_state(h) == tt),
        ]

    def grover_entangle() -> list[tuple[str, bool]]:
        report = entanglement.genuine_multipartite_geometric(boolfn.from_text(GROVER3))
        return [
            (f"{len(report.cuts)} cuts, not 3", len(report.cuts) == 3),
            ("a cut lambda is not 0.75", all(abs(lam - 0.75) <= 1e-10 for _, lam in report.cuts)),
            (f"E2 is {report.e2}, not 0.25", abs(report.e2 - 0.25) <= 1e-9),
        ]

    def mixed_balance() -> list[tuple[str, bool]]:
        full = extract.classify_balance(boolfn.from_text(MIXED3))
        flat = extract.classify_balance(boolfn.from_text(MIXED3_BALANCED))
        edges = extract.extract_fast(boolfn.from_text(MIXED3_BALANCED))
        return [
            (f"EA gives {full}", full == extract.BalanceReport(extract.UNBALANCED, True)),
            (f"6A gives {flat}", flat == extract.BalanceReport(extract.BALANCED, False)),
            ("6A does not extract to e 1, e 2 3", edges == hypergraph.Hypergraph(3, [1, 6])),
        ]

    def seven_vertex() -> list[tuple[str, bool]]:
        h = hypergraph.parse(SEVEN_VERTEX)
        want = statesim.StabilizerOperator.from_sets(7, 4, [{1}, {2, 3, 5}, {1, 2, 3, 5, 6, 7}])
        checks = [("stabilizer 4 has other tuples", statesim.stabilizer(h, 4) == want)]
        return checks + [(f, False) for f in _verdicts(h)[1]]

    def counting() -> list[tuple[str, bool]]:
        checks = [("count_states(3, 2) is not 8", hypergraph.count_states(3, 2) == 8)]
        for n, expected in ((2, 8), (3, 128)):
            picks = range(1 << ((1 << n) - 1))  # bit j of a pick is the edge mask j + 1
            graphs = [hypergraph.Hypergraph(n, _bits.mask_bits(pick, 1)) for pick in picks]
            seen = {statesim.build_state(h).signs for h in graphs}
            count = hypergraph.count_states(n)
            ok = len(seen) == count == expected
            checks.append((f"n={n}: {len(seen)} sign tables, count_states {count}", ok))
        return checks

    return [
        ("grover-3 extract", functools.partial(extracts, GROVER3, [0b111])),
        ("grover-3 entangle", grover_entangle),
        ("mixed-3 extract", functools.partial(extracts, MIXED3, [0b001, 0b110, 0b111])),
        ("mixed-3 balance", mixed_balance),
        ("seven-vertex", seven_vertex),
        ("counting", counting),
    ]


def cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0
    for name, check in _selftest_items():
        failed = [sub for sub, ok in check() if not ok]
        if failed:
            print(f"{name}: {failed[0]}", file=sys.stderr)
        failures += bool(failed)
        print(f"{name} {'FAIL' if failed else 'PASS'}")
    print(f"selftest {'PASS' if failures == 0 else 'FAIL'}")
    return EXIT_OK if failures == 0 else EXIT_FAIL


@functools.cache  # parse_args leaves the parser as it found it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgsim",
        description="Hypergraph-state toolkit: build, recover and analyse "
        "equally weighted n-qubit states.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, help="accepted for old scripts; changes no output")
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
    sizes = f"{orbits.REPORT_QUBITS[0]}..{orbits.REPORT_QUBITS[-1]}"
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
