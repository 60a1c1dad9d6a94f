"""Acceptance suite: one test per criterion, each at its stated tolerance
and time budget, printing one pass/fail line (visible with pytest -s/-v).

Timings measure the operation under test after a warmup call, excluding
interpreter and import costs.
"""

import time

import numpy as np
import pytest

import helpers
import invariant_suite
from hgsim import boolfn, entanglement, extract, hypergraph, orbits, statesim
from hgsim.boolfn import StateVector
from hgsim.hypergraph import Hypergraph


def _report(num: int, label: str, elapsed: float, budget: float) -> None:
    print(f"criterion {num:02d} {label}: PASS ({elapsed:.3f}s / budget {budget:g}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.3f}s"


# ket strings written qubit-1-leftmost
MIXED3_MINUS_KETS = ["011", "100", "101", "110", "111"]


def _table_from_kets(kets: list[str]) -> StateVector:
    n = len(kets[0])
    bits = 0
    for ket in kets:
        x = sum(1 << i for i, c in enumerate(ket) if c == "1")
        bits |= 1 << x
    return StateVector(n, bits)


def test_criterion_01_mixed_order_example():
    tt = _table_from_kets(MIXED3_MINUS_KETS)
    assert tt == boolfn.truth_table_from_hex("EA", 3)
    want = frozenset({frozenset({1}), frozenset({2, 3}), frozenset({1, 2, 3})})

    extract.extract_layered(tt)  # warmup (mask caches)
    start = time.perf_counter()
    h = extract.extract_layered(tt)
    rebuilt = statesim.build_state(h)
    elapsed = time.perf_counter() - start

    assert helpers.edge_sets(h) == want
    assert helpers.edge_sets(extract.extract_fast(tt)) == want
    assert rebuilt.signs == tt.signs  # exact sign match
    _report(1, "three-edge example extracts and rebuilds", elapsed, 0.001)


def test_criterion_02_single_minus_example():
    tt = boolfn.truth_table_from_hex("80", 3)
    entanglement.genuine_multipartite_geometric(tt)  # warmup (LAPACK load)

    start = time.perf_counter()
    h = extract.extract_fast(tt)
    report = entanglement.genuine_multipartite_geometric(tt)
    elapsed = time.perf_counter() - start

    assert helpers.edge_sets(h) == frozenset({frozenset({1, 2, 3})})
    assert extract.extract_layered(tt) == h
    assert len(report.cuts) == 3
    for _, lam in report.cuts:
        assert abs(lam - 0.75) <= 1e-10
    assert abs(report.e2 - 0.25) <= 1e-9
    _report(2, "single-minus example: E2 = 0.25", elapsed, 0.010)


def test_criterion_03_counting_by_enumeration():
    start = time.perf_counter()
    for n in (2, 3):
        seen = {statesim.build_state(h).signs for h in helpers.all_hypergraphs(n)}
        assert len(seen) == hypergraph.count_states(n) == 1 << ((1 << n) - 1)
    elapsed = time.perf_counter() - start
    _report(3, "distinct sign vectors: 8 at n=2, 128 at n=3", elapsed, 1.0)


def test_criterion_04_stabilization_sweep():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    graphs = list(helpers.all_hypergraphs(3))
    graphs += [helpers.random_hypergraph(10, rng) for _ in range(500)]
    for h in graphs:
        ops = [statesim.stabilizer(h, i) for i in range(1, h.n + 1)]
        assert all(m is None for m in statesim.verification(statesim.build_state(h), ops).moved)
        probes = [statesim.random_state(h.n, rng) for _ in range(10)]
        for a in range(len(ops)):
            for b in range(a + 1, len(ops)):
                for probe in probes:
                    assert statesim.commutator_residual(ops[a], ops[b], probe) == 0.0
    elapsed = time.perf_counter() - start
    _report(4, "628 graphs stabilized, all commutators exactly 0", elapsed, 30.0)


def test_criterion_05_uniqueness_sweep():
    rng = np.random.default_rng(515)
    start = time.perf_counter()
    for h in helpers.all_hypergraphs(3):
        assert statesim.uniqueness_check(h)
    for _ in range(50):
        assert statesim.uniqueness_check(helpers.random_hypergraph(8, rng))
    elapsed = time.perf_counter() - start
    _report(5, "joint +1 eigenspace is one-dimensional (128 + 50 graphs)", elapsed, 30.0)


def test_criterion_06_class_inequivalence():
    start = time.perf_counter()
    for n in (3, 4, 5, 6):
        report = orbits.class_inequivalence_report(n)
        assert report.total_violations == 0
        assert all(v == 0 for v in report.pair_violations.values())
    elapsed = time.perf_counter() - start
    _report(6, "no cross-order local-Pauli connections at n=3..6", elapsed, 60.0)


def test_criterion_07_connected_graph_bound():
    start = time.perf_counter()
    counts = {}
    for n in (3, 4):
        graphs = list(helpers.connected_two_uniform(n))
        counts[n] = len(graphs)
        for h in graphs:
            report = entanglement.genuine_multipartite_geometric(statesim.build_state(h))
            assert report.e2 >= 0.5 - 1e-10
    assert counts == {3: 4, 4: 38}
    grover = statesim.build_state(Hypergraph.from_sets(3, [{1, 2, 3}]))
    assert entanglement.genuine_multipartite_geometric(grover).e2 == pytest.approx(
        0.25, abs=1e-9
    )
    elapsed = time.perf_counter() - start
    _report(7, "connected plain graph states sit at E2 >= 1/2", elapsed, 10.0)


def test_criterion_08_extraction_routes_agree():
    rng = np.random.default_rng(88)
    start = time.perf_counter()
    for bits in range(0, 256, 2):
        tt = StateVector(3, bits)
        assert extract.extract_layered(tt) == extract.extract_fast(tt)
    for _ in range(10_000):
        n = int(rng.integers(1, 13))
        tt = helpers.random_table(n, rng, normalized=True)
        assert extract.extract_layered(tt) == extract.extract_fast(tt)
    elapsed = time.perf_counter() - start
    _report(8, "layered and fast extraction agree on 10128 tables", elapsed, 30.0)


def test_criterion_09_parity_and_balance_laws():
    start = time.perf_counter()
    full = frozenset({1, 2, 3})
    for bits in range(0, 256, 2):
        tt = StateVector(3, bits)
        has_full = full in helpers.edge_sets(extract.extract_fast(tt))
        assert has_full == bool(tt.weight() & 1)
        if extract.classify_balance(tt).kind == extract.BALANCED:
            assert not has_full
    elapsed = time.perf_counter() - start
    _report(9, "full edge iff odd minus count; balanced never has it", elapsed, 5.0)


@pytest.mark.parametrize("seed", [11, 42, 1999])
def test_criterion_10_module_invariants(seed):
    start = time.perf_counter()
    invariant_suite.check_boolfn(seed)
    invariant_suite.check_hypergraph(seed)
    invariant_suite.check_statesim(seed)
    invariant_suite.check_extract(seed)
    invariant_suite.check_entanglement(seed)
    invariant_suite.check_orbits(seed)
    elapsed = time.perf_counter() - start
    _report(10, f"module invariant suites (seed {seed})", elapsed, 120.0)
