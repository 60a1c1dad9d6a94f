from itertools import product
from math import comb

import numpy as np
import pytest

import helpers
import invariant_suite
from hgsim import _bits, extract, orbits, statesim
from hgsim.hypergraph import Hypergraph
from hgsim.orbits import OrbitKey
from hgsim.statesim import StateVector


def loop_report(n: int, state_tables) -> orbits.InequivalenceReport:
    """The inequivalence report from the 4**n-word orbit of every state in
    state_tables[k], met against the uniform states of each other order."""
    report = orbits.InequivalenceReport(n)
    members = {k: frozenset(helpers.loop_uniform_state_tables(n, k)) for k in range(1, n + 1)}
    for k, tables in state_tables.items():
        found = [helpers.loop_table_orbit(t, n) for t in tables]
        sizes = [len(o) for o in found]
        report.state_counts[k] = len(tables)
        report.orbit_sizes[k] = (min(sizes), max(sizes))
        for kp in range(1, n + 1):
            if kp != k:
                report.pair_violations[(k, kp)] = sum(1 for o in found if o & members[kp])
    return report


def dense_orbit(s: StateVector) -> set[OrbitKey]:
    """Oracle: apply every Pauli word as a full matrix, canonicalize densely."""
    psi = helpers.amplitudes(s)
    return {
        helpers.phase_key(helpers.pauli_word_matrix("".join(letters)) @ psi)
        for letters in product("IXYZ", repeat=s.n)
    }


def test_plus_state_orbit_is_all_singleton_decorations():
    # local Z toggles a single-vertex edge, so the orbit has 2**n keys
    for n in (1, 2, 3):
        orbit = orbits.local_pauli_orbit(StateVector(n, 0))
        assert len(orbit) == 1 << n
        assert orbit == dense_orbit(StateVector(n, 0))


def test_pair_graph_orbit_has_four_patterns():
    s = statesim.build_state(Hypergraph.from_sets(2, [{1, 2}]))
    orbit = orbits.local_pauli_orbit(s)
    assert len(orbit) == 4
    assert orbit == dense_orbit(s)


def test_orbit_matches_dense_oracle_on_random_states():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3):
        for _ in range(4):
            s = helpers.random_table(n, rng, normalized=True)
            assert orbits.local_pauli_orbit(s) == dense_orbit(s)


def test_single_minus_orbit_avoids_plain_graph_states():
    s = statesim.build_state(Hypergraph.from_sets(3, [{1, 2, 3}]))
    orbit = orbits.local_pauli_orbit(s)
    two_uniform = set(helpers.uniform_state_tables(3, 2).tolist())
    assert all(key.table not in two_uniform for key in orbit)


def test_orbit_key_quotient_matches_phase_equality():
    s = statesim.build_state(Hypergraph.from_sets(2, [{1, 2}]))
    psi = helpers.amplitudes(s)
    assert OrbitKey.from_state(s) == helpers.phase_key(-psi) == helpers.phase_key(1j * psi)
    other = statesim.build_state(Hypergraph.from_sets(2, [{1}]))
    assert OrbitKey.from_state(s) != OrbitKey.from_state(other)


def test_orbit_cap():
    with pytest.raises(ValueError):
        orbits.local_pauli_orbit(StateVector(5, 0))


def test_inequivalence_report_n3():
    report = orbits.class_inequivalence_report(3)
    assert report.state_counts == {1: 7, 2: 7, 3: 1}
    assert report.total_violations == 0
    assert all(count == 0 for count in report.pair_violations.values())
    text = report.to_text()
    assert "pair 1 2 violations 0" in text
    assert text.endswith("total violations 0\n")


def test_inequivalence_report_n4_counts():
    report = orbits.class_inequivalence_report(4)
    assert report.state_counts == {1: 15, 2: 63, 3: 15, 4: 1}
    assert report.total_violations == 0


def test_inequivalence_report_rejects_other_sizes():
    for n in (min(orbits.REPORT_QUBITS) - 1, max(orbits.REPORT_QUBITS) + 1):
        with pytest.raises(ValueError):
            orbits.class_inequivalence_report(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_inequivalence_report_matches_the_word_loop(n):
    # every nonempty uniform state, 2,109 of them at n = 5
    states = {k: helpers.loop_uniform_state_tables(n, k) for k in range(1, n + 1)}
    assert orbits.class_inequivalence_report(n) == loop_report(n, states)


@pytest.mark.parametrize("n", range(1, 11))
def test_top_degree_anf_is_invariant_under_every_translate(n):
    # Corollary behind the report, for every n: a translate keeps the ANF's
    # degree-d part (d its top degree) and adds only lower degrees.  A Pauli
    # word changes ANF>=2 by a translate alone, so two distinct nonempty
    # k-uniform states (k >= 2) are never local-Pauli equivalent.
    rng = np.random.default_rng(1404 + n)
    for _ in range(20):
        d = int(rng.integers(1, n + 1))
        top = _bits.set_bits(_bits.weight_mask(n, d))
        edges = rng.choice(top, size=int(rng.integers(1, top.size + 1)), replace=False).tolist()
        lower = rng.integers(1, 1 << n, size=8).tolist()
        anf = sum(1 << e for e in {*edges, *(e for e in lower if e.bit_count() < d)})
        flips = range(1 << n) if n <= 6 else rng.integers(0, 1 << n, size=64).tolist()
        for flip in flips:
            moved = _bits.anf_translate(anf, flip, n)
            assert max(e.bit_count() for e in _bits.set_bits(moved).tolist()) == d
            assert moved & _bits.weight_mask(n, d) == anf & _bits.weight_mask(n, d)


def test_inequivalence_verdicts_match_the_word_loop_on_planted_edges(monkeypatch):
    # mixed-order generators in place of each order's edges, so that states
    # do meet other orders and the verdicts are not all 0; two edges per
    # chunk, so the span is split into several
    rng = np.random.default_rng(2014)
    monkeypatch.setattr(orbits, "_CHUNK_EDGES", 2)
    seen = 0
    for n in (3, 4, 4, 5, 5):
        planted = {
            k: rng.choice(np.arange(1, 1 << n), size=int(rng.integers(1, 7)), replace=False)
            for k in range(1, n + 1)
        }
        monkeypatch.setattr(orbits, "_edge_masks", lambda n, k: planted[k])
        states = {
            k: [
                helpers.loop_table_from_edges([int(e) for j, e in enumerate(es) if p >> j & 1], n)
                for p in range(1, 1 << len(es))
            ]
            for k, es in planted.items()
        }
        report = orbits.class_inequivalence_report(n)
        assert report == loop_report(n, states)
        seen += report.total_violations
    assert seen > 0


def test_inequivalence_report_n6_counts_and_orbit_sizes():
    report = orbits.class_inequivalence_report(6)
    assert report.state_counts == {k: (1 << comb(6, k)) - 1 for k in range(1, 7)}
    assert report.orbit_sizes == {
        1: (64, 64), 2: (64, 64), 3: (512, 4096), 4: (1024, 4096), 5: (2048, 4096), 6: (4096, 4096),
    }
    assert report.total_violations == 0
    assert len(report.pair_violations) == 30
    # a seeded sample of states has word-loop orbits inside the reported range
    rng = np.random.default_rng(6)
    for k in range(1, 7):
        tables = helpers.uniform_state_tables(6, k)
        lo, hi = report.orbit_sizes[k]
        for t in rng.choice(tables, size=min(4, len(tables)), replace=False).tolist():
            assert lo <= len(helpers.loop_table_orbit(t, 6)) <= hi


@pytest.mark.parametrize("n", range(1, 7))
def test_single_minus_state_is_the_full_edge_translated(n):
    # the Grover oracle marking w flips the sign of label w alone; its edges
    # are every superset of w, and X on the zero bits of w carries it to the
    # one n-vertex edge
    full = (1 << n) - 1
    full_edge = statesim.build_state(Hypergraph(n, frozenset({full})))
    for w in range(1, 1 << n):
        marked = StateVector(n, 1 << w)
        edges = extract.extract_fast(StateVector(n, 1 << w)).edges
        assert edges == {s for s in range(1, 1 << n) if s & w == w}
        moved = marked
        for v in _bits.mask_bits(full & ~w, 1):
            moved = statesim.apply_local_pauli(moved, v, "X")
        assert moved.signs == full_edge.signs
        if n <= orbits.MAX_QUBITS:
            orbit = orbits.local_pauli_orbit(marked)
            assert OrbitKey.from_state(full_edge) in orbit
            assert orbit == orbits.local_pauli_orbit(full_edge)


def test_invariant_suite():
    invariant_suite.check_orbits(42)
