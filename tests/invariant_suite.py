"""Seeded invariant sweeps for each module, shared between the per-module
tests (one seed) and the acceptance suite (three seeds)."""

from __future__ import annotations

import numpy as np

import helpers
from hgsim import _bits, boolfn, entanglement, extract, hypergraph, orbits, statesim


def check_boolfn(seed: int) -> None:
    rng = np.random.default_rng(seed)
    # involution of the transform: exhaustive at n<=4, random up to n=16
    for n in (1, 2, 3, 4):
        for bits in range(1 << (1 << n)):
            assert _bits.butterfly(_bits.butterfly(bits, n), n) == bits
    for n in (8, 12, 16):
        for _ in range(10):
            bits = int.from_bytes(rng.bytes((1 << n) // 8), "little")
            assert _bits.butterfly(_bits.butterfly(bits, n), n) == bits
    # evaluate(mobius(tt)) == tt, and constant == tt(0)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        tt = helpers.random_table(n, rng)
        h, constant = boolfn.mobius_transform(tt)
        assert constant == tt[0]
        for x in rng.integers(0, tt.dim, size=16):
            assert helpers.evaluate_anf(h, constant, int(x)) == tt[int(x)]
        monomials = [*h.masks.tolist(), 0] if constant else h.masks  # 0: the empty monomial
        assert boolfn.StateVector(n, _bits.table_from_edges(monomials, n)) == tt


def check_hypergraph(seed: int) -> None:
    rng = np.random.default_rng(seed)
    # parse . serialize == identity: exhaustive n=3, random n<=10
    for h in helpers.all_hypergraphs(3):
        assert hypergraph.parse(hypergraph.serialize(h)) == h
    for _ in range(100):
        n = int(rng.integers(1, 11))
        h = helpers.random_hypergraph(n, rng)
        assert hypergraph.parse(hypergraph.serialize(h)) == h
        # toggle involution and neighbourhood size
        edge = np.uint64([rng.integers(1, 1 << n)])
        toggled = hypergraph.Hypergraph(n, np.setxor1d(h.masks, edge))
        assert hypergraph.Hypergraph(n, np.setxor1d(toggled.masks, edge)) == h
        for i in range(1, n + 1):
            hood = hypergraph.neighbourhood(h, i)
            assert len(hood) == sum(1 for e in h.edges if (e >> (i - 1)) & 1)
    # distinct sign vectors == counting formula for n=2, 3, 4
    for n, expected in ((2, 8), (3, 128), (4, 32768)):
        seen = {statesim.build_state(h).signs for h in helpers.all_hypergraphs(n)}
        assert len(seen) == expected == hypergraph.count_states(n)


def check_statesim(seed: int, graphs: int = 500) -> None:
    rng = np.random.default_rng(seed)
    pool = [h for n in (1, 2, 3) for h in helpers.all_hypergraphs(n)]
    pool += [helpers.random_hypergraph(int(rng.integers(4, 11)), rng) for _ in range(graphs)]
    for h in pool:
        ops = [statesim.stabilizer(h, i) for i in range(1, h.n + 1)]
        assert all(m is None for m in statesim.verification(statesim.build_state(h), ops).moved)
        probes = [statesim.random_state(h.n, rng) for _ in range(10)]
        for a in range(len(ops)):
            for b in range(a + 1, len(ops)):
                for p in probes:
                    assert statesim.commutator_residual(ops[a], ops[b], p) == 0.0
    # circuit/graph consistency and the ANF sign link
    for _ in range(50):
        n = int(rng.integers(1, 9))
        h = helpers.random_hypergraph(n, rng)
        mask = np.uint64([rng.integers(1, 1 << n)])
        toggled = statesim.build_state(hypergraph.Hypergraph(n, np.setxor1d(h.masks, mask)))
        edge = _bits.vertices_from_mask(int(mask[0]))
        assert toggled.signs == statesim.apply_ckz(statesim.build_state(h), edge).signs
        s = statesim.build_state(h)
        for x in rng.integers(0, 1 << n, size=8):
            assert ((s.signs >> int(x)) & 1) == helpers.evaluate_anf(h, 0, int(x))
    # X conjugation: X_i C^kZ_e X_i == C^kZ_e C^{k-1}Z_{e\{i}}, n<=6: on a
    # dense probe by full matrices, and on the probe's sign pattern by the
    # sign kernels, which match those matrices
    for _ in range(25):
        n = int(rng.integers(2, 7))
        edge = sorted(_bits.vertices_from_mask(int(rng.integers(1, 1 << n))))
        if len(edge) < 2:
            continue
        i = edge[int(rng.integers(len(edge)))]
        rest = [v for v in edge if v != i]
        probe = statesim.random_state(n, rng)
        x = helpers.pauli_word_matrix("".join("X" if q == i else "I" for q in range(1, n + 1)))
        d_edge, d_rest = helpers.gate_diagonal(n, edge), helpers.gate_diagonal(n, rest)
        assert np.allclose(x @ (d_edge * (x @ probe)), d_edge * d_rest * probe, atol=1e-12)
        s = statesim.StateVector(n, helpers.loop_minus_table(probe))
        lhs = statesim.apply_local_pauli(
            statesim.apply_ckz(statesim.apply_local_pauli(s, i, "X"), edge), i, "X"
        )
        rhs = statesim.apply_ckz(statesim.apply_ckz(s, edge), rest)
        assert lhs.signs == rhs.signs
        assert np.array_equal(helpers.amplitudes(lhs), x @ (d_edge * (x @ helpers.amplitudes(s))))
    # diagonal gates commute: shuffled gate order gives the identical state
    for _ in range(20):
        n = int(rng.integers(1, 9))
        h = helpers.random_hypergraph(n, rng)
        gates = [list(_bits.vertices_from_mask(e)) for e in h.edges]
        rng.shuffle(gates)
        s = statesim.StateVector(n, 0)
        for g in gates:
            s = statesim.apply_ckz(s, g)
        assert s.signs == statesim.build_state(h).signs


def check_extract(seed: int, tables: int = 10_000) -> None:
    rng = np.random.default_rng(seed)
    # exhaustive bijection at n=3
    for bits in range(0, 256, 2):
        tt = boolfn.StateVector(3, bits)
        h = extract.extract_fast(tt)
        assert extract.extract_layered(tt) == h
        assert statesim.build_state(h).signs == bits
        full_edge = 0b111 in h.edges
        assert full_edge == bool(tt.weight() & 1)
    # random volume at n<=12
    for _ in range(tables):
        n = int(rng.integers(1, 13))
        tt = helpers.random_table(n, rng, normalized=True)
        h = extract.extract_fast(tt)
        assert extract.extract_layered(tt) == h
        assert statesim.build_state(h).signs == tt.signs
        assert (((1 << n) - 1) in h.edges) == bool(tt.weight() & 1)
    # balanced tables never extract the full edge: exhaustive n=3, random n<=10
    for tt in _balanced_tables_n3():
        assert not extract.classify_balance(tt).full_edge
        if tt[0] == 0:
            assert ((1 << 3) - 1) not in extract.extract_fast(tt).edges
    for _ in range(200):
        n = int(rng.integers(2, 11))
        tt = helpers.random_balanced_table(n, rng)
        report = extract.classify_balance(tt)
        assert report.kind == extract.BALANCED and not report.full_edge
        assert ((1 << n) - 1) not in extract.extract_fast(tt).edges


def _balanced_tables_n3():
    for bits in range(256):
        tt = boolfn.StateVector(3, bits)
        if tt.weight() == 4:
            yield tt


def check_entanglement(seed: int) -> None:
    rng = np.random.default_rng(seed)
    # invariance under qubit relabeling and under local X/Z
    for _ in range(6):
        n = int(rng.integers(3, 7))
        h = helpers.random_hypergraph(n, rng)
        s = statesim.build_state(h)
        base = entanglement.genuine_multipartite_geometric(s)
        assert 1.0 / (1 << n) - 1e-12 <= base.lambda_star <= 1.0 + 1e-12
        assert 0.0 - 1e-12 <= base.e2 < 1.0
        perm = dict(zip(range(1, n + 1), rng.permutation(np.arange(1, n + 1)).tolist()))
        permuted = entanglement.genuine_multipartite_geometric(helpers.permute_qubits(s, perm))
        assert abs(base.e2 - permuted.e2) <= 1e-10
        i = int(rng.integers(1, n + 1))
        for p in ("X", "Z"):
            moved = entanglement.genuine_multipartite_geometric(
                statesim.apply_local_pauli(s, i, p)
            )
            assert all(
                abs(a[1] - b[1]) <= 1e-10 for a, b in zip(base.cuts, moved.cuts)
            )
    # every connected plain graph state at n=3,4 sits at or above one half
    for n in (3, 4):
        for h in helpers.connected_two_uniform(n):
            report = entanglement.genuine_multipartite_geometric(statesim.build_state(h))
            assert report.e2 >= 0.5 - 1e-10


def check_orbits(seed: int) -> None:
    rng = np.random.default_rng(seed)
    # orbit membership is symmetric
    for _ in range(10):
        n = int(rng.integers(1, 5))
        s = helpers.random_table(n, rng, normalized=True)
        orbit = orbits.local_pauli_orbit(s)
        member = sorted(orbit)[int(rng.integers(len(orbit)))]
        back = orbits.local_pauli_orbit(statesim.StateVector(n, member.table))
        assert orbits.OrbitKey.from_state(s) in back
        assert back == orbit
    # local Z alone only toggles order-1 edges (exhaustive n=3)
    for h in helpers.all_hypergraphs(3):
        s = statesim.build_state(h)
        big_edges = {e for e in h.edges if e.bit_count() >= 2}
        for z_mask in range(8):
            t = s.signs ^ _bits.parity_mask(z_mask, 3)
            edges = extract.extract_fast(boolfn.StateVector(3, t)).edges
            assert {e for e in edges if e.bit_count() >= 2} == big_edges
    # the cross-order violation list is empty
    for n in (3, 4):
        assert orbits.class_inequivalence_report(n).total_violations == 0
