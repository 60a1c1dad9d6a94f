"""Independent oracles and generators shared by the test modules.

Everything here recomputes expected values by a route different from the
package code: subset-sum ANF instead of the butterfly, explicit label loops
instead of reshape tricks, full Kronecker matrices instead of streaming
gate application.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from hgsim import _bits, statesim
from hgsim.boolfn import TruthTable
from hgsim.hypergraph import Hypergraph
from hgsim.statesim import StateVector

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def brute_anf(tt: TruthTable) -> tuple[set[frozenset[int]], int]:
    """Subset-sum Mobius oracle: coefficient of S is XOR of f over x <= S."""
    monomials = set()
    constant = 0
    for s in range(tt.size):
        acc = 0
        for x in range(tt.size):
            if x & s == x:
                acc ^= tt[x]
        if acc:
            if s == 0:
                constant = 1
            else:
                monomials.add(frozenset(i + 1 for i in range(tt.n) if (s >> i) & 1))
    return monomials, constant


def pauli_word_matrix(letters: str) -> np.ndarray:
    """Full matrix of a Pauli word; letters[i] acts on qubit i+1 (LSB first)."""
    m = PAULI[letters[0]]
    for c in letters[1:]:
        m = np.kron(PAULI[c], m)
    return m


def dense_state(s: StateVector) -> np.ndarray:
    return s.dense_array().copy()


def loop_partial_trace(psi: np.ndarray, n: int, subsystem) -> np.ndarray:
    """Partial trace by explicit label arithmetic."""
    kept = sorted(subsystem)
    rest = [q for q in range(1, n + 1) if q not in kept]

    def label(row: int, env: int) -> int:
        x = 0
        for j, q in enumerate(kept):
            if (row >> j) & 1:
                x |= 1 << (q - 1)
        for j, q in enumerate(rest):
            if (env >> j) & 1:
                x |= 1 << (q - 1)
        return x

    dim = 1 << len(kept)
    rho = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            rho[a, b] = sum(
                psi[label(a, e)] * np.conj(psi[label(b, e)])
                for e in range(1 << len(rest))
            )
    return rho


def permute_qubits(s: StateVector, perm: dict[int, int]) -> StateVector:
    """Relabel qubits: old qubit i becomes perm[i] in the new state."""
    psi = s.dense_array()
    out = np.empty_like(psi)
    for x in range(len(psi)):
        y = 0
        for i in range(1, s.n + 1):
            if (x >> (i - 1)) & 1:
                y |= 1 << (perm[i] - 1)
        out[y] = psi[x]
    return StateVector(s.n, amps=out)


def _random_bits(width: int, rng: np.random.Generator) -> int:
    return int.from_bytes(rng.bytes((width + 7) // 8), "little") & ((1 << width) - 1)


def random_hypergraph(n: int, rng: np.random.Generator) -> Hypergraph:
    """Uniform over all hypergraphs: every possible edge tossed independently."""
    indicator = _random_bits((1 << n) - 1, rng) << 1
    return Hypergraph(n, frozenset(m for m in range(1, 1 << n) if (indicator >> m) & 1))


def random_table(n: int, rng: np.random.Generator, normalized: bool = False) -> TruthTable:
    bits = _random_bits(1 << n, rng)
    if normalized:
        bits &= ~1
    return TruthTable(n, bits)


def random_balanced_table(n: int, rng: np.random.Generator) -> TruthTable:
    """Normalized table with exactly 2**(n-1) ones (none at x=0)."""
    ones = rng.choice(np.arange(1, 1 << n), size=1 << (n - 1), replace=False)
    bits = 0
    for x in ones:
        bits |= 1 << int(x)
    return TruthTable(n, bits)


def all_hypergraphs(n: int):
    """Every hypergraph on n vertices (2**(2**n - 1) of them)."""
    masks = list(range(1, 1 << n))
    for pick in range(1 << len(masks)):
        yield Hypergraph(
            n, frozenset(m for j, m in enumerate(masks) if (pick >> j) & 1)
        )


def connected_two_uniform(n: int):
    """Every 2-uniform hypergraph whose edges connect all n vertices."""
    pairs = [frozenset(c) for c in combinations(range(1, n + 1), 2)]
    for pick in range(1, 1 << len(pairs)):
        edges = [p for j, p in enumerate(pairs) if (pick >> j) & 1]
        parent = list(range(n + 1))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for e in edges:
            a, b = sorted(e)
            parent[find(a)] = find(b)
        if len({find(v) for v in range(1, n + 1)}) == 1:
            yield Hypergraph.from_sets(n, edges)


def loop_set_bits(table: int) -> list[int]:
    """Set-bit positions by peeling the lowest set bit of a Python integer."""
    out = []
    while table:
        low = table & -table
        out.append(low.bit_length() - 1)
        table ^= low
    return out


def loop_mask_check(masks, n: int, clear: int = 0, empty_ok: bool = True):
    """The first mask outside 0..2**n - 1, sharing a bit with clear, or equal
    to 0 unless empty_ok, by testing every mask; None if there is none."""
    for m in masks:
        if not 0 <= m < 1 << n or m & clear or (m == 0 and not empty_ok):
            return m
    return None


def loop_superset_mask(label: int, n: int) -> int:
    """Table of the labels containing label, doubled along each axis label lacks."""
    mask = 1 << label
    for i in range(n):
        if not (label >> i) & 1:
            mask |= mask << (1 << i)
    return mask


def loop_axis_set_mask(i: int, n: int) -> int:
    """Table of the labels whose bit i is 1: the bit-i-clear half, shifted up."""
    return _bits.axis_clear_mask(i, n) << (1 << i)


def loop_parity_mask(z_mask: int, n: int) -> int:
    """Table of odd popcount(x AND z_mask): XOR of one axis half per bit of z_mask."""
    mask = 0
    for i in range(n):
        if (z_mask >> i) & 1:
            mask ^= loop_axis_set_mask(i, n)
    return mask


def loop_bipartition_masks(n: int) -> list[int]:
    """Every cut side with |A| < n/2 or |A| = n/2 holding vertex 1, filtered
    from all 2**n masks and sorted by size, then mask."""
    masks = []
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if 2 * size < n or (2 * size == n and mask & 1):
            masks.append(mask)
    masks.sort(key=lambda m: (m.bit_count(), m))
    return masks


def loop_uniform_state_tables(n: int, k: int) -> list[int]:
    """Sign table of each nonempty choice of k-vertex edges from combinations."""
    k_edges = [_bits.mask_from_vertices(c) for c in combinations(range(1, n + 1), k)]
    return [
        loop_table_from_edges([e for j, e in enumerate(k_edges) if (pick >> j) & 1], n)
        for pick in range(1, 1 << len(k_edges))
    ]


def loop_minus_table(amps: np.ndarray) -> int:
    """Table with bit x set iff amps[x] has a negative real part, OR-ed label by label."""
    table = 0
    for x in np.nonzero(amps.real < 0)[0]:
        table |= 1 << int(x)
    return table


def loop_weight_mask(n: int, k: int) -> int:
    """Weight-k label mask by summing one power of two per label."""
    return sum(1 << x for x in range(1 << n) if x.bit_count() == k)


def loop_table_from_edges(masks, n: int) -> int:
    """Edge indicator OR-ed together bit by bit, then the butterfly."""
    indicator = 0
    for e in masks:
        indicator |= 1 << e
    return _bits.butterfly(indicator, n)


def vertex_tuple_sorted(edges) -> list[int]:
    """Edge masks sorted by size, then by their ascending vertex tuple."""
    def vertices(e: int) -> list[int]:
        return [i + 1 for i in range(e.bit_length()) if (e >> i) & 1]

    return sorted(edges, key=lambda e: (e.bit_count(), vertices(e)))


def operator_diagonal(op) -> np.ndarray:
    """(-1)**(number of the operator's tuple masks contained in x), per label x."""
    labels = np.arange(1 << op.n)
    covered = sum(((labels & m) == m).astype(int) for m in op.masks)
    return 1.0 - 2.0 * (np.asarray(covered) & 1)


def stabilizer_matrix(op) -> np.ndarray:
    """Full matrix of a correlation operator: column y holds the diagonal
    entry of y at row y XOR flip."""
    labels = np.arange(1 << op.n)
    m = np.zeros((1 << op.n, 1 << op.n))
    m[labels ^ (1 << (op.i - 1)), labels] = operator_diagonal(op)
    return m


def loop_uniqueness_verdicts(h, probes: int = 20, seed: int = 42, ops=None) -> list[bool]:
    """The per-probe uniqueness test one probe at a time: project through
    every (I + K)/2 with an explicit label permutation, then require a
    vanishing or target-parallel result."""
    rng = np.random.default_rng(seed)
    target = statesim.build_state(h).dense_array()
    if ops is None:
        ops = [statesim.stabilizer(h, i) for i in range(1, h.n + 1)]
    idx = np.arange(1 << h.n)
    diagonals = [operator_diagonal(op) for op in ops]
    verdicts = []
    for _ in range(probes):
        v = statesim.random_state(h.n, rng).dense_array()
        for op, d in zip(ops, diagonals):
            v = (v + (v * d)[idx ^ (1 << (op.i - 1))]) / 2.0
        norm = np.linalg.norm(v)
        if norm <= statesim.ATOL_NORM:
            verdicts.append(True)
            continue
        overlap = np.vdot(target, v)
        verdicts.append(bool(np.linalg.norm(v - overlap * target) <= statesim.ATOL_EQUAL * norm))
    return verdicts
