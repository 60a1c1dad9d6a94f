"""Independent oracles and generators shared by the test modules.

Everything here recomputes expected values by a route different from the
package code: subset-sum ANF instead of the butterfly, explicit label loops
instead of reshape tricks, full Kronecker matrices instead of streaming
gate application.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import add
from typing import Iterator

import numpy as np

from hgsim import _bits, orbits, statesim
from hgsim.hypergraph import Hypergraph
from hgsim.orbits import OrbitKey
from hgsim.statesim import StateVector

ATOL_NORM = 1e-12  # a projected probe this short counts as zero
ATOL_EQUAL = 1e-9  # amplitude comparisons of dense vectors

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def brute_anf(tt: StateVector) -> tuple[set[frozenset[int]], int]:
    """Subset-sum Mobius oracle: coefficient of S is XOR of f over x <= S."""
    monomials = set()
    constant = 0
    for s in range(tt.dim):
        acc = 0
        for x in range(tt.dim):
            if x & s == x:
                acc ^= tt[x]
        if acc:
            if s == 0:
                constant = 1
            else:
                monomials.add(frozenset(i + 1 for i in range(tt.n) if (s >> i) & 1))
    return monomials, constant


def edge_sets(h: Hypergraph) -> frozenset[frozenset[int]]:
    """The edges of a hypergraph as 1-based vertex sets."""
    return frozenset(map(_bits.vertices_from_mask, h.masks.tolist()))


def evaluate_anf(h: Hypergraph, constant: int, x: int) -> int:
    """The XOR-monomial form (h's edges, plus a constant bit) at one input
    label, one vertex at a time."""
    if not 0 <= x < 1 << h.n:
        raise ValueError(f"basis label {x} out of range for n={h.n}")
    acc = constant
    for edge in edge_sets(h):
        acc ^= all((x >> (v - 1)) & 1 for v in edge)
    return acc


def pauli_word_matrix(letters: str) -> np.ndarray:
    """Full matrix of a Pauli word; letters[i] acts on qubit i+1 (LSB first)."""
    m = PAULI[letters[0]]
    for c in letters[1:]:
        m = np.kron(PAULI[c], m)
    return m


def amplitudes(s: StateVector) -> np.ndarray:
    """The dense vector of a sign state, read off the binary digits of its
    sign table: -1/sqrt(2**n) where bit x is set, else +1/sqrt(2**n)."""
    digits = np.frombuffer(format(s.signs, f"0{s.dim}b")[::-1].encode(), dtype=np.uint8)
    return np.where(digits == ord("1"), -1.0, 1.0) / np.sqrt(s.dim)


def gate_diagonal(n: int, vertices) -> np.ndarray:
    """The +-1 diagonal of C^kZ on the given 1-based vertices: -1 at each
    label holding every one of them, tested vertex by vertex."""
    labels = np.arange(1 << n)
    hit = np.ones(1 << n, dtype=bool)
    for v in vertices:
        hit &= ((labels >> (v - 1)) & 1) == 1
    return np.where(hit, -1.0, 1.0)


def phase_key(psi: np.ndarray) -> OrbitKey:
    """The orbit key of c times an equally weighted +-1 vector, |c| = 1, read
    densely: divided by the phase of its label-0 amplitude the vector is
    real with label 0 plus, and its minus labels are the key's table."""
    n = len(psi).bit_length() - 1
    flat = psi / (psi[0] / abs(psi[0]))
    assert np.allclose(flat.imag, 0.0, rtol=0, atol=ATOL_EQUAL)
    assert np.allclose(abs(flat.real), 1 / np.sqrt(len(psi)), rtol=0, atol=ATOL_EQUAL)
    return OrbitKey(n, loop_minus_table(flat))


def cut_lambda(psi: np.ndarray, mask: int) -> float:
    """Top eigenvalue of the reduced density on the vertices of a mask: the
    largest squared singular value of psi as a (side, rest) matrix, the
    qubits moved by a tensor transpose (axis j of the tensor is qubit n - j)."""
    n = len(psi).bit_length() - 1
    side = [n - v for v in range(1, n + 1) if (mask >> (v - 1)) & 1]
    rest = [n - v for v in range(1, n + 1) if not (mask >> (v - 1)) & 1]
    m = np.transpose(psi.reshape((2,) * n), side + rest).reshape(1 << len(side), -1)
    return float(np.linalg.svd(m, compute_uv=False)[0] ** 2)


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
    signs = 0
    for x in range(s.dim):
        if (s.signs >> x) & 1:
            y = 0
            for i in range(1, s.n + 1):
                if (x >> (i - 1)) & 1:
                    y |= 1 << (perm[i] - 1)
            signs |= 1 << y
    return StateVector(s.n, signs)


def _random_bits(width: int, rng: np.random.Generator) -> int:
    return int.from_bytes(rng.bytes((width + 7) // 8), "little") & ((1 << width) - 1)


def random_hypergraph(n: int, rng: np.random.Generator) -> Hypergraph:
    """Uniform over all hypergraphs: every possible edge tossed independently."""
    indicator = _random_bits((1 << n) - 1, rng) << 1
    return Hypergraph(n, frozenset(m for m in range(1, 1 << n) if (indicator >> m) & 1))


def random_table(n: int, rng: np.random.Generator, normalized: bool = False) -> StateVector:
    bits = _random_bits(1 << n, rng)
    if normalized:
        bits &= ~1
    return StateVector(n, bits)


def random_balanced_table(n: int, rng: np.random.Generator) -> StateVector:
    """Normalized table with exactly 2**(n-1) ones (none at x=0)."""
    ones = rng.choice(np.arange(1, 1 << n), size=1 << (n - 1), replace=False)
    bits = 0
    for x in ones:
        bits |= 1 << int(x)
    return StateVector(n, bits)


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


def loop_dump(n: int, signs: int) -> str:
    """statesim.dump, one line per label."""
    lines = [f"n {n} backend sign"]
    lines.extend(f"{x} {'-' if (signs >> x) & 1 else '+'}" for x in range(1 << n))
    return "\n".join(lines) + "\n"


def loop_set_bits(table: int) -> list[int]:
    """Set-bit positions by peeling the lowest set bit of a Python integer."""
    out = []
    while table:
        low = table & -table
        out.append(low.bit_length() - 1)
        table ^= low
    return out


def loop_deposit(mask: int, width: int) -> list[int]:
    """Label r -> bit t of r on the t-th lowest set bit of mask, for r < 2**width."""
    positions = _bits.mask_bits(mask)[:width]
    return [
        sum(((r >> t) & 1) << p for t, p in enumerate(positions)) for r in range(1 << width)
    ]


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


@lru_cache(maxsize=None)
def parity_tables(n: int) -> tuple[int, ...]:
    """The sign flip of every Z word, indexed by its mask."""
    return tuple(loop_parity_mask(z, n) for z in range(1 << n))


def loop_table_orbit(table: int, n: int) -> frozenset[int]:
    """Canonical tables reachable by all 4**n local Pauli words, one word at a
    time: the X part relabels the table, the Z part XORs a parity table, and
    the sign at label 0 is set to plus."""
    full = (1 << (1 << n)) - 1
    out = set()
    for x_mask in range(1 << n):
        moved = _bits.xor_permute(table, x_mask, n)
        for parity in parity_tables(n):
            word = moved ^ parity
            out.add(word ^ full if word & 1 else word)
    return frozenset(out)


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


def uniform_state_tables(n: int, k: int) -> np.ndarray:
    """Sign tables (uint64, n <= 6) of the states the orbit report counts at
    order k: every nonempty k-uniform edge set.  Tables of distinct edges add
    by XOR, so entry j - 1 is the span's column j (bit i of j picks the i-th
    edge): the butterfly of the span of the edges' one-bit tables."""
    return _bits.butterfly(orbits._span(np.uint64(1) << orbits._edge_masks(n, k)), n)[1:]


def loop_uniform_state_tables(n: int, k: int) -> list[int]:
    """Sign table of each nonempty choice of k-vertex edges from combinations."""
    k_edges = [_bits.mask_from_vertices(c, n) for c in combinations(range(1, n + 1), k)]
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


def set_vertex_text(mask: int, sep: str) -> str:
    """The vertices of a mask, ascending, joined by sep."""
    return sep.join(str(i + 1) for i in range(mask.bit_length()) if (mask >> i) & 1)


def set_serialize(n: int, edges) -> str:
    """The graph text of a set of edge masks, edge by edge in vertex-tuple order."""
    lines = [f"e {set_vertex_text(e, ' ')}\n" for e in vertex_tuple_sorted(edges)]
    return f"n {n}\n" + "".join(lines)


def set_neighbour_masks(edges, i: int) -> frozenset[int]:
    """The masks of a set's edges through vertex i, each without i."""
    bit = 1 << (i - 1)
    return frozenset(e ^ bit for e in edges if e & bit)


def set_operator_text(i: int, masks) -> str:
    """`X<i>`, then `C<k>Z(<vertices>)` for each of a set of tuple masks."""
    gates = [f"C{m.bit_count()}Z({set_vertex_text(m, ',')})" for m in vertex_tuple_sorted(masks)]
    return " ".join([f"X{i}", *gates])


class HalfTable(dict):
    """Table from one half of an edge mask (its key) to its text, filled on
    first use.  Key bit i is vertex first + i, except the flag bits below
    every vertex bit: ``starts`` maps each key of flag bits alone to the
    text before a first vertex.  A missing key's text is that of the key
    without its top bit and sep (or that key's start), then the top bit's
    vertex."""

    def __init__(self, starts: dict[int, str], sep: str, first: int) -> None:
        super().__init__(starts)  # a key of flag bits alone is its start,
        self[0] = ""  # except key 0, which has no text
        self.starts, self.sep, self.first = starts, sep, first

    def __missing__(self, key: int) -> str:
        top = key.bit_length() - 1
        rest = key ^ 1 << top
        start = self.starts[rest] if rest in self.starts else self[rest] + self.sep
        value = self[key] = f"{start}{self.first + top}"
        return value


def loop_edge_texts(masks: np.ndarray, n: int, head: str, sep: str) -> Iterator[str]:
    """head + sep.join(ascending vertices) of each mask of a uint64 array, as
    the sum of two lazily filled HalfTable entries per mask, keyed by the
    low and high ceil(n/2)-bit halves.  The head goes with the first half
    that has a vertex (the high half for mask 0), so bit 0 of the high
    half's key says whether the low half is empty."""
    split = (n + 1) // 2
    low = HalfTable({0: head}, sep, 1)
    high = HalfTable({0: sep, 1: head}, sep, split)
    lows = masks & np.uint64((1 << split) - 1)
    highs = (masks >> np.uint64(split)) << np.uint64(1) | (lows == 0)
    return map(add, map(low.__getitem__, lows.tolist()), map(high.__getitem__, highs.tolist()))


def loop_sorted_masks(masks, n: int) -> list[int]:
    """Masks below 2**n sorted by the key size * 2**n - bit-reversed mask
    (vertex v -> bit n - v), summed vertex by vertex."""
    def key(m: int) -> int:
        vs = [i + 1 for i in range(m.bit_length()) if (m >> i) & 1]
        return (len(vs) << n) - sum(1 << (n - v) for v in vs)

    return sorted(masks, key=key)


def operator_diagonal(op) -> np.ndarray:
    """(-1)**(number of the operator's tuple masks contained in x), per label x."""
    labels = np.arange(1 << op.n)
    covered = sum(((labels & m) == m).astype(int) for m in op.masks.tolist())
    return 1.0 - 2.0 * (np.asarray(covered) & 1)


def stabilizer_matrix(op) -> np.ndarray:
    """Full matrix of a correlation operator: column y holds the diagonal
    entry of y at row y XOR flip."""
    labels = np.arange(1 << op.n)
    m = np.zeros((1 << op.n, 1 << op.n))
    m[labels ^ (1 << (op.i - 1)), labels] = operator_diagonal(op)
    return m


def loop_commutation_witness(op_a, op_b) -> int | None:
    """The lowest label where K_a K_b and K_b K_a differ, from the three
    translates P(D_a, a) ^ P(D_b, b) ^ P(D_a ^ D_b, a ^ b), P = xor_permute."""
    n, da, db = op_a.n, op_a.diagonal_table, op_b.diagonal_table
    a, b = op_a.flip, op_b.flip
    diff = (
        _bits.xor_permute(da, a, n)
        ^ _bits.xor_permute(db, b, n)
        ^ _bits.xor_permute(da ^ db, a ^ b, n)
    )
    return (diff & -diff).bit_length() - 1 if diff else None


def loop_uniqueness_verdicts(h, probes: int = 20, seed: int = 42, ops=None) -> list[bool]:
    """The per-probe uniqueness test one probe at a time: project through
    every (I + K)/2 with an explicit label permutation, then require a
    vanishing or target-parallel result."""
    rng = np.random.default_rng(seed)
    target = amplitudes(statesim.build_state(h))
    if ops is None:
        ops = [statesim.stabilizer(h, i) for i in range(1, h.n + 1)]
    idx = np.arange(1 << h.n)
    diagonals = [operator_diagonal(op) for op in ops]
    verdicts = []
    for _ in range(probes):
        v = statesim.random_state(h.n, rng)
        for op, d in zip(ops, diagonals):
            v = (v + (v * d)[idx ^ (1 << (op.i - 1))]) / 2.0
        norm = np.linalg.norm(v)
        if norm <= ATOL_NORM:
            verdicts.append(True)
            continue
        overlap = np.vdot(target, v)
        verdicts.append(bool(np.linalg.norm(v - overlap * target) <= ATOL_EQUAL * norm))
    return verdicts
