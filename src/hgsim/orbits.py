"""Local-Pauli orbits of equally weighted states, from translates and ANFs.

Local X, Y, Z map a +-1 sign pattern to another sign pattern times a global
phase from {+-1, +-i} (Y = iXZ), so orbits are computed exactly on sign
tables.  Up to that phase, the Pauli word with X part a and Z part z maps a
table f to f(x ^ a) ^ <z, x>: a translate of f plus a linear function.  A
key normalizes the sign at label 0 to plus, which removes exactly the
{+-1, +-i} ambiguity.

So two tables share an orbit iff some translate of one has the same
degree->=2 ANF (its hyperedges of order >= 2) as the other: the linear
part and the constant are free.  An orbit holds 2**n keys per distinct
such ANF among the 2**n translates.  The inequivalence report -- states of
different uniform edge order are never connected by local Paulis (the
empty graph aside, which is why only nonempty edge sets are compared) --
needs only those translate ANFs, never the 4**n words.  The ANF of a
single edge is a one-bit table, so ``_bits.anf_translate`` (one shift-XOR
per flipped bit, no butterfly) gives every edge's translate ANFs, for all
orders in one pass.  Tables of n <= 6 qubits fit one uint64 word, and the
``_bits`` kernels act element-wise on uint64 arrays, so every state and
every translate is one array element.
The 4**n-word loop stays in the tests as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _bits
from .boolfn import StateVector

REPORT_QUBITS = (3, 4, 5, 6)  # the qubit counts of the inequivalence report
MAX_QUBITS = 4  # orbit enumeration cap: an orbit has up to 4**n keys
_CHUNK_EDGES = 10  # the report spans 2**10 states per array (512 KB at n = 6)


@dataclass(frozen=True, order=True)
class OrbitKey:
    """Canonical sign-table fingerprint of a state, global phase removed."""

    n: int
    table: int

    @classmethod
    def from_state(cls, s: StateVector) -> "OrbitKey":
        return cls(s.n, _canonical(s.signs, s.n))


def _canonical(table, n: int):
    """Every sign flipped when the sign at label 0 is minus (ints or uint64 words)."""
    return table ^ _bits.full_mask(n) * (table & 1)


def _span(gens: np.ndarray) -> np.ndarray:
    """XOR of every subset of the uint64 columns (last axis) of gens: column j
    of the result XORs the columns i with bit i of j set."""
    out = np.zeros(gens.shape[:-1] + (1,), dtype=np.uint64)
    for i in range(gens.shape[-1]):
        out = np.concatenate((out, out ^ gens[..., i : i + 1]), axis=-1)
    return out


def _translates(tables: np.ndarray, n: int, move) -> np.ndarray:
    """uint64 tables relabeled by x -> x ^ a (move = _bits.xor_permute), or
    their ANFs (move = _bits.anf_translate), stacked along a new first axis a."""
    out = tables[None]
    for i in range(n):
        out = np.concatenate((out, move(out, 1 << i, n)))
    return out


def _edge_masks(n: int, k: int) -> np.ndarray:
    """The k-vertex edges, as ascending uint64 label masks."""
    return _bits.set_bits(_bits.weight_mask(n, k))


def local_pauli_orbit(s: StateVector) -> set[OrbitKey]:
    """Keys of P_1 x ... x P_n applied to s, over all 4**n Pauli choices:
    every translate of the key's table XOR every linear table.

    Words with Y factors duplicate the keys of the matching XZ words (they
    differ by a phase of i per Y), so X/Z parts cover all 4**n products.
    """
    if s.n > MAX_QUBITS:
        raise ValueError(f"orbit enumeration is capped at n={MAX_QUBITS}")
    n = s.n
    base = np.array([OrbitKey.from_state(s).table], dtype=np.uint64)
    axes = np.array([_bits.parity_mask(1 << i, n) for i in range(n)], dtype=np.uint64)
    words = _translates(base, n, _bits.xor_permute) ^ _span(axes)
    return {OrbitKey(n, t) for t in np.unique(_canonical(words, n)).tolist()}


@dataclass
class InequivalenceReport:
    """Orbit statistics per edge order and cross-order violation counts."""

    n: int
    state_counts: dict[int, int] = field(default_factory=dict)
    orbit_sizes: dict[int, tuple[int, int]] = field(default_factory=dict)
    pair_violations: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def total_violations(self) -> int:
        return sum(self.pair_violations.values())

    def to_text(self) -> str:
        lines = [f"n {self.n}"]
        for k in sorted(self.state_counts):
            lo, hi = self.orbit_sizes[k]
            lines.append(
                f"uniform {k} states {self.state_counts[k]} orbit-min {lo} orbit-max {hi}"
            )
        for (k, kp), count in sorted(self.pair_violations.items()):
            lines.append(f"pair {k} {kp} violations {count}")
        lines.append(f"total violations {self.total_violations}")
        return "\n".join(lines) + "\n"


def class_inequivalence_report(n: int) -> InequivalenceReport:
    """Check every nonempty uniform state's orbit against every other order.

    A state of order k meets the nonempty k'-uniform states iff one of its
    translates has a degree->=2 ANF that is 0 (k' = 1), or nonempty and of
    order k' alone (k' >= 2).  Translation acts on those ANFs, so the
    translates fixing a state's ANF number 2**n / (distinct ANFs), and its
    orbit holds 4**n / that many keys.
    """
    if n not in REPORT_QUBITS:
        raise ValueError(f"inequivalence report is defined for n in {set(REPORT_QUBITS)}")
    report = InequivalenceReport(n)
    high = _bits.full_mask(n) & ~_bits.weight_mask(n, 0) & ~_bits.weight_mask(n, 1)
    outside = {kp: np.uint64(high & ~_bits.weight_mask(n, kp)) for kp in range(2, n + 1)}
    # The ANF of the single edge e is the one-bit table 1 << e, so one
    # anf_translate pass over every label gives the translate ANFs of every
    # edge of every order: column e, one row per translate.
    labels = np.arange(1 << n, dtype=np.uint64)
    translated = _translates(np.uint64(1) << labels, n, _bits.anf_translate) & np.uint64(high)
    for k in range(1, n + 1):
        anfs = translated[:, _edge_masks(n, k)]
        others = [kp for kp in range(1, n + 1) if kp != k]
        hits = dict.fromkeys(others, 0)
        fixing = []
        # Translation is XOR-linear, so the translate ANFs of a state are
        # the XOR of its edges' columns.  A chunk of states is the span of
        # the first _CHUNK_EDGES edges XOR one element of the span of the rest.
        block = _span(anfs[:, :_CHUNK_EDGES])
        offsets = _span(anfs[:, _CHUNK_EDGES:])
        for c in range(offsets.shape[1]):
            # offset 0 is the empty set, and block column 0 the empty edge set
            chunk = block ^ offsets[:, c : c + 1] if c else block[:, 1:]
            fixing.append((chunk == chunk[0]).sum(axis=0))
            nonzero = chunk != 0
            for kp in others:
                if kp == 1:
                    hit = ~nonzero.all(axis=0)
                else:
                    hit = (nonzero & ((chunk & outside[kp]) == 0)).any(axis=0)
                hits[kp] += int(np.count_nonzero(hit))
        fixing = np.concatenate(fixing)
        report.state_counts[k] = len(fixing)
        report.orbit_sizes[k] = (4**n // int(fixing.max()), 4**n // int(fixing.min()))
        for kp in others:
            report.pair_violations[(k, kp)] = hits[kp]
    return report
