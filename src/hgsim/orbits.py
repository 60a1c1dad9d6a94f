"""Exhaustive local-Pauli orbits of equally weighted states.

Local X, Y, Z map a +-1 sign pattern to another sign pattern times a global
phase from {+-1, +-i} (Y = iXZ), so orbits are computed exactly on sign
tables: each Pauli word splits into a Z part (a parity table XOR) and an X
part (a label relabeling), and the phase is quotiented away by the
canonical key.  A key normalizes the sign at label 0 to plus, which removes
exactly the {+-1, +-i} ambiguity.

The inequivalence report brute-forces the claim that states of different
uniform edge order are never connected by local Paulis (the empty graph
aside, which is why only nonempty edge sets are compared).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import _bits
from .statesim import StateVector

MAX_QUBITS = 4
_REW_ATOL = 1e-9


@dataclass(frozen=True, order=True)
class OrbitKey:
    """Canonical sign-table fingerprint of a state, global phase removed."""

    n: int
    table: int

    @classmethod
    def from_state(cls, s: StateVector) -> "OrbitKey":
        if s.backend == "sign":
            return cls(s.n, _canonical(s.signs, s.n))
        amps = s.amps
        scale = 1.0 / np.sqrt(s.dim)
        if abs(amps[0]) < scale / 2:
            raise ValueError("state is not equally weighted +-1 up to a global phase")
        flat = amps / (amps[0] / abs(amps[0]))
        if np.max(np.abs(flat.imag)) > _REW_ATOL or np.max(
            np.abs(np.abs(flat.real) - scale)
        ) > _REW_ATOL:
            raise ValueError("state is not equally weighted +-1 up to a global phase")
        table = 0
        for x in np.nonzero(flat.real < 0)[0]:
            table |= 1 << int(x)
        return cls(s.n, _canonical(table, s.n))


def _canonical(table: int, n: int) -> int:
    return table ^ _bits.full_mask(n) if table & 1 else table


def _table_orbit(table: int, n: int) -> frozenset[int]:
    """Canonical tables reachable by all 4**n local Pauli words."""
    size = 1 << n
    parity = [_bits.parity_mask(z, n) for z in range(size)]
    out = set()
    for z_mask in range(size):
        flipped = table ^ parity[z_mask]
        for x_mask in range(size):
            out.add(_canonical(_bits.xor_permute(flipped, x_mask, n), n))
    return frozenset(out)


def local_pauli_orbit(s: StateVector) -> set[OrbitKey]:
    """Keys of P_1 x ... x P_n applied to s, over all 4**n Pauli choices.

    Words with Y factors duplicate the keys of the matching XZ words (they
    differ by a phase of i per Y), so iterating X/Z parts covers all 4**n
    products.
    """
    if s.n > MAX_QUBITS:
        raise ValueError(f"orbit enumeration is capped at n={MAX_QUBITS}")
    base = OrbitKey.from_state(s)
    return {OrbitKey(s.n, t) for t in _table_orbit(base.table, s.n)}


def _uniform_state_tables(n: int, k: int) -> list[int]:
    """Sign tables of every state with a nonempty k-uniform edge set."""
    k_edges = [_bits.mask_from_vertices(c) for c in combinations(range(1, n + 1), k)]
    return [
        _bits.table_from_edges((e for j, e in enumerate(k_edges) if (pick >> j) & 1), n)
        for pick in range(1, 1 << len(k_edges))
    ]


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
    """Check every nonempty uniform state's orbit against every other order."""
    if n not in (3, 4):
        raise ValueError("inequivalence report is defined for n in {3, 4}")
    report = InequivalenceReport(n)
    tables = {k: _uniform_state_tables(n, k) for k in range(1, n + 1)}
    members = {k: frozenset(ts) for k, ts in tables.items()}  # already canonical
    orbits = {k: [_table_orbit(t, n) for t in tables[k]] for k in range(1, n + 1)}
    for k in range(1, n + 1):
        sizes = [len(o) for o in orbits[k]]
        report.state_counts[k] = len(tables[k])
        report.orbit_sizes[k] = (min(sizes), max(sizes))
        for kp in range(1, n + 1):
            if kp == k:
                continue
            hits = sum(1 for orbit in orbits[k] if orbit & members[kp])
            report.pair_violations[(k, kp)] = hits
    return report
