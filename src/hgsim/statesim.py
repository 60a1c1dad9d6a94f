"""Exact dense simulation of phase-flip circuits and their correlation operators.

Two amplitude backends:

* ``sign``: every amplitude is exactly +-1/sqrt(2**n), stored as one big
  integer of sign bits (bit x set = minus).  Everything built from C^kZ
  layers on the uniform superposition stays here with zero rounding, so
  equality checks are bit-perfect.
* ``complex``: a dense complex128 vector, used for Y gates, random probes
  and projector arithmetic.

Conversions between backends are explicit (``to_dense``); nothing converts
silently.

A correlation operator K_i is a bit flip on one vertex times a product of
phase gates over that vertex's neighbourhood tuples (the empty tuple stands
for the scalar -1).  The phase-gate product is itself a +-1 diagonal, so an
operator application is one diagonal table plus one label permutation,
O(2**n) regardless of how many tuples it carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from . import _bits
from .boolfn import TruthTable
from .errors import FormatError
from .hypergraph import Hypergraph, edge_mask, neighbourhood

MAX_QUBITS = 20
MAX_UNIQUENESS_QUBITS = 12
ATOL_EQUAL = 1e-9  # amplitude comparisons on the complex backend
ATOL_NORM = 1e-12  # squared-norm checks

DEFAULT_SEED = 42

_SIGN_MARKS = (" +", " -")  # dump text after the label, indexed by the sign bit


@dataclass(frozen=True, eq=False)
class StateVector:
    """An n-qubit pure state on the exact sign backend or the complex backend."""

    n: int
    signs: int | None = None
    amps: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {self.n}")
        if (self.signs is None) == (self.amps is None):
            raise ValueError("exactly one of signs/amps must be given")
        if self.signs is not None:
            if not 0 <= self.signs < 1 << self.dim:
                raise ValueError("sign table does not fit 2**n bits")
        else:
            amps = np.asarray(self.amps, dtype=complex)
            if amps.shape != (self.dim,):
                raise ValueError(f"amplitude vector must have length {self.dim}")
            if abs(np.vdot(amps, amps).real - 1.0) > ATOL_NORM:
                raise ValueError("state is not normalized")
            amps = amps.copy()
            amps.flags.writeable = False
            object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n

    @property
    def backend(self) -> str:
        return "sign" if self.signs is not None else "complex"

    @classmethod
    def plus_state(cls, n: int) -> "StateVector":
        return cls(n, signs=0)

    @classmethod
    def sign_state(cls, n: int, signs: int) -> "StateVector":
        return cls(n, signs=signs)

    @classmethod
    def from_amplitudes(cls, amps: np.ndarray) -> "StateVector":
        n = int(np.log2(len(amps)) + 0.5)
        if 1 << n != len(amps):
            raise ValueError("amplitude vector length must be a power of two")
        return cls(n, amps=np.asarray(amps, dtype=complex))

    def dense_array(self) -> np.ndarray:
        """The complex amplitude vector (computed for sign-backend states)."""
        if self.amps is not None:
            return self.amps
        return _signs_to_amps(self.signs, self.n)

    def to_dense(self) -> "StateVector":
        if self.backend == "complex":
            return self
        return StateVector(self.n, amps=self.dense_array())

    def amplitude(self, x: int) -> complex:
        if not 0 <= x < self.dim:
            raise IndexError(f"basis label {x} out of range")
        if self.signs is not None:
            return (-1.0 if (self.signs >> x) & 1 else 1.0) / np.sqrt(self.dim)
        return complex(self.amps[x])


def _signs_to_pm1(signs: int, n: int) -> np.ndarray:
    return 1.0 - 2.0 * _bits.unpack(signs, 1 << n)


def _signs_to_amps(signs: int, n: int) -> np.ndarray:
    return _signs_to_pm1(signs, n).astype(complex) / np.sqrt(1 << n)


def rew_state(tt: TruthTable) -> StateVector:
    """The equally weighted state whose sign pattern is (-1)^f."""
    return StateVector(tt.n, signs=tt.bits)


def table_from_state(s: StateVector) -> TruthTable:
    """The Boolean function behind a sign-backend state."""
    if s.backend != "sign":
        raise ValueError("table_from_state needs the exact sign backend")
    return TruthTable(s.n, s.signs)


def build_state(h: Hypergraph) -> StateVector:
    """Apply one phase gate per hyperedge to the uniform superposition.

    The sign at x is the parity of edges contained in the excitation set of
    x, i.e. the butterfly transform of the edge indicator; exact by
    construction.
    """
    if h.n > MAX_QUBITS:
        raise ValueError(f"dense simulation is capped at n={MAX_QUBITS}")
    return StateVector(h.n, signs=_bits.table_from_edges(h.edges, h.n))


def apply_ckz(s: StateVector, vertices: Iterable[int]) -> StateVector:
    """Negate every amplitude whose excitation set contains the given edge."""
    mask = edge_mask(vertices, s.n)
    if s.backend == "sign":
        return StateVector(s.n, signs=s.signs ^ _bits.superset_mask(mask, s.n))
    idx = np.arange(s.dim)
    amps = s.amps.copy()
    amps[(idx & mask) == mask] *= -1.0
    return StateVector(s.n, amps=amps)


def apply_local_pauli(s: StateVector, i: int, p: str) -> StateVector:
    """Single-qubit X, Y or Z.  Y introduces +-i factors and therefore needs
    the complex backend; convert with to_dense() first."""
    if not 1 <= i <= s.n:
        raise ValueError(f"vertex {i} out of range 1..{s.n}")
    p = p.upper()
    if p not in ("X", "Y", "Z"):
        raise ValueError(f"unknown Pauli {p!r}")
    bit = 1 << (i - 1)
    if s.backend == "sign":
        if p == "X":
            return StateVector(s.n, signs=_bits.xor_permute(s.signs, bit, s.n))
        if p == "Z":
            return StateVector(s.n, signs=s.signs ^ _bits.axis_set_mask(i - 1, s.n))
        raise ValueError("Y is not representable on the sign backend; use to_dense() first")
    idx = np.arange(s.dim)
    hot = (idx & bit).astype(bool)
    if p == "X":
        amps = s.amps[idx ^ bit]
    elif p == "Z":
        amps = np.where(hot, -s.amps, s.amps)
    else:
        swapped = s.amps[idx ^ bit]
        amps = np.where(hot, 1j * swapped, -1j * swapped)
    return StateVector(s.n, amps=amps)


@dataclass(frozen=True)
class StabilizerOperator:
    """X on one vertex times phase gates over its neighbourhood tuples.

    The empty tuple contributes the scalar -1.  The whole phase-gate product
    collapses to a single +-1 diagonal (``diagonal_table``), so applying the
    operator costs one table XOR plus one label swap.
    """

    n: int
    i: int
    tuples: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        if not 1 <= self.i <= self.n:
            raise ValueError(f"vertex {self.i} out of range 1..{self.n}")
        for t in self.tuples:
            if self.i in t:
                raise ValueError(f"tuple {sorted(t)} must not contain the flip vertex")
            if not all(1 <= v <= self.n for v in t):
                raise ValueError(f"tuple {sorted(t)} out of range 1..{self.n}")

    @cached_property
    def diagonal_table(self) -> int:
        """Sign table of the phase-gate product (bit x set = factor -1 at x)."""
        return _bits.table_from_edges(map(_bits.mask_from_vertices, self.tuples), self.n)

    @cached_property
    def _diagonal_pm1(self) -> np.ndarray:
        arr = _signs_to_pm1(self.diagonal_table, self.n)
        arr.flags.writeable = False
        return arr

    def __str__(self) -> str:
        parts = [f"X{self.i}"]
        for t in sorted(self.tuples, key=lambda t: (len(t), sorted(t))):
            parts.append(f"C{len(t)}Z({','.join(str(v) for v in sorted(t))})")
        return " ".join(parts)


def stabilizer(h: Hypergraph, i: int) -> StabilizerOperator:
    """The correlation operator of vertex i for the given hypergraph."""
    return StabilizerOperator(h.n, i, neighbourhood(h, i))


def _apply_stabilizer_raw(amps: np.ndarray, op: StabilizerOperator) -> np.ndarray:
    out = amps * op._diagonal_pm1
    idx = np.arange(out.size)
    return out[idx ^ (1 << (op.i - 1))]


def apply_stabilizer(s: StateVector, op: StabilizerOperator) -> StateVector:
    """Apply the phase gates, then the bit flip (tuple scalar included)."""
    if s.n != op.n:
        raise ValueError(f"dimension mismatch: state n={s.n}, operator n={op.n}")
    if s.backend == "sign":
        signs = _bits.xor_permute(s.signs ^ op.diagonal_table, 1 << (op.i - 1), s.n)
        return StateVector(s.n, signs=signs)
    return StateVector(s.n, amps=_apply_stabilizer_raw(s.amps, op))


def verify_stabilized(h: Hypergraph) -> bool:
    """True iff every vertex's correlation operator fixes the built state exactly."""
    if h.n > MAX_QUBITS:
        raise ValueError(f"dense simulation is capped at n={MAX_QUBITS}")
    s = build_state(h)
    return all(
        apply_stabilizer(s, stabilizer(h, i)).signs == s.signs for i in range(1, h.n + 1)
    )


def commutator_residual(
    op_a: StabilizerOperator, op_b: StabilizerOperator, probe: StateVector
) -> float:
    """Norm of (AB - BA) applied to the probe.

    Operators of one hypergraph commute and all factors are exact +-1 signs,
    so the residual is exactly 0.0 for them, on either backend.
    """
    if not op_a.n == op_b.n == probe.n:
        raise ValueError("dimension mismatch between operators and probe")
    v = probe.dense_array()
    ab = _apply_stabilizer_raw(_apply_stabilizer_raw(v, op_b), op_a)
    ba = _apply_stabilizer_raw(_apply_stabilizer_raw(v, op_a), op_b)
    return float(np.linalg.norm(ab - ba))


def random_state(n: int, rng: np.random.Generator) -> StateVector:
    """A normalized complex Gaussian probe state."""
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(n, amps=v / np.linalg.norm(v))


def uniqueness_check(h: Hypergraph, probes: int = 20, seed: int = DEFAULT_SEED) -> bool:
    """Certify that the joint +1 eigenspace of the correlation operators is
    one-dimensional: random probes projected through all (I + K_i)/2 must
    land parallel to the built state."""
    if h.n > MAX_UNIQUENESS_QUBITS:
        raise ValueError(f"uniqueness check is capped at n={MAX_UNIQUENESS_QUBITS}")
    rng = np.random.default_rng(seed)
    target = build_state(h).dense_array()
    ops = [stabilizer(h, i) for i in range(1, h.n + 1)]
    for _ in range(probes):
        v = random_state(h.n, rng).dense_array()
        for op in ops:
            v = (v + _apply_stabilizer_raw(v, op)) / 2.0
        norm = np.linalg.norm(v)
        if norm <= ATOL_NORM:
            continue
        overlap = np.vdot(target, v)
        if np.linalg.norm(v - overlap * target) > ATOL_EQUAL * norm:
            return False
    return True


def equal_up_to_global_phase(a: StateVector, b: StateVector) -> bool:
    """True iff a = c*b for a unit scalar c.  Exact for two sign-backend
    states (c restricted to +-1 there; +-i cannot map a real sign pattern
    onto another)."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: n={a.n} vs n={b.n}")
    if a.backend == "sign" and b.backend == "sign":
        return a.signs == b.signs or a.signs == b.signs ^ _bits.full_mask(a.n)
    va, vb = a.dense_array(), b.dense_array()
    j = int(np.argmax(np.abs(vb)))
    scale = va[j] / vb[j]
    if abs(abs(scale) - 1.0) > ATOL_EQUAL:
        return False
    return bool(np.allclose(va, scale * vb, rtol=0.0, atol=ATOL_EQUAL))


def dump(s: StateVector) -> str:
    """State dump: header `n <int> backend <sign|complex>`, one line per label."""
    lines = [f"n {s.n} backend {s.backend}"]
    if s.backend == "sign":
        bits = _bits.unpack(s.signs, s.dim).tobytes()  # iterates as ints 0 and 1
        lines.extend(f"{x}{_SIGN_MARKS[b]}" for x, b in enumerate(bits))
    else:
        for x in range(s.dim):
            lines.append(f"{x} {float(s.amps[x].real)!r} {float(s.amps[x].imag)!r}")
    return "\n".join(lines) + "\n"


def load(text: str) -> StateVector:
    """Parse a state dump produced by dump()."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise FormatError("empty state dump")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "n" or head[2] != "backend":
        raise FormatError(f"bad state-dump header {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise FormatError(f"bad qubit count {head[1]!r}") from None
    backend = head[3]
    if backend not in ("sign", "complex"):
        raise FormatError(f"unknown backend {backend!r}")
    body = lines[1:]
    if len(body) != 1 << n:
        raise FormatError(f"expected {1 << n} amplitude lines, got {len(body)}")
    if backend == "sign":
        minus = bytearray(len(body))
        for expect, line in enumerate(body):
            fields = line.split()
            if len(fields) != 2 or fields[0] != str(expect) or fields[1] not in ("+", "-"):
                raise FormatError(f"bad sign line {line!r}")
            if fields[1] == "-":
                minus[expect] = 1
        return StateVector(n, signs=_bits.pack(minus))
    amps = np.empty(1 << n, dtype=complex)
    for expect, line in enumerate(body):
        fields = line.split()
        if len(fields) != 3 or fields[0] != str(expect):
            raise FormatError(f"bad amplitude line {line!r}")
        try:
            amps[expect] = complex(float(fields[1]), float(fields[2]))
        except ValueError:
            raise FormatError(f"bad amplitude line {line!r}") from None
    return StateVector(n, amps=amps)
