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
for the scalar -1).  The tuples are held as label masks; vertex sets are
built only for ``tuples`` and the text rendering.  The phase-gate product is
itself a +-1 diagonal, so an operator application is one diagonal table plus
one label permutation, O(2**n) regardless of how many tuples it carries.

Commutation is decided exactly on sign tables (``commutation_witness``
names the first label where the two products differ).  The random-probe
``commutator_residual`` is kept as an independent check, and the uniqueness
certificate projects all its probes at once as one 2**n x probes matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from . import _bits
from .boolfn import MAX_QUBITS, TruthTable
from .errors import FormatError
from .hypergraph import Hypergraph, _edge_view, edge_mask, neighbour_masks, sorted_masks

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
    flips = _bits.table_from_edges([edge_mask(vertices, s.n)], s.n)
    if s.backend == "sign":
        return StateVector(s.n, signs=s.signs ^ flips)
    return StateVector(s.n, amps=np.where(_bits.unpack(flips, s.dim), -s.amps, s.amps))


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
            return StateVector(s.n, signs=s.signs ^ _bits.table_from_edges([bit], s.n))
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


@dataclass(frozen=True, init=False)
class StabilizerOperator:
    """X on one vertex times phase gates over its neighbourhood tuples.

    The tuples are kept as label masks (bit v-1 = vertex v); mask 0, the
    empty tuple, contributes the scalar -1.  The whole phase-gate product
    collapses to a single +-1 diagonal (``diagonal_table``), so applying the
    operator costs one table XOR plus one label swap.
    """

    n: int
    i: int
    masks: frozenset[int]

    def __init__(self, n: int, i: int, tuples: Iterable[Iterable[int]] = frozenset()) -> None:
        """The operator of 1-based vertex tuples."""
        masks = set()
        for t in tuples:
            vs = sorted(t)
            if vs and vs[0] < 1:
                raise ValueError(f"tuple {vs} out of range 1..{n}")
            masks.add(_bits.mask_from_vertices(vs))
        self._set(n, i, frozenset(masks))

    @classmethod
    def from_masks(cls, n: int, i: int, masks: Iterable[int]) -> "StabilizerOperator":
        op = cls.__new__(cls)
        op._set(n, i, frozenset(masks))
        return op

    def _set(self, n: int, i: int, masks: frozenset[int]) -> None:
        if not 1 <= i <= n:
            raise ValueError(f"vertex {i} out of range 1..{n}")
        bad = _bits.first_bad_mask(masks, ((1 << n) - 1) ^ (1 << (i - 1)))
        if bad is not None:
            if not 0 <= bad < 1 << n:
                raise ValueError(f"tuple mask {bad:#x} out of range for n={n}")
            raise ValueError(f"tuple {_bits.mask_bits(bad, 1)} must not contain the flip vertex")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "masks", masks)

    @property
    def tuples(self) -> frozenset[frozenset[int]]:
        """The neighbourhood tuples as 1-based vertex sets."""
        return frozenset(map(_bits.vertices_from_mask, self.masks))

    @cached_property
    def diagonal_table(self) -> int:
        """Sign table of the phase-gate product (bit x set = factor -1 at x)."""
        return _bits.table_from_edges(self.masks, self.n)

    @cached_property
    def _diagonal_pm1(self) -> np.ndarray:
        arr = _signs_to_pm1(self.diagonal_table, self.n)
        arr.flags.writeable = False
        return arr

    def __str__(self) -> str:
        text = _edge_view(self.n, lambda vs: "".join(f",{v}" for v in vs))
        parts = [f"X{self.i}"]
        parts.extend(
            f"C{m.bit_count()}Z({text(m)[1:]})" for m in sorted_masks(self.masks, self.n)
        )
        return " ".join(parts)


def stabilizer(h: Hypergraph, i: int) -> StabilizerOperator:
    """The correlation operator of vertex i for the given hypergraph."""
    return StabilizerOperator.from_masks(h.n, i, neighbour_masks(h, i))


def _apply_stabilizer_raw(amps: np.ndarray, op: StabilizerOperator) -> np.ndarray:
    """The operator applied to a vector, or to each column of a 2**n x P matrix."""
    # Label bit i-1 is axis 1 of this shape, so reversing that axis flips it.
    shape = (1 << (op.n - op.i), 2, 1 << (op.i - 1))
    flipped = amps.reshape(shape + amps.shape[1:])[:, ::-1]
    signs = op._diagonal_pm1.reshape(shape + (1,) * (amps.ndim - 1))[:, ::-1]
    return (flipped * signs).reshape(amps.shape)


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
    s = build_state(h)
    return all(
        apply_stabilizer(s, stabilizer(h, i)).signs == s.signs for i in range(1, h.n + 1)
    )


def commutation_witness(op_a: StabilizerOperator, op_b: StabilizerOperator) -> int | None:
    """The lowest label at which K_a K_b and K_b K_a differ, or None if they commute.

    Exact, on sign tables.  K with flip bit f and diagonal D maps a sign
    table S to P(S ^ D, f), P = xor_permute, so both products permute labels
    by x -> x ^ a ^ b and their output signs differ exactly on
    P(D_a, a) ^ P(D_b, b) ^ P(D_a ^ D_b, a ^ b).
    """
    if op_a.n != op_b.n:
        raise ValueError(f"dimension mismatch: operator n={op_a.n} vs n={op_b.n}")
    n, da, db = op_a.n, op_a.diagonal_table, op_b.diagonal_table
    a, b = 1 << (op_a.i - 1), 1 << (op_b.i - 1)
    diff = (
        _bits.xor_permute(da, a, n)
        ^ _bits.xor_permute(db, b, n)
        ^ _bits.xor_permute(da ^ db, a ^ b, n)
    )
    return (diff & -diff).bit_length() - 1 if diff else None


def commutes(op_a: StabilizerOperator, op_b: StabilizerOperator) -> bool:
    """Exact commutation test on sign tables."""
    return commutation_witness(op_a, op_b) is None


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


def uniqueness_check(
    h: Hypergraph,
    probes: int = 20,
    seed: int = DEFAULT_SEED,
    *,
    state: StateVector | None = None,
    ops: list[StabilizerOperator] | None = None,
) -> bool:
    """Certify that the joint +1 eigenspace of the correlation operators is
    one-dimensional: random probes projected through all (I + K_i)/2 must
    land parallel to the built state.

    ``state`` and ``ops`` default to build_state(h) and the stabilizers of
    every vertex; pass them to reuse ones already built.
    """
    return bool(_probe_verdicts(h, probes, seed, state, ops).all())


def _probe_verdicts(
    h: Hypergraph,
    probes: int,
    seed: int,
    state: StateVector | None,
    ops: list[StabilizerOperator] | None,
) -> np.ndarray:
    """Per probe: True iff its projection vanishes or is parallel to the state.

    All probes are projected at once, as the columns of one 2**n x probes
    matrix; they are drawn from the seeded generator one after another.
    """
    if h.n > MAX_UNIQUENESS_QUBITS:
        raise ValueError(f"uniqueness check is capped at n={MAX_UNIQUENESS_QUBITS}")
    rng = np.random.default_rng(seed)
    target = (state if state is not None else build_state(h)).dense_array()
    if ops is None:
        ops = [stabilizer(h, i) for i in range(1, h.n + 1)]
    v = np.empty((1 << h.n, probes), dtype=complex)
    for j in range(probes):
        v[:, j] = random_state(h.n, rng).amps
    for op in ops:  # v <- (v + K v) / 2, written into the fresh array K v
        projected = _apply_stabilizer_raw(v, op)
        projected += v
        projected *= 0.5
        v = projected
    norms = np.linalg.norm(v, axis=0)
    overlaps = target.conj() @ v
    residuals = np.linalg.norm(v - target[:, None] * overlaps, axis=0)
    return (norms <= ATOL_NORM) | (residuals <= ATOL_EQUAL * norms)


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
    if not 1 <= n <= MAX_QUBITS:  # before 2**n is formed
        raise FormatError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")
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
