"""Exact dense simulation of phase-flip circuits and their correlation operators.

A state is an equally weighted state, sum over x of (-1)^f(x) |x> / sqrt(2**n),
held as the sign table of f: one big integer of sign bits (bit x set =
minus), of type ``boolfn.StateVector``: the truth table of f itself.
Everything built from C^kZ layers, local X and local Z on the uniform
superposition stays in this form with zero rounding, so equality (``==``
compares tables) is bit-perfect.  A local Y is i times XZ, and that factor
of i has no sign table, so Y is refused.

A correlation operator K_i is a bit flip on one vertex times a product of
phase gates over that vertex's neighbourhood tuples (the empty tuple stands
for the scalar -1).  The tuples are held as a uint64 array of label masks:
``StabilizerOperator(n, i, masks)`` takes masks, as ``Hypergraph(n, masks)``
does, and ``StabilizerOperator.from_sets`` takes vertex tuples; vertex sets
are built otherwise only for ``tuples`` and the text rendering.  The
phase-gate product is itself a +-1 diagonal, so an operator application is
one diagonal table plus one label permutation, O(2**n) regardless of how
many tuples it carries.

One routine, ``verification``, decides exactly on sign tables whether each
operator fixes a state, each pair (in ``itertools.combinations`` order)
commutes and the state alone spans their joint +1 eigenspace, so ``verify``
draws no random probe.
``stabilizer_texts`` writes every operator of a graph from one sort of its
edges.  The complex vectors of ``random_state`` and ``commutator_residual``
are probes that no command runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple

import numpy as np

from . import _bits
from .boolfn import MAX_QUBITS, StateVector
from .errors import FormatError
from .hypergraph import Hypergraph, _edge_mask, _edge_texts, neighbour_masks, sorted_masks

_SIGN_HEADER = re.compile(r"n ([1-9][0-9]?) backend sign\n")


def _signs_to_pm1(signs: int, n: int) -> np.ndarray:
    return 1.0 - 2.0 * _bits.unpack(signs, 1 << n)


def build_state(h: Hypergraph) -> StateVector:
    """Apply one phase gate per hyperedge to the uniform superposition.

    The sign at x is the parity of edges contained in the excitation set of
    x, i.e. the butterfly transform of the edge indicator; exact by
    construction.
    """
    if h.n > MAX_QUBITS:
        raise ValueError(f"dense simulation is capped at n={MAX_QUBITS}")
    return StateVector(h.n, _bits.table_from_edges(h.masks, h.n))


def apply_ckz(s: StateVector, vertices: Iterable[int]) -> StateVector:
    """Negate every amplitude whose excitation set contains the given edge."""
    return StateVector(s.n, s.signs ^ _bits.table_from_edges([_edge_mask(vertices, s.n)], s.n))


def apply_local_pauli(s: StateVector, i: int, p: str) -> StateVector:
    """Single-qubit X or Z.  Y = iXZ would add a factor of +-i, which no
    sign table holds, so it raises ValueError; X after Z is Y up to it."""
    bit = _bits.mask_from_vertices([i], s.n)
    p = p.upper()
    if p == "X":
        return StateVector(s.n, _bits.xor_permute(s.signs, bit, s.n))
    if p == "Z":
        return StateVector(s.n, s.signs ^ _bits.table_from_edges([bit], s.n))
    if p == "Y":
        raise ValueError("Y is not representable on a sign state; apply Z, then X")
    raise ValueError(f"unknown Pauli {p!r}")


@dataclass(frozen=True, init=False, eq=False)
class StabilizerOperator:
    """X on one vertex times phase gates over its neighbourhood tuples.

    The tuples are kept as an ascending read-only uint64 array of label masks
    (bit v-1 = vertex v); mask 0, the empty tuple, contributes the scalar -1.
    The whole phase-gate product collapses to a single +-1 diagonal
    (``diagonal_table``), so applying the operator costs one table XOR plus
    one label swap.  No tuple holds vertex i, so the diagonal does not
    depend on the flip bit.
    """

    n: int
    i: int
    masks: np.ndarray
    flip: int  # the label mask of vertex i

    def __init__(self, n: int, i: int, masks: Iterable[int] | np.ndarray = ()) -> None:
        """The operator of tuple masks (integers or an integer array); repeats count once."""
        flip = _bits.mask_from_vertices([i], n)
        allowed = ((1 << n) - 1) ^ flip
        array, bad = _bits.mask_set(masks, allowed)
        if array is None:
            if not 0 <= bad < 1 << n:
                raise ValueError(f"tuple mask {bad:#x} out of range for n={n}")
            raise ValueError(f"tuple {_bits.mask_bits(bad, 1)} must not contain the flip vertex")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "masks", array)
        object.__setattr__(self, "flip", flip)

    @classmethod
    def from_sets(cls, n: int, i: int, tuples: Iterable[Iterable[int]]) -> "StabilizerOperator":
        """The operator of 1-based vertex tuples."""
        return cls(n, i, [_bits.mask_from_vertices(t, n) for t in tuples])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StabilizerOperator):
            return NotImplemented
        return (self.n, self.i) == (other.n, other.i) and np.array_equal(self.masks, other.masks)

    def __hash__(self) -> int:
        return hash((self.n, self.i, self.masks.tobytes()))

    @property
    def tuples(self) -> frozenset[frozenset[int]]:
        """The neighbourhood tuples as 1-based vertex sets."""
        return frozenset(map(_bits.vertices_from_mask, self.masks.tolist()))

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
        return _operator_texts(self.n, [self.i], [sorted_masks(self.masks)])[0]


def _operator_texts(n: int, flips: list[int], tuples: list[np.ndarray]) -> list[str]:
    """The text `X<i>`, then ` C<k>Z(<vertices>)` per tuple, of each flip
    vertex i and its uint64 tuple masks, already in text order (by size,
    then vertex tuple); one _edge_texts call writes every tuple."""
    pieces = _edge_texts(np.concatenate(tuples), n, [f" C{k}Z(" for k in range(n + 1)], ",", ")")
    ends = np.cumsum([masks.size for masks in tuples]).tolist()
    return [
        f"X{i}" + "".join(pieces[2 * start:2 * end])
        for i, start, end in zip(flips, [0, *ends], ends)
    ]


def stabilizer(h: Hypergraph, i: int) -> StabilizerOperator:
    """The correlation operator of vertex i for the given hypergraph."""
    return StabilizerOperator(h.n, i, neighbour_masks(h, i))


def stabilizer_texts(h: Hypergraph) -> list[str]:
    """The text of each vertex's correlation operator, as ``str`` gives it,
    from one sort of the edges.  Clearing vertex i from two edges that hold
    it keeps their order by size, then vertex tuple: where the tuples first
    differ, only the larger can have i, and its next vertex is larger still."""
    edges = sorted_masks(h.masks)
    flips = list(range(1, h.n + 1))
    bits = [np.uint64(1 << (i - 1)) for i in flips]
    return _operator_texts(h.n, flips, [edges[(edges & bit) != 0] ^ bit for bit in bits])


def _apply_stabilizer_raw(v: np.ndarray, op: StabilizerOperator) -> np.ndarray:
    """The operator applied to a vector, or to each column of a 2**n x P matrix."""
    # Label bit i-1 is axis 1 of this shape, so reversing that axis flips it.
    shape = (1 << (op.n - op.i), 2, 1 << (op.i - 1))
    flipped = v.reshape(shape + v.shape[1:])[:, ::-1]
    signs = op._diagonal_pm1.reshape(shape + (1,) * (v.ndim - 1))[:, ::-1]
    return (flipped * signs).reshape(v.shape)


def apply_stabilizer(s: StateVector, op: StabilizerOperator) -> StateVector:
    """Apply the phase gates, then the bit flip (tuple scalar included)."""
    if s.n != op.n:
        raise ValueError(f"dimension mismatch: state n={s.n}, operator n={op.n}")
    return StateVector(s.n, _bits.xor_permute(s.signs ^ op.diagonal_table, op.flip, s.n))


def _lowest(table: int) -> int | None:
    """The lowest label set in a table, or None for the empty table."""
    return (table & -table).bit_length() - 1 if table else None


def commutator_residual(
    op_a: StabilizerOperator, op_b: StabilizerOperator, probe: np.ndarray
) -> float:
    """Norm of (AB - BA) applied to a probe vector of 2**n amplitudes.

    Operators of one hypergraph commute and all factors are exact +-1 signs,
    so the residual is exactly 0.0 for them.
    """
    if op_a.n != op_b.n or np.shape(probe) != (1 << op_a.n,):
        raise ValueError("dimension mismatch between operators and probe")
    ab = _apply_stabilizer_raw(_apply_stabilizer_raw(probe, op_b), op_a)
    ba = _apply_stabilizer_raw(_apply_stabilizer_raw(probe, op_a), op_b)
    return float(np.linalg.norm(ab - ba))


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """A normalized complex Gaussian probe vector of 2**n amplitudes."""
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


class Verification(NamedTuple):
    """The exact verdicts of ``verification`` on a state and its operators."""

    moved: list[int | None]  # per operator: the lowest label it moves, or None
    witnesses: list[int | None]  # per pair (a, b), a < b, in itertools.combinations order
    dimension: int | None  # of the joint +1 eigenspace, if every operator fixes the state


def verification(s: StateVector, ops: list[StabilizerOperator]) -> Verification:
    """Whether each operator fixes the state, each pair commutes, and the
    state alone spans their joint +1 eigenspace (``dimension == 1``, not
    computed when an operator moves the state, which is then not in it).

    K with flip bit f and diagonal D maps a sign table S to P(S ^ D, f),
    P = xor_permute.  Its error table E = P(K(s) ^ s, f) = D ^ s ^ P(s, f)
    is 0 iff K fixes s.  For operators K_a and K_b of flips a and b, both
    products permute labels by x -> x ^ a ^ b, and they differ exactly where
    D_a ^ P(D_a, b) ^ D_b ^ P(D_b, a) is set (no tuple of K_a holds its flip
    vertex, so P(D_a, a) = D_a).  Substituting D = E ^ s ^ P(s, f) adds each
    of s, P(s, a), P(s, b) and P(s, a ^ b) twice, so E stands for D, for any
    state s: operators that fix the state commute.

    K = X_f D fixes v iff v(x ^ f) = (-1)^D(x) v(x), so a joint +1 vector is
    fixed by its value at one label per coset of the span of the flip bits;
    a coset holds only 0 iff some product of the operators maps a label to
    minus itself.  A fixed sign state is nonzero at every label, so no coset
    conflicts: the dimension is 2**n over the span's size."""
    moved = [apply_stabilizer(s, op).signs ^ s.signs for op in ops]
    errors = [(_bits.xor_permute(m, op.flip, s.n), op.flip) for m, op in zip(moved, ops)]
    witnesses = [
        _lowest(ea ^ _bits.xor_permute(ea, fb, s.n) ^ eb ^ _bits.xor_permute(eb, fa, s.n))
        for (ea, fa), (eb, fb) in combinations(errors, 2)
    ]
    dimension = None if any(moved) else 1 << (s.n - len({op.i for op in ops}))
    return Verification([_lowest(m) for m in moved], witnesses, dimension)


def uniqueness_check(h: Hypergraph) -> bool:
    """True iff the built state alone spans the joint +1 eigenspace of its stabilizers."""
    ops = [stabilizer(h, i) for i in range(1, h.n + 1)]
    return verification(build_state(h), ops).dimension == 1


def equal_up_to_global_phase(a: StateVector, b: StateVector) -> bool:
    """True iff a = c*b for a unit scalar c, exactly.  c can only be +-1:
    +-i cannot map a real sign pattern onto another."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: n={a.n} vs n={b.n}")
    return a.signs == b.signs or a.signs == b.signs ^ _bits.full_mask(a.n)


@lru_cache(maxsize=MAX_QUBITS)
def _sign_lines(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of the dump lines `x +` (each ending in a newline) of every
    label x < 2**n, and the index of each line's sign byte, as read-only
    arrays built once per process for each n (about 185 KB at n = 14, 13.6 MB
    at n = 20, all n together less than twice the largest).

    Built one decimal width at a time: the labels of w digits fill a
    (count, w + 3) byte matrix, one column per digit.
    """
    size = 1 << n
    chunks, signs = [], []
    offset, low, width = 0, 0, 1
    while low < size:
        high = min(10**width, size)
        rows = np.empty((high - low, width + 3), dtype=np.uint8)
        labels = np.arange(low, high, dtype=np.int32)
        for col in range(width - 1, -1, -1):
            tens = labels // 10  # a floor division by a scalar is far faster than %
            rows[:, col] = labels - 10 * tens + ord("0")
            labels = tens
        rows[:, width:] = np.frombuffer(b" +\n", dtype=np.uint8)
        chunks.append(rows.reshape(-1))
        signs.append(np.arange(offset + width + 1, offset + rows.size, width + 3, dtype=np.int32))
        offset += rows.size
        low, width = high, width + 1
    lines, signs = np.concatenate(chunks), np.concatenate(signs)
    lines.flags.writeable = signs.flags.writeable = False
    return lines, signs


def dump(s: StateVector) -> str:
    """State dump of a sign state: header `n <int> backend sign`, then one
    `x +|-` line per label, written into a copy of the _sign_lines of the
    process (a one-shot call builds them once, as it always did)."""
    template, signs = _sign_lines(s.n)
    lines = template.copy()
    lines[signs[_bits.unpack(s.signs, s.dim).view(bool)]] = ord("-")
    return f"n {s.n} backend sign\n" + lines.tobytes().decode("ascii")


def load(text: str) -> StateVector:
    """Parse a state dump produced by dump().

    A sign dump exactly as dump() writes it is checked and read byte-wise
    against the dump lines of its n (the _sign_lines of the process, which
    the check leaves as they are); any other text goes through the line
    loop, which alone words the error messages.
    """
    state = _load_plain_signs(text)
    return state if state is not None else _load_lines(text)


def _load_plain_signs(text: str) -> StateVector | None:
    """The state of a sign dump byte-identical to dump()'s, else None."""
    head = _SIGN_HEADER.match(text)
    if head is None or int(head[1]) > MAX_QUBITS:
        return None
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    n = int(head[1])
    template, signs = _sign_lines(n)
    got = np.frombuffer(data, dtype=np.uint8, offset=head.end())
    if got.size != template.size:
        return None
    minus = got[signs] == ord("-")
    lines = template.copy()
    lines[signs[minus]] = ord("-")
    if not np.array_equal(got, lines):
        return None
    return StateVector(n, _bits.pack(minus))


def _load_lines(text: str) -> StateVector:
    """load() by a loop over the lines, for any input."""
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
    if head[3] != "sign":
        raise FormatError(f"unknown backend {head[3]!r}")
    body = lines[1:]
    if len(body) != 1 << n:
        raise FormatError(f"expected {1 << n} sign lines, got {len(body)}")
    minus = bytearray(len(body))
    for expect, line in enumerate(body):
        fields = line.split()
        if len(fields) != 2 or fields[0] != str(expect) or fields[1] not in ("+", "-"):
            raise FormatError(f"bad sign line {line!r}")
        if fields[1] == "-":
            minus[expect] = 1
    return StateVector(n, _bits.pack(minus))
