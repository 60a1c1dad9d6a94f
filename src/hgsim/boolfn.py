"""Boolean phase functions as packed truth tables, and their XOR-monomial form.

Conventions shared by the whole package:

* Basis labels are integers 0 <= x < 2**n.  Qubit i (1-based) occupies bit
  i-1 of a label, qubit 1 least significant.
* A truth table is one big integer; bit x holds f(x).  It is also the sign
  table of the state sum over x of (-1)^f(x) |x> / sqrt(2**n), so one type,
  ``StateVector(n, signs)``, holds both: truth-table text (``from_text``)
  and sign dumps (``statesim.load``) parse into it.
* Hex serialization is the plain hexadecimal of that integer, zero padded to
  ceil(2**n / 4) digits, so the lowest-order hex digit covers x = 0..3.

The XOR-monomial form (``mobius_transform``) is the unique expansion
f(x) = constant XOR (XOR over monomials m of the product of x_i for i in m).
Its monomials are exactly the hyperedges of the phase-flip circuit that
prepares the sign pattern (-1)^f, so they are returned as a ``Hypergraph``
(label masks), with the constant beside it.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

from . import _bits
from .errors import FormatError
from .hypergraph import Hypergraph

MAX_QUBITS = 20


@dataclass(frozen=True)
class StateVector:
    """An n-qubit equally weighted state and its Boolean function f: bit x of
    ``signs`` is f(x), set where the amplitude at x is -1/sqrt(2**n)."""

    n: int
    signs: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {self.n}")
        if not 0 <= self.signs < 1 << self.dim:
            raise ValueError("bit storage does not fit 2**n bits")

    @property
    def dim(self) -> int:
        return 1 << self.n

    def __getitem__(self, x: int) -> int:
        if not 0 <= x < self.dim:
            raise IndexError(f"basis label {x} out of range for n={self.n}")
        return (self.signs >> x) & 1

    def weight(self) -> int:
        """Number of inputs mapped to 1, the minus signs of the state."""
        return self.signs.bit_count()


def hex_digits(n: int) -> int:
    """Number of hex digits a table for n qubits serializes to."""
    return ((1 << n) + 3) // 4


def truth_table_from_hex(digits: str, n: int) -> StateVector:
    """Parse a table from its hex serialization (exact digit count required)."""
    if not 1 <= n <= MAX_QUBITS:
        raise FormatError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")
    expected = hex_digits(n)
    if len(digits) != expected:
        raise FormatError(f"expected {expected} hex digits for n={n}, got {len(digits)}")
    if not all(c in string.hexdigits for c in digits):
        raise FormatError(f"invalid hex string {digits!r}")
    signs = int(digits, 16)
    if signs >> (1 << n):  # only at n = 1, where one digit holds 4 bits
        raise FormatError(f"hex string {digits!r} sets bits past label {(1 << n) - 1} for n={n}")
    return StateVector(n, signs)


def from_text(text: str) -> StateVector:
    """Parse the two-line truth-table format: `n <int>` then the hex string."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise FormatError("truth-table text must be exactly two lines: header and hex")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise FormatError(f"bad header line {lines[0]!r}, expected 'n <int>'")
    try:
        n = int(head[1])
    except ValueError:
        raise FormatError(f"bad qubit count {head[1]!r}") from None
    return truth_table_from_hex(lines[1], n)


def to_text(tt: StateVector) -> str:
    """The two-line truth-table format that from_text reads."""
    return f"n {tt.n}\n{tt.signs:0{hex_digits(tt.n)}X}\n"


def mobius_transform(tt: StateVector) -> tuple[Hypergraph, int]:
    """The unique XOR-monomial form of a table, via the self-inverse XOR
    butterfly: the hypergraph of its nonempty monomials, and the constant
    f(0), the coefficient of the empty monomial (a global sign of the
    matching state, never a hyperedge).  ``_bits.table_from_edges`` inverts it.
    """
    t = _bits.butterfly(tt.signs, tt.n)
    return Hypergraph(tt.n, _bits.set_bits(t >> 1 << 1)), t & 1
