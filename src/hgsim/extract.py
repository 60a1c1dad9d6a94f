"""Recover the unique hypergraph behind a +-1 equally weighted state.

Two routes are provided and must always agree:

* ``extract_layered`` walks excitation levels k = 1..n, records a hyperedge
  for every remaining minus sign at level k and erases it with the matching
  phase gate.  Flips recorded at one level only touch strictly higher
  levels, so each level's gates are applied as one batch (one butterfly) --
  same result, label by label, as flipping edge by edge.
* ``extract_fast`` reads the edges straight off the XOR-monomial transform.

Both require a normalized table, f(0) = 0: the matching states carry a plus
sign on the all-zero component, and tables differing by a global sign name
the same physical state.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _bits
from .boolfn import StateVector, mobius_transform
from .hypergraph import Hypergraph

CONSTANT = "constant"
BALANCED = "balanced"
UNBALANCED = "unbalanced"


@dataclass(frozen=True)
class BalanceReport:
    """Constant/balanced/unbalanced verdict plus whether the full edge
    {1..n} appears in the extraction (equivalently: odd minus-sign count)."""

    kind: str
    full_edge: bool


def _require_normalized(tt: StateVector) -> None:
    if tt[0]:
        raise ValueError(
            "table must have f(0) = 0; factor the global sign out first (ANF constant)"
        )


def extract_layered(tt: StateVector) -> Hypergraph:
    """Erase minus signs level by level, recording one hyperedge per erased sign."""
    _require_normalized(tt)
    work = tt.signs
    edges = 0  # the table of the recorded edge labels
    for k in range(1, tt.n + 1):
        level = work & _bits.weight_mask(tt.n, k)
        if level:
            edges |= level
            work ^= _bits.butterfly(level, tt.n)
    assert work == 0, "layered pass must end on the all-plus table"
    return Hypergraph(tt.n, _bits.set_bits(edges))


def extract_fast(tt: StateVector) -> Hypergraph:
    """The edges are the monomials of the XOR transform of the table."""
    _require_normalized(tt)
    return mobius_transform(tt)[0]


def classify_balance(tt: StateVector) -> BalanceReport:
    ones = tt.weight()
    if ones in (0, tt.dim):
        kind = CONSTANT
    elif ones == tt.dim // 2:
        kind = BALANCED
    else:
        kind = UNBALANCED
    return BalanceReport(kind, full_edge=bool(ones & 1))
