"""Exact kernels for bit tables indexed by n-qubit basis labels.

A *table* is a single Python integer whose bit x is the entry for basis
label x, 0 <= x < 2**n.  Vertex/qubit i (1-based) occupies bit i-1 of a
label, so vertex subsets double as label masks.  The transforms are pure
integer arithmetic; conversion between a table and one byte per label
(``unpack``/``pack``) goes through numpy's bit packing, which copies bits
and is therefore exact as well.

One kernel per job: edges -> table is ``table_from_edges`` (a C^kZ gate, a
local Z and a Z word, ``parity_mask``, are tables of one or more edges);
table -> set labels is ``set_bits``; label mask -> bits or vertices is
``mask_bits``; the labels of weight k (k-uniform edge slots, bipartition
sides) are ``set_bits(weight_mask(n, k))``; a set of masks is range-checked
by ``first_bad_mask``.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_
from typing import Collection, Iterable

import numpy as np


def full_mask(n: int) -> int:
    """All 2**n table bits set."""
    return (1 << (1 << n)) - 1


@lru_cache(maxsize=None)
def axis_clear_mask(i: int, n: int) -> int:
    """Table mask of the labels whose bit i is 0."""
    step = 1 << i
    mask = (1 << step) - 1
    width = 2 * step
    total = 1 << n
    while width < total:
        mask |= mask << width
        width *= 2
    return mask


def butterfly(table: int, n: int) -> int:
    """Self-inverse subset-XOR transform: output bit x = XOR of input over y <= x bitwise.

    Applied to an edge-set indicator it yields the parity-of-covered-edges
    table; applied twice it returns the input.
    """
    for i in range(n):
        table ^= (table & axis_clear_mask(i, n)) << (1 << i)
    return table


def xor_permute(table: int, flip: int, n: int) -> int:
    """Relabel a table under x -> x XOR flip."""
    for i in range(n):
        if (flip >> i) & 1:
            step = 1 << i
            low = axis_clear_mask(i, n)
            table = ((table & low) << step) | ((table >> step) & low)
    return table


def parity_mask(z_mask: int, n: int) -> int:
    """Table mask of the labels x with odd popcount of (x AND z_mask): the
    table of z_mask's one-vertex edges."""
    return table_from_edges([1 << i for i in mask_bits(z_mask)], n)


def unpack(table: int, size: int) -> np.ndarray:
    """Bits 0..size-1 of a table as a uint8 array of 0s and 1s, label order."""
    raw = np.frombuffer(table.to_bytes(max(1, (size + 7) // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little")


def pack(bits: np.ndarray | bytearray) -> int:
    """The table whose bit x is set iff bits[x] is nonzero (inverse of unpack)."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def table_from_edges(masks: Iterable[int], n: int) -> int:
    """Bit x = parity of the masks contained in x (duplicate masks count once).

    The butterfly of the indicator of the given label masks, 0 <= mask < 2**n.
    """
    indicator = np.zeros(1 << n, dtype=np.uint8)
    indicator[np.fromiter(masks, dtype=np.int64)] = 1
    return butterfly(pack(indicator), n)


@lru_cache(maxsize=None)
def weight_mask(n: int, k: int) -> int:
    """Table mask of the labels with exactly k bits set."""
    popcount = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        popcount = np.concatenate((popcount, popcount + 1))
    return pack(popcount == k)


def set_bits(table: int) -> list[int]:
    """Positions of the set bits of a table, ascending."""
    return np.flatnonzero(unpack(table, table.bit_length())).tolist()


def mask_bits(mask: int, first: int = 0) -> list[int]:
    """first + i for each set bit i of a label mask, ascending (first=1: vertices)."""
    return [first + i for i in range(mask.bit_length()) if (mask >> i) & 1]


def first_bad_mask(masks: Collection[int], allowed: int, empty_ok: bool = True) -> int | None:
    """The first mask with a bit outside ``allowed`` (as any negative mask
    has), or 0 unless ``empty_ok``; None if there is none.  One OR over all
    masks decides; the loop runs only to name the first culprit."""
    if not reduce(or_, masks, 0) & ~allowed and (empty_ok or 0 not in masks):
        return None
    return next(m for m in masks if m & ~allowed or (m == 0 and not empty_ok))


def mask_from_vertices(vertices: Iterable[int]) -> int:
    """Label mask with bit v-1 set for each 1-based vertex v."""
    mask = 0
    for v in vertices:
        mask |= 1 << (v - 1)
    return mask


def vertices_from_mask(mask: int) -> frozenset[int]:
    """1-based vertex set of a label mask."""
    return frozenset(mask_bits(mask, 1))
