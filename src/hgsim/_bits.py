"""Exact kernels for bit tables indexed by n-qubit basis labels.

A *table* is a single Python integer whose bit x is the entry for basis
label x, 0 <= x < 2**n.  Vertex/qubit i (1-based) occupies bit i-1 of a
label, so vertex subsets double as label masks.  The transforms are pure
integer arithmetic; conversion between a table and one byte per label
(``unpack``/``pack``) goes through numpy's bit packing, which copies bits
and is therefore exact as well.  For n <= 6 a table fits one uint64 word,
and ``butterfly``, ``xor_permute`` and ``anf_translate`` act element-wise
on uint64 arrays of such words.

One kernel per job: edges -> table is ``table_from_edges`` (a C^kZ gate, a
local Z and a Z word, ``parity_mask``, are tables of one or more edges);
table -> set labels is ``set_bits``; label mask -> bits or vertices is
``mask_bits``; vertices -> label mask is ``mask_from_vertices``, the one
place a vertex is checked and made a bit; the labels of weight k (k-uniform
edge slots, bipartition sides) are ``set_bits(weight_mask(n, k))``; the
labels a cut's side and its complement span are ``deposit``; a set of masks
becomes a checked uint64 array through ``mask_set``, which names a mask it
rejects by ``_first_bad_mask``.

A set of label masks passes between modules in one form: an ascending
uint64 array, as ``set_bits`` returns it and ``mask_set`` stores it.
"""

from __future__ import annotations

from functools import lru_cache
from numbers import Integral
from operator import index
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
    table; applied twice it returns the input.  Rebinds, never updates in
    place, so a uint64 array argument is left as it was.
    """
    for i in range(n):
        table = table ^ (table & axis_clear_mask(i, n)) << (1 << i)
    return table


def xor_permute(table: int, flip: int, n: int) -> int:
    """Relabel a table under x -> x XOR flip (bits of flip at or above n are
    ignored), one swap of table halves per set bit of flip."""
    flip &= (1 << n) - 1
    while flip:
        step = flip & -flip
        low = axis_clear_mask(step.bit_length() - 1, n)
        table = ((table & low) << step) | ((table >> step) & low)
        flip ^= step
    return table


def anf_translate(anf: int, flip: int, n: int) -> int:
    """ANF of the table relabeled under x -> x XOR flip: x_i -> x_i ^ 1 folds
    the coefficient of each label with bit i set onto the label without it."""
    for i in range(n):
        if (flip >> i) & 1:
            anf = anf ^ (anf >> (1 << i)) & axis_clear_mask(i, n)
    return anf


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


def table_from_edges(masks: Iterable[int] | np.ndarray, n: int) -> int:
    """Bit x = parity of the masks contained in x (duplicate masks count once).

    The butterfly of the indicator of the given label masks, 0 <= mask < 2**n.
    """
    indicator = np.zeros(1 << n, dtype=np.uint8)
    indicator[masks if isinstance(masks, np.ndarray) else list(masks)] = 1
    return butterfly(pack(indicator), n)


@lru_cache(maxsize=None)
def weight_mask(n: int, k: int) -> int:
    """Table mask of the labels with exactly k bits set.

    A label's popcount is that of its high n - n//2 bits plus that of its
    low n//2 bits, so the mask in label order is one outer comparison (high
    bits by row) of two popcount arrays of about 2**(n/2) entries, the low
    one a prefix of the high one.
    """
    counts = np.bitwise_count(np.arange(1 << (n - n // 2), dtype=np.uint32)).astype(np.int8)
    return pack(np.equal.outer(counts, k - counts[:1 << n // 2]))


def set_bits(table: int) -> np.ndarray:
    """Positions of the set bits of a table, as an ascending uint64 array."""
    return np.flatnonzero(unpack(table, table.bit_length())).view(np.uint64)


def mask_bits(mask: int, first: int = 0) -> list[int]:
    """first + i for each set bit i of a label mask, ascending (first=1: vertices)."""
    return [first + i for i in range(mask.bit_length()) if (mask >> i) & 1]


def deposit(masks: Collection[int] | np.ndarray, width: int) -> np.ndarray:
    """out[j, r] = bit t of r put on the t-th lowest set bit of masks[j], for
    r < 2**width; each mask has at least ``width`` set bits.

    int16 while every mask is below 2**15, as every label is for n <= 15
    (the entanglement sweep's cap is 12); int64 past that.  One doubling per
    bit: columns 2**t..2**(t+1)-1 are columns 0..2**t-1 plus the t-th bit.
    """
    rest = np.array(masks, dtype=np.int64)  # a copy: updated below
    dtype = np.int16 if np.all(rest < 1 << 15) else np.int64
    out = np.zeros((len(rest), 1 << width), dtype=dtype)
    for t in range(width):
        low = rest & -rest
        out[:, 1 << t:2 << t] = out[:, :1 << t] | low.astype(dtype)[:, None]
        rest ^= low
    return out


def mask_set(
    masks: Iterable[int] | np.ndarray, allowed: int, empty_ok: bool = True
) -> tuple[np.ndarray, None] | tuple[None, int]:
    """(array, None): the distinct masks (integers, or an integer array) as a
    new ascending, read-only uint64 array.  (None, bad): ``bad`` is the first
    mask with a bit outside ``allowed`` (as any negative mask has) or, unless
    ``empty_ok``, 0.  The input is read once; one OR decides, and only a
    rejected input is searched for its culprit.  An ascending input is not
    sorted.  A mask that is not an integer, or an array of another dtype,
    raises TypeError."""
    if not isinstance(masks, np.ndarray):
        values = list(map(index, masks))
        try:
            masks = np.array(values, dtype=np.uint64)
        except OverflowError:  # a Python int below 0 or past 64 bits
            return None, _first_bad_mask(values, allowed, empty_ok)
    elif masks.dtype.kind not in "iu":
        raise TypeError(f"mask array of dtype {masks.dtype}, not of integers")
    # on a signed array, a negative mask makes the OR negative
    if int(np.bitwise_or.reduce(masks, initial=0)) & ~allowed or not (empty_ok or masks.all()):
        return None, _first_bad_mask(masks, allowed, empty_ok)
    array = masks.astype(np.uint64)  # a copy: made read-only below
    if not (array[1:] > array[:-1]).all():
        array.sort()  # np.unique would take about 20 times as long
        array = array[np.concatenate(([True], array[1:] != array[:-1]))]
    array.flags.writeable = False
    return array, None


def _first_bad_mask(
    masks: Collection[int] | np.ndarray, allowed: int, empty_ok: bool = True
) -> int | None:
    """The first mask with a bit outside ``allowed`` (as any negative mask
    has), or 0 unless ``empty_ok``; None if there is none."""
    values = masks.tolist() if isinstance(masks, np.ndarray) else map(index, masks)
    return next((m for m in values if m & ~allowed or (m == 0 and not empty_ok)), None)


def mask_from_vertices(vertices: Iterable[int], n: int) -> int:
    """Label mask with bit v-1 set for each 1-based vertex v; a vertex that
    is not an integer in 1..n raises ValueError naming it."""
    mask = 0
    for v in vertices:  # the type test first: an ABC isinstance is slow
        if not ((type(v) is int or isinstance(v, Integral)) and 1 <= v <= n):
            raise ValueError(f"vertex {v!r} out of range 1..{n}")
        mask |= 1 << (int(v) - 1)
    return mask


def vertices_from_mask(mask: int) -> frozenset[int]:
    """1-based vertex set of a label mask."""
    return frozenset(mask_bits(mask, 1))
