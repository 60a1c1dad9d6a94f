"""Hypergraphs on 1-based vertices with edges of any order 1..n.

Edges are stored as one ascending uint64 array of label bitmasks (bit i-1 =
vertex i); the canonical order by size, then vertex tuple (``sorted_masks``)
is applied only where text is written.  The text format is line oriented:

    # comment
    n 3
    e 1
    e 2 3
    e 1 2 3

Vertex indices on an `e` line must be strictly increasing; duplicate edges
are an error, not a silent toggle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Callable, Iterable

import numpy as np

from . import _bits
from .errors import FormatError

MAX_VERTICES = 64


def _edge_mask(vertices: Iterable[int], n: int) -> int:
    """Validate a vertex subset against 1..n and return its label mask."""
    mask = _bits.mask_from_vertices(vertices, n)
    if not mask:
        raise ValueError("edge must be a nonempty vertex subset")
    return mask


@dataclass(frozen=True, init=False, eq=False)
class Hypergraph:
    """Vertex count plus a set of hyperedges, each a label bitmask.

    The only stored form of the edges is ``masks``, an ascending read-only
    uint64 array (every n <= 64 fits); ``edges`` is a frozenset view of it.
    """

    n: int
    masks: np.ndarray

    def __init__(self, n: int, edges: Iterable[int] | np.ndarray) -> None:
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        masks, bad = _bits.mask_set(edges, (1 << n) - 1, empty_ok=False)
        if masks is None:
            raise ValueError(f"edge mask {bad:#x} invalid for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.masks, other.masks)

    def __hash__(self) -> int:
        return hash((self.n, self.masks.tobytes()))

    @cached_property
    def edges(self) -> frozenset[int]:
        return frozenset(self.masks.tolist())

    @classmethod
    def from_sets(cls, n: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        return cls(n, frozenset(_edge_mask(e, n) for e in edges))

    def orders(self) -> frozenset[int]:
        return frozenset(np.bitwise_count(self.masks).tolist())


@dataclass(frozen=True)
class UniformityClass:
    """Edge-order classification: empty, uniform of one order k, or mixed."""

    orders: frozenset[int]

    @property
    def kind(self) -> str:
        """"empty", "uniform" or "mixed": no order, one order, or more."""
        if not self.orders:
            return "empty"
        return "uniform" if len(self.orders) == 1 else "mixed"

    @property
    def k(self) -> int:
        if self.kind != "uniform":
            raise ValueError("only uniform classes have a single order k")
        return next(iter(self.orders))

    def __str__(self) -> str:
        if self.kind == "empty":
            return "empty"
        if self.kind == "uniform":
            return f"uniform {self.k}"
        return "mixed " + ",".join(str(k) for k in sorted(self.orders))


def _vertex_texts(values: np.ndarray, width: int, first: int, sep: str) -> np.ndarray:
    """sep.join(first + i for each set bit i, ascending) of each value of a
    uint64 array of values below 2**width, as an object array: gathered from
    a table of every value when there are at least that many values (each
    entry built from the one without its top bit), else value by value."""
    if 1 << width > values.size:
        texts = [sep.join(map(str, _bits.mask_bits(v, first))) for v in values.tolist()]
        return np.array(texts, dtype=object)
    texts = [""]
    for i in range(width):
        vertex = str(first + i)
        texts += [f"{text}{sep}{vertex}" if text else vertex for text in texts]
    return np.array(texts, dtype=object)[values]


def _keyed_texts(
    keys: np.ndarray, size: int, texts: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """texts(keys) for a uint64 array of keys below ``size``, where
    ``texts`` maps a uint64 key array to an object array.  It is called on
    every key below ``size`` when there are at least that many keys, else
    on the distinct keys present, so that a sparse n = 64 graph never
    allocates 2**32 entries."""
    if size <= keys.size:
        return texts(np.arange(size, dtype=np.uint64))[keys]
    distinct, index = np.unique(keys, return_inverse=True)
    return texts(distinct)[index]


def _edge_texts(masks: np.ndarray, n: int, prefixes: list[str], sep: str, tail: str) -> list[str]:
    """Two pieces per mask of a uint64 array, whose join is prefixes[k] +
    sep.join(ascending vertices) + tail, k the mask's size.

    The first piece, with the prefix, is keyed by the low ceil(n/2) bits of
    the mask and, above them, the count of its high bits.  The second, with
    the tail, is keyed by the high bits and, below them, a flag for empty
    low bits (then no sep goes before the first high vertex).  Each column
    of pieces is one gather from a table built once per call.
    """
    split = (n + 1) // 2
    low_bits = np.uint64((1 << split) - 1)
    lows = masks & low_bits
    highs = masks >> np.uint64(split)
    prefix = np.array(prefixes, dtype=object)

    def low_texts(keys: np.ndarray) -> np.ndarray:
        low = keys & low_bits
        sizes = np.bitwise_count(low) + (keys >> np.uint64(split))
        return prefix[sizes] + _vertex_texts(low, split, 1, sep)

    def high_texts(keys: np.ndarray) -> np.ndarray:
        high = keys >> np.uint64(1)
        lead = np.where((keys & np.uint64(1)) | (high == 0), "", sep).astype(object)
        return lead + _vertex_texts(high, n - split, split + 1, sep) + tail

    low_keys = np.bitwise_count(highs).astype(np.uint64) << np.uint64(split) | lows
    high_keys = highs << np.uint64(1) | (lows == 0)
    columns = (
        _keyed_texts(low_keys, (n - split + 1) << split, low_texts),
        _keyed_texts(high_keys, 2 << (n - split), high_texts),
    )
    return np.stack(columns, axis=1).ravel().tolist()


# Bit i of byte b set iff bit 7 - i of _REVERSED_BYTE[b] is.
_REVERSED_BYTE = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def sorted_masks(masks: np.ndarray) -> np.ndarray:
    """A uint64 array of label masks by size, then lexicographic vertex tuple.

    Among masks of one size, ascending vertex tuples are descending
    bit-reversed masks (vertex v -> bit 64 - v).  So the masks are sorted by
    the complement of the reversed mask, then by size with a stable sort,
    which numpy does as a radix sort on small unsigned sizes.
    """
    reversed_ = np.take(_REVERSED_BYTE, masks.view(np.uint8)).view(np.uint64).byteswap()
    size = np.bitwise_count(masks)
    order = np.argsort(~reversed_)  # equal keys are equal masks, so any sort will do
    return masks[order[np.argsort(size[order], kind="stable")]]


def parse(text: str) -> Hypergraph:
    """Parse the edge-list text format; malformed or duplicate input raises.

    Plain files (an exact `n K` header, then `e` lines of one- or two-digit
    vertices, each line ending in a newline) are read by a byte-level numpy
    pass; anything else, faulty files included, goes through the line loop,
    which alone words the error messages.
    """
    h = _parse_plain(text)
    return h if h is not None else _parse_lines(text)


_PLAIN_HEADER = re.compile(r"n ([1-9][0-9]?)\n")
_BLOCK_BYTES = 1 << 14  # the byte-level pass reads line-aligned blocks of about this size


def _parse_plain(text: str) -> Hypergraph | None:
    """The hypergraph of a plain file, or None if the file is not plain or
    has a fault (a vertex out of range, not increasing, or a duplicate edge)."""
    head = _PLAIN_HEADER.match(text)
    if head is None or int(head[1]) > MAX_VERTICES:
        return None
    n = int(head[1])
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    blocks = []
    start = head.end()
    while start < len(data):
        stop = data.find(b"\n", start + _BLOCK_BYTES) + 1 or len(data)
        masks = _plain_edge_masks(np.frombuffer(data, np.uint8, stop - start, start), n)
        if masks is None:
            return None
        blocks.append(masks)
        start = stop
    masks = np.sort(np.concatenate(blocks)) if blocks else np.empty(0, np.uint64)
    if (masks[1:] == masks[:-1]).any():
        return None  # a duplicate edge, which the line loop names
    return Hypergraph(n, masks)


def _plain_edge_masks(line_bytes: np.ndarray, n: int) -> np.ndarray | None:
    """The uint64 edge masks of whole lines `e( [0-9]{1,2})+\\n` with
    strictly increasing vertices in 1..n, or None if a line is not of that
    form."""
    digit_value = line_bytes - ord("0")  # uint8: non-digits wrap to 10 and above
    digit = digit_value < 10
    space = line_bytes == ord(" ")
    newline = line_bytes == ord("\n")
    e = line_bytes == ord("e")
    line_start = np.empty_like(e)
    line_start[0] = True
    line_start[1:] = newline[:-1]
    if (
        line_bytes[-1] != ord("\n")
        or not (digit | space | newline | e).all()
        or not np.array_equal(e, line_start)  # each line starts with the only `e`
        or (e[:-1] & ~space[1:]).any()  # `e` then a space
        or (space[:-1] & ~digit[1:]).any()  # each space then a digit
        or (digit[:-2] & digit[1:-1] & digit[2:]).any()  # at most two digits per vertex
    ):
        return None
    value = digit_value * digit  # uint8, 0 off the digits
    value[1:] += 10 * value[:-1]  # at the last digit of a vertex: its value
    last = digit.copy()
    last[:-1] &= ~digit[1:]
    first = digit.copy()
    first[1:] &= ~digit[:-1]
    vertices = np.compress(last, value)
    line_first = np.compress(first[2:], e[:-2])  # vertex opens its line: `e` 2 bytes before
    if not (
        vertices.min() >= 1
        and vertices.max() <= n
        and ((vertices[1:] > vertices[:-1]) | line_first[1:]).all()
    ):
        return None
    bits = np.uint64(1) << (vertices - 1)
    return np.bitwise_or.reduceat(bits, np.flatnonzero(line_first))


def _parse_lines(text: str) -> Hypergraph:
    """parse() by a loop over the lines, for any input."""
    n = None
    edges: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "n":
            if n is not None:
                raise FormatError(f"line {lineno}: repeated vertex-count line")
            if len(fields) != 2:
                raise FormatError(f"line {lineno}: expected 'n <int>'")
            try:
                n = int(fields[1])
            except ValueError:
                raise FormatError(f"line {lineno}: bad vertex count {fields[1]!r}") from None
            if not 1 <= n <= MAX_VERTICES:
                raise FormatError(f"line {lineno}: vertex count {n} out of range")
        elif fields[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: edge before vertex-count line")
            if len(fields) == 1:
                raise FormatError(f"line {lineno}: empty edge")
            try:
                vs = list(map(int, fields[1:]))
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer vertex") from None
            if vs != sorted(set(vs)):
                raise FormatError(f"line {lineno}: vertices must be strictly increasing")
            try:
                mask = _bits.mask_from_vertices(vs, n)
            except ValueError:
                raise FormatError(f"line {lineno}: vertex out of range 1..{n}") from None
            if mask in edges:
                raise FormatError(f"line {lineno}: duplicate edge {vs}")
            edges.add(mask)
        else:
            raise FormatError(f"line {lineno}: unknown directive {fields[0]!r}")
    if n is None:
        raise FormatError("missing vertex-count line 'n <int>'")
    return Hypergraph(n, edges)


def serialize(h: Hypergraph) -> str:
    pieces = _edge_texts(sorted_masks(h.masks), h.n, ["e "] * (h.n + 1), " ", "\n")
    return f"n {h.n}\n" + "".join(pieces)


def classify_uniformity(h: Hypergraph) -> UniformityClass:
    return UniformityClass(h.orders())


def neighbour_masks(h: Hypergraph, i: int) -> np.ndarray:
    """The tuples completing vertex i to a hyperedge, as an ascending uint64
    array of label masks (0 for the edge {i}).  Clearing a bit that every
    selected edge has keeps the edges' ascending order."""
    bit = np.uint64(_bits.mask_from_vertices([i], h.n))
    return h.masks[(h.masks & bit) != 0] ^ bit


def neighbourhood(h: Hypergraph, i: int) -> frozenset[frozenset[int]]:
    """The tuples completing vertex i to a hyperedge; empty tuple for the edge {i}."""
    return frozenset(map(_bits.vertices_from_mask, neighbour_masks(h, i).tolist()))


def count_exponent(n: int, k: int | None = None) -> int:
    """Base-2 logarithm of count_states(n, k): C(n,k) for one order, 2**n - 1 for all."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
    if k is None:
        return (1 << n) - 1
    if not 1 <= k <= n:
        raise ValueError(f"edge order {k} out of range 1..{n}")
    return comb(n, k)


def count_states(n: int, k: int | None = None) -> int:
    """Exact number of hypergraph states: 2**C(n,k) for one order, 2**(2**n - 1) for all."""
    return 1 << count_exponent(n, k)


def to_dot(h: Hypergraph) -> str:
    """Render to DOT: pair edges as plain edges, singletons as a double circle,
    larger edges as a point-shaped hub connected to its members."""
    singletons = {e.bit_length() for e in h.masks[np.bitwise_count(h.masks) == 1].tolist()}
    out = ["graph hypergraph {", "  node [shape=circle];"]
    for v in range(1, h.n + 1):
        deco = " [peripheries=2]" if v in singletons else ""
        out.append(f"  {v}{deco};")
    hub = 0
    for vs in (_bits.mask_bits(e, 1) for e in sorted_masks(h.masks).tolist()):
        if len(vs) == 1:
            continue
        if len(vs) == 2:
            out.append(f"  {vs[0]} -- {vs[1]};")
        else:
            out.append(f'  h{hub} [shape=point, label=""];')
            out.extend(f"  h{hub} -- {v};" for v in vs)
            hub += 1
    out.append("}")
    return "\n".join(out) + "\n"
