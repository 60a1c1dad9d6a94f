"""Hypergraphs on 1-based vertices with edges of any order 1..n.

Edges are stored as label bitmasks (bit i-1 = vertex i), which gives a
canonical ordering for serialization and O(1) subset tests against basis
labels.  The text format is line oriented:

    # comment
    n 3
    e 1
    e 2 3
    e 1 2 3

Vertex indices on an `e` line must be strictly increasing; duplicate edges
are an error, not a silent toggle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Any, Callable, Iterable

import numpy as np

from . import _bits
from .errors import FormatError

MAX_VERTICES = 64


def edge_mask(vertices: Iterable[int], n: int) -> int:
    """Validate a vertex subset against 1..n and return its label mask."""
    vs = set(vertices)
    if not vs:
        raise ValueError("edge must be a nonempty vertex subset")
    for v in vs:
        if not (isinstance(v, int) and 1 <= v <= n):
            raise ValueError(f"vertex {v!r} out of range 1..{n}")
    return _bits.mask_from_vertices(vs)


@dataclass(frozen=True)
class Hypergraph:
    """Vertex count plus a set of hyperedges, each a label bitmask."""

    n: int
    edges: frozenset[int]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {self.n}")
        bad = _bits.first_bad_mask(self.edges, (1 << self.n) - 1, empty_ok=False)
        if bad is not None:
            raise ValueError(f"edge mask {bad:#x} invalid for n={self.n}")

    @classmethod
    def from_sets(cls, n: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        return cls(n, frozenset(edge_mask(e, n) for e in edges))

    def edge_sets(self) -> frozenset[frozenset[int]]:
        return frozenset(_bits.vertices_from_mask(e) for e in self.edges)

    def sorted_edges(self) -> list[int]:
        """Edges in canonical order: by size, then lexicographic vertex tuple."""
        return sorted_masks(self.edges, self.n)

    @cached_property
    def _edge_array(self) -> np.ndarray:
        """The edge masks as one uint64 array (every n <= 64 fits)."""
        return np.fromiter(self.edges, dtype=np.uint64, count=len(self.edges))

    def orders(self) -> frozenset[int]:
        return frozenset(e.bit_count() for e in self.edges)


@dataclass(frozen=True)
class UniformityClass:
    """Edge-order classification: empty, uniform of one order k, or mixed."""

    kind: str  # "empty" | "uniform" | "mixed"
    orders: frozenset[int]

    def __post_init__(self) -> None:
        if self.kind not in ("empty", "uniform", "mixed"):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.kind == "uniform" and len(self.orders) != 1:
            raise ValueError("uniform class must carry exactly one order")

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


class _HalfTable(dict):
    """Per-call table from one half of an edge mask to fmt(its vertices).

    Filled on first use, so it never holds more entries than there are
    edges, even where 2**(n/2) is far larger.
    """

    def __init__(self, fmt: Callable[[list[int]], Any], first: int) -> None:
        super().__init__()
        self.fmt = fmt
        self.first = first  # the vertex of the half's bit 0

    def __missing__(self, half: int) -> Any:
        value = self[half] = self.fmt(_bits.mask_bits(half, self.first))
        return value


def _edge_view(n: int, fmt: Callable[[list[int]], Any]) -> Callable[[int], Any]:
    """Edge mask -> fmt(ascending vertices), for a fmt that maps the
    concatenation of two vertex lists to the sum (+) of their values.

    The value is the sum of two table entries, keyed by the low and high
    ceil(n/2)-bit halves of the mask.
    """
    split = (n + 1) // 2
    low_mask = (1 << split) - 1
    low, high = _HalfTable(fmt, 1), _HalfTable(fmt, split + 1)
    return lambda e: low[e & low_mask] + high[e >> split]


def sorted_masks(masks: Iterable[int], n: int) -> list[int]:
    """Label masks below 2**n by size, then lexicographic vertex tuple.

    Among masks of one size, ascending vertex tuples are descending
    bit-reversed masks (vertex v -> bit n - v), so the sort key is
    size * 2**n - reversed mask; both terms are sums over the two halves.
    """
    key = _edge_view(n, lambda vs: (len(vs) << n) - sum(1 << (n - v) for v in vs))
    return sorted(masks, key=key)


def parse(text: str) -> Hypergraph:
    """Parse the edge-list text format; malformed or duplicate input raises."""
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
            vertex_bit = [0] + [1 << i for i in range(n)]  # vertex v -> bit v-1
        elif fields[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: edge before vertex-count line")
            if len(fields) == 1:
                raise FormatError(f"line {lineno}: empty edge")
            try:
                vs = list(map(int, fields[1:]))
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer vertex") from None
            # Sorted vertices in 1..n are valid iff they do not repeat, that
            # is iff their sum of powers of two has one bit per vertex.
            sorted_in_range = vs == sorted(vs) and 1 <= vs[0] and vs[-1] <= n
            mask = sum(map(vertex_bit.__getitem__, vs)) if sorted_in_range else 0
            if mask.bit_count() != len(vs):
                if any(a >= b for a, b in zip(vs, vs[1:])):
                    raise FormatError(f"line {lineno}: vertices must be strictly increasing")
                raise FormatError(f"line {lineno}: vertex out of range 1..{n}")
            if mask in edges:
                raise FormatError(f"line {lineno}: duplicate edge {vs}")
            edges.add(mask)
        else:
            raise FormatError(f"line {lineno}: unknown directive {fields[0]!r}")
    if n is None:
        raise FormatError("missing vertex-count line 'n <int>'")
    return Hypergraph(n, frozenset(edges))


def serialize(h: Hypergraph) -> str:
    text = _edge_view(h.n, lambda vs: "".join(f" {v}" for v in vs))
    lines = [f"n {h.n}"]
    lines.extend("e" + text(e) for e in h.sorted_edges())
    return "\n".join(lines) + "\n"


def toggle_edge(h: Hypergraph, vertices: Iterable[int]) -> Hypergraph:
    """Symmetric difference: remove the edge if present, add it if absent."""
    mask = edge_mask(vertices, h.n)
    return Hypergraph(h.n, h.edges ^ {mask})


def classify_uniformity(h: Hypergraph) -> UniformityClass:
    orders = h.orders()
    if not orders:
        return UniformityClass("empty", frozenset())
    if len(orders) == 1:
        return UniformityClass("uniform", orders)
    return UniformityClass("mixed", orders)


def neighbour_masks(h: Hypergraph, i: int) -> frozenset[int]:
    """The tuples completing vertex i to a hyperedge, as label masks (0 for
    the edge {i}): one vectorised selection over the edge array."""
    if not 1 <= i <= h.n:
        raise ValueError(f"vertex {i} out of range 1..{h.n}")
    edges = h._edge_array
    bit = np.uint64(1 << (i - 1))
    return frozenset((edges[(edges & bit) != 0] ^ bit).tolist())


def neighbourhood(h: Hypergraph, i: int) -> frozenset[frozenset[int]]:
    """The tuples completing vertex i to a hyperedge; empty tuple for the edge {i}."""
    return frozenset(map(_bits.vertices_from_mask, neighbour_masks(h, i)))


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
    singletons = {e.bit_length() for e in h.edges if e.bit_count() == 1}
    out = ["graph hypergraph {", "  node [shape=circle];"]
    for v in range(1, h.n + 1):
        deco = " [peripheries=2]" if v in singletons else ""
        out.append(f"  {v}{deco};")
    hub = 0
    vertices = _edge_view(h.n, tuple)
    for e in h.sorted_edges():
        vs = vertices(e)
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
