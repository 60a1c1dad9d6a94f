"""Genuine-multipartite geometric entanglement via bipartition spectra.

The measure is 1 minus the largest squared overlap with any biseparable
pure state.  For a fixed cut that overlap equals the top eigenvalue of the
reduced density operator, so the measure is deterministic linear algebra:
enumerate the 2**(n-1) - 1 bipartitions, take the worst cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _bits
from .boolfn import StateVector
from .statesim import _signs_to_pm1

MAX_QUBITS = 12
_BLOCK_ENTRIES = 1 << 14  # amplitudes gathered per block of cuts in the sweep


def reduced_density(s: StateVector, subsystem) -> np.ndarray:
    """Partial trace onto a vertex subset; real symmetric.

    It is the cut's integer Gram divided by 2**n, so every entry is exact
    and the trace is exactly 1.0.  Row index r encodes the j-th smallest
    kept qubit at bit j-1, matching the global label convention.
    """
    mask = _bits.mask_from_vertices(subsystem, s.n)
    k = mask.bit_count()
    if not 1 <= k < s.n:
        raise ValueError("subsystem must satisfy 1 <= |A| <= n-1")
    rows, cols = _deposits([mask], s.n, k)
    return _grams(_signs_to_pm1(s.signs, s.n), rows, cols)[0] / (1 << s.n)


def _deposits(cuts, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols): the labels of each cut's side (k vertices) and of its
    complement, so cut j's matrix entry (r, c) is at label rows[j, r] | cols[j, c]."""
    cuts = np.asarray(cuts, dtype=np.int64)
    return _bits.deposit(cuts, k), _bits.deposit(~cuts & ((1 << n) - 1), n - k)


def _grams(pm1: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The Gram matrix of each cut in a stack over a state's +-1 signs, from
    one gather: 2**n times the reduced density, every entry an exact integer."""
    m = np.take(pm1, rows[:, :, None] | cols[:, None, :])
    return m @ m.transpose(0, 2, 1)


def lambda_max(matrix: np.ndarray) -> float | np.ndarray:
    """Largest eigenvalue of a matrix (a float) or of each in a stack (..., m, m)
    (an array); raises unless each has a row and is finite and exactly Hermitian."""
    matrix = np.asarray(matrix)
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2] or matrix.shape[-1] == 0:
        raise ValueError(f"expected a square matrix with a row, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError("matrix is not finite")
    if not (matrix == np.swapaxes(matrix, -1, -2).conj()).all():
        raise ValueError("matrix is not Hermitian")
    top = np.linalg.eigvalsh(matrix)[..., -1]
    return float(top) if matrix.ndim == 2 else top


def _cut_classes(n: int):
    """(k, the cuts with |A| = k as a uint64 array) for k = 1..n//2: one
    vertex mask per bipartition, by |A| <= n/2 (ties keep vertex 1), then mask."""
    for k in range(1, n // 2 + 1):
        side = _bits.set_bits(_bits.weight_mask(n, k))
        yield k, side[(side & 1) == 1] if 2 * k == n else side


@dataclass(frozen=True)
class BipartitionReport:
    """Per-cut top reduced eigenvalue and the resulting measure."""

    n: int
    cuts: tuple[tuple[int, float], ...]  # (vertex mask of A, lambda_max)

    @property
    def lambda_star(self) -> float:
        return max(lam for _, lam in self.cuts)

    @property
    def e2(self) -> float:
        return 1.0 - self.lambda_star

    def to_text(self) -> str:
        lines = [f"cut {mask} lambda {lam:.12g}" for mask, lam in self.cuts]
        lines.append(f"E2 {self.e2:.12g}")
        return "\n".join(lines) + "\n"


def genuine_multipartite_geometric(s: StateVector) -> BipartitionReport:
    """Worst-cut report; the measure is 1 - max over cuts of lambda_max.

    The cuts of one size go in blocks of at most _BLOCK_ENTRIES amplitudes:
    one gather, one stacked integer Gram and one lambda_max call (it takes a
    stack) per block, then one division of its top eigenvalues by 2**n.  That
    scaling is exact, so every lambda equals lambda_max(reduced_density(s, A)).
    """
    if s.n < 2:
        raise ValueError("entanglement needs at least two qubits")
    if s.n > MAX_QUBITS:
        raise ValueError(f"bipartition sweep is capped at n={MAX_QUBITS}")
    pm1 = _signs_to_pm1(s.signs, s.n)
    step = _BLOCK_ENTRIES >> s.n  # cuts per block, at least 4 under the cap
    cuts = []
    for k, side in _cut_classes(s.n):
        rows, cols = _deposits(side, s.n, k)
        for lo in range(0, len(side), step):
            grams = _grams(pm1, rows[lo:lo + step], cols[lo:lo + step])
            top = lambda_max(grams) / (1 << s.n)
            cuts += zip(side[lo:lo + step].tolist(), top.tolist())
    return BipartitionReport(s.n, tuple(cuts))
