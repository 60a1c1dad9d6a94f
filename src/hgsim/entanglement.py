"""Genuine-multipartite geometric entanglement via bipartition spectra.

The measure is 1 minus the largest squared overlap with any biseparable
pure state.  For a fixed cut that overlap equals the top eigenvalue of the
reduced density operator, so the measure is deterministic linear algebra:
enumerate the 2**(n-1) - 1 bipartitions, take the worst cut.

``product_overlap`` is a separate diagnostic: an alternating single-site
optimizer that lower-bounds the best overlap with a *fully product* state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _bits
from .statesim import DEFAULT_SEED, StateVector, _signs_to_pm1

MAX_QUBITS = 12
ATOL_HERMITIAN = 1e-10
ATOL_LAMBDA = 1e-10
SWEEP_TOL = 1e-12


def _subsystem_matrix(psi: np.ndarray, n: int, qubits: list[int]) -> np.ndarray:
    """Reshape amplitudes into (subsystem labels) x (environment labels).

    Row index r encodes the j-th smallest kept qubit at bit j-1, matching
    the global label convention.
    """
    rest = [q for q in range(1, n + 1) if q not in qubits]
    # axis of qubit q in the [2]*n tensor is n - q (axis 0 = most significant)
    order = [n - q for q in sorted(qubits, reverse=True)] + [
        n - q for q in sorted(rest, reverse=True)
    ]
    return psi.reshape([2] * n).transpose(order).reshape(1 << len(qubits), -1)


def reduced_density(s: StateVector, subsystem) -> np.ndarray:
    """Partial trace onto a vertex subset; real symmetric for sign-backend states.

    Sign-backend entries are sums of +-1/2**n terms, all exactly
    representable, so the trace is exactly 1.0 there.
    """
    qubits = sorted(set(subsystem))
    if not qubits or len(qubits) >= s.n:
        raise ValueError("subsystem must satisfy 1 <= |A| <= n-1")
    if not all(1 <= q <= s.n for q in qubits):
        raise ValueError(f"subsystem {qubits} out of range 1..{s.n}")
    return _reduced_density(_entries(s), s, qubits)


def _entries(s: StateVector) -> np.ndarray:
    """The raw +-1 signs of a sign-backend state, else its amplitudes."""
    return _signs_to_pm1(s.signs, s.n) if s.backend == "sign" else s.amps


def _reduced_density(entries: np.ndarray, s: StateVector, qubits: list[int]) -> np.ndarray:
    """reduced_density on the array from _entries(s), for sorted valid qubits."""
    m = _subsystem_matrix(entries, s.n, qubits)
    if s.backend == "sign":
        # Gram matrix over raw +-1 entries, then one power-of-two division:
        # every entry is a dyadic rational, computed without rounding.
        return (m @ m.T) / s.dim
    return m @ m.conj().T


def lambda_max(matrix: np.ndarray) -> float:
    """Largest eigenvalue of a Hermitian matrix."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(matrix - matrix.conj().T)) > ATOL_HERMITIAN:
        raise ValueError("matrix is not Hermitian within tolerance")
    return float(np.linalg.eigvalsh(matrix)[-1])


def bipartition_masks(n: int) -> list[int]:
    """One vertex-mask per bipartition, by |A| <= n/2 (ties keep vertex 1), then mask."""
    masks = []
    for size in range(1, n // 2 + 1):
        side = _bits.set_bits(_bits.weight_mask(n, size))
        masks += [m for m in side if m & 1] if 2 * size == n else side
    return masks


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
    """Worst-cut report; the measure is 1 - max over cuts of lambda_max."""
    if s.n < 2:
        raise ValueError("entanglement needs at least two qubits")
    if s.n > MAX_QUBITS:
        raise ValueError(f"bipartition sweep is capped at n={MAX_QUBITS}")
    entries = _entries(s)
    cuts = []
    for mask in bipartition_masks(s.n):
        cuts.append((mask, lambda_max(_reduced_density(entries, s, _bits.mask_bits(mask, 1)))))
    return BipartitionReport(s.n, tuple(cuts))


def _als_run(
    psi: np.ndarray, n: int, rng: np.random.Generator, sweeps: int
) -> tuple[float, list[float]]:
    """One alternating-optimization run from a random product start.

    Returns the best squared overlap and its full per-update history (the
    history is non-decreasing up to roundoff).
    """
    tensor = psi.reshape([2] * n)
    sites = []
    for _ in range(n):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        sites.append(v / np.linalg.norm(v))
    letters = "abcdefghijklmnopqrst"  # covers the 20-qubit backend cap
    history: list[float] = []
    value = 0.0
    for _ in range(sweeps):
        start = value
        for q in range(1, n + 1):
            # contract every site but q; axis of qubit q is n - q
            subs = [letters[:n]]
            args = []
            for r in range(1, n + 1):
                if r == q:
                    continue
                subs.append(letters[n - r])
                args.append(sites[r - 1].conj())
            env = np.einsum(
                ",".join(subs) + "->" + letters[n - q], tensor, *args
            )
            norm = np.linalg.norm(env)
            if norm > 0.0:
                sites[q - 1] = env / norm
            value = norm * norm
            history.append(value)
        if value - start < SWEEP_TOL:
            break
    return value, history


def product_overlap(
    s: StateVector,
    restarts: int = 32,
    sweeps: int = 200,
    seed: int = DEFAULT_SEED,
) -> float:
    """Lower bound on the best squared overlap with a full product state."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = np.random.default_rng(seed)
    psi = s.dense_array()
    return max(_als_run(psi, s.n, rng, sweeps)[0] for _ in range(restarts))
