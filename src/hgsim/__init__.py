"""Exact simulator and analysis toolkit for quantum hypergraph states.

Build states from hypergraphs, recover the unique hypergraph behind any
+-1 equally weighted state, verify the flip-type correlation operators
that stabilize these states, classify edge-order uniformity, enumerate
local-Pauli orbits, and compute the genuine-multipartite geometric
entanglement from bipartition spectra.
"""

from .boolfn import StateVector, mobius_transform, truth_table_from_hex
from .entanglement import BipartitionReport, genuine_multipartite_geometric
from .errors import FormatError
from .extract import BalanceReport, classify_balance, extract_fast, extract_layered
from .hypergraph import Hypergraph, UniformityClass, count_states
from .orbits import OrbitKey, class_inequivalence_report, local_pauli_orbit
from .statesim import StabilizerOperator, build_state

__version__ = "0.1.0"

__all__ = [
    "BalanceReport",
    "BipartitionReport",
    "FormatError",
    "Hypergraph",
    "OrbitKey",
    "StabilizerOperator",
    "StateVector",
    "UniformityClass",
    "build_state",
    "class_inequivalence_report",
    "classify_balance",
    "count_states",
    "extract_fast",
    "extract_layered",
    "genuine_multipartite_geometric",
    "local_pauli_orbit",
    "mobius_transform",
    "truth_table_from_hex",
]
