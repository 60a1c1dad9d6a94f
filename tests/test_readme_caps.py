"""Each row of the README "Conventions" cap table states its constant's value.

The table is the one place a qubit cap is written down in prose, so its
value column must match the constant it names.
"""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
# | cap | n <= 64 or n in 3..6 | `module.CONSTANT` | applies to |
ROW = re.compile(r"^\| [^|]+ \| n (?:<= (\d+)|in (\d+)\.\.(\d+)) \| `(\w+)\.(\w+)` \|")
CAP_ROWS = [m for m in map(ROW.match, README.read_text().splitlines()) if m]


def test_the_cap_table_has_every_cap():
    assert [f"{m[4]}.{m[5]}" for m in CAP_ROWS] == [
        "hypergraph.MAX_VERTICES",
        "boolfn.MAX_QUBITS",
        "entanglement.MAX_QUBITS",
        "orbits.REPORT_QUBITS",
        "orbits.MAX_QUBITS",
    ]


@pytest.mark.parametrize("row", CAP_ROWS, ids=lambda m: f"{m[4]}.{m[5]}")
def test_cap_row_states_the_constant(row):
    value = getattr(importlib.import_module(f"hgsim.{row[4]}"), row[5])
    if row[1] is not None:
        assert value == int(row[1])
    else:
        assert tuple(value) == tuple(range(int(row[2]), int(row[3]) + 1))
