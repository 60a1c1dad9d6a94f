"""The per-layer rows of BENCHMARK.json name functions the package still has.

The benchmark's tracer wraps each public function of the traced modules and
reports `<module>.<function>.<metric>` rows; a row whose function is gone
makes its report fail.  This test only reads the JSON.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from hgsim import _bits

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
FUNCTION_ROWS = [
    row["name"]
    for row in json.loads(BENCHMARK.read_text())["per_layer"]
    if row["name"].count(".") == 2
]


def row_function(row: str) -> str:
    """The `module.function` a row names; "bits" is the hgsim._bits module."""
    module, function, _ = row.split(".")
    return f"{'_bits' if module == 'bits' else module}.{function}"


ROW_FUNCTIONS = sorted({row_function(row) for row in FUNCTION_ROWS})


@pytest.mark.parametrize("row", FUNCTION_ROWS)
def test_function_row_names_a_public_function(row):
    module_name, function = row_function(row).split(".")
    module = importlib.import_module(f"hgsim.{module_name}")
    obj = getattr(module, function, None)
    assert callable(obj) and not inspect.isclass(obj) and not function.startswith("_")
    assert obj.__module__ == module.__name__


def test_weight_mask_keeps_its_cache_statistics():
    # the hit_ratio row reads them
    assert callable(_bits.weight_mask.cache_info)
