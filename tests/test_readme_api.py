"""The README "Library API" list names the package's public names.

Its `hgsim.X` entries are `hgsim.__all__`, in order, and every other entry
(`module.name`, or `module.Class.member`) resolves, so a public name cannot
appear or vanish without README saying so.
"""

import importlib
import re
from pathlib import Path

import pytest

import hgsim

README = Path(__file__).resolve().parents[1] / "README.md"
SECTION = README.read_text().split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
ENTRIES = re.findall(r"^- `([\w.]+)`", SECTION, flags=re.M)
PACKAGE_ENTRIES = [e.removeprefix("hgsim.") for e in ENTRIES if e.startswith("hgsim.")]
MODULE_ENTRIES = [e for e in ENTRIES if not e.startswith("hgsim.")]


def test_the_package_entries_are_hgsim_all():
    assert PACKAGE_ENTRIES == hgsim.__all__
    assert all(hasattr(hgsim, name) for name in hgsim.__all__)


def test_the_library_only_entries_are_listed():
    assert MODULE_ENTRIES  # the list below the exports is not lost


@pytest.mark.parametrize("entry", MODULE_ENTRIES)
def test_module_entry_resolves(entry):
    module, *path = entry.split(".")
    obj = importlib.import_module(f"hgsim.{module}")
    for name in path:
        obj = getattr(obj, name)  # AttributeError if the name is gone
