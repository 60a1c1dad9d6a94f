"""The README "Library API" list names the package's public names.

The section holds three lists: the `hgsim.X` entries, which are
`hgsim.__all__` in order, the library-only entries, and the entries kept
for a `BENCHMARK.json` row.  Every entry of the last two (`module.name`, or
`module.Class.member`) resolves, so a public name cannot appear or vanish
without README saying so.  So does every other dotted name README puts in
backticks (`hgsim.X`, `module.name`, `ExportedClass.member`, a dataclass
field counting as a member).
"""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import hgsim

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SECTION = README.read_text().split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
# Each list is one paragraph of `- ` lines: the exports first, then the
# library-only functions, then those kept for a row (its lead-in names
# BENCHMARK.json).
BLOCKS = SECTION.split("\n\n")
LISTS = [
    ("BENCHMARK.json" in lead, re.findall(r"^- `([\w.]+)`", block, flags=re.M))
    for lead, block in zip(BLOCKS, BLOCKS[1:])
    if block.startswith("- ")
]
PACKAGE_ENTRIES = LISTS[0][1]
LIBRARY_ONLY = [e for pinned, entries in LISTS[1:] if not pinned for e in entries]
BENCHMARK_PINNED = [e for pinned, entries in LISTS[1:] if pinned for e in entries]
MODULE_ENTRIES = LIBRARY_ONLY + BENCHMARK_PINNED


def test_the_package_entries_are_hgsim_all():
    assert [e.removeprefix("hgsim.") for e in PACKAGE_ENTRIES] == hgsim.__all__
    assert all(hasattr(hgsim, name) for name in hgsim.__all__)


def test_the_library_only_entries_are_listed():
    assert LIBRARY_ONLY and BENCHMARK_PINNED  # the lists below the exports are not lost
    assert not any(e.startswith("hgsim.") for e in MODULE_ENTRIES)


# Every list entry, and every other dotted name in backticks but the repo's
# own files (`pyproject.toml`).
DOTTED = {
    name
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text())
    if not (ROOT / name).exists()
}


def members(obj) -> set[str]:
    """The attribute names of obj, a dataclass's fields included."""
    fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
    return set(dir(obj)) | {field.name for field in fields}


@pytest.mark.parametrize("entry", sorted(DOTTED.union(MODULE_ENTRIES)))
def test_module_entry_resolves(entry):
    head, *path = entry.split(".")
    if head == "hgsim":
        obj = hgsim
    elif head in hgsim.__all__:
        obj = getattr(hgsim, head)
    else:
        obj = importlib.import_module(f"hgsim.{head}")  # ModuleNotFoundError if it is gone
    for name in path:
        assert name in members(obj), entry
        obj = getattr(obj, name, None)
