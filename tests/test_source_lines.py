"""No line of the package source is over 99 characters, no private
module-level name of the package goes unused, and no cache of the package is
keyed by a graph, a table or a state."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hgsim"
MAX_LINE = 99


def test_no_source_line_is_over_99_characters():
    long = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long == []


def private_definitions(source: str) -> list[str]:
    """The private (`_x`, not dunder) names a module defines at its top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def test_every_private_name_is_used_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    package = "\n".join(sources.values())
    unused = [
        f"{module}: {name}"
        for module, source in sources.items()
        for name in private_definitions(source)
        if len(re.findall(rf"\b{re.escape(name)}\b", package)) < 2  # the definition is one
    ]
    assert unused == []


CACHES = {"cache", "lru_cache"}
CACHE_KEY_TYPES = {"int", "str", "bool", "tuple[str, ...]"}


def _is_cache(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")
    return name in CACHES


def cache_key_faults(source: str) -> list[str]:
    """`function(parameter: annotation)` of each parameter of a function
    decorated with functools.cache or lru_cache whose annotation is not one
    of CACHE_KEY_TYPES.  A cache keyed by its input would let an in-process
    benchmark loop time cache hits instead of work."""
    faults = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not any(map(_is_cache, node.decorator_list)):
            continue
        params = node.args
        for arg in [*params.posonlyargs, *params.args, *params.kwonlyargs,
                    *filter(None, [params.vararg, params.kwarg])]:
            annotation = ast.unparse(arg.annotation) if arg.annotation else "no annotation"
            if annotation not in CACHE_KEY_TYPES:
                faults.append(f"{node.name}({arg.arg}: {annotation})")
    return faults


def test_caches_are_keyed_only_by_sizes_and_text_pieces():
    faults = [
        f"{path.name}: {fault}"
        for path in sorted(SRC.glob("*.py"))
        for fault in cache_key_faults(path.read_text())
    ]
    assert faults == []


@pytest.mark.parametrize(
    "source",
    [
        "@functools.cache\ndef f(h: Hypergraph) -> int: ...",
        "@lru_cache(maxsize=8)\ndef f(n: int, masks: np.ndarray) -> int: ...",
        "@cache\ndef f(n: int, *, s) -> int: ...",
        "@functools.lru_cache\ndef f(*tables: int, **kw: StateVector) -> int: ...",
    ],
)
def test_an_input_keyed_cache_is_found(source):
    assert cache_key_faults(source) != []
