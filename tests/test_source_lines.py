"""No line of the package source is over 99 characters, and no cache of
the package is keyed by a graph, a table or a state."""

import ast
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
