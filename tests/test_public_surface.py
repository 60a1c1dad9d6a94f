"""Every public function of the package is reached by a command or named in
README's "Library API" section, and no library-only entry is reached.

A recorder wraps each public module-level function of the traced modules
wherever the package binds it: the defining module, every module that
imported it by name (``from .hypergraph import neighbour_masks``) and the
package itself, as perfbench/tracing.py's ``Tracer.install`` does.  Then
every subcommand runs in-process through ``cli.main`` on small inputs, and
the functions called along the way are the reached ones.
"""

import contextlib
import functools
import inspect
import io
import sys

import pytest

import hgsim
from hgsim import boolfn, cli, statesim
from test_benchmark_rows import ROW_FUNCTIONS
from test_readme_api import BENCHMARK_PINNED, LIBRARY_ONLY, PACKAGE_ENTRIES

MODULES = ("cli", "hypergraph", "boolfn", "statesim", "extract", "entanglement", "orbits", "_bits")

GRAPH = "n 4\ne 1\ne 2 3\ne 1 2 4\ne 1 2 3 4\n"
TABLE = "n 3\nEA\n"

# One argv per run; {graph}, {table} and {dump} are input files.
RUNS = [
    ["build", "{graph}"],
    ["extract", "{table}", "--method", "layered"],
    ["extract", "{table}", "--method", "fast"],
    ["extract", "{dump}", "--method", "both"],
    ["verify", "{graph}"],
    ["classify", "{graph}"],
    ["classify", "--table", "{table}"],
    ["entangle", "{graph}"],
    ["entangle", "{table}"],
    ["entangle", "{dump}"],
    ["orbit", "--n", "3"],
    ["count", "--n", "3"],
    ["count", "--n", "3", "--k", "2"],
    ["dot", "{graph}"],
    ["selftest"],
]


def public_functions() -> dict[str, object]:
    """`module.name` -> function, for each public function a traced module defines."""
    out = {}
    for short in MODULES:
        module = sys.modules[f"hgsim.{short}"]
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
                continue
            if getattr(obj, "__module__", None) == module.__name__:
                out[f"{short}.{name}"] = obj
    return out


PUBLIC = public_functions()
QUALNAMES = {id(fn): name for name, fn in PUBLIC.items()}


def qualname(entry: str) -> str | None:
    """The `module.name` of the public function a README entry names, if it names one."""
    return QUALNAMES.get(id(resolve(entry)))


def resolve(entry: str):
    """The object a README entry names: `hgsim.X`, `module.name` or `module.Class.member`."""
    if entry.startswith("hgsim."):
        return getattr(hgsim, entry.removeprefix("hgsim."))
    module, *path = entry.split(".")
    return functools.reduce(getattr, path, sys.modules[f"hgsim.{module}"])


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """The `module.name` of every public function some command calls."""
    tmp = tmp_path_factory.mktemp("surface")
    files = {"graph": GRAPH, "table": TABLE, "dump": statesim.dump(boolfn.from_text(TABLE))}
    for name, text in files.items():
        (tmp / name).write_text(text)
    paths = {name: str(tmp / name) for name in files}
    calls = set()

    def record(name, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            calls.add(name)
            return fn(*args, **kwargs)

        return recorded

    wrapped = {id(fn): record(name, fn) for name, fn in PUBLIC.items()}
    # the parser binds each command's function when it is built, so it is
    # rebuilt under the recorder and again after it
    cli.build_parser.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            for module in [hgsim, *(sys.modules[f"hgsim.{m}"] for m in MODULES)]:
                for name, obj in list(vars(module).items()):
                    if id(obj) in wrapped:
                        mp.setattr(module, name, wrapped[id(obj)])
            for argv in RUNS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main([arg.format(**paths) for arg in argv])
                assert (code, err.getvalue()) == (0, ""), argv
    finally:
        cli.build_parser.cache_clear()
    return calls


def choices(parser, dest: str) -> dict | tuple:
    """The choices of a parser's argument (argparse keeps no public index of them)."""
    (action,) = [a for a in parser._actions if a.dest == dest]
    return action.choices


def test_every_subcommand_has_a_run():
    assert set(choices(cli.build_parser(), "command")) == {argv[0] for argv in RUNS}


def test_every_extract_method_has_a_run():
    methods = {argv[argv.index("--method") + 1] for argv in RUNS if "--method" in argv}
    assert methods == set(choices(choices(cli.build_parser(), "command")["extract"], "method"))


def test_every_public_function_is_reached_or_named(reached):
    # a function a benchmark row names is checked against the pinned list below
    named = {qualname(e) for e in PACKAGE_ENTRIES + LIBRARY_ONLY}
    unnamed = sorted(set(PUBLIC) - reached - named - set(ROW_FUNCTIONS))
    assert not unnamed, f"reached by no command and not named in README: {unnamed}"


def test_no_library_only_entry_is_reached(reached):
    listed = sorted(reached & {qualname(e) for e in LIBRARY_ONLY + BENCHMARK_PINNED})
    assert not listed, f"listed in README as library-only, but reached: {listed}"


def test_the_library_only_list_is_the_unreached_functions(reached):
    listed = {qualname(e) for e in LIBRARY_ONLY} - {None}
    assert sorted(listed) == sorted(set(PUBLIC) - reached - set(ROW_FUNCTIONS))


def test_every_benchmark_row_function_is_reached_or_pinned(reached):
    unpinned = sorted(set(ROW_FUNCTIONS) - reached - {qualname(e) for e in BENCHMARK_PINNED})
    assert not unpinned, f"named by a benchmark row, reached by no command, not pinned: {unpinned}"
    stale = sorted({qualname(e) for e in BENCHMARK_PINNED} - (set(ROW_FUNCTIONS) - reached))
    assert not stale, f"pinned in README, but named by no row or reached: {stale}"
