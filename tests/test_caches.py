"""No cache of the package outlives the evaluator it was filled from.

A functools.lru_cache (or functools.cache) on a function whose first
parameter is an evaluator is a module-level map keyed on that evaluator: it
keeps every evaluator it has seen alive, with its lattices, line
interpolants and tables.  Per-evaluator caches go through ``bfunc.memo``,
which stores them inside the evaluator.
"""

import ast
import glob
import os

import wavekin

EVALUATOR_PARAMS = ("ev", "evaluator", "self")


def _is_functools_cache(decorator):
    f = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
    return name in ("lru_cache", "cache")


def _evaluator_keyed_caches(source, filename):
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = node.args.posonlyargs + node.args.args
        if (params and params[0].arg in EVALUATOR_PARAMS
                and any(map(_is_functools_cache, node.decorator_list))):
            found.append(f"{filename}:{node.lineno} {node.name}")
    return found


def test_the_scan_finds_an_evaluator_keyed_cache():
    source = ("import functools\n"
              "@functools.lru_cache(maxsize=8)\n"
              "def _ledger(ev):\n"
              "    return ev.derived_constants()\n"
              "class E:\n"
              "    @functools.cache\n"
              "    def table(self, c):\n"
              "        return c\n"
              "@functools.lru_cache(maxsize=4)\n"
              "def _basis(deg):\n"
              "    return deg\n")
    assert _evaluator_keyed_caches(source, "m.py") == [
        "m.py:3 _ledger", "m.py:7 table"]


def test_no_functools_cache_is_keyed_on_an_evaluator():
    package = os.path.dirname(os.path.abspath(wavekin.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path) as fh:
            found += _evaluator_keyed_caches(fh.read(),
                                             os.path.basename(path))
    assert found == []
