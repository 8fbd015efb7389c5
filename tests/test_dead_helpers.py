"""Every private module-level name of the package is used by the package.

A private function, class or constant (a module-level name that starts
with one underscore) is internal by convention, so code outside the
package has no business keeping it alive.  One that no other statement of
``wavekin`` reads is dead: it was superseded or lost its last caller, and
it goes.  Tests may read private names, but do not count as a use.
"""

import ast
import glob
import os

import wavekin


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _defined(stmt):
    """The private names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [
            stmt.target]
        names = [n.id for tgt in targets for n in ast.walk(tgt)
                 if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if _private(n)]


def _read(stmt):
    """The names a statement reads, bare or as an attribute."""
    return ({n.id for n in ast.walk(stmt)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)})


def _dead_helpers(sources):
    """'file:line name' of each private module-level name that no other
    module-level statement of the files {filename: source} reads."""
    stmts = [(filename, stmt) for filename, source in sorted(sources.items())
             for stmt in ast.parse(source, filename).body]
    reads = [_read(stmt) for _, stmt in stmts]   # each statement walked once
    found = []
    for i, (filename, stmt) in enumerate(stmts):
        for name in _defined(stmt):
            if not any(name in other
                       for j, other in enumerate(reads) if j != i):
                found.append(f"{filename}:{stmt.lineno} {name}")
    return found


def test_the_scan_finds_a_dead_helper():
    sources = {
        "a.py": ("_USED = 2\n"
                 "_UNUSED = 3\n"
                 "def _recursive(n):\n"
                 "    return _recursive(n - 1) if n else _UNUSED\n"
                 "def _called_elsewhere():\n"
                 "    return _USED\n"
                 "class _Dead:\n"
                 "    pass\n"
                 "def public():\n"
                 "    return 1\n"),
        "b.py": ("from a import _called_elsewhere\n"
                 "import a\n"
                 "X = _called_elsewhere() + a._USED\n"),
    }
    assert _dead_helpers(sources) == ["a.py:3 _recursive", "a.py:7 _Dead"]


def test_no_private_helper_is_dead():
    package = os.path.dirname(os.path.abspath(wavekin.__file__))
    sources = {}
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path) as fh:
            sources[os.path.basename(path)] = fh.read()
    assert _dead_helpers(sources) == []
