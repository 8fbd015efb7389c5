"""Every module-level name of the package is used, or exported.

A private function, class or constant (a module-level name that starts
with one underscore) is internal by convention, so code outside the
package has no business keeping it alive.  One that no other statement of
``wavekin`` reads is dead: it was superseded or lost its last caller, and
it goes.  Tests may read private names, but do not count as a use.

A public function or class that no other statement of ``wavekin`` reads
is there for callers outside the package, so its module lists it in
``__all__``, which declares the package's API.  A check or oracle that
only tests read is not API: it belongs in the tests, not in the library.

A test's patch of a module's name, ``monkeypatch.setattr(module, "name",
...)`` or the ``_spy`` of ``test_fundsol.py``, acts only where that module
reads the name.  One on a module that holds the name only as an import,
a re-export or a binding no statement reads, is dead: the code under test
runs as if unpatched, and the test passes whatever that code does.
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


def _unexported(sources):
    """'file:line name' of each public module-level function or class
    that no other module-level statement of the files {filename: source}
    reads and that its module's ``__all__`` does not list."""
    stmts = [(filename, stmt) for filename, source in sorted(sources.items())
             for stmt in ast.parse(source, filename).body]
    reads = [_read(stmt) for _, stmt in stmts]
    exported = {filename: set(ast.literal_eval(stmt.value))
                for filename, stmt in stmts
                if isinstance(stmt, ast.Assign)
                and any(isinstance(tgt, ast.Name) and tgt.id == "__all__"
                        for tgt in stmt.targets)}
    found = []
    for i, (filename, stmt) in enumerate(stmts):
        if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and not stmt.name.startswith("_")
                and stmt.name not in exported.get(filename, ())
                and not any(stmt.name in other
                            for j, other in enumerate(reads) if j != i)):
            found.append(f"{filename}:{stmt.lineno} {stmt.name}")
    return found


def _wavekin_aliases(tree):
    """{alias: module} of the wavekin modules a file imports by name."""
    aliases = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "wavekin":
            aliases.update((a.asname or a.name, a.name) for a in stmt.names)
    return aliases


def _dead_patches(tests, sources):
    """'file:line module.name' of each patch of a wavekin module's name in
    the test files {filename: source} whose module, in the package files
    {filename: source}, reads the name in no module-level statement other
    than an import."""
    reads = {filename[:-3]: set().union(*(
        _read(stmt) for stmt in ast.parse(source, filename).body
        if not isinstance(stmt, (ast.Import, ast.ImportFrom))))
        for filename, source in sources.items()}
    found = []
    for filename, source in sorted(tests.items()):
        tree = ast.parse(source, filename)
        aliases = _wavekin_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and (
                    node.func.attr == "setattr"):
                target = node.args[:2]
            elif isinstance(node.func, ast.Name) and node.func.id == "_spy":
                target = node.args[1:3]
            else:
                continue
            if (len(target) == 2 and isinstance(target[0], ast.Name)
                    and target[0].id in aliases
                    and isinstance(target[1], ast.Constant)
                    and isinstance(target[1].value, str)):
                module, name = aliases[target[0].id], target[1].value
                if name not in reads.get(module, ()):
                    found.append(f"{filename}:{node.lineno} {module}.{name}")
    return found


def _sources(directory):
    sources = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.py"))):
        with open(path) as fh:
            sources[os.path.basename(path)] = fh.read()
    return sources


def _package_sources():
    return _sources(os.path.dirname(os.path.abspath(wavekin.__file__)))


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
    assert _dead_helpers(_package_sources()) == []


def test_the_scan_finds_an_unexported_public_name():
    sources = {
        "a.py": ("__all__ = ['route']\n"
                 "def route():\n"
                 "    return helper()\n"
                 "def helper():\n"
                 "    return 1\n"
                 "def check_route():\n"
                 "    return route() - 1\n"
                 "class Spec:\n"
                 "    pass\n"
                 "def _private():\n"
                 "    return 2\n"),
        "b.py": ("import a\n"
                 "def caller(spec: a.Spec):\n"
                 "    return a.route()\n"),
    }
    assert _unexported(sources) == ["a.py:6 check_route", "b.py:2 caller"]


def test_every_unread_public_name_is_exported():
    assert _unexported(_package_sources()) == []


def test_the_scan_finds_a_dead_patch():
    sources = {
        "a.py": ("from b import helper\n"
                 "_LIMIT = 3\n"
                 "def route(x):\n"
                 "    return helper(x) + _LIMIT\n"),
        "b.py": ("def helper(x):\n"
                 "    return x\n"),
    }
    tests = {
        "test_a.py": ("from wavekin import a, b\n"
                      "def test_route(monkeypatch):\n"
                      "    monkeypatch.setattr(a, '_LIMIT', 0)\n"
                      "    monkeypatch.setattr(a, 'helper', abs)\n"
                      "    monkeypatch.setattr(b, 'helper', abs)\n"
                      "    _spy(monkeypatch, a, 'helper', [])\n"
                      "    _spy(monkeypatch, b, 'helper', [])\n"),
    }
    assert _dead_patches(tests, sources) == [
        "test_a.py:5 b.helper", "test_a.py:7 b.helper"]


def test_no_patch_is_dead():
    tests = _sources(os.path.dirname(os.path.abspath(__file__)))
    assert _dead_patches(tests, _package_sources()) == []
