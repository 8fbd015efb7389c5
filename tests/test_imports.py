"""What the package's modules load and expose.

The package imports none of the heavy scipy subpackages: scipy.signal
(with the scipy.stats it loads), scipy.integrate and scipy.interpolate
took most of a cold start.  No file of the package imports
scipy.integrate at all, not even inside a function: the quadratures that
use it are test oracles, and they live in the tests.  The package's
modules import one another one way only, so any of them imports first.
And every name that the benchmark's tracer patches exists on the module
it patches.
"""

import ast
import glob
import os
import subprocess
import sys

import wavekin

HEAVY = ("scipy.signal", "scipy.integrate", "scipy.interpolate", "scipy.stats")


def test_import_loads_no_heavy_scipy_subpackage():
    src = os.path.dirname(os.path.dirname(os.path.abspath(wavekin.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys\n"
            "import wavekin.integrals, wavekin.asymptotic, wavekin.bfunc, "
            "wavekin.ufunc, wavekin.fundsol, wavekin.kernels\n"
            "phi = wavekin.fundsol.TestFunction.bump(0.5, 3.0)\n"
            "phi(1.2), phi.deriv(1.2)\n"
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


def _imported_modules(source):
    """Every module an import statement anywhere in source names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names |= {f"{node.module}.{alias.name}" for alias in node.names}
    return names


def test_no_module_imports_scipy_integrate():
    package = os.path.dirname(os.path.abspath(wavekin.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path) as fh:
            names = _imported_modules(fh.read())
        found += [f"{os.path.basename(path)}: {name}" for name in sorted(names)
                  if name.split(".")[:2] == ["scipy", "integrate"]]
    assert found == []
    assert {"scipy.integrate", "scipy.integrate.quad"} <= _imported_modules(
        "def f():\n    from scipy.integrate import quad\n"
        "    import scipy.integrate\n")
    assert "scipy.integrate" in _imported_modules("from scipy import integrate")


def _import_graph(sources):
    """{module: the wavekin modules its module-level imports name}, for
    the package files {filename: source}."""
    graph = {}
    for filename, source in sources.items():
        deps = set()
        for stmt in ast.parse(source, filename).body:
            if isinstance(stmt, ast.Import):
                names = [alias.name for alias in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and stmt.module:
                names = [stmt.module] + [f"{stmt.module}.{alias.name}"
                                         for alias in stmt.names]
            else:
                continue
            deps |= {name.split(".")[1] for name in names
                     if name.split(".")[0] == "wavekin" and "." in name}
        graph[filename[:-3]] = deps & {f[:-3] for f in sources}
    return graph


def _cycle(graph):
    """One cycle of the graph {node: successors} as a closed path, or []."""
    done, path = set(), []

    def visit(node):
        path.append(node)
        for dep in sorted(graph[node]):
            if dep in path:
                return path[path.index(dep):] + [dep]
            if dep not in done:
                found = visit(dep)
                if found:
                    return found
        done.add(path.pop())
        return []

    for node in sorted(graph):
        found = [] if node in done else visit(node)
        if found:
            return found
    return []


def test_the_scan_finds_an_import_cycle():
    sources = {"a.py": "from wavekin.b import f\n",
               "b.py": "import wavekin.c\nimport numpy\n",
               "c.py": "from wavekin import a, errors\n",
               "d.py": "import wavekin\n"}
    graph = _import_graph(sources)
    assert graph == {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}
    assert _cycle(graph) == ["a", "b", "c", "a"]
    sources["c.py"] = "def f():\n    from wavekin import a\n"
    assert _cycle(_import_graph(sources)) == []


def test_imports_form_no_cycle():
    package = os.path.dirname(os.path.abspath(wavekin.__file__))
    sources = {}
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path) as fh:
            sources[os.path.basename(path)] = fh.read()
    graph = _import_graph(sources)
    assert graph["fundsol"] >= {"asymptotic", "integrals", "line"}
    assert _cycle(graph) == []


def test_tracer_patches_every_name_it_names(monkeypatch):
    # perfbench's --trace 1 wraps these names; one that the library drops
    # or renames would fail only inside a traced benchmark run
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    from bench_trace import Tracer

    from wavekin import bfunc, complexfn, fundsol, ufunc

    before = ufunc.eval_U
    tracer = Tracer()
    try:
        tracer.install(complexfn, bfunc, ufunc, fundsol)
        ufunc.eval_U(0.5, 1.2, evaluator=bfunc.BEvaluator())
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"ufunc.eval_U", "bfunc.eval_B",
            "contour.integrate_vertical.ufunc"} <= names
    assert ufunc.eval_U is before
