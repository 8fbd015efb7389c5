"""What the package's modules load and expose.

The package imports none of the heavy scipy subpackages: scipy.signal
(with the scipy.stats it loads), scipy.integrate and scipy.interpolate
took most of a cold start.  No file of the package imports
scipy.integrate at all, not even inside a function: the quadratures that
use it are test oracles, and they live in the tests.  And every name that
the benchmark's tracer patches exists on the module it patches.
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
            "import wavekin.bfunc, wavekin.ufunc, wavekin.fundsol, "
            "wavekin.kernels\n"
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
