"""What the package's modules load and expose.

The package imports none of the heavy scipy subpackages: scipy.signal
(with the scipy.stats it loads), scipy.integrate and scipy.interpolate
took most of a cold start.  Only the kernels' quadrature oracle uses
scipy.integrate, imported inside that function, and a test function
loads none of them.  And every name that the benchmark's tracer patches
exists on the module it patches.
"""

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
