"""The package imports none of the heavy scipy subpackages.

scipy.signal (with the scipy.stats it loads), scipy.integrate and
scipy.interpolate took most of a cold start; the modules that use the
last two import them inside the one function that needs each.
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
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
