"""Fixed reference work, timed around every measurement it rescales.

The machine this benchmark runs on is shared, and the speed it gives one
process drifts by tens of percent over seconds.  The reference work does
the kinds of work qpd does without calling qpd, so its time tracks that
drift but not a change to qpd.

- ``kernel_seconds`` runs after every item: small numpy calls behind
  Python checks, vectorised exp over a 1e5-point grid, scalar brentq
  callbacks.  Item times are rescaled by NOMINAL_S / (kernel time
  around the item).
- ``import_seconds`` runs around every set-up probe: a fresh interpreter
  imports a fixed set of standard-library packages, which is the kind
  of work importing qpd, numpy and scipy is.  Set-up times are rescaled
  by NOMINAL_IMPORT_S / (import time around the probe).
"""

import math
import subprocess
import sys
import time

import numpy as np
from scipy.optimize import brentq

#: Kernel time that defines one normalised second; a fixed constant,
#: near the kernel's time on an unloaded 2-core x86-64 sandbox.
NOMINAL_S = 0.04

#: Import time that defines one nominal second of set-up; a fixed
#: constant, near the import time on an unloaded 2-core x86-64 sandbox.
NOMINAL_IMPORT_S = 0.1
#: Imported by the import reference, in an interpreter of its own.
IMPORT_MODULES = ("asyncio", "unittest.mock", "http.server", "xmlrpc.client",
                  "email.mime.multipart", "logging.config", "pydoc",
                  "doctest", "tomllib", "zoneinfo", "sqlite3",
                  "xml.dom.minidom")

_B = np.array([[1.0, 0.2], [0.2, 1.0]])
_LAM = np.array([0.5, 0.5])
_GRID = np.linspace(1e-9, 9.0, 100_000)


def _small_arrays():
    x = np.array([1.0, 1.2])
    for _ in range(2000):
        y = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(y)) or np.any(y <= 0.0):
            raise ArithmeticError("reference orbit left the orthant")
        x = y * np.exp(_LAM - 0.4 * np.exp(_B @ np.log(y)))


def _grid():
    for _ in range(8):
        g = _GRID * np.exp(3.0 - _GRID)
        g * np.exp(3.0 - g)


def _scalar_roots():
    for k in range(600):
        brentq(lambda y: y * math.exp(3.0 - y) - 1.0 - k * 1e-3, 1.0, 20.0,
               xtol=1e-14)


def kernel_seconds() -> float:
    start = time.perf_counter()
    _small_arrays()
    _grid()
    _scalar_roots()
    return time.perf_counter() - start


def import_seconds() -> float:
    """Time importing IMPORT_MODULES in a fresh interpreter."""
    code = ("import time; start = time.perf_counter(); import "
            + ", ".join(IMPORT_MODULES)
            + "; print(time.perf_counter() - start)")
    return float(subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, timeout=120).stdout)
