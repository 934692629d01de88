"""Test-session setup shared by ``tests/`` and ``perfbench/``.

One BLAS thread unless the environment says otherwise, set before numpy
loads: the simplex's LU and matrix-vector calls are small, and with
OpenBLAS's default thread count they slow many times over when another
process holds the machine's other cores.

The filter that turns scipy's ``LinAlgWarning`` into an error is added
here rather than in ``pyproject.toml``: pytest resolves an ini filter's
category, and so imports scipy and numpy, before it loads this file.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error::scipy.linalg.LinAlgWarning")
