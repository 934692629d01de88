"""The explicit pass in O(nnz(A)) time.

Untouched dual coordinates only drift by -gamma*d_i per iteration, so the
pass never needs to form the full dual vector: each coordinate is
materialized on demand when a column's support asks for it.  This script
times the lazy pass (``RunConfig(lazy=True)``) while the nonzero count
grows 100x at fixed n, checks that the default dense pass gives
bitwise-identical output, and prints the timing table.  Both passes run
on the engine ``explicit_engine()`` names: the compiled kernel, or the
numpy loop where no C compiler is available.
"""

import time
from dataclasses import replace

import numpy as np

from onlinelp import MkpParams, RunConfig, generate_mkp, solve_online
from onlinelp.online import explicit_engine

n = 10_000
rows = ((10, 0.1), (100, 0.1), (1000, 0.1))   # nnz ~ 1e4, 1e5, 1e6

print(f"explicit engine: {explicit_engine()}")
print(f"{'m':>6} {'nnz':>9} {'lazy (s)':>9} {'dense (s)':>10}  identical?")
for m, sigma in rows:
    instance = generate_mkp(MkpParams(m=m, n=n, tightness=0.25,
                                      density=sigma, seed=3))
    config = RunConfig(method="explicit", seed=3)
    t0 = time.perf_counter()
    lazy = solve_online(instance, replace(config, lazy=True))
    t_lazy = time.perf_counter() - t0
    t0 = time.perf_counter()
    dense = solve_online(instance, config)
    t_dense = time.perf_counter() - t0
    same = (np.array_equal(lazy.x_hat, dense.x_hat)
            and np.array_equal(lazy.y_final, dense.y_final))
    print(f"{m:>6} {instance.nnz:>9} {t_lazy:>9.3f} {t_dense:>10.3f}  {same}")

print("\nLazy cost follows nnz + n (the per-column bookkeeping floor); the "
      "dense pass pays O(m) per column and falls behind as m grows.")
