"""The explicit pass in O(nnz(A)) time.

Untouched dual coordinates only drift by -gamma*d_i per iteration, so the
pass never needs to form the full dual vector: each coordinate is
materialized on demand when a column's support asks for it.  This script
times the pass while the nonzero count grows 100x at fixed n and prints
its time per (nnz + n), the per-column bookkeeping floor included.  The
pass runs on the engine ``explicit_engine()`` names: the compiled kernel,
or the numpy loop where no C compiler is available.
"""

import time

from onlinelp import MkpParams, RunConfig, generate_mkp, solve_online
from onlinelp.online import explicit_engine

n = 10_000
rows = ((10, 0.1), (100, 0.1), (1000, 0.1))   # nnz ~ 1e4, 1e5, 1e6

print(f"explicit engine: {explicit_engine()}")
print(f"{'m':>6} {'nnz':>9} {'time (s)':>9} {'ns per (nnz + n)':>17}")
for m, sigma in rows:
    instance = generate_mkp(MkpParams(m=m, n=n, tightness=0.25,
                                      density=sigma, seed=3))
    t0 = time.perf_counter()
    solve_online(instance, RunConfig(method="explicit", seed=3))
    elapsed = time.perf_counter() - t0
    print(f"{m:>6} {instance.nnz:>9} {elapsed:>9.3f} "
          f"{1e9 * elapsed / (instance.nnz + n):>17.1f}")

print("\nWhile nnz grows 100x the time per (nnz + n) does not grow: the pass "
      "does O(nnz + n) work, never O(m) per column.")
