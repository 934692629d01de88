"""Exact solving with a warm-started sifting loop.

For n >> m, most columns never enter the optimal basis.  Sifting solves a
small working problem exactly, prices the remaining columns against its
dual, and grows the working set until nothing prices in.  The online pass
supplies only its final dual: it picks the initial working set (the m
columns with the largest reduced cost against it, as many as a basis
holds) and serves as a fixed dual anchor that damps pricing oscillation.
"""

import numpy as np

from onlinelp import (MkpParams, RunConfig, SiftConfig, basis_metrics, generate_mkp,
                      sift, solve_lp, solve_online)

params = MkpParams(m=50, n=20_000, tightness=0.05, density=0.1, seed=12)
instance = generate_mkp(params)
print(f"instance {params.label()}: {instance.num_rows} rows, "
      f"{instance.num_cols} columns")

# online pre-pass per the sifting recipe: explicit update, two copies
prepass = solve_online(instance, RunConfig(method="explicit", duplication=2,
                                           seed=12, start="ones", lazy=True))

# the direct solve's support is the exact basis that acc measures the seed against
direct = solve_lp(instance)
support = np.flatnonzero(direct.x_star > 1e-9)

for label, config in (
    ("anchored (alpha = 0.4)", SiftConfig(stabilization_alpha=0.4)),
    ("no anchor", SiftConfig(use_online_anchor=False)),
):
    result = sift(instance, prepass, config)
    acc, _ = basis_metrics(support, result.initial_working_set, instance.num_cols)
    print(f"\nsift, {label}:")
    print(f"  rounds {result.rounds}, final working set "
          f"{result.final_working_set.size} of {instance.num_cols} columns")
    print(f"  initial set kept {result.rdc:.2%} of columns "
          f"(acc vs exact basis: {acc:.2%})")
    print(f"  objective {result.objective:.4f}")
    for r in result.trace:
        print(f"    round {r.round}: |W| = {r.working_size:>5}, "
              f"priced in {r.priced:>4}, objective {r.objective:.4f}")

print(f"\ndirect simplex on all columns: {direct.obj:.4f} "
      f"({direct.iterations} pivots). Sifting reaches the same optimum "
      "while only ever factorizing small working problems.")
