"""Involutivity through delta-cohomology tables.

The gradient operator and the zero operator pass at every tested level;
the pair u_xx = 0, u_tt = 0 fails: its symbol needs one prolongation, and
the table shows a one-dimensional class at level 2.
"""

from cdcalc import (
    CDiffOp, DiffPoly, JetContext, dbar_operator, delta_map, is_involutive,
)
from cdcalc.linalg import rank
from cdcalc.ops import ScalarCDiffOp

for names in ("x t", "x y z"):
    ctx = JetContext.free(names, "u")
    result = is_involutive(dbar_operator(ctx, 0), 3, seed=0)
    print(f"gradient over ({names}): involutive up to",
          result.report.involutive_up_to)

ctx = JetContext.free("x t", "u")
print("zero operator:",
      "involutive" if is_involutive(CDiffOp.zero(ctx, 1, 1), 3, seed=0).involutive
      else "not involutive")

one = DiffPoly.const(1)
pair = CDiffOp(ctx, [[ScalarCDiffOp({(0, 0): one})],
                     [ScalarCDiffOp({(1, 1): one})]])
result = is_involutive(pair, 3, seed=0)
print("\nu_xx = 0, u_tt = 0:")
for l, row in enumerate(result.report.dims):
    print(f"  l={l}:", row)
print("  first failure at (l, i):", result.failure)

# the delta complex itself: on full modules it is exact in positive degree
print("\ndelta maps on full modules, n=2, symmetric degree 2:")
d0 = delta_map(2, 1, 2, 0)
d1 = delta_map(2, 1, 1, 1)
print(f"  dims {d0.domain_dim} -> {d0.codomain_dim} -> {d1.codomain_dim},",
      f"ranks {rank(d0.matrix)}, {rank(d1.matrix)}")
square = [[sum(x * y for x, y in zip(row, col)) for col in zip(*d0.matrix)]
          for row in d1.matrix]
print("  delta o delta = 0:", all(x == 0 for row in square for x in row))
