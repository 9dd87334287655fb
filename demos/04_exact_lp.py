#!/usr/bin/env python3
"""Exact LP over integer rows with certificates you can re-check by hand.

Rows are integers; witnesses, multipliers and optima are exact rationals.
One solve, ``min_l1``, answers every LP, and every answer comes with
evidence: infeasible systems yield a nonnegative combination of rows that
adds up to an impossibility, and L1 optima a witness (verified by
substitution) and dual multipliers proving no feasible point weighs less.
Branch and bound starts from that solve's outcome.
"""

from fractions import Fraction

from ptflab import (
    LpError,
    LpProblem,
    check_farkas,
    check_l1_bound,
    check_witness,
    ilp_min,
    min_l1,
)

print("=== infeasibility with a combination certificate ===")
pr = LpProblem(1)
pr.add({0: 1}, ">=", 1)
pr.add({0: 1}, "<=", 0)
out = min_l1(pr)
print("status:", out.status, " multipliers:", out.farkas)
print("re-checked by exact row combination:", check_farkas(pr, out.farkas))

print()
print("=== L1 minimization through the dual ===")
pr = LpProblem(2)
pr.add({0: 1, 1: 1}, ">=", 2)
pr.add({0: 1, 1: -1}, ">=", 2)
out = min_l1(pr)
print("min |c1|+|c2|:", out.value, "at", out.witness)
print("lower-bound certificate verifies:", check_l1_bound(pr, out.dual, out.value))
print("witness satisfies every row:", check_witness(pr, out.witness))

print()
print("=== integer minimum by branch and bound ===")
pr = LpProblem(1)
pr.add({0: 2}, ">=", 3)  # 2x >= 3
root = min_l1(pr)
res = ilp_min(root)
print(f"relaxation {root.value} -> integer optimum {res.value} at {res.witness}")

print()
print("=== rows are integers ===")
pr = LpProblem(2)
pr.add({0: 1, 1: 2}, ">=", 5)
print("rows [a | b], each a . x >= b:", pr.constraints.tolist())
try:
    pr.add({0: Fraction(1, 2)}, ">=", 0)
except LpError as err:
    print("a rational row entry is refused:", err)
