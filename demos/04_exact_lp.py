#!/usr/bin/env python3
"""Exact LP over integer rows with certificates you can re-check by hand.

Rows are integers; witnesses, multipliers and optima are exact rationals.
Every answer the solver gives comes with evidence: feasible systems yield
a witness (verified by substitution), infeasible ones a nonnegative
combination of rows that adds up to an impossibility, and L1 optima carry
dual multipliers proving no feasible point weighs less.
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
    problem_to_text,
    solve,
)

print("=== infeasibility with a combination certificate ===")
pr = LpProblem(1)
pr.add({0: 1}, ">=", 1)
pr.add({0: 1}, "<=", 0)
out = solve(pr)
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
res = ilp_min(pr)
print(f"relaxation {res.relaxation} -> integer optimum {res.value} at {res.witness}")

print()
print("=== plain-text serialization for replay ===")
pr = LpProblem(2)
pr.add({0: 1, 1: 2}, ">=", 5)
print(problem_to_text(pr), end="")
try:
    pr.add({0: Fraction(1, 2)}, ">=", 0)
except LpError as err:
    print("a rational row entry is refused:", err)
