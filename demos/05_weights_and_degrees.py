#!/usr/bin/env python3
"""End to end: sign-degree, exact minimal weight, lemma certification, and
the instance bound, all on the weak (2,3) family.

This is the whole argument in miniature.  The function needs degree 2 (the
degree-1 LP is infeasible, with a certificate), its minimal degree-2 gate
weight is computed exactly, and the coefficient inequalities that drive
the general lower bound are certified instance by instance.  One pipeline
call does all of it, solving the degree-2 LP once for the sign degree, the
LP weight and the branch-and-bound root.
"""

from ptflab import check_farkas, make_shape, run_shape

shape = make_shape("weak", (2, 3))
result = run_shape(shape)

print("=== every finding, in order ===")
for fd in result.findings:
    verdict = "" if fd.verdict is None else f"  [{fd.verdict}]"
    print(f"  {fd.metric}: {fd.value}{verdict}")

print()
print("=== sign-degree ===")
print("sign degree:", result.sign_degree)
for fd in result.findings:
    if fd.metric.startswith("signdeg_infeasible"):
        (problem, farkas), = fd.certificate.items
        print(f"  {fd.metric}: certificate re-checked: {check_farkas(problem, farkas)}")

print()
print("=== minimal weight at degree 2 ===")
print("LP relaxation (a valid lower bound):", result.lp_weight)
print("exact integer minimum:", result.exact_weight)
print("explicit gate weight for comparison:", result.gate_weight)
print("theorem bound for this instance:", result.theorem_value)

print()
print("=== the verdicts alone ===")
for metric, verdict in result.verdicts.items():
    print(f"  {metric}: {verdict}")
print("all verdicts hold:", result.ok)
