#!/usr/bin/env python3
"""Walk through the snake ordering on coordinate tuples.

Shows the boustrophedon path for two groups, how the ordinal of one
coordinate decides the direction of the next, and the primed orderings of
the strong variant where 0 is always the smallest element.  Each tuple's
ordinal vector is printed beside it: the snake order is their
lexicographic order.
"""

from ptflab import (
    OrderContext,
    compare,
    dominance_chain,
    enumerate_ordered,
    make_shape,
    oracle_compare,
    ordinal,
    ordinals,
)

print("=== weak shape (4, 3): the 2-d snake ===")
shape = make_shape("weak", (4, 3))
ctx = OrderContext(shape)
seq = enumerate_ordered(ctx)
for col in range(1, 5):
    row = [str(t) for t in seq if t[0] == col]
    direction = "up" if col % 2 else "down"
    print(f"column {col} ({direction}): " + " -> ".join(row))

print()
print("ordinal bookkeeping: (2, 3) sits at position", seq.index((2, 3)) + 1)
print("second coordinate of (2, 3) has ordinal", ordinal(ctx, (2, 3), 2), "in its column")
print("second coordinate of (1, 3) has ordinal", ordinal(ctx, (1, 3), 2), "in its column")

print()
print("=== strong shape (5, 3): 0 is always smallest ===")
strong = make_shape("strong", (5, 3))
sctx = OrderContext(strong)
print("ascending ordering of the first group:", [sctx.value_at(1, 1, r) for r in range(1, 6)])
print("reversed ordering of the first group: ", [sctx.value_at(1, 0, r) for r in range(1, 6)])
print("full enumeration, each tuple beside its ordinal vector (in lexicographic order):")
for rank, t in enumerate(enumerate_ordered(sctx), start=1):
    print(f"  {rank:2d}  {t}  ordinals {ordinals(sctx, t)}")

print()
print("=== comparator and its independent oracle agree ===")
pairs = [((1, 1), (2, 3)), ((2, 3), (2, 1)), ((3, 2), (3, 2))]
for a, b in pairs:
    print(f"compare{a, b} = {compare(ctx, a, b)} == oracle {oracle_compare(ctx, a, b)}")

print()
print("=== the coefficient-domination chain ===")
for variant, ks in (("weak", (2, 3)), ("strong", (3, 3))):
    ch = dominance_chain(OrderContext(make_shape(variant, ks)), 1)
    print(f"{variant}{ks}: any gate must satisfy w_{ch.beta} >= {ch.factor} * w_{ch.alpha}")
    for step in ch.steps:
        what = "sweep last coordinate" if step.kind == "scale" else "advance one ordinal"
        print(f"  {step.before} -> {step.after}  ({what}, factor {step.factor})")
