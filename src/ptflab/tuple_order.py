"""The recursive snake ordering on coordinate tuples.

Tuples in K = range(k_1) x ... x range(k_d) are compared coordinate by
coordinate, but the ordering used at each coordinate is *not* fixed: after
agreeing on a value at coordinate l, the next coordinate is compared in the
ascending ("type 1") ordering when that value's ordinal number was odd and
in the reversed ("type 0") ordering when it was even.  The first coordinate
always uses the type-1 ordering.  For d = 2 this traces the boustrophedon
path through the grid: odd columns go up, even columns come back down.

Weak shapes use values 1..k with orderings
    type 1:  1, 2, ..., k          type 0:  k, k-1, ..., 1
Strong shapes use values 0..k-1 on every group before the last, with 0 as
the smallest element of both orderings:
    type 1:  0, 1, ..., k-1        type 0:  0, k-1, k-2, ..., 1
and the last group keeps the weak orderings on 1..k.

Two tuples that agree up to coordinate i use the same ordering at i, so the
snake order is the lexicographic order of *ordinal vectors*: the ordinal of
each coordinate in the ordering that governs it.  ``ordinals`` maps a tuple
to its ordinal vector and ``from_ordinals`` maps one (or a prefix of one)
back; everything else reads the order through these two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .shapes import GroupShape, Variant

ENUMERATION_CAP = 1_000_000  # the most tuples ``enumerate_ordered`` lists


class OrderError(ValueError):
    """Tuple outside K, or a structural invariant of the order failed."""


@dataclass(frozen=True)
class OrderContext:
    """The two orderings of each coordinate of one shape.

    ``orderings[i - 1][bit]`` lists coordinate i's type-``bit`` ordering from
    smallest to largest.  ``ordinal_in(i, bit, v)`` is the 1-based position
    of value v in it; ``value_at`` is its inverse.
    """

    shape: GroupShape
    orderings: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pairs = []
        for i, k in enumerate(self.shape.ks, start=1):
            if self.shape.variant is Variant.STRONG and i < self.shape.d:
                pairs.append(((0, *range(k - 1, 0, -1)), tuple(range(k))))
            else:
                pairs.append((tuple(range(k, 0, -1)), tuple(range(1, k + 1))))
        object.__setattr__(self, "orderings", tuple(pairs))

    def _ordering(self, i: int, bit: int) -> tuple:
        """Coordinate i's type-``bit`` ordering; ``OrderError`` for an i
        outside 1..d (0 would read the last coordinate)."""
        if not 1 <= i <= len(self.orderings):
            raise OrderError(f"coordinate index {i} out of range")
        return self.orderings[i - 1][bit]

    def ordinal_in(self, i: int, bit: int, value: int) -> int:
        seq = self._ordering(i, bit)
        try:
            return seq.index(value) + 1
        except ValueError:
            raise OrderError(f"value {value} not in coordinate {i}") from None

    def value_at(self, i: int, bit: int, ordinal: int) -> int:
        seq = self._ordering(i, bit)
        if not 1 <= ordinal <= len(seq):
            raise OrderError(f"ordinal {ordinal} out of range at coordinate {i}")
        return seq[ordinal - 1]


def ordinals(ctx: OrderContext, a: tuple[int, ...]) -> tuple[int, ...]:
    """Ordinal of each coordinate of ``a`` in the ordering that governs it."""
    if len(a) != ctx.shape.d:
        raise OrderError(f"tuple {a} has wrong arity for {ctx.shape.describe()}")
    rs = []
    bit = 1
    for i, v in enumerate(a, start=1):
        try:
            rs.append(ctx.orderings[i - 1][bit].index(v) + 1)
        except ValueError:
            raise OrderError(f"coordinate {i} value {v} out of range in {a}") from None
        bit = rs[-1] % 2
    return tuple(rs)


def from_ordinals(ctx: OrderContext, rs: tuple[int, ...]) -> tuple[int, ...]:
    """The tuple (or prefix of one) whose ordinal vector is ``rs``."""
    if len(rs) > ctx.shape.d:
        raise OrderError(f"ordinal vector {rs} is too long for {ctx.shape.describe()}")
    vals = []
    bit = 1
    for i, r in enumerate(rs, start=1):
        vals.append(ctx.value_at(i, bit, r))
        bit = r % 2
    return tuple(vals)


def order_bits(ctx: OrderContext, a: tuple[int, ...]) -> tuple[int, ...]:
    """Ordering types (0/1) governing each coordinate of tuple ``a``."""
    return (1, *(r % 2 for r in ordinals(ctx, a)[:-1]))


def ordinal(ctx: OrderContext, a: tuple[int, ...], l: int) -> int:
    """Ordinal number of a's l-th coordinate in its governing ordering."""
    if not 1 <= l <= ctx.shape.d:
        raise OrderError(f"coordinate index {l} out of range")
    return ordinals(ctx, a)[l - 1]


def compare(ctx: OrderContext, a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """-1, 0 or +1 as ``a`` is below, equal to, or above ``b``."""
    ra, rb = ordinals(ctx, a), ordinals(ctx, b)
    return (ra > rb) - (ra < rb)


def enumerate_ordered(ctx: OrderContext) -> list[tuple[int, ...]]:
    """All of K in strictly ascending order; ``OrderError`` before any tuple
    is built when |K| is past ``ENUMERATION_CAP``."""
    if ctx.shape.size_K > ENUMERATION_CAP:
        raise OrderError(f"|K| = {ctx.shape.size_K} exceeds enumeration cap {ENUMERATION_CAP}")
    boxes = (range(1, k + 1) for k in ctx.shape.ks)
    return [from_ordinals(ctx, rs) for rs in itertools.product(*boxes)]


def oracle_compare(ctx: OrderContext, a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Independent re-implementation of ``compare`` straight from the prose.

    Used only for cross-validation in tests; shares no tables with the
    production comparator.  Builds each ordering as a literal sequence and
    recurses on the tuples.
    """
    shape = ctx.shape

    def seq(i: int, which: str) -> list[int]:
        k = shape.ks[i]
        if shape.variant is Variant.STRONG and i < shape.d - 1:
            if which == "asc":
                return [v for v in range(k)]
            return [0] + [k - 1 - t for t in range(k - 1)]
        if which == "asc":
            return [v for v in range(1, k + 1)]
        return [k - t for t in range(k)]

    for t in (a, b):
        if len(t) != shape.d or any(v not in seq(i, "asc") for i, v in enumerate(t)):
            raise OrderError(f"tuple {t} is not in K for {shape.describe()}")

    def rec(i: int, which: str) -> int:
        if i == shape.d:
            return 0
        s = seq(i, which)
        pa, pb = s.index(a[i]) + 1, s.index(b[i]) + 1
        if pa < pb:
            return -1
        if pa > pb:
            return 1
        return rec(i + 1, "asc" if pa % 2 == 1 else "desc")

    return rec(0, "asc")


# ---------------------------------------------------------------------------
# Symbolic replay of the coefficient-domination chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    """One move of the domination bookkeeping.

    ``kind`` is "scale" when the last coordinate sweeps its whole ordering
    (coefficient grows by ``factor`` = 2^(k_d - 2)) and "step" when an
    earlier coordinate advances one ordinal (coefficient may not shrink).
    """

    kind: str
    before: tuple[int, ...]
    after: tuple[int, ...]
    factor: int


@dataclass(frozen=True)
class DominanceChain:
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    factor: int
    steps: tuple[ChainStep, ...]


def dominance_chain(ctx: OrderContext, l: int = 1) -> DominanceChain:
    """Replay the induction that pumps coefficient w_alpha up to w_beta.

    Starting from the tuple whose coordinates below l sit at ordinal 1 and
    whose coordinates l..d sit at their entry ordinals, alternately sweep the
    last coordinate (gaining 2^(k_d-2) per sweep) and advance coordinate l
    by one ordinal, tracking tuple values throughout.  Every structural claim
    of the argument is asserted along the way: coordinates above the active
    one must return to their entry ordinals after each advance, and the
    final tuple must differ from the start in coordinate l alone.  OrderError
    means the shape does not support the chain (e.g. parity hypotheses fail).
    """
    shape = ctx.shape
    d = shape.d
    if not 1 <= l <= d:
        raise OrderError(f"level {l} out of range")
    # Interior strong coordinates enter the chain one step up: their
    # single-coordinate monotonicity only covers ordinals 2..k.
    strong = shape.variant is Variant.STRONG
    entry = tuple(2 if strong and i < d else 1 for i in range(1, d + 1))
    state = alpha = from_ordinals(ctx, (1,) * (l - 1) + entry[l - 1 :])
    steps: list[ChainStep] = []

    def run(level: int) -> int:
        nonlocal state
        rs = ordinals(ctx, state)
        for i in range(level, d + 1):
            if rs[i - 1] != entry[i - 1]:
                raise OrderError(f"coordinate {i} at ordinal {rs[i - 1]}, expected {entry[i - 1]} (state {state})")
        k = shape.ks[level - 1]
        if level == d:
            before, state = state, from_ordinals(ctx, rs[:-1] + (k,))
            factor = 2 ** (k - 2)
            steps.append(ChainStep("scale", before, state, factor))
            return factor
        total = 1
        for rank in range(entry[level - 1], k + 1):
            total *= run(level + 1)
            if rank < k:
                before = state
                state = from_ordinals(ctx, rs[: level - 1] + (rank + 1,)) + state[level:]
                steps.append(ChainStep("step", before, state, 1))
        return total

    factor = run(l)

    beta = state
    delta = 1 if (shape.variant is Variant.WEAK or l == d) else 0
    expect_l = shape.ks[l - 1] - alpha[l - 1] + delta
    if beta[l - 1] != expect_l:
        raise OrderError(f"chain ended at {beta}, expected coordinate {l} = {expect_l}")
    for i in range(1, d + 1):
        if i != l and beta[i - 1] != alpha[i - 1]:
            raise OrderError(f"chain moved coordinate {i}: {alpha} -> {beta}")
    return DominanceChain(alpha, beta, factor, tuple(steps))
