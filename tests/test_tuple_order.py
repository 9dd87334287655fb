"""Orderings: comparator vs independent oracle, snake structure, and the
symbolic replay of the coefficient-domination bookkeeping."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptflab import (
    OrderContext,
    OrderError,
    compare,
    dominance_chain,
    enumerate_ordered,
    from_ordinals,
    make_shape,
    oracle_compare,
    ordinal,
    ordinals,
    order_bits,
)
from shape_reference import all_tuples

WEAK = lambda *ks: make_shape("weak", ks)
STRONG = lambda *ks: make_shape("strong", ks)

ACCEPTANCE_SHAPES = [
    WEAK(2, 3),
    WEAK(2, 2, 3),
    WEAK(4, 3),
    STRONG(3, 3),
    STRONG(5, 3),
]


# ---------------------------------------------------------------------------
# ordinals
# ---------------------------------------------------------------------------


def test_first_coordinate_ordinal_is_identity():
    ctx = OrderContext(WEAK(5, 2))
    for j in range(1, 6):
        assert ordinal(ctx, (j, 1), 1) == j


def test_reversed_ordering_ordinals():
    # ordering k, k-1, ..., 1: the value 3 comes first when k = 3
    ctx = OrderContext(WEAK(2, 3))
    assert ctx.ordinal_in(2, 0, 3) == 1
    assert ctx.ordinal_in(2, 0, 2) == 2
    assert ctx.ordinal_in(2, 0, 1) == 3


def test_strong_orderings_keep_zero_smallest():
    ctx = OrderContext(STRONG(5, 3))
    assert ctx.ordinal_in(1, 0, 0) == 1
    assert ctx.ordinal_in(1, 0, 4) == 2
    assert ctx.ordinal_in(1, 0, 1) == 5
    assert ctx.ordinal_in(1, 1, 0) == 1
    assert ctx.ordinal_in(1, 1, 4) == 5


def test_ordinal_follows_the_chain():
    # in column 2 of the weak grid the second coordinate is compared reversed
    ctx = OrderContext(WEAK(2, 3))
    assert ordinal(ctx, (2, 3), 2) == 1
    assert ordinal(ctx, (1, 3), 2) == 3


# ---------------------------------------------------------------------------
# compare and enumerate
# ---------------------------------------------------------------------------


def test_snake_2x2():
    ctx = OrderContext(WEAK(2, 2))
    assert enumerate_ordered(ctx) == [(1, 1), (1, 2), (2, 2), (2, 1)]


def test_snake_columns_alternate():
    # odd columns ascend in the second coordinate, even columns descend
    for shape in (WEAK(3, 3), WEAK(4, 5)):
        ctx = OrderContext(shape)
        seq = enumerate_ordered(ctx)
        k1, k2 = shape.ks
        for col in range(1, k1 + 1):
            part = [b for a, b in seq if a == col]
            assert part == (list(range(1, k2 + 1)) if col % 2 else list(range(k2, 0, -1)))


def test_strong_snake_3x3():
    ctx = OrderContext(STRONG(3, 3))
    assert enumerate_ordered(ctx) == [
        (0, 1), (0, 2), (0, 3),
        (1, 3), (1, 2), (1, 1),
        (2, 1), (2, 2), (2, 3),
    ]


def test_compare_reflexive_and_matches_enumeration():
    for shape in ACCEPTANCE_SHAPES:
        ctx = OrderContext(shape)
        seq = enumerate_ordered(ctx)
        assert len(seq) == shape.size_K
        assert len(set(seq)) == shape.size_K
        for a in seq:
            assert compare(ctx, a, a) == 0
        for a, b in zip(seq, seq[1:]):
            assert compare(ctx, a, b) == -1
            assert compare(ctx, b, a) == 1


def test_compare_agrees_with_oracle_on_all_pairs():
    for shape in ACCEPTANCE_SHAPES + [WEAK(4, 4, 3), STRONG(5, 5, 3)]:
        ctx = OrderContext(shape)
        for a, b in itertools.product(all_tuples(shape), repeat=2):
            assert compare(ctx, a, b) == oracle_compare(ctx, a, b), (shape, a, b)


def test_total_order_axioms_exhaustive():
    for shape in (WEAK(2, 3), WEAK(3, 3), STRONG(3, 3), WEAK(2, 2, 2)):
        ctx = OrderContext(shape)
        K = all_tuples(shape)
        for a, b in itertools.product(K, repeat=2):
            cab, cba = compare(ctx, a, b), compare(ctx, b, a)
            assert cab == -cba
            assert (cab == 0) == (a == b)
        for a, b, c in itertools.product(K, repeat=3):
            if compare(ctx, a, b) <= 0 and compare(ctx, b, c) <= 0:
                assert compare(ctx, a, c) <= 0


def test_ordinal_vectors_biject_k_onto_the_box_in_oracle_order():
    for shape in ACCEPTANCE_SHAPES + [STRONG(3, 3, 3), WEAK(2, 2, 2)]:
        ctx = OrderContext(shape)
        K = all_tuples(shape)
        vectors = [ordinals(ctx, a) for a in K]
        for a, rs in zip(K, vectors):
            assert from_ordinals(ctx, rs) == a
        box = itertools.product(*(range(1, k + 1) for k in shape.ks))
        assert sorted(vectors) == list(box)
        by_oracle = sorted(K, key=functools.cmp_to_key(lambda a, b: oracle_compare(ctx, a, b)))
        assert enumerate_ordered(ctx) == by_oracle


def test_from_ordinals_reads_prefixes_and_rejects_bad_vectors():
    ctx = OrderContext(STRONG(3, 3, 3))
    assert from_ordinals(ctx, ()) == ()
    assert from_ordinals(ctx, (2,)) == (1,)
    assert from_ordinals(ctx, (2, 2)) == (1, 2)  # reversed after an even ordinal
    for rs in [(0,), (4,), (1, 1, 1, 1)]:
        with pytest.raises(OrderError):
            from_ordinals(ctx, rs)


def test_enumeration_cap():
    # |K| = 1 010 000: refused before any tuple is built
    with pytest.raises(OrderError, match="exceeds enumeration cap 1000000"):
        enumerate_ordered(OrderContext(WEAK(100, 100, 101)))


def test_tuples_out_of_range_rejected():
    ctx = OrderContext(WEAK(2, 3))
    with pytest.raises(OrderError):
        compare(ctx, (0, 1), (1, 1))
    with pytest.raises(OrderError):
        ordinal(ctx, (1, 4), 2)
    with pytest.raises(OrderError):
        compare(ctx, (1, 1, 1), (1, 1, 1))
    # the oracle checks K against its own literal orderings
    for a, b in [((0, 1), (1, 1)), ((1, 1), (1, 4)), ((1, 1, 1), (1, 1, 1)), ((1,), (1, 1))]:
        with pytest.raises(OrderError):
            oracle_compare(ctx, a, b)
    with pytest.raises(OrderError):
        oracle_compare(OrderContext(STRONG(3, 3)), (3, 1), (0, 1))
    # the accessors take coordinates 1..d only: 0 is not the last one
    strong = OrderContext(STRONG(5, 3))
    for i in (0, 3, -1):
        with pytest.raises(OrderError):
            strong.value_at(i, 1, 1)
        with pytest.raises(OrderError):
            strong.ordinal_in(i, 1, 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_compare_oracle_random_shapes(data):
    variant = data.draw(st.sampled_from(["weak", "strong"]))
    d = data.draw(st.integers(1, 3))
    lo = 1 if variant == "weak" else 2
    ks = tuple(data.draw(st.integers(lo, 5)) for _ in range(d))
    shape = make_shape(variant, ks)
    ctx = OrderContext(shape)
    K = all_tuples(shape)
    idx = st.integers(0, len(K) - 1)
    a, b, c = K[data.draw(idx)], K[data.draw(idx)], K[data.draw(idx)]
    assert compare(ctx, a, b) == oracle_compare(ctx, a, b)
    if compare(ctx, a, b) <= 0 and compare(ctx, b, c) <= 0:
        assert compare(ctx, a, c) <= 0


# ---------------------------------------------------------------------------
# the domination chain replay
# ---------------------------------------------------------------------------


def expected_factor(shape, l):
    kd = shape.ks[-1]
    prod = 1
    for i in range(l, shape.d):
        k = shape.ks[i - 1]
        prod *= k if shape.variant.value == "weak" else k - 1
    return 2 ** ((kd - 2) * prod)


def test_chain_endpoints_weak():
    for shape in (WEAK(2, 3), WEAK(2, 2, 3), WEAK(4, 3), WEAK(2, 4, 3)):
        ctx = OrderContext(shape)
        for l in range(1, shape.d + 1):
            ch = dominance_chain(ctx, l)
            assert ch.factor == expected_factor(shape, l)
            assert ch.beta[l - 1] == shape.ks[l - 1] - ch.alpha[l - 1] + 1
            for i in range(shape.d):
                if i != l - 1:
                    assert ch.beta[i] == ch.alpha[i]
            # moves are single-coordinate and gains multiply up
            prod = 1
            for step in ch.steps:
                changed = [i for i in range(shape.d) if step.before[i] != step.after[i]]
                assert len(changed) == 1
                prod *= step.factor
            assert prod == ch.factor


def test_chain_endpoints_strong():
    for shape in (STRONG(3, 3), STRONG(5, 3), STRONG(3, 3, 3)):
        ctx = OrderContext(shape)
        for l in range(1, shape.d + 1):
            ch = dominance_chain(ctx, l)
            assert ch.factor == expected_factor(shape, l)
            delta = 1 if l == shape.d else 0
            assert ch.beta[l - 1] == shape.ks[l - 1] - ch.alpha[l - 1] + delta
            for i in range(shape.d):
                if i != l - 1:
                    assert ch.beta[i] == ch.alpha[i]


def test_chain_entry_tuple_weak():
    # every coordinate of the start tuple sits at ordinal 1
    shape = WEAK(2, 2, 3)
    ctx = OrderContext(shape)
    ch = dominance_chain(ctx, 1)
    for i in range(1, shape.d + 1):
        assert ordinal(ctx, ch.alpha, i) == 1


def test_chain_entry_tuple_strong():
    # interior coordinates enter at ordinal 2, the last at ordinal 1
    shape = STRONG(3, 3, 3)
    ctx = OrderContext(shape)
    ch = dominance_chain(ctx, 1)
    for i in range(1, shape.d):
        assert ordinal(ctx, ch.alpha, i) == 2
    assert ordinal(ctx, ch.alpha, shape.d) == 1


def test_chain_requires_parity_hypotheses():
    # odd interior sizes break the weak bookkeeping, even ones the strong
    with pytest.raises(OrderError):
        dominance_chain(OrderContext(WEAK(3, 3)), 1)
    with pytest.raises(OrderError):
        dominance_chain(OrderContext(STRONG(4, 3)), 1)


def test_order_bits_consistency():
    shape = STRONG(3, 3)
    ctx = OrderContext(shape)
    assert order_bits(ctx, (0, 1)) == (1, 1)
    assert order_bits(ctx, (1, 1)) == (1, 0)
