"""Truth tables: comparators, all-equal detectors, and the composite hard
functions, cross-checked against literal re-implementations."""

import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptflab import (
    BoolFun,
    Convention,
    EvalError,
    OrderContext,
    ShapeError,
    assignment_of_index,
    index_of_assignment,
    make_g,
    make_gt,
    make_hard,
    make_shape,
    oracle_compare,
    order_bits,
)
from ptflab.boolfun import from_bits
from detector_reference import g_table
from shape_reference import all_tuples
from uv_reference import linear_forms


# ---------------------------------------------------------------------------
# comparators
# ---------------------------------------------------------------------------


def test_gt_single_bit():
    gt = make_gt(1)
    assert gt.eval((0, 1)) == 0
    assert gt.eval((1, 0)) == 1
    assert gt.eval((1, 1)) == 1
    assert gt.eval((0, 0)) == 1


def test_gt_msb_examples():
    gt = make_gt(2, "last")
    assert gt.eval((0, 1, 1, 0)) == 1  # x = 2 >= y = 1
    gt0 = make_gt(2, "first")
    assert gt0.eval((0, 1, 1, 0)) == 0  # x = 1 < y = 2


def int_of_bits(bits, weights):
    return sum(w for b, w in zip(bits, weights) if b)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5), st.data())
def test_gt_matches_integer_comparison(k, data):
    msb = data.draw(st.sampled_from(["last", "first"]))
    gt = make_gt(k, msb)
    weights = [1 << j for j in range(k)] if msb == "last" else [1 << (k - 1 - j) for j in range(k)]
    x = tuple(data.draw(st.integers(0, 1)) for _ in range(k))
    y = tuple(data.draw(st.integers(0, 1)) for _ in range(k))
    expected = 1 if int_of_bits(x, weights) >= int_of_bits(y, weights) else 0
    assert gt.eval(x + y) == expected


def test_gt_rejects_zero_width():
    with pytest.raises(ShapeError):
        make_gt(0)


# ---------------------------------------------------------------------------
# the all-equal detectors
# ---------------------------------------------------------------------------


def test_g1_cases():
    g1 = make_g(3, "g1")
    assert g1.eval((1, 1, 1)) == 1
    assert g1.eval((1, -1, 1)) == -1
    assert g1.eval((-1, -1, 1)) == -1


def test_g0_cases():
    g0 = make_g(3, "g0")
    assert g0.eval((-1, -1, -1)) == 1
    assert g0.eval((1, -1, -1)) == 1
    assert g0.eval((-1, 1, 1)) == -1


def test_g_rejects_tiny_k():
    with pytest.raises(ShapeError):
        make_g(1)


@pytest.mark.parametrize("variant", ["g1", "g0"])
@pytest.mark.parametrize("k", range(2, 11))
def test_g_table_matches_the_per_input_reference(k, variant):
    # the array build against the loop over inputs it replaced
    assert make_g(k, variant).table == g_table(k, variant)


def sgn_pm(t):
    return 1 if t >= 0 else -1


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_g1_equals_its_linear_gate(k):
    g1 = make_g(k, "g1")
    for x in itertools.product((-1, 1), repeat=k):
        gate = sum(x[:-1]) - (k - 2) * x[-1]
        assert g1.eval(x) == sgn_pm(gate)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_g_equals_last_nonzero_linear_form(k):
    g1 = make_g(k, "g1")
    g0 = make_g(k, "g0")
    for x in itertools.product((-1, 1), repeat=k):
        ells = linear_forms(x)
        last1 = [v for v in ells if v][-1]
        assert g1.eval(x) == sgn_pm(last1)
        seq0 = [-ells[0]] + ells[:0:-1]
        last0 = [v for v in seq0 if v][-1]
        assert g0.eval(x) == sgn_pm(last0)


# ---------------------------------------------------------------------------
# table mechanics
# ---------------------------------------------------------------------------


def test_eval_is_table_lookup():
    f = make_gt(2)
    for i in range(f.size):
        assert f.eval(assignment_of_index(i, f.n, f.convention)) == f.value_at(i)


def test_eval_rejects_bad_inputs():
    f = make_gt(2)
    with pytest.raises(EvalError):
        f.eval((0, 1, 0))
    with pytest.raises(EvalError):
        f.eval((0, 1, 2, 0))
    g = make_g(3)
    with pytest.raises(EvalError):
        g.eval((0, 1, 1))


def test_index_round_trip_pm():
    n = 5
    for i in range(1 << n):
        a = assignment_of_index(i, n, Convention.PLUS_MINUS)
        assert set(a) <= {-1, 1}
        assert index_of_assignment(a, Convention.PLUS_MINUS) == i


def test_json_round_trip_and_hex_layout():
    f = make_gt(2)
    blob = json.loads(json.dumps(f.to_json()))
    back = BoolFun.from_json(blob)
    assert back == f
    # first byte of the hex is the low eight table bits, little endian
    first = int(blob["table_hex"][:2], 16)
    assert first == f.table & 0xFF


def test_tables_are_deterministic():
    a = make_hard(make_shape("weak", (2, 3)))
    b = make_hard(make_shape("weak", (2, 3)))
    assert a.table == b.table and a == b


# ---------------------------------------------------------------------------
# the hard functions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_weak_single_group_is_the_comparator(k):
    assert make_hard(make_shape("weak", (k,))).table == make_gt(k).table


def test_weak_equal_halves_give_one():
    shape = make_shape("weak", (2, 3))
    f = make_hard(shape)
    m = sum(shape.ks)
    for xbits in range(1 << m):
        a = [(xbits >> j) & 1 for j in range(m)]
        assert f.eval(a + a) == 1


def reference_weak(shape):
    """Literal re-reading of the definition on top of the prose comparator."""
    ctx = OrderContext(shape)
    K = all_tuples(shape)
    import functools

    K.sort(key=functools.cmp_to_key(lambda a, b: oracle_compare(ctx, a, b)), reverse=True)
    bits = []
    for idx in range(1 << shape.n):
        a = assignment_of_index(idx, shape.n, Convention.ZERO_ONE)
        out = 1
        for alpha in K:
            prod = 1
            for i, ai in enumerate(alpha, start=1):
                prod *= a[shape.x_index(i, ai)] - a[shape.y_index(i, ai)]
            if prod:
                out = 1 if prod > 0 else 0
                break
        bits.append(out)
    return from_bits(bits, shape.n, Convention.ZERO_ONE)


def strong_types(shape, alpha):
    """The ordering type of each coordinate of ``alpha`` in a strong shape,
    read off the literal orderings of the groups before the last (0 first
    in both, as ``oracle_compare`` builds them): type 1 at the first
    coordinate, then the parity of the previous coordinate's position."""
    types = [1]
    for k, v in zip(shape.ks, alpha[:-1]):
        ordering = list(range(k)) if types[-1] else [0] + list(range(k - 1, 0, -1))
        types.append((ordering.index(v) + 1) % 2)
    return types


def reference_strong(shape):
    ctx = OrderContext(shape)
    K = all_tuples(shape)
    import functools

    K.sort(key=functools.cmp_to_key(lambda a, b: oracle_compare(ctx, a, b)), reverse=True)
    d = shape.d
    bits = []
    for idx in range(1 << shape.n):
        a = assignment_of_index(idx, shape.n, Convention.PLUS_MINUS)
        out = 1
        for alpha in K:
            prod = 1
            for i in range(1, d):
                block = tuple(a[shape.x_index(i, j)] for j in range(1, shape.ks[i - 1] + 1))
                prod *= linear_forms(block)[alpha[i - 1]]
            prod *= a[shape.x_index(d, alpha[-1])] - a[shape.y_index(d, alpha[-1])]
            if prod == 0:
                continue
            c = 0
            types = strong_types(shape, alpha)
            for i in range(1, d):
                if alpha[i - 1] == 0 and types[i - 1] == 0:
                    c += 1
            val = prod * (-1 if c % 2 else 1)
            out = 1 if val > 0 else -1
            break
        bits.append(1 if out == 1 else 0)
    return from_bits(bits, shape.n, Convention.PLUS_MINUS)


@pytest.mark.parametrize("ks", [(2, 3), (2, 2), (3, 2)])
def test_weak_matches_reference(ks):
    shape = make_shape("weak", ks)
    assert make_hard(shape).table == reference_weak(shape).table


@pytest.mark.parametrize("ks", [(3, 3), (2, 2), (3, 2, 2), (3, 3, 3)])
def test_strong_matches_reference(ks):
    shape = make_shape("strong", ks)
    assert make_hard(shape).table == reference_strong(shape).table


# sha256 of the little-endian table bytes, as computed by the per-input scan
# the array scan replaced
PINNED_TABLES = {
    ("weak", (3, 3, 3)): "ca2dfcde03e40b3b3091f1abd3d9faf0cc54c4f0ad03ef959f8ce3bf27f53248",
    ("weak", (2, 2, 2, 3)): "2da67112c00a63723bf22431ab3a63264c8de02493c984ab8d07e5d86dd53b04",
    ("strong", (5, 5, 3)): "559e03d7485705ceb15631b69ff6e3091fc0b5ee23612d6f8389de860e525ced",
}


@pytest.mark.parametrize("variant, ks", list(PINNED_TABLES))
def test_large_hard_tables_match_pinned_digests(variant, ks):
    f = make_hard(make_shape(variant, ks))
    digest = hashlib.sha256(f.table.to_bytes(f.size // 8, "little")).hexdigest()
    assert digest == PINNED_TABLES[(variant, ks)]


def test_strong_top_bit_comparison_decides():
    # all of x^1 equal and x^2 > y^2 at the most significant coordinate
    shape = make_shape("strong", (3, 3))
    f = make_hard(shape)
    a = [0] * shape.n
    for j in range(1, 4):
        a[shape.x_index(1, j)] = 1
        a[shape.x_index(2, j)] = 1
        a[shape.y_index(2, j)] = 1
    a[shape.y_index(2, 3)] = -1
    assert f.eval(a) == 1
    a[shape.x_index(2, 3)], a[shape.y_index(2, 3)] = -1, 1
    assert f.eval(a) == -1


def test_strong_defaults_to_one_when_halves_match():
    shape = make_shape("strong", (3, 3))
    f = make_hard(shape)
    for xbits in range(8):
        for ybits in range(8):
            a = [0] * shape.n
            for j in range(3):
                a[shape.x_index(1, j + 1)] = 1 if (xbits >> j) & 1 else -1
                v = 1 if (ybits >> j) & 1 else -1
                a[shape.x_index(2, j + 1)] = v
                a[shape.y_index(2, j + 1)] = v
            assert f.eval(a) == 1


# ---------------------------------------------------------------------------
# symmetry and restriction properties
# ---------------------------------------------------------------------------


def swap_groups(shape, a, i):
    b = list(a)
    for j in range(1, shape.ks[i - 1] + 1):
        xi, yi = shape.x_index(i, j), shape.y_index(i, j)
        b[xi], b[yi] = b[yi], b[xi]
    return tuple(b)


@pytest.mark.parametrize("ks", [(2, 3), (2, 2)])
def test_weak_block_swap_negates_on_I(ks):
    shape = make_shape("weak", ks)
    f = make_hard(shape)
    for idx in range(1 << shape.n):
        a = assignment_of_index(idx, shape.n, Convention.ZERO_ONE)
        in_I = all(
            any(
                a[shape.x_index(i, j)] != a[shape.y_index(i, j)]
                for j in range(1, shape.ks[i - 1] + 1)
            )
            for i in range(1, shape.d + 1)
        )
        for i in range(1, shape.d + 1):
            swapped = f.eval(swap_groups(shape, a, i))
            if in_I:
                assert swapped == 1 - f.eval(a)
            else:
                assert swapped == f.eval(a) == 1 or not in_I


def test_strong_group_negation_flips():
    shape = make_shape("strong", (3, 3))
    f = make_hard(shape)
    d = shape.d
    for idx in range(1 << shape.n):
        a = list(assignment_of_index(idx, shape.n, Convention.PLUS_MINUS))
        halves_differ = any(
            a[shape.x_index(d, j)] != a[shape.y_index(d, j)] for j in range(1, 4)
        )
        neg = list(a)
        for j in range(1, 4):
            neg[shape.x_index(1, j)] *= -1
        swapped = list(a)
        for j in range(1, 4):
            xi, yi = shape.x_index(d, j), shape.y_index(d, j)
            swapped[xi], swapped[yi] = swapped[yi], swapped[xi]
        if halves_differ:
            assert f.eval(neg) == -f.eval(a)
            assert f.eval(swapped) == -f.eval(a)
        else:
            assert f.eval(neg) == f.eval(a) == 1
            assert f.eval(swapped) == 1


def restrict_weak(shape, f, free_i, fixed_coords):
    """Fix every group but free_i at +1 difference in its chosen coordinate."""
    k = shape.ks[free_i - 1]
    bits = []
    for idx in range(1 << (2 * k)):
        a = [0] * shape.n
        for i, gamma in fixed_coords.items():
            a[shape.x_index(i, gamma)] = 1
            a[shape.y_index(i, gamma)] = 0
        for j in range(k):
            a[shape.x_index(free_i, j + 1)] = (idx >> j) & 1
            a[shape.y_index(free_i, j + 1)] = (idx >> (k + j)) & 1
        bits.append(f.eval(a))
    return from_bits(bits, 2 * k, Convention.ZERO_ONE)


def test_weak_restrictions_are_comparators():
    shape = make_shape("weak", (2, 3))
    f = make_hard(shape)
    ctx = OrderContext(shape)
    # free last group: column 1 keeps the ascending order, column 2 reverses it
    r1 = restrict_weak(shape, f, 2, {1: 1})
    assert r1.table == make_gt(3, "last").table
    r2 = restrict_weak(shape, f, 2, {1: 2})
    assert r2.table == make_gt(3, "first").table
    # free first group: always the ascending comparator
    r3 = restrict_weak(shape, f, 1, {2: 3})
    assert r3.table == make_gt(2, "last").table


def fix_strong_u(shape, a, i, gamma):
    """Force the i-th group's linear forms to vanish except L_gamma = 2."""
    k = shape.ks[i - 1]
    for j in range(1, k + 1):
        a[shape.x_index(i, j)] = 1 if (gamma == 0 or j <= gamma) else -1


def test_strong_restrictions_match_base_functions():
    shape = make_shape("strong", (3, 3))
    f = make_hard(shape)
    # free the comparator group; pick the column through the first group
    for gamma, expect in ((0, make_gt(3, "last")), (1, make_gt(3, "first")), (2, make_gt(3, "last"))):
        bits = []
        for idx in range(1 << 6):
            a = [0] * shape.n
            fix_strong_u(shape, a, 1, gamma)
            for j in range(3):
                a[shape.x_index(2, j + 1)] = 1 if (idx >> j) & 1 else -1
                a[shape.y_index(2, j + 1)] = 1 if (idx >> (3 + j)) & 1 else -1
            bits.append(1 if f.eval(a) == 1 else 0)
        assert from_bits(bits, 6, Convention.PLUS_MINUS).table == expect.table
    # free the first group with the comparator fixed positively
    bits = []
    for idx in range(1 << 3):
        a = [0] * shape.n
        for j in range(1, 4):
            a[shape.x_index(2, j)] = 1
            a[shape.y_index(2, j)] = 1
        a[shape.x_index(2, 1)], a[shape.y_index(2, 1)] = 1, -1
        for j in range(3):
            a[shape.x_index(1, j + 1)] = 1 if (idx >> j) & 1 else -1
        bits.append(1 if f.eval(a) == 1 else 0)
    assert from_bits(bits, 3, Convention.PLUS_MINUS).table == make_g(3, "g1").table


def test_strong_interior_reversed_order_gives_g0():
    # in a d=3 shape, an interior group under the reversed order restricts to g0
    shape = make_shape("strong", (3, 3, 3))
    f = make_hard(shape)
    ctx = OrderContext(shape)
    gamma1 = 1  # ordinal 2 under the ascending order: next order is reversed
    assert order_bits(ctx, (gamma1, 0, 1))[1] == 0
    bits = []
    for idx in range(1 << 3):
        a = [0] * shape.n
        fix_strong_u(shape, a, 1, gamma1)
        for j in range(1, 4):
            a[shape.x_index(3, j)] = 1
            a[shape.y_index(3, j)] = 1
        a[shape.x_index(3, 1)], a[shape.y_index(3, 1)] = 1, -1
        for j in range(3):
            a[shape.x_index(2, j + 1)] = 1 if (idx >> j) & 1 else -1
        bits.append(1 if f.eval(a) == 1 else 0)
    assert from_bits(bits, 3, Convention.PLUS_MINUS).table == make_g(3, "g0").table
