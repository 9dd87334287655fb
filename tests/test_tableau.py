"""The block tableau of ``exact_lp._DualL1`` against the dict-row tableau it
replaced (``tableau_reference``), pivot by pivot, and its int64 step
against the same step over Python integers."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptflab import exact_lp
from tableau_reference import DictTableau, ge_problem


def signed(bits: int):
    """Integers of up to ``bits`` bits, either sign, their size log-uniform."""
    return st.integers(0, bits).flatmap(lambda b: st.integers(-(2**b) + 1, 2**b - 1))


def exactly(n: int, elements):
    return st.lists(elements, min_size=n, max_size=n)


@st.composite
def fraction_free_steps(draw):
    """(T, r, g, div) of one exact step: div divides T, or every entry of g.

    The sizes spread from no wrap past 2^63 to quotients of 63 bits.  div
    is odd, as every divisor of a step is."""
    div = draw(st.integers(0, 2**62 - 1).map(lambda o: 2 * o + 1))
    rows, cols = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    r = draw(st.integers(0, rows - 1))
    bits = ((2**63 - 1) // div).bit_length() - 1  # of an entry to scale by div
    if draw(st.booleans()):  # div divides T
        T = [div * v for v in draw(exactly(rows * cols, signed(bits)))]
        g = draw(exactly(rows, signed(63)))
        g[r] = draw(st.integers(1, 2**63 - 1))
    else:  # div divides g, and the pivot
        T = draw(exactly(rows * cols, signed(63)))
        g = [div * v for v in draw(exactly(rows, signed(bits)))]
        g[r] = div * draw(st.integers(1, 2**bits))
    return np.array(T, dtype=np.int64).reshape(rows, cols), r, g, div


@st.composite
def steps_near_2_63(draw):
    """Steps whose quotient bound top // div is 2^63 or 2^63 - 1, div odd:
    entries of T in {-1, 0, 1} times div, the pivot p and one entry
    2^63 - p - delta."""
    div = draw(st.integers(0, 2**12).map(lambda o: 2 * o + 1))
    rows, cols = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    r, i = draw(st.permutations(range(rows)))[:2]
    T = np.array(draw(exactly(rows * cols, st.integers(-1, 1)))).reshape(rows, cols)
    T[r, 0] = draw(st.sampled_from([-1, 1]))
    g = draw(exactly(rows, st.integers(-(2**40), 2**40)))
    g[r] = draw(st.integers(1, 2**62 - 1))
    g[i] = draw(st.sampled_from([-1, 1])) * (2**63 - g[r] - draw(st.integers(0, 1)))
    return (div * T).astype(np.int64), r, g, div


@settings(max_examples=400, deadline=None)
@given(fraction_free_steps() | steps_near_2_63())
@example((np.array([[3, -5], [7, 2]], dtype=np.int64), 0, [3, -6], 3))  # no wrap
@example((np.array([[2], [3]], dtype=np.int64), 0, [1, -(2**63) + 1], 1))  # g at the int64 edge
def test_int64_step_matches_python_integers(step):
    """``_step64`` returns the exact quotient, wrapped numerator or not, and
    None exactly when its quotient bound top // div is 2^63 or more.  (An
    entry of g past int64 never reaches it: ``pivot`` takes the wide step,
    see ``test_one_iteration_is_the_same_in_int64_and_object``.)"""
    T, r, g, div = step
    rows = T.tolist()
    piv = g[r]
    num = [[t * piv - gi * tr for t, tr in zip(row, rows[r])] for gi, row in zip(g, rows)]
    assert all(v % div == 0 for row in num for v in row)
    gmax, rmax = max(map(abs, g)), max(map(abs, rows[r]))
    top = max(abs(v) for row in rows for v in row) * piv + gmax * rmax
    proven = top // div < 2**63
    out = exact_lp._step64(T, r, np.array(g, dtype=np.int64), div, exact_lp._abs_max(T), gmax, rmax)
    assert (out is not None) == proven
    if proven:
        assert out.dtype == np.int64
        assert out.tolist() == [[v // div for v in row] for row in num]


COEFFS = {
    "pm1": st.sampled_from([-1, 1]),
    "small": st.integers(-9, 9),
    "2^20 to 2^40": st.tuples(st.sampled_from([-1, 1]), st.integers(2**20, 2**40)).map(lambda p: p[0] * p[1]),
    "past 2^62": st.integers(-(2**63), 2**63),
}
STEPS = 60  # per solve; Bland's rule is forced before this many pivots


def scale(t, ref) -> int:
    """2^j with ref.den = t.den * 2^j, j >= 0: the stored den is the
    reference's, the fraction-free one, with some factors of 2 taken out."""
    j = ref.den // t.den
    assert ref.den == t.den * j and j & (j - 1) == 0
    return j


def assert_same(t, ref) -> None:
    """The rationals of the reference over a den that is it divided by some
    2^j; no factor of 2 common to the state and den; and the stored block
    is exactly the nonbasic slacks."""
    j = scale(t, ref)
    assert ([v * j for v in t.rhs()], [v * j for v in t.costs()], t.corner * j) == (ref.rhs, ref.w, ref.corner)
    assert t.basis == ref.basis
    assert (exact_lp._twos(t.T) | t.den) & 1
    m, n0 = 2 * t.nvars, len(t.A)
    basic = {b - n0 for b in t.basis if b >= n0}
    assert sorted(t.slacks) == sorted(set(range(m)) - basic)
    assert t.T.shape == (m + 1, len(t.slacks) + 1)
    for c in range(len(ref.rows) + m):
        col = t.column(c)
        assert col.dtype in (np.int64, object) and [int(v) * j for v in col] == ref.column(c)


def times_2_to(row: tuple, j: int) -> tuple:
    coeffs, b = row
    return {i: v << j for i, v in coeffs.items()}, b << j


def drive(t, ref, bland_at: int) -> str:
    """Run both with the same rule until optimal or unbounded, comparing the
    entering column, its entries, the leaving row and the state after each
    pivot; the rule switches to Bland's after ``bland_at`` pivots."""
    for _ in range(STEPS):
        if t.pivots >= bland_at:
            t.rule = "bland"
        end = iterate(t, ref)
        if end:
            return end
        assert len(t.slacks) <= t.nvars  # each pair of dual rows keeps a slack basic
    raise AssertionError("Bland's rule did not terminate")


def iterate(t, ref) -> str | None:
    """One iteration of both, comparing the entering column, and its cost
    and entries as rationals, the leaving row and the state after the
    pivot; "optimal" or "unbounded" when there is no pivot."""
    j = scale(t, ref)
    entering, expected = t._entering(), ref.entering(t.rule)
    assert (entering is None) == (expected is None)
    if entering is None:
        return "optimal"
    c, f = entering
    assert (c, f * j) == expected
    col = t.column(c)
    entries = ref.column(c)
    assert [int(v) * j for v in col] == entries
    r = t._leaving(col)
    assert r == ref.leaving(entries)
    if r is None:
        return "unbounded"
    t.pivot(r, c, col, f)
    ref.pivot(r, c, entries, expected[1])
    assert_same(t, ref)
    return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_block_tableau_matches_the_dict_rows(data):
    nvars = data.draw(st.integers(1, 4))
    coeff = COEFFS[data.draw(st.sampled_from(sorted(COEFFS)))]
    # dense rows and mostly positive right-hand sides, so the dual moves far
    # enough for slacks to leave and re-enter the basis
    dense = st.lists(coeff, min_size=nvars, max_size=nvars)
    row = st.tuples(dense.map(lambda a: {j: v for j, v in enumerate(a) if v}), st.integers(-3, 6) | coeff)
    if data.draw(st.booleans()):  # each row times its own 2^j: even dens, and blocks past int64
        row = st.tuples(row, st.integers(0, 40)).map(lambda p: times_2_to(*p))
    rows = data.draw(st.lists(row, min_size=1, max_size=10))
    t, ref = exact_lp._DualL1(ge_problem(nvars, rows)), DictTableau(nvars, rows)
    bland_at = data.draw(st.integers(0, STEPS // 2))
    drive(t, ref, bland_at)
    # branch and bound: fork with one more row, solve again; the parent keeps its state
    for coeffs, b in data.draw(st.lists(row, max_size=3)):
        parent, before = t, (t.T.copy(), t.slacks[:], t.den, t.basis[:], t.pivots)
        t = t.fork(t.problem.extended(coeffs, exact_lp.GE, b))
        ref = ref.clone()
        ref.add_row(coeffs, b)
        drive(t, ref, bland_at)
        T, *rest = before
        assert T.shape == parent.T.shape and (T == parent.T).all()
        assert rest == [parent.slacks, parent.den, parent.basis, parent.pivots]


@st.composite
def lane_states(draw):
    """A tableau state whose cost, rhs and stored entries lie at and just
    past one of the bounds that choose int64 (2^60, 2^61, 2^62, 2^63 - 1),
    next to 2^36 or 2^48 (where an int64 step wraps and divides by Hensel
    division), or are all small.

    den = 2^k or 3 * 2^k divides every entry of the block, so each step,
    which divides by the odd part of den, is exact whatever row and
    column the iteration picks."""
    nvars = draw(st.integers(1, 3))
    m = 2 * nvars
    den = draw(st.sampled_from([1, 3])) << draw(st.integers(0, 61))
    most = (2**63 - 1) // den  # of den in an int64 entry
    small = st.integers(-min(9, most), min(9, most)).map(lambda v: den * v)
    bound = draw(st.sampled_from([None, 2**36, 2**48, 2**60, 2**61, 2**62, 2**63 - 1]))
    near = st.integers(-1, 1).map(lambda d: den * min(bound // den + d, most))  # a multiple of den next to it
    entry = small if bound is None else small | near
    signed_entry = st.tuples(entry, st.sampled_from([-1, 1])).map(lambda p: p[0] * p[1])
    coeff = st.integers(-2, 2)
    if draw(st.booleans()):  # rows past one limb
        coeff |= st.sampled_from([-(2**40), 2**40])
    row = st.tuples(exactly(nvars, coeff).map(lambda a: {j: v for j, v in enumerate(a) if v}), st.integers(-3, 3))
    rows = draw(st.lists(row, min_size=nvars, max_size=6))
    pick, count = draw(st.permutations(range(m))), draw(st.integers(0, nvars))
    pair = count >= 2 and draw(st.booleans())  # both slacks of a pair, first
    if pair:
        j = pick[0] % nvars
        pick = [j, j + nvars] + [s for s in pick if s % nvars != j]
    slacks = pick[:count]
    # the basic slacks in rows of their own; every other row holds an initial row's variable
    order = draw(st.permutations(range(m)))
    basic = sorted(set(range(m)) - set(slacks))
    basis = [0] * m
    for i, s in zip(order, basic):
        basis[i] = len(rows) + s
    for i, v in zip(order[len(basic) :], draw(st.permutations(range(len(rows))))):
        basis[i] = v
    block = [draw(exactly(len(slacks), signed_entry)) + [abs(draw(entry))] for _ in range(m)]
    block.append(draw(exactly(len(slacks), signed_entry)) + [draw(signed_entry)])
    if pair:  # costs of opposite signs: z = w_j - w_(j+N) may pass 2^63
        block[-1][:2] = abs(block[-1][0]), -abs(block[-1][1])
    rule = draw(st.sampled_from(["hybrid", "bland"]))
    t = exact_lp._DualL1(ge_problem(nvars, rows))
    t.T = np.array(block, dtype=np.int64).reshape(m + 1, len(slacks) + 1)
    t.slacks, t.basis, t.den, t.rule = list(slacks), basis, den, rule
    t.basic_slack = np.array([b - len(rows) if b >= len(rows) else m for b in basis])
    return t, rows


def dict_rows(t, rows: list) -> DictTableau:
    """The dict-row tableau in the state of ``t``, whose initial rows are ``rows``."""
    ref = DictTableau(t.nvars, rows)
    T = t.T.tolist()
    ref.inv = [{s: v for s, v in zip(t.slacks, row) if v} for row in T[:-1]]
    for inv, s in zip(ref.inv, t.basic_slack.tolist()):
        if s < t.m:
            inv[s] = t.den
    ref.rhs, ref.w, ref.corner = [row[-1] for row in T[:-1]], t.costs(), T[-1][-1]
    ref.den, ref.basis = t.den, t.basis[:]
    return ref


@settings(max_examples=300, deadline=None)
@given(lane_states())
def test_one_iteration_is_the_same_in_int64_and_object(state):
    """One iteration from an int64 block (costs, column and step in int64
    where a bound proves them exact) and from the same block as Python
    integers gives what the dict-row tableau gives, under both rules."""
    t, rows = state
    wide = t.clone()
    wide.T = t.T.astype(object)
    ref = dict_rows(t, rows)
    assert iterate(t, ref.clone()) == iterate(wide, ref)
