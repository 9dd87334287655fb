"""The matrix certificate checkers of ``exact_lp`` against the dict-row
checkers they replaced (``checker_reference``): the same verdict on every
problem and vector."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import checker_reference as ref
from ptflab import BudgetError, LpProblem, check_farkas, check_l1_bound, check_witness, min_l1
from ptflab.exact_lp import GE, LE

ENTRIES = st.integers(-3, 3) | st.integers(-(2**70), 2**70)  # past 2^62 too
MULTS = st.integers(-2, 3) | st.fractions(-2, 3, max_denominator=6) | st.integers(2**62, 2**66)


def problem_of(nvars, rows):
    problem = LpProblem(nvars)
    for r in rows:
        problem.add(*r)
    return problem


@st.composite
def problems(draw):
    nvars = draw(st.integers(1, 4))
    row = st.tuples(st.dictionaries(st.integers(0, nvars - 1), ENTRIES), st.sampled_from([GE, LE]), ENTRIES)
    return problem_of(nvars, draw(st.lists(row, max_size=6)))


def vectors(length, entries):
    """Vectors of ``length`` entries, now and then one too short or long."""
    size = st.sampled_from([length] * 4 + [max(length - 1, 0), length + 1])
    return size.flatmap(lambda k: st.lists(entries, min_size=k, max_size=k))


def assert_same_verdicts(problem, vector, value):
    old = ref.dict_problem(problem)
    assert check_witness(problem, vector) == ref.check_witness(old, vector)
    assert check_farkas(problem, vector) == ref.check_farkas(old, vector)
    assert check_l1_bound(problem, vector, value) == ref.check_l1_bound(old, vector, value)


@settings(max_examples=300, deadline=None)
@given(problems(), st.data())
def test_matrix_checkers_give_the_dict_row_verdicts(problem, data):
    n, rows = problem.num_vars, len(problem.constraints)
    candidates = [data.draw(vectors(k, MULTS)) for k in (n, rows)]
    values = [data.draw(MULTS)]
    try:
        out = min_l1(problem, max_pivots=500)
    except BudgetError:
        out = None
    if out is not None:
        found = [v for v in (out.witness, out.farkas, out.dual) if v is not None]
        # each with one entry moved by one, or negated
        moved = [[*v[:i], w, *v[i + 1 :]] for v in found for i in range(len(v)) for w in (v[i] + 1, -v[i])]
        candidates += found + moved
        values += [out.value] if out.value is not None else []
    for vector in candidates:
        for value in values:
            assert_same_verdicts(problem, vector, value)


# 2^32 x0 >= 0: the witness x0 = 2^31 makes a product of 2^63, which int64
# wraps to -2^63
WIDE_X = problem_of(1, [({0: 2**32}, GE, 0)])
# and 0 >= 1: the multipliers [2^32, *] make the coefficient 2^64, which
# int64 wraps to 0
WIDE_MULT = problem_of(1, [({0: 2**32}, GE, 0), ({}, GE, 1)])


def test_products_past_2_63_keep_their_verdict():
    assert WIDE_X.constraints.dtype == WIDE_MULT.constraints.dtype == np.int64
    # over int64 each of these products would wrap and flip the verdict
    assert (WIDE_X.constraints @ [2**31, 0])[0] < 0 and (np.array([2**32, 1]) @ WIDE_MULT.constraints)[0] == 0
    assert check_witness(WIDE_X, [2**31])
    assert check_farkas(WIDE_MULT, [0, 1]) and not check_farkas(WIDE_MULT, [2**32, 1])
    assert not check_l1_bound(WIDE_MULT, [2**32, 0], 0)
    for problem, vector in ((WIDE_X, [2**31]), (WIDE_MULT, [2**32, 1]), (WIDE_MULT, [2**32, 0])):
        assert_same_verdicts(problem, vector, 0)


@pytest.mark.parametrize("vector", [[1, -1], [1], [1, 0, 0], [Fraction(1, 2), -Fraction(1, 3)]])
def test_negative_multipliers_and_wrong_lengths_fail_both(vector):
    problem = problem_of(1, [({0: 1}, GE, 1), ({0: 1}, LE, 0)])
    assert_same_verdicts(problem, vector, 1)
    assert not check_farkas(problem, vector)
