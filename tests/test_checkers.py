"""The matrix certificate checkers of ``exact_lp`` against the dict-row
checkers they replaced (``checker_reference``): the same verdict on every
problem and vector, whether its zeros are the int 0, which the checkers
skip at C speed, or ``Fraction(0)``."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import checker_reference as ref
from ptflab import BudgetError, LpProblem, check_farkas, check_l1_bound, check_witness, min_l1
from ptflab import exact_lp, threshold_analysis
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


def zeros_as(vector, zero):
    return [zero if v == 0 else v for v in vector]


def assert_same_verdicts(problem, vector, value):
    old = ref.dict_problem(problem)
    assert check_witness(problem, vector) == ref.check_witness(old, vector)
    assert check_farkas(problem, vector) == ref.check_farkas(old, vector)
    assert check_l1_bound(problem, vector, value) == ref.check_l1_bound(old, vector, value)


@settings(max_examples=300, deadline=None)
@given(problems(), st.data())
def test_matrix_checkers_give_the_dict_row_verdicts(problem, data):
    n, rows = problem.num_vars, len(problem.constraints)
    candidates = [data.draw(vectors(k, st.just(0) | MULTS)) for k in (n, rows)]
    values = [data.draw(MULTS)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_lp, "PIVOT_BUDGET", 500)
        try:
            out = min_l1(problem)
        except BudgetError:
            out = None
    if out is not None:
        for vector in (out.farkas, out.dual):  # one entry per row, each zero the int 0
            assert vector is None or len(vector) == rows and all(type(v) is int for v in vector if not v)
        found = [v for v in (out.witness, out.farkas, out.dual) if v is not None]
        # each with one entry moved by one, or negated
        moved = [[*v[:i], w, *v[i + 1 :]] for v in found for i in range(len(v)) for w in (v[i] + 1, -v[i])]
        candidates += found + moved
        values += [out.value] if out.value is not None else []
    for vector in candidates:
        for value in values:
            # the checkers skip an int 0 at C speed and test a Fraction(0) in Python
            for zero in (0, Fraction(0)):
                assert_same_verdicts(problem, zeros_as(vector, zero), value)


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


# 2000 rows 0 >= -1, then 0 >= 1: the last row alone is a contradiction
MANY_ZEROS = LpProblem(1, np.array([[0, -1]] * 2000 + [[0, 1]]), None)


@pytest.mark.parametrize("at", [0, 1234, 1999])
def test_one_negative_multiplier_among_zeros_is_refused(at):
    lam = [0] * 2000 + [1]
    assert check_farkas(MANY_ZEROS, lam)
    for negative in (-1, Fraction(-1, 3)):
        lam[at] = negative  # it adds 1 or 1/3 to the rhs: the sign check alone refuses it
        assert not check_farkas(MANY_ZEROS, lam) and not check_l1_bound(MANY_ZEROS, lam, 0)


@pytest.mark.parametrize("odd", [True, 1.0, 0.0, 0.5])
def test_a_bool_or_float_entry_is_refused(odd):
    # True == 1 and 1.0 == 1 would make a valid vector; 0.0 is falsy, so
    # only the type check of the whole vector sees it
    for lam in ([0] * 2000 + [odd], [odd] * 2000 + [1]):
        assert not check_farkas(MANY_ZEROS, lam) and not check_l1_bound(MANY_ZEROS, lam, 1)
        assert not ref.check_farkas(ref.dict_problem(MANY_ZEROS), lam)


@pytest.mark.parametrize("x", [["1", "0"], ["3/2", "0"], [True, 0], [np.float64(1.0), 0]])
def test_a_witness_entry_not_int_or_fraction_is_refused(x):
    # x0 >= 1 holds at x = [1, 0] and at [3/2, 0]; the same values as a
    # string, a bool or a numpy float are no witness, as no multiplier is
    problem = problem_of(2, [({0: 1}, GE, 1)])
    assert check_witness(problem, [1, 0]) and check_witness(problem, [Fraction(3, 2), 0])
    assert not check_witness(problem, x)


def test_lemma_vectors_are_mostly_int_zeros():
    # the comparator's 3^4 sign rows: an L1 optimum, and the lemma's first
    # negated row, infeasible
    base = threshold_analysis._base_problem("gt", 4)
    dual = min_l1(base).dual
    farkas = min_l1(base.extended({0: 1}, LE, 0)).farkas
    for vector, rows in ((dual, 81), (farkas, 82)):
        zeros = [v for v in vector if not v]
        assert len(vector) == rows and len(zeros) > rows - 10
        assert {type(v) for v in zeros} == {int}


class Recorded(np.ndarray):
    """An int64 row matrix that records every dtype it is converted to."""

    def astype(self, dtype, *args, **kwargs):
        self.conversions.append(dtype)
        return super().astype(dtype, *args, **kwargs)


K = (2**63 - 1) // 7 - 1  # 7 * (K + 1) = 2^63 - 1


@pytest.mark.parametrize(
    "row, x, lane",
    [
        # max|entry| * sum|ints| = 7 * (K + 1) = 2^63 - 1: int64, the product
        # 7 * K + 7 = 2^63 - 1 exactly in one case
        ([7, -7], [K], "int64"),
        ([7, -7], [-K], "int64"),
        # 2^61 * (3 + 1) = 2^63: Python integers; 3 * 2^61 + 2^61 = 2^63
        # would wrap to -2^63 in int64 and fail a valid witness
        ([2**61, -(2**61)], [3], "object"),
        ([2**61, -(2**61)], [-3], "object"),
        # a matrix of zeros: sum|ints| alone past 2^63, so no int64 vector
        ([0, 0], [2**70], "object"),
    ],
)
def test_check_witness_takes_int64_only_below_2_63(row, x, lane):
    problem = LpProblem(1, np.array([row], np.int64), None)
    problem.constraints = problem.constraints.view(Recorded)
    problem.constraints.conversions = []
    assert check_witness(problem, x) == ref.check_witness(ref.dict_problem(problem), x)
    assert problem.constraints.conversions == ([] if lane == "int64" else [object])


def test_check_witness_of_no_rows():
    # no row: every witness holds, one past int64 too
    assert check_witness(LpProblem(2), [2**70, Fraction(1, 3)])
