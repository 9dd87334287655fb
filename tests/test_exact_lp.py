"""The exact LP layer: statuses, certificates, L1 minimization, branch and
bound, and a float-solver cross-check on random instances."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptflab import (
    BudgetError,
    LpError,
    LpProblem,
    check_farkas,
    check_l1_bound,
    check_witness,
    ilp_min,
    make_gt,
    make_hard,
    make_shape,
    min_l1,
    problem_from_text,
    problem_to_text,
)
from ptflab import exact_lp
from ptflab.exact_lp import GE, LE
from ptflab.threshold_analysis import build_representation_problem, certify_coefficient_lemma
from checker_reference import dict_rows
from tableau_reference import ge_problem, reference_entering


def FR(x, y=None):
    return Fraction(x) if y is None else Fraction(x, y)


# ---------------------------------------------------------------------------
# statuses, budgets and the row matrix
# ---------------------------------------------------------------------------


def test_contradictory_bounds_infeasible():
    pr = LpProblem(1)
    pr.add({0: 1}, ">=", 1)
    pr.add({0: 1}, "<=", 0)
    out = min_l1(pr)
    assert out.status == "infeasible"
    assert out.farkas == [FR(1), FR(1)]
    assert check_farkas(pr, out.farkas)


def test_feasibility_with_witness_for_comparator():
    f = make_gt(2)
    prob = build_representation_problem(f, 1).problem
    out = min_l1(prob)
    assert out.status == "optimal"
    assert check_witness(prob, out.witness)


def test_pivot_budget_reported():
    f = make_gt(3)
    prob = build_representation_problem(f, 1).problem
    with pytest.raises(BudgetError):
        min_l1(prob, max_pivots=2)


def test_bad_rows_rejected():
    # a row comes in through LpProblem.add or the text format, and both
    # refuse a variable out of range, a relation other than >= / <= (an
    # equality is written as a >= / <= pair) and an entry that is no integer
    pr = LpProblem(2)
    bad_rows = [({5: 1}, ">=", 0), ({-1: 1}, ">=", 0), ({0: 1}, "!=", 0), ({0: 1}, "=", 0), ({0: FR(1, 2)}, ">=", 0)]
    for coeffs, rel, rhs in bad_rows:
        with pytest.raises(LpError):
            pr.add(coeffs, rel, rhs)
    for line in ("1 0 0 >= 0", "1 0 != 0", "1 0 = 0", "1/2 0 >= 0"):
        with pytest.raises(LpError):
            problem_from_text(f"vars 2\n{line}\n")
    assert pr.constraints.shape == (0, 3) and len(pr.le) == 0
    # a matrix handed to the constructor must be int64 or Python ints, one
    # column wider than the variables, with one flag per row
    int64_row = np.zeros((1, 3), np.int64)
    for rows, le in ((int64_row[:, :2], None), (np.zeros((1, 3)), None), (int64_row, np.zeros(2, bool))):
        with pytest.raises(LpError):
            LpProblem(2, rows, le)


def test_a_matrix_replaced_after_construction_is_checked_where_it_is_read():
    pr = LpProblem(2)
    pr.add({0: 1}, ">=", 1)
    # a float matrix: every solver raises, every checker fails (Python
    # floats would make their products inexact)
    pr.constraints = np.array([[1.0, 0.0, 0.5]])
    for run in (min_l1, lambda p: exact_lp.ilp_min(min_l1(p)), lambda p: exact_lp.solve_extensions(p, [({0: 1}, ">=", 0)])):
        with pytest.raises(LpError):
            run(pr)
    assert not check_witness(pr, [1, 0]) and not check_farkas(pr, [1]) and not check_l1_bound(pr, [1], 1)
    # an int64 matrix with an entry at 2^62 or at -2^63 (whose np.abs wraps):
    # past the solver's int64 bounds, so it raises; the checkers read int64
    # exactly and give their verdicts
    for wide in (2**62, -(2**63)):
        pr.constraints = np.array([[1, 0, 1], [wide, 0, 0]], np.int64)
        with pytest.raises(LpError):
            min_l1(pr)
        assert check_witness(pr, [1, 0]) == (wide > 0)
    pr.constraints = np.array([[1, 0, 2**62 - 1]], np.int64)  # just inside
    assert min_l1(pr).witness == [2**62 - 1, 0]


# ---------------------------------------------------------------------------
# min_l1
# ---------------------------------------------------------------------------


def test_l1_single_bound():
    pr = LpProblem(1)
    pr.add({0: 1}, ">=", 5)
    out = min_l1(pr)
    assert out.status == "optimal"
    assert out.value == FR(5)
    assert out.witness == [FR(5)]
    assert check_l1_bound(pr, out.dual, out.value)


def test_l1_ball_geometry():
    pr = LpProblem(2)
    pr.add({0: 1, 1: 1}, ">=", 2)
    pr.add({0: 1, 1: -1}, ">=", 2)
    out = min_l1(pr)
    assert out.value == FR(2)
    assert out.witness == [FR(2), FR(0)]


def test_l1_with_equality_rows():
    pr = LpProblem(2)
    for coeffs, rhs in (({0: 1, 1: 1}, 3), ({0: 1, 1: -1}, 1)):  # each equality as a pair
        pr.add(coeffs, ">=", rhs)
        pr.add(coeffs, "<=", rhs)
    out = min_l1(pr)
    assert out.value == FR(3)
    assert out.witness == [FR(2), FR(1)]
    assert check_l1_bound(pr, out.dual, out.value)


def test_l1_infeasible_certificate():
    pr = LpProblem(2)
    pr.add({0: 1}, ">=", 1)
    pr.add({0: 1}, "<=", -1)
    out = min_l1(pr)
    assert out.status == "infeasible"
    assert check_farkas(pr, out.farkas)


def _code_names(code) -> set:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, type(code)):
            names |= _code_names(const)
    return names


def test_l1_checker_shares_no_solver_code():
    private = {name for name in vars(exact_lp) if name.startswith("_")}
    # the checkers, the row combination that check_farkas and check_l1_bound
    # share, and the matrix and entry check that all three share, reach only
    # the number coercion and each other
    checker_code = {"_frac", "_combine_rows", "_checkable"}
    for checker in (check_l1_bound, check_witness, check_farkas, exact_lp._combine_rows, exact_lp._checkable):
        assert _code_names(checker.__code__) & private <= checker_code
    # and the solver reaches none of the checkers' own code
    solver = [
        f
        for name, obj in vars(exact_lp).items()
        if name not in ("check_witness", "check_farkas", "check_l1_bound", *checker_code)
        for f in (vars(obj).values() if isinstance(obj, type) else [obj])
        if hasattr(f, "__code__")
    ]
    assert solver and not any({"_combine_rows", "_checkable"} & _code_names(f.__code__) for f in solver)


def test_check_witness_rejects_a_variable_out_of_range():
    pr = LpProblem(2)
    pr.add({1: 1}, ">=", 1)
    assert check_witness(pr, [0, 1])
    # a matrix set directly with a column more (a variable 2) or one fewer
    # than the variables fails every checker, and raises in none
    for cols in (2, 4):
        pr.constraints = np.ones((1, cols), np.int64)
        assert not check_witness(pr, [0, 1]) and not check_farkas(pr, [1]) and not check_l1_bound(pr, [1], 0)


def test_checkers_reject_on_every_row_but_combine_only_the_used_ones():
    pr = LpProblem(2)
    pr.add({0: 1}, ">=", 1)
    pr.add({0: 1}, "<=", 0)
    pr.add({1: 1}, ">=", 0)
    assert check_farkas(pr, [1, 1, 0]) and check_l1_bound(pr, [1, 0, 0], 1)
    # a negative multiplier fails wherever it is
    assert not check_farkas(pr, [1, 1, -1]) and not check_l1_bound(pr, [1, 0, -1], 1)
    # a row past 2^62 counts in a combination and is not read in an unused one
    wide = pr.extended({0: 2**70, 1: -(2**70)}, ">=", 2**70)
    assert check_farkas(wide, [1, 1, 0, 0]) and check_l1_bound(wide, [1, 0, 0, 0], 1)
    assert not check_farkas(wide, [1, 1, 0, 1]) and not check_l1_bound(wide, [1, 0, 0, 1], 1)


def test_checkers_reject_a_multiplier_that_is_not_an_int_or_a_fraction():
    pr = LpProblem(1)
    pr.add({0: 1}, ">=", 1)
    pr.add({0: 1}, "<=", 0)
    assert check_farkas(pr, [FR(1, 2), FR(1, 2)]) and check_l1_bound(pr, [1, 0], 1)
    for bad in (0.5, 0.0, np.float64(0.5), np.int64(1), "1", None):
        assert not check_farkas(pr, [bad, FR(1, 2)]) and not check_farkas(pr, [FR(1, 2), bad])
        assert not check_l1_bound(pr, [bad, 0], 1) and not check_l1_bound(pr, [1, bad], 1)


def test_checkers_clear_denominators_exactly():
    pr = LpProblem(2)
    pr.add({0: 7, 1: 6}, ">=", 5)
    pr.add({0: 2}, ">=", 1)  # x0 = 1/2, as a >= / <= pair
    pr.add({0: 2}, "<=", 1)
    assert check_witness(pr, [FR(1, 2), FR(1, 4)])  # 7/2 + 3/2 = 5: tight
    assert not check_witness(pr, [FR(1, 2), FR(1, 4) - FR(1, 10**30)])
    assert not check_witness(pr, [FR(1, 2) + FR(1, 10**30), FR(1, 4)])
    assert not check_witness(pr, [FR(1, 2) - FR(1, 10**30), FR(1, 4) + FR(1, 10**29)])
    pr.add({1: 12}, "<=", 1)  # x1 <= 1/12, but the rows above force x1 >= 1/4
    lam = [FR(1), FR(0), FR(7, 2), FR(1, 2)]  # right-hand side -5 + 7/2 + 1/2 = -1
    assert check_farkas(pr, lam)
    assert not check_farkas(pr, [lam[0], lam[1], lam[2], lam[3] - FR(1, 10**30)])
    assert not check_farkas(pr, [-lam[0], lam[1], lam[2], lam[3]])
    # the same combination through the >= half of the pair needs a negative multiplier
    assert not check_farkas(pr, [lam[0], -lam[2], lam[1], lam[3]])
    assert not check_farkas(pr, [0, 0, 0, 0])
    # l1 rows read as >=: the >= rows as stated, the <= rows negated
    dual = [FR(1, 7), FR(0), FR(1, 10**30), FR(0)]  # x0 coefficient 1 - 2/10^30
    value = FR(5, 7) - FR(1, 10**30)
    assert check_l1_bound(pr, dual, value)
    assert not check_l1_bound(pr, dual, FR(5, 7))
    assert not check_l1_bound(pr, dual, value - FR(1, 10**30))
    assert check_l1_bound(pr, [FR(1, 7), 0, 0, 0], FR(5, 7))  # coefficient exactly 1
    assert not check_l1_bound(pr, [FR(1, 7) + FR(1, 10**30), 0, 0, 0], FR(5, 7) + FR(5, 10**30))


def test_l1_checker_normalizes_every_relation_and_rejects_corruption():
    pr = LpProblem(2)
    pr.add({0: 1, 1: -1}, ">=", -5)  # x0 - x1 = -5, as a >= / <= pair
    pr.add({0: 1, 1: -1}, "<=", -5)
    pr.add({0: -1}, "<=", -1)
    pr.add({1: 1}, ">=", 0)
    out = min_l1(pr)
    assert out.value == 7 and out.dual == [0, 1, 2, 0]  # the two <= rows, negated
    assert check_l1_bound(pr, out.dual, out.value)
    d = out.dual
    assert not check_l1_bound(pr, [d[1], d[0], *d[2:]], out.value)  # the pair's halves swapped
    assert not check_l1_bound(pr, [d[0], d[1], d[2] + 1, d[3]], out.value)
    assert not check_l1_bound(pr, d, out.value + 1)
    assert not check_l1_bound(pr, d[:-1], out.value)


# pivots done over Python integers: weak(2,3), strong(3,3) and strong(3,2)
# stay in int64 throughout, strong(5,3) nearly so; weak(2,4) prices in
# every lane, the float64 product, the int64 one, int64 limbs and limbs
# of a wide block
WIDE_PIVOTS = {
    ("weak", (2, 3)): 0, ("strong", (3, 3)): 0, ("strong", (3, 2)): 0, ("strong", (5, 3)): 4, ("weak", (2, 4)): 417
}


@pytest.mark.parametrize(
    "variant, ks, value, pivots, den_bits",
    [
        ("weak", (2, 3), FR(183, 2), 230, 19),
        ("strong", (3, 3), FR(15), 185, 19),
        ("strong", (3, 2), FR(6), 80, 9),
        ("strong", (5, 3), FR(93), 385, 36),
        ("weak", (2, 4), FR(294), 657, 42),
    ],
)
def test_degree2_lp_pivot_path(variant, ks, value, pivots, den_bits):
    shape = make_shape(variant, ks)
    prob = build_representation_problem(make_hard(shape), 2, shape).problem
    out = min_l1(prob)
    assert out.value == value
    wide = WIDE_PIVOTS[variant, ks]
    assert out.stats == {"pivots": pivots, "wide_pivots": wide, "den_bits": den_bits, "bland": False}


def test_l1_rejects_objective_or_nonneg():
    # problems carry no objective row, no sign restriction and no variable
    # names: min_l1 minimizes sum |x| over free variables only
    with pytest.raises(TypeError):
        LpProblem(1, objective={0: FR(1)})
    with pytest.raises(TypeError):
        LpProblem(1, nonneg=[True])
    with pytest.raises(TypeError):
        LpProblem(1, names=["x"])


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------


def test_ilp_returns_integral_relaxation():
    pr = LpProblem(2)
    pr.add({0: 1, 1: 1}, ">=", 2)
    pr.add({0: 1, 1: -1}, ">=", 2)
    res = ilp_min(min_l1(pr))
    assert res.status == "optimal"
    assert res.value == 2
    assert res.witness == [2, 0]
    assert res.nodes == 1


def test_ilp_rounds_up_single_bound():
    pr = LpProblem(1)
    pr.add({0: 2}, ">=", 3)
    root = min_l1(pr)
    res = ilp_min(root)
    assert res.status == "optimal"
    assert root.value == FR(3, 2)
    assert res.value == 2
    assert res.witness == [2]


def test_ilp_infeasible():
    pr = LpProblem(1)
    pr.add({0: 1}, ">=", 1)
    pr.add({0: 1}, "<=", 0)
    res = ilp_min(min_l1(pr))
    assert res.status == "infeasible"


def brute_force_min_weight(f, degree, radius):
    """Search integer gates over a coefficient box, pruning by weight."""
    monos = [m for d in range(degree + 1) for m in itertools.combinations(range(f.n), d)]
    inputs = [tuple((i >> j) & 1 for j in range(f.n)) for i in range(f.size)]
    bits = [f.bit(i) for i in range(f.size)]

    def value(c, a):
        tot = 0
        for coeff, m in zip(c, monos):
            if coeff:
                term = coeff
                for v in m:
                    term *= a[v]
                tot += term
        return tot

    best = None
    for c in itertools.product(range(-radius, radius + 1), repeat=len(monos)):
        w = sum(abs(v) for v in c)
        if best is not None and w >= best:
            continue
        ok = True
        for a, b in zip(inputs, bits):
            pv = value(c, a)
            if (pv >= 0) != (b == 1) or (b == 0 and pv > -1):
                ok = False
                break
        if ok:
            best = w
    return best


def test_ilp_comparator_weight_matches_brute_force():
    f = make_gt(2)
    prob = build_representation_problem(f, 1).problem
    lp = min_l1(prob)
    res = ilp_min(min_l1(prob))
    assert res.status == "optimal"
    expected = brute_force_min_weight(f, 1, radius=3)
    assert expected is not None and expected <= 6  # x1 - y1 + 2x2 - 2y2 works
    assert res.value == expected == 6
    ceil_lp = -((-lp.value.numerator) // lp.value.denominator)
    assert res.value >= ceil_lp
    assert check_witness(prob, res.witness)


def test_ilp_budget_reported():
    f = make_gt(2)
    prob = build_representation_problem(f, 1).problem
    res = ilp_min(min_l1(prob), node_budget=0)
    assert res.status == "budget"
    assert res.lower_bound is not None


def test_ilp_incumbent_seed():
    pr = LpProblem(1)
    pr.add({0: 2}, ">=", 3)
    res = ilp_min(min_l1(pr), incumbent=[5])
    assert res.value == 2


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_text_round_trip():
    pr = LpProblem(3)
    pr.add({0: FR(4, 2), 1: -1}, ">=", FR(-14, 2))  # integer-valued Fractions are stored as ints
    pr.add({2: 1}, ">=", 0)  # x2 = 0, as a >= / <= pair
    pr.add({2: 1}, "<=", 0)
    pr.add({0: 2**70}, "<=", -(2**70))
    text = problem_to_text(pr)
    assert text == f"vars 3\n2 -1 0 >= -7\n0 0 1 >= 0\n0 0 1 <= 0\n{2**70} 0 0 <= {-(2**70)}\n"
    back = problem_from_text(text)
    assert back.num_vars == 3
    assert back.constraints.tolist() == pr.constraints.tolist() == [
        [2, -1, 0, -7], [0, 0, 1, 0], [0, 0, -1, 0], [-(2**70), 0, 0, 2**70]  # <= rows negated
    ]
    assert back.le.tolist() == pr.le.tolist() == [False, False, True, True]
    assert problem_to_text(back) == text
    # rows over no variable keep the space that joining no coefficients leaves
    pr = LpProblem(0)
    pr.add({}, "<=", -2)
    assert problem_to_text(pr) == problem_to_text(problem_from_text("vars 0\n<= -2\n")) == "vars 0\n <= -2\n"


def g0_all_lemma_lp():
    """A g0_all lemma LP: the detector's sign rows, then its extension row."""
    return certify_coefficient_lemma("g0_all", 5).checks[-1].problem


def wide_lp():
    pr = LpProblem(2)
    pr.add({0: 1, 1: -1}, "<=", 3)
    pr.add({1: 2**70}, ">=", -5)
    return pr


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(
            lambda: build_representation_problem(make_hard(make_shape("weak", (2, 3))), 2).problem, id="weak23 d2"
        ),
        pytest.param(g0_all_lemma_lp, id="g0_all k5"),
        pytest.param(wide_lp, id="2^70 entry"),
    ],
)
def test_text_round_trip_keeps_the_matrix_its_dtype_and_flags(build):
    problem = build()
    back = problem_from_text(problem_to_text(problem))
    assert back.num_vars == problem.num_vars
    assert back.constraints.dtype == problem.constraints.dtype
    assert np.array_equal(back.constraints, problem.constraints)
    assert np.array_equal(back.le, problem.le) and back.le.any() and not back.le.all()


def test_rational_row_entries_rejected():
    pr = LpProblem(2)
    for bad in (FR(1, 2), 0.5, 2.0, FR(1, 10**30)):
        with pytest.raises(LpError):
            pr.add({0: bad}, ">=", 0)
        with pytest.raises(LpError):
            pr.add({0: 1}, ">=", bad)
    assert pr.constraints.shape == (0, 3)
    for line in ("1/2 0 >= 0", "1 0 >= 1/2", "0.5 0 >= 0", "1 0 >= 2/2", f"{2**70} 1/2 >= 0"):
        with pytest.raises(LpError):
            problem_from_text(f"vars 2\n{line}\n")
    # a float matrix handed over directly: refused, where int64 would truncate 1/2 to 0
    with pytest.raises(LpError):
        LpProblem(2, np.array([[0.5, 0, 0]]))


def cold_copy(problem):
    """The same problem built afresh: its rows, and no base to share."""
    return LpProblem(problem.num_vars, problem.constraints.copy(), problem.le.copy())


def assert_derives_like_a_cold_copy(problem):
    A = exact_lp._DualL1(problem).A
    cold_A = exact_lp._DualL1(cold_copy(problem)).A
    assert A is problem.constraints  # the tableau reads the problem's matrix, no copy
    assert A.tolist() == cold_A.tolist() and A.dtype == cold_A.dtype
    assert problem_to_text(problem) == problem_to_text(cold_copy(problem))
    assert min_l1(problem) == min_l1(cold_copy(problem))


def test_extended_problems_derive_what_a_cold_copy_does():
    base = LpProblem(3)
    base.add({0: 1, 1: -2}, ">=", 7)
    base.add({1: 1, 2: 3}, ">=", 1)  # x1 + 3 x2 = 1, as a >= / <= pair
    base.add({1: 1, 2: 3}, "<=", 1)
    base.add({2: 2**70}, "<=", 5)  # a row too wide for int64
    first = base.extended({0: 1}, "<=", 0)
    # an equality split over two extensions, then one more row
    second = base.extended({0: 2, 2: 3}, ">=", 1)
    grandchild = second.extended({0: 2, 2: 3}, "<=", 1)
    great = grandchild.extended({1: 1}, ">=", -4)
    for problem in (first, second, grandchild, great):
        assert np.array_equal(problem.constraints[:4], base.constraints)
        assert_derives_like_a_cold_copy(problem)
    assert len(base.constraints) == 4  # extending leaves the base as it was


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(f"vars 2\n{line}\n", id=line)
        for line in ("min 1 0", "min 1 0 >= 0", "1 0", "1 x >= 0")
    ]
    + [
        pytest.param("vars x\n", id="vars x"),
        pytest.param("vars 3\n1 >= 0\n", id="too few coefficients"),
        pytest.param("vars 1\n1 0 >= 0\n", id="too many coefficients"),
        pytest.param("vars 2\nnonneg 1\n1 0 >= 0\n", id="short nonneg"),
        pytest.param("vars 2\nnonneg 1 2\n1 0 >= 0\n", id="nonneg not 0/1"),
        # every variable is free, unnamed, and every row is >= or <=
        pytest.param("vars 2\nnonneg 1 0\n1 0 >= 0\n", id="nonneg"),
        pytest.param("vars 2\nnames a b\n1 0 >= 0\n", id="names"),
        pytest.param("vars 2\n1 0 = 0\n", id="equality row"),
        pytest.param("vars 2\n1/0 0 >= 0\n", id="zero-denominator coefficient"),
        pytest.param("vars 2\n1 0 >= 1/0\n", id="zero-denominator rhs"),
    ],
)
def test_malformed_text_lines_rejected(text):
    with pytest.raises(LpError):
        problem_from_text(text)


def test_one_solve_serves_feasibility_weight_and_branch_and_bound():
    prob = build_representation_problem(make_gt(2), 1).problem
    out = min_l1(prob)
    assert out.status == "optimal" and out.solver is not None
    assert min_l1(prob).witness == out.witness
    pivots = out.solver.pivots
    res = ilp_min(out)
    assert res.value == ilp_min(min_l1(prob)).value == 6
    assert out.solver.pivots == pivots  # the root tableau is cloned, not re-solved


def test_fork_leaves_the_parent_unchanged():
    # forks share the parent's priced columns; a row added to one must not reach another
    prob = build_representation_problem(make_gt(2), 1).problem
    out = min_l1(prob)
    parent = out.solver

    def state():
        prices = parent._entering(), parent._priced().tolist()
        return parent.value(), parent.witness(), parent.basis[:], parent.rhs(), prices, parent.pivots

    before = state()
    child = parent.fork(prob.extended({0: 1}, GE, out.witness[0] + 1))  # x0 >= witness + 1
    assert child.optimize() == "optimal"
    assert child.pivots > parent.pivots and child.value() > out.value
    assert state() == before
    assert parent.optimize() == "optimal" and state() == before


def test_branch_and_bound_path_is_pinned():
    # each node's row goes through the priced integer matrix; this pins the search
    shape = make_shape("strong", (3, 2))
    prob = build_representation_problem(make_hard(shape), 2, shape).problem
    pivots = 0
    pivot = exact_lp._DualL1.pivot

    def counted(self, *args):
        nonlocal pivots
        pivots += 1
        return pivot(self, *args)

    exact_lp._DualL1.pivot = counted
    try:
        root = min_l1(prob)
        res = ilp_min(root, node_budget=20)
    finally:
        exact_lp._DualL1.pivot = pivot
    assert (res.status, res.nodes, pivots) == ("budget", 20, 463)
    assert (res.value, res.lower_bound, root.value) == (24, 6, 6)
    assert res.witness == [-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, -2, -2, 0] + [
        1, 2, -1, -2, -2, -2, 2, 2, 0, 1, 0, 0, 0, 0
    ]


def test_strong32_branch_and_bound_stays_in_int64():
    # the 150-node search on strong(3,2) d = 2, its root solve included:
    # every pivot divides by the odd part of den, and none runs over
    # Python integers
    shape = make_shape("strong", (3, 2))
    prob = build_representation_problem(make_hard(shape), 2, shape).problem
    pivots = wide = 0
    pivot = exact_lp._DualL1.pivot

    def counted(self, *args):
        nonlocal pivots, wide
        before = self.wide_pivots
        pivot(self, *args)
        pivots += 1
        wide += self.wide_pivots - before

    exact_lp._DualL1.pivot = counted
    try:
        res = ilp_min(min_l1(prob), node_budget=150)
    finally:
        exact_lp._DualL1.pivot = pivot
    assert (res.status, res.nodes, res.value, res.lower_bound) == ("budget", 150, 22, 6)
    assert (pivots, wide) == (2879, 0)


def test_every_branch_and_bound_node_is_its_parents_lp_plus_one_row():
    # a node is forked off its parent with its branching row added last, so
    # its tableau solves that LP, and certifies it over its own rows
    shape = make_shape("strong", (3, 2))
    prob = build_representation_problem(make_hard(shape), 2, shape).problem
    root = min_l1(prob)
    forks = []
    fork = exact_lp._DualL1.fork

    def recorded(self, problem):
        child = fork(self, problem)
        forks.append((self, child))
        return child

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_lp._DualL1, "fork", recorded)
        res = ilp_min(root, node_budget=20)
    assert (res.status, res.nodes) == ("budget", 20) and len(forks) >= 20
    known = {id(root.solver)}
    for parent, child in forks:
        assert id(parent) in known  # the root or a node forked earlier
        known.add(id(child))
        rows, parent_rows = child.problem.constraints, parent.problem.constraints
        assert len(rows) == len(parent_rows) + 1 and np.array_equal(rows[:-1], parent_rows)
        assert child.A is rows
        assert sorted(map(abs, rows[-1, :-1].tolist())) == [0] * (prob.num_vars - 1) + [1]  # +-x_j >= b
    for _, child in forks[::4]:
        got, cold = child.clone().certify(exact_lp.DEFAULT_PIVOT_CAP), min_l1(child.problem)
        assert got.status == cold.status
        if got.status == "optimal":
            assert got.value == cold.value and check_l1_bound(child.problem, got.dual, got.value)
        else:
            assert check_farkas(child.problem, got.farkas)


def test_budget_stop_reports_the_integer_lower_bound():
    # the weight is an integer, so the relaxation's ceiling bounds it
    shape = make_shape("weak", (2, 3))
    prob = build_representation_problem(make_hard(shape), 2, shape).problem
    root = min_l1(prob)
    res = ilp_min(root, node_budget=1)
    assert (res.status, root.value, res.lower_bound, res.value) == ("budget", Fraction(183, 2), 92, 366)
    assert type(res.lower_bound) is Fraction


# ---------------------------------------------------------------------------
# extensions forked off one walk of their base
# ---------------------------------------------------------------------------


@st.composite
def sign_rows(draw):
    """The sign rows of a random function of k inputs, over 0/1 or +-1 and
    with or without a bias: gate-like LPs whose slacks enter again."""
    k = draw(st.integers(2, 3))
    inputs = itertools.product(draw(st.sampled_from([(0, 1), (-1, 1)])), repeat=k)
    bias = draw(st.booleans())
    rows = []
    for x in inputs:
        a = {j: v for j, v in enumerate(x) if v} | ({k: 1} if bias else {})
        rows.append((a, GE, 0) if draw(st.booleans()) else (a, LE, -1))
    return k + bias, rows


@st.composite
def extension_lps(draw):
    """A small integer base, feasible or not, and 1-6 rows to add to it one
    at a time.  Unit rows price like the slacks, and duplicates and
    flips of base rows like the base's own columns, so ties are common."""
    random_rows = st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(lp_rows(n), min_size=1, max_size=7))
    )
    base = problem_of(*draw(random_rows | sign_rows()))

    def variants(r):
        coeffs, rel, rhs = r
        other = LE if rel == GE else GE
        negated = {j: -c for j, c in coeffs.items()}
        # the same row, the same row read the other way, its negation
        return st.sampled_from([r, (negated, other, -rhs), (coeffs, other, rhs)])

    from_base = st.sampled_from(dict_rows(base)).flatmap(variants)
    return base, draw(st.lists(lp_rows(base.num_vars) | from_base, min_size=1, max_size=6))


def lp_rows(nvars):
    """Rows over ``nvars`` variables: small integer ones, and unit rows
    with a right-hand side in -1..1."""
    rel = st.sampled_from([GE, LE])
    row = st.tuples(
        st.dictionaries(st.integers(0, nvars - 1), st.integers(-3, 3)), rel, st.integers(-4, 4)
    )
    unit = st.builds(
        lambda j, c, r, b: ({j: c}, r, b),
        st.integers(0, nvars - 1), st.sampled_from([-1, 1]), rel, st.integers(-1, 1),
    )
    return row | unit


def cold_or_budget(problem, max_pivots):
    try:
        return min_l1(problem, max_pivots)
    except BudgetError:
        return None


def problem_of(nvars, rows):
    problem = LpProblem(nvars)
    for r in rows:
        problem.add(*r)
    return problem


# the base enters a slack whose cost ties with the new row's: the row forks there
TIE_WITH_A_SLACK = (
    problem_of(3, [({0: -1, 1: -1, 2: 1}, GE, 0), ({0: -1, 1: 1, 2: 1}, LE, -1),
                ({0: 1, 1: -1, 2: 1}, LE, -1), ({0: 1, 1: 1, 2: 1}, LE, -1)]),
    [({1: -1}, GE, 1)],
)


@pytest.mark.parametrize("rule, max_pivots", [("hybrid", 200_000), ("bland", 200_000), ("hybrid", 4)])
@settings(max_examples=150, deadline=None)
@given(lp=extension_lps())
@example(lp=TIE_WITH_A_SLACK)
def test_extensions_walk_equals_cold_solves(rule, max_pivots, lp):
    base, rows = lp
    real_init = exact_lp._DualL1.__init__

    def init(self, *args):
        real_init(self, *args)
        self.rule = rule

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_lp._DualL1, "__init__", init)
        cold = [cold_or_budget(base.extended(*r), max_pivots) for r in rows]
        if None in cold:  # some cold solve ran out of pivots
            with pytest.raises(BudgetError):
                exact_lp.solve_extensions(base, rows, max_pivots)
            return
        walked = exact_lp.solve_extensions(base, rows, max_pivots)
    assert [problem_to_text(p) for p, _ in walked] == [problem_to_text(base.extended(*r)) for r in rows]
    for (_, got), want in zip(walked, cold):
        assert (got.status, got.farkas, got.witness, got.stats) == (
            want.status, want.farkas, want.witness, want.stats
        )


def test_fork_renumbers_the_slacks():
    # a fork's row takes the column after the parent's rows, so the slacks
    # move up one; a fork of a fork moves them again
    prob = build_representation_problem(make_gt(2), 1).problem
    parent = exact_lp._DualL1(prob)
    parent.optimize()
    before = parent.basis[:]
    child = parent.fork(prob.extended({0: 1}, GE, 5))
    n0 = len(prob.constraints)
    assert child.A is child.problem.constraints and len(child.A) == n0 + 1
    assert child.basis == [b + (b >= n0) for b in before] and parent.basis == before
    assert np.array_equal(child.T, parent.T) and child.slacks == parent.slacks
    grandchild = child.fork(child.problem.extended({1: 1}, GE, 0))
    assert grandchild.basis == [b + (b >= n0 + 1) for b in child.basis]
    assert len(grandchild.A) == n0 + 2 and len(child.A) == n0 + 1


# ---------------------------------------------------------------------------
# limb pricing against the per-column loop
# ---------------------------------------------------------------------------


def priced_tableau(nvars, rows, w, den, rule):
    """A tableau over these rows whose inverse is den * I and whose cost row
    on the 2N slacks is ``w``: every slack column is stored, so no basic
    variable is a slack (a state no pivot reaches; pricing reads only the
    cost row and den)."""
    t = exact_lp._DualL1(ge_problem(nvars, rows))
    m = 2 * nvars
    t.T = np.zeros((m + 1, m + 1), dtype=object)
    t.T[:m, :m] = np.identity(m, dtype=object) * den
    t.T[:m, m] = den  # the basic values, 1 each
    t.T[m, :m] = w
    t.slacks = list(range(m))
    t.basis = [-1] * m
    t.basic_slack = np.full(m, m)
    t.den, t.rule = den, rule
    return t


COEFFS = {
    "pm1": st.sampled_from([-1, 1]),
    "small": st.integers(-9, 9),
    # row L1 norms from 2^51 up past 2^53: limbs of width 1, then none (Python integers)
    "near 2^52": st.sampled_from([-(2**50), 2**51, 2**52 - 1]) | st.integers(-(2**51), 2**51),
    "past 2^62": st.integers(-(2**63), 2**63),
    "past 2^70": st.integers(-(2**72), 2**72),
}
VALUES = st.integers(-3, 3) | st.integers(-(2**300), 2**300)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_limb_pricing_matches_the_per_column_loop(data):
    nvars = data.draw(st.integers(1, 5))
    coeff = COEFFS[data.draw(st.sampled_from(sorted(COEFFS)))]
    row = st.tuples(
        st.dictionaries(st.integers(0, nvars - 1), coeff),
        coeff | st.integers(-3, 3),
    )
    drawn = data.draw(st.lists(row, max_size=9))
    # repeated rows price equally, so ties between columns are common
    rows = drawn + data.draw(st.lists(st.sampled_from(drawn), max_size=3)) if drawn else []
    w = data.draw(st.lists(VALUES, min_size=2 * nvars, max_size=2 * nvars))
    den = data.draw(st.integers(1, 3) | st.integers(1, 2**300))
    rule = data.draw(st.sampled_from(["hybrid", "bland"]))
    t = priced_tableau(nvars, rows, w, den, rule)
    assert t._entering() == reference_entering(nvars, w, den, rows, rule)
    # the inverse is den * I, so a row's column is den * [a; -a]
    for c, (a, _) in enumerate(rows):
        a = [den * a.get(j, 0) for j in range(nvars)]
        assert list(map(int, t.column(c))) == a + [-v for v in a]


@pytest.mark.parametrize(
    "rows, appended, w, den, rule, expected",
    [
        # equal most negative costs: rows 1, 2 and 3, the one added last -> 1
        ([({0: 1}, 0), ({0: -1}, 1), ({0: -1}, 1)], [({0: -1}, 1)], [0, 0], 2, "hybrid", (1, -2)),
        # a slack ties with a row; the row comes first
        ([({0: 1}, 0)], [], [-(2**70), 0], 1, "hybrid", (0, -(2**70))),
        # Bland takes the first negative, not the most negative
        ([({0: 1}, 1), ({0: 1}, 5)], [], [0, 0], 1, "bland", (0, -1)),
        # every price nonnegative
        ([({0: 2**80}, -1)], [({0: 1}, -5)], [2**200, 3], 7, "hybrid", None),
        ([({0: 2**80}, -1)], [({0: 1}, -5)], [2**200, 3], 7, "bland", None),
        # an int64 row too wide for any limb (2 columns, 2 * 2^60 has 62 bits):
        # priced over Python integers, down to the int64 edge -2^63
        ([({0: 2**60}, 0)], [], [-8, 0], 1, "hybrid", (0, -(2**63))),
        # row L1 norm 2^51: limbs of width 1; 2^52: no width, Python integers
        ([({0: 2**51}, 0)], [], [-(2**60), 0], 1, "hybrid", (0, -(2**111))),
        ([({0: 2**52}, 0)], [], [-(2**60), 0], 1, "hybrid", (0, -(2**112))),
    ],
)
def test_limb_pricing_ties_bland_and_optimal(rows, appended, w, den, rule, expected):
    # rows added last are ordinary rows, their columns before the slacks
    t = priced_tableau(1, rows + appended, w, den, rule)
    assert t._entering() == expected == reference_entering(1, w, den, rows + appended, rule)


def exactly_n(n, elements):
    return st.lists(elements, min_size=n, max_size=n)


@st.composite
def pricing_near(draw, limit):
    """(nvars, rows, w, den, tmax, below) of a pricing whose bound
    max(2 * tmax, den) * l1 is the largest below ``limit`` (``below``) or
    the least at or past it: one row of L1 norm l1, the others within it,
    and cost-row entries up to tmax, often +-tmax, so prices near the
    bound."""
    nvars, l1, below = draw(st.integers(1, 3)), draw(st.integers(2, 40)), draw(st.booleans())
    if draw(st.booleans()):  # den is the bound
        den = (limit - 1) // l1 + (not below)
        tmax = draw(st.integers(1, den // 2))
    else:  # 2 * tmax is
        tmax = (limit - 1) // (2 * l1) + (not below)
        den = draw(st.integers(1, 2 * tmax))
    sign = st.sampled_from([-1, 1])
    full = [draw(sign) * v for v in draw(st.permutations([l1] + [0] * nvars))]
    small = st.integers(-(l1 // (nvars + 1)), l1 // (nvars + 1))
    rows = [full] + draw(st.lists(exactly_n(nvars + 1, small), max_size=4))
    rows = [(dict(enumerate(r[:-1])), r[-1]) for r in rows]
    w = draw(exactly_n(2 * nvars, st.sampled_from([-tmax, tmax]) | st.integers(-tmax, tmax)))
    return nvars, rows, w, den, tmax, below


pricing_near_2_53 = pricing_near(2**53)


def bounded_tableau(nvars, rows, w, den, tmax, rule):
    """``priced_tableau`` with max|T| = ``tmax``, off the cost row, so the
    pricing bound is max(2 * tmax, den) * l1; and its reduced costs, from
    the per-column loop."""
    t = priced_tableau(nvars, rows, w, den, rule)
    m = 2 * nvars
    t.T[:m] = 0
    t.T[0, m] = tmax
    z = [p - q for p, q in zip(w[:nvars], w[nvars:])]
    return t, [sum(a[j] * z[j] for j in a) - den * b for a, b in rows] + w


# den = 2^53 // 3 + 1 makes the bound 3 * den = 2^53 + 1 and the row's
# price -(2^53 + 1), an odd integer that no float64 holds
PRICE_2_53_PLUS_1 = (1, [({0: 0}, 3)], [0, 0], 2**53 // 3 + 1, 1, False)
# l1 = 3 gives limbs of 51 bits; at 52 bits the low limb of z = 2^53 - 1
# would be 2^52 - 1, and its product 3 * (2^52 - 1), an odd integer past
# 2^53, would round in float64
PRICE_LIMB_PAST_2_53 = (1, [({0: 3}, 0)], [2**53 - 1, 0], 1, 2**53 - 1, False)


@settings(max_examples=200, deadline=None)
@given(pricing_near_2_53, st.sampled_from(["hybrid", "bland"]))
@example(PRICE_2_53_PLUS_1, "hybrid")
@example(PRICE_LIMB_PAST_2_53, "hybrid")
def test_float_pricing_at_its_2_53_bound(case, rule):
    # an int64 block prices the rows in one float64 product exactly when the
    # bound is below 2^53, and in float64 limbs at or past it; a block of
    # Python integers, the same rationals, in limbs.  Each gives the
    # per-column loop's entering column and costs
    nvars, rows, w, den, tmax, below = case
    t, costs = bounded_tableau(nvars, rows, w, den, tmax, rule)
    limbs = {}
    for dtype in (object, np.int64):
        t.T = t.T.astype(dtype)
        p = t._priced()
        limbs[dtype] = len(p)
        assert exact_lp._join(p, t.width).tolist() == costs
        assert t._entering() == reference_entering(nvars, w, den, rows, rule)
    assert (limbs[np.int64] == 1) == below
    assert t.F.dtype == np.float64 and np.array_equal(t.F, t.A)


def loop_costs(t):
    """Every reduced cost of tableau ``t`` from the per-column loop over
    Python integers: [z | -den] . [a | b] per row of its ``A``, then the
    slack costs."""
    z, w = t.numerators(), t.costs()
    return [sum(map(int.__mul__, row, z + [-t.den])) for row in t.A.tolist()] + w


def test_forks_share_their_roots_float_copy():
    # branch-and-bound nodes and lemma forks price the rows of their root
    # from the root's one float64 copy, and their own rows, appended past
    # it, in one small float64 product: the costs are the per-column loop's
    shape = make_shape("strong", (3, 2))
    prob = build_representation_problem(make_hard(shape), 2, shape).problem
    root = min_l1(prob)
    copied = root.solver.F
    assert copied.dtype == np.float64 and np.array_equal(copied, prob.constraints)
    forks = []
    fork = exact_lp._DualL1.fork

    def recorded(self, problem):
        child = fork(self, problem)
        forks.append((self, child))
        return child

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_lp._DualL1, "fork", recorded)
        ilp_min(root, node_budget=20)
        nodes = len(forks)
        certify_coefficient_lemma("gt_exp", 5)
    assert nodes >= 20 and len(forks) > nodes
    walk = forks[nodes][0]  # solve_extensions' walk of the lemma's base
    assert np.array_equal(walk.F, walk.A)
    for (parent, child), root_copy in zip(forks, [copied] * nodes + [walk.F] * len(forks)):
        # the root's copy, the same object: no fork converts a matrix again
        assert child.F is parent.F and child.F is root_copy
        assert len(child.A) > len(root_copy)
        assert max(2 * child._block_max(), child.den) * child.l1 < 2**53  # the float lane
        p = child._priced()
        assert len(p) == 1 and p[0].tolist() == loop_costs(child)


# ---------------------------------------------------------------------------
# cross-check against an independent float solver
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_l1_against_scipy(data):
    scipy_opt = pytest.importorskip("scipy.optimize")
    nvars = data.draw(st.integers(1, 3))
    nrows = data.draw(st.integers(1, 5))
    pr = LpProblem(nvars)
    A_ub, b_ub = [], []
    for _ in range(nrows):
        coeffs = {j: data.draw(st.integers(-3, 3)) for j in range(nvars)}
        rhs = data.draw(st.integers(-4, 4))
        rel = data.draw(st.sampled_from([">=", "<="]))
        pr.add(coeffs, rel, rhs)
        row = [coeffs.get(j, 0) for j in range(nvars)]
        if rel == ">=":
            A_ub.append([-v for v in row])
            b_ub.append(-rhs)
        else:
            A_ub.append(row)
            b_ub.append(rhs)
    out = min_l1(pr)
    # scipy: split c = p - q, minimize sum(p + q)
    c = np.ones(2 * nvars)
    A = np.array([[*row, *[-v for v in row]] for row in A_ub], dtype=float)
    ref = scipy_opt.linprog(c, A_ub=A, b_ub=np.array(b_ub, dtype=float), method="highs")
    if out.status == "infeasible":
        assert check_farkas(pr, out.farkas)
        assert ref.status == 2
    else:
        assert ref.status == 0
        assert abs(float(out.value) - ref.fun) < 1e-7
        assert check_witness(pr, out.witness)
        assert check_l1_bound(pr, out.dual, out.value)
