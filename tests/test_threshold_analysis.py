"""Sign-representation checking, sign degree and minimal weight through
``RepresentationLadder``, lemma certification, and theorem instances run
through the pipeline."""

import dataclasses
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptflab import (
    BudgetError,
    Convention,
    HypothesisError,
    IntPolynomial,
    RepresentationLadder,
    build_representation_problem,
    certify_coefficient_lemma,
    check_farkas,
    check_sign_representation,
    check_witness,
    ilp_min,
    make_gt,
    make_hard,
    make_shape,
    min_l1,
    run_shape,
    theorem_bound,
    witness_gate,
)
from ptflab import exact_lp, make_g, threshold_analysis
from ptflab.boolfun import assignment_of_index, from_bits
from ptflab.cli import main as cli_main
from ptflab.exact_lp import GE, LE, LpProblem, problem_to_text
from ptflab.threshold_analysis import _xy_value_table
from checker_reference import dict_rows
from detector_reference import g_u_rows
from uv_reference import evaluate, linear_forms, scaled, uv_values

def constant_one(n):
    return from_bits([1] * (1 << n), n, Convention.ZERO_ONE, "one")

# ---------------------------------------------------------------------------
# sign-representation checking
# ---------------------------------------------------------------------------

def test_gate_passes_weak23():
    shape = make_shape("weak", (2, 3))
    assert check_sign_representation(witness_gate(shape), make_hard(shape)) is None

def test_mutated_gate_fails():
    shape = make_shape("weak", (2, 3))
    gate = witness_gate(shape)
    key = max(gate.coeffs, key=lambda k: abs(gate.coeffs[k]))
    broken = dict(gate.coeffs)
    broken[key] = -broken[key]
    cx = check_sign_representation(IntPolynomial("xy", shape, broken), make_hard(shape))
    assert cx is not None
    assert (cx.poly_value >= 0) != (cx.fun_value == 1)

def test_zero_poly_represents_constant_one():
    f = constant_one(3)
    p = IntPolynomial("xy", None, {})
    assert check_sign_representation(p, f) is None

def test_input_cap_enforced():
    f = make_gt(3)
    p = IntPolynomial("xy", None, {(0,): 1})
    with pytest.raises(BudgetError):
        check_sign_representation(p, f, input_cap=4)

def test_big_coefficients_fall_back_to_exact_path():
    # force the bignum branch: coefficients beyond int64
    shape = make_shape("weak", (2,))
    gate = scaled(witness_gate(shape), 2**80)
    assert check_sign_representation(gate, make_gt(2)) is None
    broken = scaled(witness_gate(shape), -(2**80))
    assert check_sign_representation(broken, make_gt(2)) is not None

_terms = st.lists(
    st.tuples(
        st.lists(st.integers(0, 4), max_size=4),  # variables, repeats allowed
        st.one_of(st.integers(-50, 50), st.integers(-(2**70), 2**70)),
    ),
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(terms=_terms, convention=st.sampled_from(list(Convention)))
@example(terms=[([0, 0, 3], 2**62), ([1], -1), ([], 5)], convention=Convention.PLUS_MINUS)
@example(terms=[([2, 2], 2**62 - 1), ([], 1)], convention=Convention.ZERO_ONE)
def test_xy_value_table_matches_per_input_evaluation(terms, convention):
    n = 5
    p = IntPolynomial("xy", None, {tuple(vs): c for vs, c in terms})
    vals = _xy_value_table(p, n, convention)
    assert vals.dtype == (object if p.weight >= 2**62 else "int64")
    want = [evaluate(p, assignment_of_index(i, n, convention)) for i in range(1 << n)]
    assert [int(v) for v in vals] == want


def reference_sign_check(p, f):
    """The per-input check: (index, value) of the first input whose sign
    disagrees with f, evaluated at its derived u/v assignment."""
    for i in range(f.size):
        uv = uv_values(p.shape, assignment_of_index(i, f.n, f.convention))
        pv = evaluate(p, uv)
        if (pv >= 0) != (f.bit(i) == 1):
            return i, pv
    return None


_UV_SHAPES = [
    (make_shape("weak", (2, 2)), Convention.ZERO_ONE),
    (make_shape("weak", (3,)), Convention.PLUS_MINUS),
    (make_shape("strong", (3, 2)), Convention.PLUS_MINUS),
    (make_shape("strong", (3, 3)), Convention.ZERO_ONE),
]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_uv_sign_check_matches_per_input_reference(data):
    shape, convention = data.draw(st.sampled_from(_UV_SHAPES))
    tags = sorted(uv_values(shape, [0] * shape.n))
    terms = data.draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(tags), max_size=3),  # repeats allowed
                st.one_of(st.integers(-50, 50), st.integers(-(2**70), 2**70)),
            ),
            max_size=6,
        )
    )
    p = IntPolynomial("uv", shape, {tuple(vs): c for vs, c in terms})
    # f follows the reference signs except at the drawn inputs
    flips = data.draw(st.sets(st.integers(0, (1 << shape.n) - 1), max_size=2))
    bits = []
    for i in range(1 << shape.n):
        uv = uv_values(shape, assignment_of_index(i, shape.n, convention))
        bits.append(int(evaluate(p, uv) >= 0) ^ (i in flips))
    f = from_bits(bits, shape.n, convention, "ref")
    want = reference_sign_check(p, f)
    got = check_sign_representation(p, f)
    assert want == (None if got is None else (got.index, got.poly_value))
    assert want == (None if not flips else (min(flips), want[1]))


def reference_representation_problem(f, degree):
    """The per-input construction: one row per input, repeats dropped; the
    rows as (coeffs, relation, rhs) triples."""
    monomials = [m for deg in range(degree + 1) for m in combinations(range(f.n), deg)]
    rows = []
    seen = set()
    for idx in range(f.size):
        x = assignment_of_index(idx, f.n, f.convention)
        row = {}
        for m, key in enumerate(monomials):
            v = 1
            for j in key:
                v *= x[j]
            if v:
                row[m] = v
        positive = f.bit(idx) == 1
        rel, rhs = (GE, 0) if positive else (LE, -1)
        sig = (tuple(sorted(row.items())), rel)
        if sig not in seen:
            seen.add(sig)
            rows.append((row, rel, rhs))
    return monomials, rows


@pytest.mark.parametrize("variant, ks", [("weak", (2, 3)), ("strong", (3, 3)), ("strong", (3, 2))])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_representation_problem_matches_per_input_reference(variant, ks, degree):
    for convention in Convention:  # both input alphabets
        f = dataclasses.replace(make_hard(make_shape(variant, ks)), convention=convention)
        monomials, ref = reference_representation_problem(f, degree)
        got = build_representation_problem(f, degree)
        assert got.monomials == monomials
        assert got.problem.num_vars == len(monomials)
        assert got.problem.constraints.dtype == np.int64
        # same rows in the same order, each with its keys in the same order
        assert [(list(r.items()), rel, rhs) for r, rel, rhs in dict_rows(got.problem)] == [
            (list(r.items()), rel, rhs) for r, rel, rhs in ref
        ]

# ---------------------------------------------------------------------------
# sign-degree
# ---------------------------------------------------------------------------

def sign_degree(f, dmax):
    """The first degree up to dmax whose ladder LP is not infeasible, or None."""
    ladder = RepresentationLadder(f)
    return next((d for d in range(dmax + 1) if ladder.solve(d)[1].status != "infeasible"), None)

def test_sign_degree_comparator():
    assert sign_degree(make_gt(3), 2) == 1

def test_sign_degree_constant():
    assert sign_degree(constant_one(3), 2) == 0

def test_sign_degree_weak23_with_certificates():
    ladder = RepresentationLadder(make_hard(make_shape("weak", (2, 3))))
    for d in (0, 1):
        prob, out = ladder.solve(d)
        assert out.status == "infeasible"
        assert check_farkas(prob.problem, out.farkas)
    assert ladder.solve(2)[1].status == "optimal"

def test_sign_degree_exceeds_dmax():
    ladder = RepresentationLadder(make_hard(make_shape("weak", (2, 2))))
    for d in (0, 1):  # no gate up to degree 1: each degree has a Farkas certificate
        prob, out = ladder.solve(d)
        assert out.status == "infeasible" and check_farkas(prob.problem, out.farkas)

# ---------------------------------------------------------------------------
# minimal weight
# ---------------------------------------------------------------------------

def test_min_weight_tiny_comparator():
    f = make_gt(1)
    res = RepresentationLadder(f).exact_weight(1)
    assert res.value == 2
    assert check_sign_representation(res.witness, f) is None

def test_min_weight_constant_is_zero():
    ladder = RepresentationLadder(constant_one(3))
    assert ladder.solve(1)[1].value == 0
    assert ladder.exact_weight(2).value == 0

def test_min_weight_lp_lower_bounds_exact():
    ladder = RepresentationLadder(make_gt(2))
    exact = ladder.exact_weight(1)
    assert ladder.solve(1)[1].value <= exact.value
    assert exact.value == 6

def test_min_weight_infeasible_degree():
    out = RepresentationLadder(make_hard(make_shape("weak", (2, 2)))).solve(1)[1]
    assert out.value is None
    assert out.status == "infeasible"

def test_budget_exhaustion_reports_scaled_incumbent_bounds():
    # the strong (3,3) relaxation is fractional with a wide gap; even a
    # one-node run must report honest bounds, the upper one coming from
    # the denominator-scaled relaxation witness
    shape = make_shape("strong", (3, 3))
    f = make_hard(shape)
    prob = build_representation_problem(f, 2, shape=shape).problem
    res = ilp_min(min_l1(prob), node_budget=1)
    assert res.status == "budget"
    assert res.lower_bound == Fraction(15)
    assert res.value is not None
    assert check_witness(prob, res.witness)
    assert sum(abs(v) for v in res.witness) == res.value <= 8 * 15


# ---------------------------------------------------------------------------
# coefficient lemmas
# ---------------------------------------------------------------------------

def test_gt_lemmas_certified_small():
    for k in (2, 3):
        assert certify_coefficient_lemma("gt_exp", k).status == "CERTIFIED"
        assert certify_coefficient_lemma("gt_step", k).status == "CERTIFIED"

def test_g_lemmas_certified_k3():
    for lemma in ("g1_pos", "g1_mono", "g0_all"):
        assert certify_coefficient_lemma(lemma, 3).status == "CERTIFIED"

def test_wrong_inequality_yields_witness_gate(monkeypatch, capsys):
    # add the false claim w2 >= 2 w1 + 1 to gt_exp, as the negated row
    # w2 - 2 w1 <= 0: the doubling gate has w2 = 2 w1 exactly
    real = threshold_analysis._lemma_negations
    false_claim = ("w2 >= 2*w1 + 1", {1: 1, 0: -2}, LE, 0)
    monkeypatch.setattr(threshold_analysis, "_lemma_negations", lambda lemma, k: real(lemma, k) + [false_claim])
    res = certify_coefficient_lemma("gt_exp", 3)
    assert res.status == "VIOLATED"
    *true_claims, chk = res.checks
    assert [c.status for c in true_claims] == ["CERTIFIED"] * 3
    assert (chk.description, chk.status, chk.farkas) == ("w2 >= 2*w1 + 1", "VIOLATED", None)
    w = chk.witness
    assert all(isinstance(v, int) for v in w)  # the LP witness scaled to integers
    assert w[1] <= 2 * w[0]
    assert check_witness(chk.problem, w)
    # the command line reports the violated claim and exits with 1
    assert cli_main(["check-lemma", "gt_exp", "--k", "3"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "CERTIFIED: w1 >= 1",
        "CERTIFIED: w2 >= 1*w1",
        "CERTIFIED: w3 >= 2*w1",
        "VIOLATED: w2 >= 2*w1 + 1",
        "VIOLATED: gt_exp at k=3",
    ]

def test_lemma_farkas_vector_checked_once(monkeypatch):
    calls = []
    real = exact_lp.check_farkas

    def counted(problem, lam):
        calls.append(1)
        return real(problem, lam)

    for module in (exact_lp, threshold_analysis):
        monkeypatch.setattr(module, "check_farkas", counted, raising=False)
    res = certify_coefficient_lemma("gt_exp", 3)
    assert all(chk.status == "CERTIFIED" and check_farkas(chk.problem, chk.farkas) for chk in res.checks)
    # the solver checked each inequality's Farkas vector once, and nothing else did
    assert len(calls) == len(res.checks) == 3

def test_lemma_certificates_replayable():
    res = certify_coefficient_lemma("gt_step", 4)
    for chk in res.checks:
        assert chk.farkas is not None
        assert check_farkas(chk.problem, chk.farkas)

@pytest.mark.parametrize("which", ["g1", "g0"])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_g_lemma_rows_match_per_input_linear_forms(which, k):
    # one row per input in product order: L(x) >= 0 where g(x) = 1, else L(x) <= -1
    fun = make_g(k, which)
    want = []
    for x in product((-1, 1), repeat=k):
        row = {j: v for j, v in enumerate(linear_forms(x)) if v}
        want.append((row, GE, 0) if fun.eval(x) == 1 else (row, LE, -1))
    assert dict_rows(LpProblem(k, *threshold_analysis._g_u_rows(which, k))) == want


@pytest.mark.parametrize("which", ["g1", "g0"])
@pytest.mark.parametrize("k", range(2, 11))
def test_g_lemma_rows_match_the_per_input_table_read(which, k):
    # the classes read from the table in one step, against one shift per input
    rows, le = threshold_analysis._g_u_rows(which, k)
    want_rows, want_le = g_u_rows(which, k)
    assert rows.dtype == want_rows.dtype and np.array_equal(rows, want_rows)
    assert le.dtype == want_le.dtype and np.array_equal(le, want_le)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
def test_gt_lemma_rows_match_the_comparator_per_input(k):
    # u in product order: L(u) >= 0 where the last nonzero u_j is positive
    # (or u = 0), else L(u) <= -1
    want = []
    for u in product((-1, 0, 1), repeat=k):
        row = {j: v for j, v in enumerate(u) if v}
        last = [v for v in u if v][-1:] or [1]
        want.append((row, GE, 0) if last[0] > 0 else (row, LE, -1))
    assert dict_rows(LpProblem(k, *threshold_analysis._gt_u_rows(k))) == want


def cold_lemma_reference(lemma, k):
    """Each negated inequality on its own: a freshly built base, the
    negated row added last, one ``min_l1``.  Nothing is shared between the
    inequalities.  (status, problem text, vector) per inequality."""
    base = threshold_analysis._LEMMA_BASE[lemma]
    out = []
    for _, coeffs, rel, rhs in threshold_analysis._lemma_negations(lemma, k):
        problem = threshold_analysis._base_problem(base, k)
        problem.add(coeffs, rel, rhs)
        got = exact_lp.min_l1(problem)
        if got.status == "infeasible":
            out.append(("CERTIFIED", problem_to_text(problem), got.farkas))
        else:
            denom = math.lcm(*(v.denominator for v in got.witness))
            out.append(("VIOLATED", problem_to_text(problem), [int(v * denom) for v in got.witness]))
    return out


SHARED_BASE_LEMMAS = [(lemma, k) for k in range(2, 7) for lemma in ("gt_exp", "gt_step")] + [
    (lemma, k) for k in (3, 5) for lemma in ("g1_pos", "g1_mono", "g0_all")
]


@pytest.mark.parametrize("lemma, k", SHARED_BASE_LEMMAS)
def test_shared_base_lemma_matches_cold_reference(lemma, k):
    res = certify_coefficient_lemma(lemma, k)
    got = [
        (c.status, problem_to_text(c.problem), c.farkas if c.status == "CERTIFIED" else c.witness)
        for c in res.checks
    ]
    assert got == cold_lemma_reference(lemma, k)


@pytest.mark.parametrize("k, walked, cold", [(5, 15, 47), (7, 21, 93)])
def test_lemma_walks_its_base_once_and_forks_each_inequality(monkeypatch, k, walked, cold):
    builds, solvers, certified, pivots = [], [], [], []
    real_rows, real_init = threshold_analysis._gt_u_rows, exact_lp._DualL1.__init__
    real_certify, real_pivot = exact_lp._DualL1.certify, exact_lp._DualL1.pivot

    def counted_rows(k):
        builds.append(k)
        return real_rows(k)

    def counted_init(self, problem):
        solvers.append(problem)
        real_init(self, problem)

    def recorded_certify(self, max_pivots):
        out = real_certify(self, max_pivots)
        certified.append((self.problem, out))
        return out

    def counted_pivot(self, *args):
        pivots.append(1)
        return real_pivot(self, *args)

    monkeypatch.setattr(threshold_analysis, "_gt_u_rows", counted_rows)
    monkeypatch.setattr(exact_lp._DualL1, "__init__", counted_init)
    monkeypatch.setattr(exact_lp._DualL1, "certify", recorded_certify)
    monkeypatch.setattr(exact_lp._DualL1, "pivot", counted_pivot)
    res = certify_coefficient_lemma("gt_exp", k)
    monkeypatch.undo()
    assert res.status == "CERTIFIED"
    assert builds == [k]
    assert len(solvers) == 1  # the base's; each inequality's tableau is a fork of it
    negations = threshold_analysis._lemma_negations("gt_exp", k)
    by_problem = {id(problem): out for problem, out in certified}
    assert len(res.checks) == len(by_problem) == len(certified) == len(negations) == k
    base = solvers[0]
    for chk, (_, coeffs, rel, rhs) in zip(res.checks, negations):
        out = by_problem[id(chk.problem)]  # the problem certified for this inequality
        want = LpProblem(k, base.constraints, base.le)
        want.add(coeffs, rel, rhs)  # the base's rows, then the negated inequality
        assert np.array_equal(chk.problem.constraints, want.constraints)
        assert np.array_equal(chk.problem.le, want.le)
        assert chk.farkas == out.farkas
        assert out.stats == exact_lp.min_l1(chk.problem).stats  # the cold solve's pivots
    assert len(pivots) == walked
    assert sum(out.stats["pivots"] for _, out in certified) == cold


def test_unknown_lemma_rejected():
    with pytest.raises(Exception):
        certify_coefficient_lemma("nope", 3)

# ---------------------------------------------------------------------------
# theorem bounds and instances
# ---------------------------------------------------------------------------

def test_theorem_bound_values():
    assert theorem_bound(make_shape("weak", (2, 3))) == 1
    assert theorem_bound(make_shape("weak", (2, 2, 3))) == 2
    # strong (3,3): exponent (3-2)*2 - 2*ceil(log2 9) = -6, floored to 0
    assert theorem_bound(make_shape("strong", (3, 3))) == 0
    assert theorem_bound(make_shape("strong", (5, 5))) == 2 ** (3 * 4 - 2 * 4)

def test_theorem_bound_rejects_bad_hypotheses():
    with pytest.raises(HypothesisError):
        theorem_bound(make_shape("weak", (3, 3)))
    with pytest.raises(HypothesisError):
        theorem_bound(make_shape("weak", (2, 2)))
    with pytest.raises(HypothesisError):
        theorem_bound(make_shape("strong", (4, 3)))

def test_single_group_routes_through_comparator_bound():
    # d = 1: the product is empty and the bound is 2^(k-3)
    shape = make_shape("weak", (4,))
    assert theorem_bound(shape) == 2
    res = RepresentationLadder(make_hard(shape)).exact_weight(1)
    assert res.value >= 2

def test_verify_instance_weak23_exact():
    modes = ("verify-gate", "signdeg", "minweight-lp", "minweight-exact", "theorem")
    res = run_shape(make_shape("weak", (2, 3)), modes)
    # every finding with a verdict, keyed by its CSV metric, in finding order
    assert list(res.verdicts.items()) == [
        ("verify_gate", "PASS"),
        ("gate_weight_formula", "PASS"),
        ("basis_change", "PASS"),
        ("signdeg_infeasible_d0", "CERTIFIED"),
        ("signdeg_infeasible_d1", "CERTIFIED"),
        ("sign_degree", "PASS"),
        ("minweight_lp", "CERTIFIED"),
        ("theorem_vs_exact", "PASS"),
        ("domination_chain", "PASS"),
    ]
    assert res.theorem_value == 1
    assert res.exact_weight == 92
    assert res.lp_weight == Fraction(183, 2)
    assert res.ok

def test_verify_instance_strong33_lp():
    res = run_shape(make_shape("strong", (3, 3)), ("verify-gate", "signdeg", "minweight-lp", "theorem"))
    assert res.verdicts["verify_gate"] == "PASS"
    assert res.verdicts["basis_change"] == "PASS"
    assert res.verdicts["sign_degree"] == "PASS"
    assert res.sign_degree == 2
    assert res.theorem_value == 0
    assert res.ok
