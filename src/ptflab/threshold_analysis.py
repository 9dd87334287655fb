"""Sign-representation checks, the representation LPs of a function, and
the certified lemma/theorem instances built on top of the exact LP layer.

``RepresentationLadder`` is the one entry to a function's representation
LPs: ``solve(d)`` answers whether a degree-d gate exists (with a Farkas
certificate when none does) and gives the LP weight, and
``exact_weight(d)`` gives the exact integer weight W by branch and bound.

The conventions in force everywhere: a polynomial p sign-represents f when
f(x) = 1 exactly on the inputs with p(x) >= 0 (value 0 or -1 otherwise,
depending on f's convention).  LP encodings put a -1 margin on the
negative class, which makes LP feasibility equivalent to representability
by an integer gate: any rational solution scales up to an integer one and
any integer gate already satisfies the margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .boolfun import BoolFun, assignment_of_index, make_g
from .exact_lp import (
    DEFAULT_NODE_BUDGET,
    GE,
    LE,
    BudgetError,
    IlpResult,
    LpOutcome,
    LpProblem,
    check_witness,
    ilp_min,
    min_l1,
    solve_extensions,
)
from .polynomial import IntPolynomial, _strong_forms, from_uv
from .shapes import Convention, GroupShape, Variant

# budgets, read at each check: the inputs of an exhaustive truth table, and
# the entries, rows x (columns + 1), of one LP's matrix
INPUT_CAP = 24
LP_ENTRY_CAP = 1 << 27


def check_input_cap(n: int) -> None:
    """``BudgetError`` when a function of n inputs is past the input cap."""
    if n > INPUT_CAP:
        raise BudgetError(f"n = {n} exceeds the input cap {INPUT_CAP}")


def _check_lp_entries(rows: int, columns: int) -> None:
    """``BudgetError`` when an LP of ``rows`` rows over ``columns`` variables is past the LP entry cap."""
    if rows * (columns + 1) > LP_ENTRY_CAP:
        raise BudgetError(f"a {rows} x {columns + 1} LP exceeds the LP entry cap {LP_ENTRY_CAP}")


def check_representation_caps(n: int, degree: int) -> None:
    """``BudgetError`` when a function of n inputs is past the input cap or
    its degree-``degree`` representation LP, a row per input (two at degree
    0) over every monomial of degree <= ``degree``, past the LP entry cap.
    Counts only: nothing is built."""
    check_input_cap(n)
    _check_lp_entries(1 << n if degree else 2, sum(math.comb(n, d) for d in range(min(degree, n) + 1)))


class AnalysisError(ValueError):
    pass


class HypothesisError(AnalysisError):
    """Theorem hypotheses do not hold for the shape; bound not asserted."""


# ---------------------------------------------------------------------------
# Evaluating polynomials over entire input cubes
# ---------------------------------------------------------------------------


def _xy_value_table(p: IntPolynomial, n: int, convention: Convention) -> np.ndarray:
    """Exact values of an xy polynomial at every input by a fast transform.

    Each monomial is reduced to the bitmask of its variables (a repeated
    variable counts once over {0,1}; over {-1,1} only variables of odd
    multiplicity remain) and its coefficient added there.  Then n butterfly
    steps turn coefficients into values: the subset-sum (zeta) transform
    for {0,1} inputs, the Walsh-Hadamard transform for {-1,1} inputs, n*2^n
    additions whatever the number of terms.  Every intermediate is a signed
    sum of distinct coefficients, so |value| <= weight: int64 while the
    weight is below 2^62, Python ints (dtype=object) above.
    """
    zero_one = convention is Convention.ZERO_ONE
    reduced: dict = {}
    for key, c in p.coeffs.items():
        mask = 0
        for v in key:
            mask = mask | (1 << v) if zero_one else mask ^ (1 << v)
        reduced[mask] = reduced.get(mask, 0) + c
    vals = np.zeros(1 << n, dtype=np.int64 if p.weight < 2**62 else object)
    for mask, c in reduced.items():
        vals[mask] = c
    for j in range(n):
        pairs = vals.reshape(-1, 2, 1 << j)  # axis 1 is variable j
        if zero_one:
            pairs[:, 1] += pairs[:, 0]
        else:
            low = pairs[:, 0].copy()
            pairs[:, 0] -= pairs[:, 1]
            pairs[:, 1] += low
    return vals


def _fun_bits(f: BoolFun) -> np.ndarray:
    nbytes = max(1, (f.size + 7) // 8)
    raw = np.frombuffer(f.table.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[: f.size]


@dataclass(frozen=True)
class Counterexample:
    index: int
    assignment: tuple
    poly_value: int
    fun_value: int


def check_sign_representation(p: IntPolynomial, f: BoolFun) -> Counterexample | None:
    """Exhaustive comparison of sign(p) against f; None means PASS.

    The polynomial is evaluated on the whole cube by one transform
    (``_xy_value_table``: int64 below weight 2^62, Python ints above); a uv
    polynomial goes through ``from_uv`` first.  Returns the first failing
    input.
    """
    check_input_cap(f.n)
    if p.basis == "uv" and p.shape is None:
        raise AnalysisError("uv polynomial needs a shape")
    if p.shape is not None and p.shape.n != f.n:
        raise AnalysisError("polynomial and function disagree on n")
    vals = _xy_value_table(from_uv(p) if p.basis == "uv" else p, f.n, f.convention)
    mismatch = (vals >= 0) != (_fun_bits(f) == 1)
    if not mismatch.any():
        return None
    idx = int(np.nonzero(mismatch)[0][0])
    assignment = assignment_of_index(idx, f.n, f.convention)
    return Counterexample(idx, assignment, int(vals[idx]), f.value_at(idx))


# ---------------------------------------------------------------------------
# Representation problems
# ---------------------------------------------------------------------------


@dataclass
class RepresentationProblem:
    """Sign constraints of f over the xy monomials up to a degree, as an
    LpProblem.

    One constraint per distinct input row: p >= 0 on the positive class,
    p <= -1 on the negative class.  ``monomials`` are variable-id tuples.
    """

    f: BoolFun
    degree: int
    monomials: list
    problem: LpProblem
    shape: GroupShape | None = None
    basis = "xy"  # monomials are over the input variables

    def witness_polynomial(self, coeffs) -> IntPolynomial:
        return IntPolynomial("xy", self.shape, dict(zip(self.monomials, coeffs)))


def build_representation_problem(f: BoolFun, degree: int, shape: GroupShape | None = None) -> RepresentationProblem:
    """The sign constraints of f over every monomial of degree <= ``degree``.

    Above degree 0 one int8 matrix holds the value of each monomial at
    each input.  The degree-1 monomials are the input bits, so no two rows
    are equal and every input gives a row, in input order.  At degree 0 a
    row is only the class of f, and the first input of each class gives
    it, in input order, read from f's bits alone.  The order fixes the
    simplex pivot path.  The LP's matrix is filled from the values in array
    steps: a positive input's row [m | 0] reads p >= 0, a negative one's
    p <= -1, stored negated as [-m | 1].  ``BudgetError`` before anything
    is built when f is past the input cap or the LP past the LP entry cap.
    """
    check_representation_caps(f.n, degree)
    monomials = [m for deg in range(min(degree, f.n) + 1) for m in combinations(range(f.n), deg)]
    bits = _fun_bits(f)
    if degree:
        inputs = np.arange(f.size)
        xs = [((inputs >> j) & 1).astype(np.int8) for j in range(f.n)]
        if f.convention is Convention.PLUS_MINUS:
            xs = [2 * b - 1 for b in xs]
        column = {m: i for i, m in enumerate(monomials)}
        values = np.empty((f.size, len(monomials)), dtype=np.int8)
        for i, key in enumerate(monomials):
            # monomials come by degree, so key[:-1] already has its column
            values[:, i] = values[:, column[key[:-1]]] * xs[key[-1]] if key else 1
    else:
        first = sorted({int(bits.argmin()), int(bits.argmax())})  # the first 0 and the first 1, if any
        values, bits = np.ones((len(first), 1), np.int8), bits[first]
    problem = LpProblem(len(monomials), *_sign_rows(values, bits))
    return RepresentationProblem(f, degree, monomials, problem, shape)


def _sign_rows(values: np.ndarray, positive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The matrix and ``le`` flags of the sign constraints L >= 0 where
    ``positive`` is set and L <= -1 elsewhere, one per row of ``values``
    (the L of each row): [L | 0], or [-L | 1] for a row stated as <=."""
    le = positive == 0
    rows = np.empty((len(values), values.shape[1] + 1), np.int64)
    rows[:, :-1] = np.where(le[:, None], -values, values)
    rows[:, -1] = le
    return rows, le


# ---------------------------------------------------------------------------
# The representation LPs of one function: sign degree and minimal weight
# ---------------------------------------------------------------------------


@dataclass
class MinWeightResult:
    value: int | None
    witness: IntPolynomial | None
    ilp: IlpResult


@dataclass
class RepresentationLadder:
    """The representation LPs of one function, each built and solved once;
    the only entry to them.

    ``solve(d)`` is the ``min_l1`` outcome of the degree-d problem.  That one
    solve answers whether a degree-d gate exists (infeasible outcomes keep
    only their Farkas vector, already re-checked), gives the LP weight with
    its dual bound, and (when optimal) keeps the tableau branch and bound
    starts from.  The sign degree is the first d whose outcome is not
    infeasible.  ``exact_weight(d)`` gives the exact integer weight W.  A
    budget error (the input cap, the LP entry cap or the pivot budget, all
    module constants) is remembered and raised again rather than spent twice.
    """

    f: BoolFun
    shape: GroupShape | None = None
    _solved: dict = field(default_factory=dict, repr=False)

    def solve(self, d: int) -> tuple[RepresentationProblem, LpOutcome]:
        if d not in self._solved:
            try:
                prob = build_representation_problem(self.f, d, shape=self.shape)
                self._solved[d] = (prob, min_l1(prob.problem))
            except BudgetError as exc:
                self._solved[d] = exc
        got = self._solved[d]
        if isinstance(got, BudgetError):
            raise got
        return got

    def exact_weight(
        self, degree: int, node_budget: int = DEFAULT_NODE_BUDGET, incumbent: IntPolynomial | None = None
    ) -> MinWeightResult:
        """Exact integer optimum by branch and bound from the solved degree
        LP.  Raises BudgetError, carrying the bounds found, when the nodes
        run out."""
        prob, out = self.solve(degree)
        seed = None
        if incumbent is not None:
            index = {m: i for i, m in enumerate(prob.monomials)}
            seed = [0] * len(prob.monomials)
            for key, c in incumbent.coeffs.items():
                if key not in index:
                    raise AnalysisError("incumbent uses monomials outside the basis")
                seed[index[key]] = c
        res = ilp_min(out, node_budget=node_budget, incumbent=seed)
        if res.status == "infeasible":
            return MinWeightResult(None, None, res)
        witness = None
        if res.witness is not None:
            witness = prob.witness_polynomial(res.witness)
            bad = check_sign_representation(witness, self.f)
            if bad is not None:
                raise AnalysisError(f"integer witness failed re-verification at {bad}")
        if res.status == "budget":
            found = f"bounds [{res.lower_bound}, {res.value}]"
            if res.value is None:
                found = f"lower bound {res.lower_bound}, no integer gate found"
            raise BudgetError(f"branch-and-bound budget exhausted after {res.nodes} nodes ({found})")
        return MinWeightResult(res.value, witness, res)


# ---------------------------------------------------------------------------
# Coefficient lemmas for the base functions
# ---------------------------------------------------------------------------


def _product_rows(values: tuple, k: int) -> np.ndarray:
    """Every k-tuple over ``values`` as an int8 row, in the order of
    ``itertools.product(values, repeat=k)``: row r holds the base-b digits
    of r, b = len(values), the most significant first, each read through
    ``values``."""
    b = len(values)
    digits = np.arange(b**k)[:, None] // b ** np.arange(k - 1, -1, -1) % b
    return np.array(values, np.int8)[digits]


def _gt_u_rows(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sign constraints of the comparator over u = x - y in {-1,0,1}^k, for
    a pure linear gate sum(w_j u_j), in product order: the matrix and its
    ``le`` flags.  Most significant coordinate last: the class is the sign
    of the last nonzero u_j, positive when u = 0."""
    u = _product_rows((-1, 0, 1), k)
    last = k - 1 - np.argmax(u[:, ::-1] != 0, axis=1)  # k - 1 when u = 0
    return _sign_rows(u, u[np.arange(len(u)), last] >= 0)


def _g_u_rows(which: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sign constraints of the all-equal detector over its linear forms
    (``polynomial._strong_forms``), for x in product order: the matrix and
    its ``le`` flags.  The detector's output at x is bit
    sum((x_j = 1) << j) of its truth table, read for every x at once."""
    x = _product_rows((-1, 1), k)
    u = np.stack([a * x[:, v] + b * x[:, w] for (v, a), (w, b) in _strong_forms(range(k))], axis=1)
    index = ((x == 1) << np.arange(k)).sum(axis=1)
    return _sign_rows(u, _fun_bits(make_g(k, which))[index])


def _base_problem(base: str, k: int) -> LpProblem:
    """The sign constraints of a base function over its k coefficients;
    ``BudgetError`` before any row is built when the function has more
    inputs than the input cap (2k for the comparator gt, k for g1 and g0)
    or its LP, one row per 3^k u or 2^k x, is past the LP entry cap."""
    if base not in ("gt", "g1", "g0"):
        raise AnalysisError(f"unknown base function {base!r}")
    check_input_cap(2 * k if base == "gt" else k)
    _check_lp_entries(3**k if base == "gt" else 2**k, k)
    return LpProblem(k, *(_gt_u_rows(k) if base == "gt" else _g_u_rows(base, k)))


@dataclass
class InequalityCheck:
    description: str
    status: str  # CERTIFIED | VIOLATED
    problem: LpProblem
    farkas: list | None = None
    witness: list | None = None


@dataclass
class CertifyResult:
    lemma: str
    k: int
    status: str  # CERTIFIED | VIOLATED
    checks: list


def _inequality_check(desc: str, problem: LpProblem, out: LpOutcome) -> InequalityCheck:
    """The check of one negated inequality from the ``min_l1`` outcome of
    its problem (the base's rows, the negated row last)."""
    if out.status == "infeasible":
        # the solver re-checked the Farkas vector; replay checks it again
        return InequalityCheck(desc, "CERTIFIED", problem, farkas=out.farkas)
    denom = math.lcm(*(v.denominator for v in out.witness))
    scaled = [int(v * denom) for v in out.witness]
    if not check_witness(problem, scaled):
        raise AnalysisError("scaled violation witness failed re-check")
    return InequalityCheck(desc, "VIOLATED", problem, witness=scaled)


def _lemma_negations(lemma: str, k: int) -> list[tuple[str, dict, str, int]]:
    """(description, negated row) per inequality the lemma asserts."""
    out = []
    if lemma == "gt_exp":
        out.append(("w1 >= 1", {0: 1}, LE, 0))
        for j in range(2, k + 1):
            c = 1 << (j - 2)
            out.append((f"w{j} >= {c}*w1", {j - 1: 1, 0: -c}, LE, -1))
    elif lemma == "gt_step":
        for j in range(2, k + 1):
            out.append((f"w{j} >= w{j-1}", {j - 1: 1, j - 2: -1}, LE, -1))
    elif lemma == "g1_pos":
        for j in range(k):
            out.append((f"w{j} > 0", {j: 1}, LE, 0))
    elif lemma == "g1_mono":
        for j in range(2, k):
            out.append((f"w{j} > w{j-1}", {j: 1, j - 1: -1}, LE, 0))
    elif lemma == "g0_all":
        out.append(("w0 < 0", {0: 1}, GE, 0))
        for j in range(1, k):
            out.append((f"w{j} > 0", {j: 1}, LE, 0))
        for j in range(2, k):
            out.append((f"w{j-1} > w{j}", {j - 1: 1, j: -1}, LE, 0))
    else:
        raise AnalysisError(f"unknown lemma {lemma!r}")
    return out


_LEMMA_BASE = {
    "gt_exp": "gt",
    "gt_step": "gt",
    "g1_pos": "g1",
    "g1_mono": "g1",
    "g0_all": "g0",
}


def lemma_lps(lemma: str, k: int) -> tuple[LpProblem, list]:
    """The base LP of a coefficient lemma at k and its negated inequalities,
    (description, coefficients, relation, right-hand side) each, in
    ``_lemma_negations`` order: inequality i's LP is the base plus its row,
    as ``certify_coefficient_lemma`` solves it and replay rebuilds it."""
    base = _LEMMA_BASE.get(lemma)
    if base is None:
        raise AnalysisError(f"unknown lemma {lemma!r}")
    if k < 2:
        raise AnalysisError("need k >= 2")
    return _base_problem(base, k), _lemma_negations(lemma, k)


def certify_coefficient_lemma(lemma: str, k: int) -> CertifyResult:
    """CERTIFIED iff no integer gate for the base function violates any of
    the lemma's coefficient inequalities; each inequality gets its own
    Farkas certificate, independently re-checked.

    The inequalities share one base LP (``lemma_lps``): the base
    function's sign rows are built once per call, and each negated
    inequality's LP is that base plus its one row.  ``solve_extensions``
    walks the base's pivot path once, and each inequality's LP forks off
    it at the first state where its own column would enter, the last
    state its pivot path shares with the base's.  Each is then solved and
    certified on its own, so the pivot path, stats and certificate are
    those of a cold solve of that LP.
    """
    problem, negations = lemma_lps(lemma, k)
    solved = solve_extensions(problem, [row for _, *row in negations])
    checks = [_inequality_check(desc, *got) for (desc, *_), got in zip(negations, solved)]
    status = "CERTIFIED" if all(c.status == "CERTIFIED" for c in checks) else "VIOLATED"
    return CertifyResult(lemma, k, status, checks)


# ---------------------------------------------------------------------------
# Theorem bounds and full instances
# ---------------------------------------------------------------------------


def theorem_bound(shape: GroupShape) -> int:
    """Exact integer floor of the instance lower-bound formula.

    Weak: 2^((k_d - 2) * k_1 * ... * k_{d-1} - d).  Strong: the product uses
    (k_i - 1) and the correction term is d * ceil(log2 n) (rounding up keeps
    the reported bound conservative).  Exponents below zero floor to 0.
    """
    violations = shape.theorem_violations()
    if violations:
        raise HypothesisError("; ".join(violations))
    kd = shape.ks[-1]
    if shape.variant is Variant.WEAK:
        exponent = (kd - 2) * math.prod(shape.ks[:-1]) - shape.d
    else:
        prod = math.prod(k - 1 for k in shape.ks[:-1])
        exponent = (kd - 2) * prod - shape.d * (shape.n - 1).bit_length()
    return 1 << exponent if exponent >= 0 else 0
