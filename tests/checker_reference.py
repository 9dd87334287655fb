"""The dict-row certificate checkers that the matrix checkers of
``exact_lp`` replaced: the oracle they are tested against.

``check_witness``, ``_combine_rows``, ``check_farkas`` and
``check_l1_bound`` are kept as they were, over a problem whose
``constraints`` are (sparse coefficient dict, relation, rhs) triples;
``dict_problem`` gives that view of an ``LpProblem``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

LE, GE = "<=", ">="


@dataclass
class DictProblem:
    num_vars: int
    constraints: list


def dict_rows(problem) -> list:
    """The (coeffs, relation, rhs) triple of each row of an ``LpProblem``'s
    matrix, as stated: a <= row negated back, its nonzero coefficients
    keyed in column order."""
    out = []
    for row, le in zip(problem.constraints.tolist(), problem.le.tolist()):
        if le:
            row = [-v for v in row]
        out.append(({j: c for j, c in enumerate(row[:-1]) if c}, LE if le else GE, row[-1]))
    return out


def dict_problem(problem) -> DictProblem:
    return DictProblem(problem.num_vars, dict_rows(problem))


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def check_witness(problem: LpProblem, x) -> bool:
    """Exact substitution check of every constraint; a row whose relation
    is neither >= nor <=, or over a variable out of range, fails.

    Compares integers: the integer rows against x times the lcm of its
    denominators, which keeps the sign of every comparison.
    """
    n = problem.num_vars
    if len(x) != n:
        return False
    x = [_frac(v) for v in x]
    scale = math.lcm(*(v.denominator for v in x))
    xs = [v.numerator * (scale // v.denominator) for v in x]
    for coeffs, rel, rhs in problem.constraints:
        if coeffs and (min(coeffs) < 0 or max(coeffs) >= n):
            return False
        lhs = sum(c * xs[j] for j, c in coeffs.items())
        if not (lhs <= rhs * scale if rel == LE else rel == GE and lhs >= rhs * scale):
            return False
    return True


def _combine_rows(problem: LpProblem, mults, negate: str):
    """(coefficients, rhs, scale): the rows combined with ``mults``, the
    rows whose relation is ``negate`` negated, all times ``scale``, the lcm
    of the multipliers' denominators, so the sums are integers.  None when
    the vector is not one nonnegative int or Fraction per row, a relation
    is neither >= nor <=, or a combined row reads a variable out of range.

    Every row is checked, but only the rows with a nonzero multiplier are
    coerced and combined, over the variables they touch, so the work is
    bounded by the rows and not by ``num_vars``.  Only the checkers call it.
    """
    if len(mults) != len(problem.constraints) or not set(map(type, mults)) <= {int, Fraction}:
        return None
    used = []  # (multiplier, coeffs, negated, rhs) of the rows combined
    for v, (coeffs, rel, rhs) in zip(mults, problem.constraints):
        num = v.numerator  # ints and Fractions both have one; it compares fast
        if num < 0 or rel not in (LE, GE):
            return None
        if num:
            used.append((_frac(v), coeffs, rel == negate, rhs))
    scale = math.lcm(*(v.denominator for v, _, _, _ in used))
    combined: dict[int, int] = {}
    total = 0
    for v, coeffs, negated, rhs in used:
        mult = v.numerator * (scale // v.denominator) * (-1 if negated else 1)
        for j, c in coeffs.items():
            combined[j] = combined.get(j, 0) + mult * c
        total += mult * rhs
    if not all(0 <= j < problem.num_vars for j in combined):
        return None
    return combined, total, scale


def check_farkas(problem: LpProblem, lam) -> bool:
    """Verify an infeasibility certificate by exact row combination.

    One multiplier per row, each >= 0, and every relation >= or <=.  The
    combination, read with <= rows as stated and >= rows negated, must
    have zero coefficients and a negative right-hand side.
    """
    combination = _combine_rows(problem, lam, GE)
    if combination is None:
        return False
    combined, total, _ = combination
    return not any(combined.values()) and total < 0


def check_l1_bound(problem: LpProblem, dual, value) -> bool:
    """Verify that ``value`` lower-bounds sum(|x|) over the feasible set.

    ``dual`` holds one multiplier per row, each nonnegative, and combines
    the rows read as >= (a <= row negated; any other relation fails).
    The combined coefficient of every variable must lie in [-1, 1], and
    the combined right-hand side must equal ``value``.
    """
    combination = _combine_rows(problem, dual, LE)
    if combination is None:
        return False
    combined, total, unit = combination  # unit: the integer image of 1
    if any(abs(c) > unit for c in combined.values()):
        return False
    value = _frac(value)
    return total * value.denominator == value.numerator * unit

