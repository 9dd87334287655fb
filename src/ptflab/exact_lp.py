"""Exact rational linear programming with machine-checkable certificates.

The solver is a primal simplex over an integer tableau with a running
common denominator (fraction-free pivoting), so every quantity it reports
is an exact rational.  Feasibility and L1 minimization are one routine:
the L1 problem over many constraints and few variables is solved through
its dual, which keeps the working basis small; one solve answers
feasibility, the L1 optimum and the branch-and-bound root.  The reported
witnesses come back out of the simplex multipliers and every outcome is
re-verified by an independent checker before it is returned:

  * feasible / optimal outcomes carry a witness checked by substitution,
  * L1 optima additionally carry dual multipliers proving the lower bound,
  * infeasible outcomes carry nonnegative combination multipliers that
    collapse the constraints into an exact contradiction.

A small depth-first branch-and-bound on top of the L1 solver computes
exact integer-minimal weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

LE, GE, EQ = "<=", ">=", "="
_RELS = (LE, GE, EQ)

DEFAULT_PIVOT_CAP = 200_000


class LpError(Exception):
    pass


class BudgetError(LpError):
    """A resource cap (pivots, branch-and-bound nodes, input size) was hit;
    the result so far is reported, never faked."""


LpBudgetError = BudgetError  # the LP layer's name for it


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass
class LpProblem:
    """Constraints over named rational variables, free unless flagged.

    Each constraint is a (sparse coefficient dict, relation, rhs) triple.
    """

    num_vars: int
    constraints: list = field(default_factory=list)
    names: list | None = None
    nonneg: list | None = None

    def add(self, coeffs: dict, rel: str, rhs) -> None:
        if rel not in _RELS:
            raise LpError(f"unknown relation {rel!r}")
        row = {}
        for j, c in coeffs.items():
            if not 0 <= j < self.num_vars:
                raise LpError(f"variable {j} out of range")
            c = _frac(c)
            if c:
                row[j] = c
        self.constraints.append((row, rel, _frac(rhs)))

    def is_nonneg(self, j: int) -> bool:
        return bool(self.nonneg and self.nonneg[j])


@dataclass
class LpOutcome:
    status: str  # optimal | feasible | infeasible
    witness: list | None = None
    value: Fraction | None = None
    farkas: list | None = None
    dual: list | None = None
    stats: dict = field(default_factory=dict)
    # solved dual tableau of an optimal L1 outcome; branch and bound starts there
    solver: "_DualL1 | None" = field(default=None, repr=False, compare=False)


@dataclass
class IlpResult:
    status: str  # optimal | infeasible | budget
    value: int | None = None
    witness: list | None = None
    lower_bound: Fraction | None = None
    relaxation: Fraction | None = None
    nodes: int = 0


# ---------------------------------------------------------------------------
# Independent certificate checkers (no solver code shared)
# ---------------------------------------------------------------------------


def check_witness(problem: LpProblem, x) -> bool:
    """Exact substitution check of every constraint and sign restriction."""
    if len(x) != problem.num_vars:
        return False
    x = [_frac(v) for v in x]
    for j in range(problem.num_vars):
        if problem.is_nonneg(j) and x[j] < 0:
            return False
    for coeffs, rel, rhs in problem.constraints:
        lhs = sum((c * x[j] for j, c in coeffs.items()), Fraction(0))
        if rel == LE and lhs > rhs:
            return False
        if rel == GE and lhs < rhs:
            return False
        if rel == EQ and lhs != rhs:
            return False
    return True


def check_farkas(problem: LpProblem, lam) -> bool:
    """Verify an infeasibility certificate by exact row combination.

    Multipliers must be >= 0 on inequality rows (free on equalities); the
    combination, read with <= rows as stated and >= rows negated, must have
    zero coefficients on free variables, nonnegative coefficients on
    nonnegative variables, and a negative right-hand side.
    """
    if len(lam) != len(problem.constraints):
        return False
    lam = [_frac(v) for v in lam]
    combined = [Fraction(0)] * problem.num_vars
    rhs_total = Fraction(0)
    for mult, (coeffs, rel, rhs) in zip(lam, problem.constraints):
        if rel != EQ and mult < 0:
            return False
        sign = -1 if rel == GE else 1
        for j, c in coeffs.items():
            combined[j] += mult * sign * c
        rhs_total += mult * sign * rhs
    for j, c in enumerate(combined):
        if problem.is_nonneg(j):
            if c < 0:
                return False
        elif c != 0:
            return False
    return rhs_total < 0


def check_l1_bound(problem: LpProblem, dual, value) -> bool:
    """Verify that ``value`` lower-bounds sum(|x|) over the feasible set.

    ``dual`` is indexed by the >=-normalized rows (equalities contribute
    two).  Each inequality multiplier must be nonnegative, the combined
    coefficient of every variable must lie in [-1, 1], and the combined
    right-hand side must equal ``value``.
    """
    ge_rows, _ = _ge_normal_form(problem)
    if len(dual) != len(ge_rows):
        return False
    dual = [_frac(v) for v in dual]
    if any(v < 0 for v in dual):
        return False
    combined = [Fraction(0)] * problem.num_vars
    total = Fraction(0)
    for mult, (coeffs, rhs) in zip(dual, ge_rows):
        for j, c in coeffs.items():
            combined[j] += mult * c
        total += mult * rhs
    if any(abs(c) > 1 for c in combined):
        return False
    return total == _frac(value)


# ---------------------------------------------------------------------------
# Integer tableau with fraction-free pivoting
# ---------------------------------------------------------------------------


class _Tableau:
    """Dense simplex tableau over integers sharing one denominator.

    Entry (i, j) represents rows[i][j] / den; the running objective is
    -corner / den.  Pivoting keeps everything integral (the entries are
    subdeterminants of the original data), which is both exact and much
    faster than per-entry rationals.
    """

    def __init__(self, nrows: int):
        self.rows: list[list[int]] = [[] for _ in range(nrows)]
        self.rhs: list[int] = [0] * nrows
        self.cost: list[int] = []
        self.corner = 0
        self.den = 1
        self.basis: list[int] = [-1] * nrows
        self.pivots = 0
        self.rule = "hybrid"
        self._stall = 0
        self.ray_col: int | None = None

    @property
    def m(self) -> int:
        return len(self.rows)

    def clone(self) -> "_Tableau":
        t = _Tableau.__new__(_Tableau)
        t.rows = [row[:] for row in self.rows]
        t.rhs = self.rhs[:]
        t.cost = self.cost[:]
        t.corner = self.corner
        t.den = self.den
        t.basis = self.basis[:]
        t.pivots = self.pivots
        t.rule = self.rule
        t._stall = self._stall
        t.ray_col = None
        return t

    def solution_map(self) -> dict:
        return {b: Fraction(self.rhs[i], self.den) for i, b in enumerate(self.basis)}

    # -- pivoting ------------------------------------------------------------

    def _entering(self) -> int | None:
        cost = self.cost
        if self.rule == "bland":
            for j, v in enumerate(cost):
                if v < 0:
                    return j
            return None
        # most negative reduced cost, least index on ties
        best = min(range(len(cost)), key=cost.__getitem__, default=None)
        return best if best is not None and cost[best] < 0 else None

    def _leaving(self, c: int) -> int | None:
        best_i = None
        best_num = 0
        best_den = 0
        best_var = -1
        for i in range(self.m):
            a = self.rows[i][c]
            if a <= 0:
                continue
            num = self.rhs[i]
            if best_i is None:
                best_i, best_num, best_den, best_var = i, num, a, self.basis[i]
                continue
            lhs = num * best_den
            rhs = best_num * a
            if lhs < rhs or (lhs == rhs and self.basis[i] < best_var):
                best_i, best_num, best_den, best_var = i, num, a, self.basis[i]
        return best_i

    def pivot(self, r: int, c: int) -> None:
        den = self.den
        prow = self.rows[r]
        prhs = self.rhs[r]
        piv = prow[c]
        if piv <= 0:
            raise LpError("pivot element must be positive")
        for i in range(self.m):
            if i == r:
                continue
            row = self.rows[i]
            f = row[c]
            if f == 0:
                if piv != den:
                    self.rows[i] = [v * piv // den for v in row]
                    self.rhs[i] = self.rhs[i] * piv // den
                continue
            self.rows[i] = [(v * piv - f * pv) // den for v, pv in zip(row, prow)]
            self.rhs[i] = (self.rhs[i] * piv - f * prhs) // den
        f = self.cost[c]
        if f != 0 or piv != den:
            self.cost = [(v * piv - f * pv) // den for v, pv in zip(self.cost, prow)]
            self.corner = (self.corner * piv - f * prhs) // den
        self.den = piv
        self.basis[r] = c
        self.pivots += 1

    def optimize(self, max_pivots: int = DEFAULT_PIVOT_CAP) -> str:
        stall_limit = 3 * self.m + 30
        while True:
            c = self._entering()
            if c is None:
                return "optimal"
            r = self._leaving(c)
            if r is None:
                self.ray_col = c
                return "unbounded"
            if self.pivots >= max_pivots:
                raise BudgetError(f"pivot budget {max_pivots} exhausted")
            before_num, before_den = self.corner, self.den
            self.pivot(r, c)
            if self.rule == "hybrid":
                if self.corner * before_den == before_num * self.den:
                    self._stall += 1
                    if self._stall > stall_limit:
                        self.rule = "bland"
                else:
                    self._stall = 0


# ---------------------------------------------------------------------------
# Row normalization helpers
# ---------------------------------------------------------------------------


def _ge_normal_form(problem: LpProblem):
    """Rows as (coeffs, rhs) meaning coeffs . x >= rhs.

    Equalities are split into a >= and a flipped >= row.  The returned map
    records, per normalized row, (original index, kind) with kind one of
    "ineq", "eq+", "eq-"; it drives certificate folding.
    """
    rows = []
    rmap = []
    for idx, (coeffs, rel, rhs) in enumerate(problem.constraints):
        if rel == GE:
            rows.append((dict(coeffs), rhs))
            rmap.append((idx, "ineq"))
        elif rel == LE:
            rows.append(({j: -c for j, c in coeffs.items()}, -rhs))
            rmap.append((idx, "ineq"))
        else:
            rows.append((dict(coeffs), rhs))
            rmap.append((idx, "eq+"))
            rows.append(({j: -c for j, c in coeffs.items()}, -rhs))
            rmap.append((idx, "eq-"))
    return rows, rmap


def _scale_ge_row(coeffs: dict, rhs: Fraction):
    """Positive integer multiple of a rational row."""
    denoms = [c.denominator for c in coeffs.values()] + [rhs.denominator]
    mult = 1
    for dv in denoms:
        mult = mult * dv // math.gcd(mult, dv)
    return (
        {j: int(c * mult) for j, c in coeffs.items()},
        int(rhs * mult),
        Fraction(mult),
    )


def _fold_ge_multipliers(problem: LpProblem, rmap, mults: dict) -> list:
    """Translate >=-row multipliers into per-constraint certificate values."""
    lam = [Fraction(0)] * len(problem.constraints)
    for pos, (idx, kind) in enumerate(rmap):
        v = mults.get(pos, Fraction(0))
        if kind == "ineq":
            lam[idx] += v
        elif kind == "eq+":
            lam[idx] -= v
        else:
            lam[idx] += v
    return lam


# ---------------------------------------------------------------------------
# L1 minimization through the dual
# ---------------------------------------------------------------------------


class _DualL1:
    """min sum|c| subject to the problem's rows, solved as its always-feasible
    dual.

    The dual has one variable per >=-normalized row and two rows per primal
    variable (|combined coefficient| <= 1), so the basis stays at 2N even
    when the constraint count is in the thousands.  The primal witness is
    read off the reduced costs of the dual slacks; an unbounded dual ray is
    exactly an infeasibility certificate for the primal rows.  Nonnegative
    variables enter as extra rows x_j >= 0 after the problem's own.
    """

    def __init__(self, problem: LpProblem):
        self.problem = problem
        ge_rows, self.rmap = _ge_normal_form(problem)
        nvars = self.nvars = problem.num_vars
        ge_rows += [({j: Fraction(1)}, Fraction(0)) for j in range(nvars) if problem.is_nonneg(j)]
        self.scales = []
        self.int_rows = []
        for coeffs, rhs in ge_rows:
            ic, ir, mult = _scale_ge_row(coeffs, _frac(rhs))
            self.int_rows.append((ic, ir))
            self.scales.append(mult)
        self._n0 = len(ge_rows)
        m = 2 * nvars
        self.t = _Tableau(m)
        t = self.t
        ncols_base = self._n0 + m
        for i in range(m):
            t.rows[i] = [0] * ncols_base
            t.rhs[i] = 1
        for pos, (ic, _) in enumerate(self.int_rows):
            for j, a in ic.items():
                t.rows[j][pos] = a
                t.rows[nvars + j][pos] = -a
        for i in range(m):
            t.rows[i][self._n0 + i] = 1
            t.basis[i] = self._n0 + i
        t.cost = [-ir for _, ir in self.int_rows] + [0] * m
        t.corner = 0
        self.n_dual_vars = self._n0

    def slack_col(self, k: int) -> int:
        return self._n0 + k

    def clone(self) -> "_DualL1":
        other = _DualL1.__new__(_DualL1)
        other.problem = self.problem
        other.rmap = self.rmap
        other.nvars = self.nvars
        other.scales = self.scales[:]
        other.int_rows = self.int_rows
        other._n0 = self._n0
        other.t = self.t.clone()
        other.n_dual_vars = self.n_dual_vars
        return other

    def add_ge_row(self, coeffs: dict, rhs: Fraction) -> None:
        """Append a primal >=-row as a fresh dual column, keeping the basis."""
        ic, ir, mult = _scale_ge_row(coeffs, _frac(rhs))
        self.scales.append(mult)
        t = self.t
        raw = {}
        for j, a in ic.items():
            raw[j] = a
            raw[self.nvars + j] = -a
        for i in range(t.m):
            row = t.rows[i]
            entry = 0
            for k, a in raw.items():
                s = row[self.slack_col(k)]
                if s:
                    entry += s * a
            row.append(entry)
        centry = t.den * (-ir)
        for k, a in raw.items():
            centry += t.cost[self.slack_col(k)] * a
        t.cost.append(centry)
        self.n_dual_vars += 1

    def column_of_dual_var(self, pos: int) -> int:
        # initial dual variables sit before the 2N slacks, appended ones after
        if pos < self._n0:
            return pos
        return 2 * self.nvars + pos

    def value(self) -> Fraction:
        return Fraction(self.t.corner, self.t.den)

    def witness(self) -> list:
        t = self.t
        out = []
        for m_idx in range(self.nvars):
            plus = Fraction(t.cost[self.slack_col(m_idx)], t.den)
            minus = Fraction(t.cost[self.slack_col(self.nvars + m_idx)], t.den)
            out.append(plus - minus)
        return out

    def dual_values(self) -> dict:
        """Scaled dual variable values keyed by normalized-row position."""
        sol = self.t.solution_map()
        out = {}
        for pos in range(self.n_dual_vars):
            col = self.column_of_dual_var(pos)
            v = sol.get(col, Fraction(0))
            if v:
                out[pos] = v * self.scales[pos]
        return out

    def farkas_from_ray(self) -> dict:
        t = self.t
        col = t.ray_col
        if col is None:
            raise LpError("no unbounded ray recorded")
        delta: dict[int, Fraction] = {col: Fraction(1)}
        for i, b in enumerate(t.basis):
            a = t.rows[i][col]
            if a:
                delta[b] = Fraction(-a, t.den)
        out = {}
        for pos in range(self.n_dual_vars):
            v = delta.get(self.column_of_dual_var(pos), Fraction(0))
            if v:
                out[pos] = v * self.scales[pos]
        return out

    def certify(self, max_pivots: int) -> LpOutcome:
        """Solve once and return the independently re-checked outcome.

        Infeasible rows give a Farkas vector over the problem's constraints.
        Otherwise the outcome is optimal: the minimum-L1 witness, its value,
        the dual multipliers proving the bound (free variables only), and
        this solver, whose tableau branch and bound can start from.
        """
        problem = self.problem
        status = self.t.optimize(max_pivots)
        stats = {"pivots": self.t.pivots}
        if status == "unbounded":
            lam = _fold_ge_multipliers(problem, self.rmap, self.farkas_from_ray())
            if not check_farkas(problem, lam):
                raise LpError("internal error: infeasibility certificate failed")
            return LpOutcome(status="infeasible", farkas=lam, stats=stats)
        value = self.value()
        witness = self.witness()
        if not check_witness(problem, witness):
            raise LpError("internal error: optimal witness failed substitution")
        if sum(abs(v) for v in witness) != value:
            raise LpError("internal error: witness weight disagrees with optimum")
        dual = None
        if not (problem.nonneg and any(problem.nonneg)):
            dual_by_pos = self.dual_values()
            dual = [dual_by_pos.get(pos, Fraction(0)) for pos in range(len(self.rmap))]
            if not check_l1_bound(problem, dual, value):
                raise LpError("internal error: dual bound certificate failed")
        return LpOutcome(
            status="optimal", witness=witness, value=value, dual=dual, stats=stats, solver=self
        )


def min_l1(
    problem: LpProblem,
    max_pivots: int = DEFAULT_PIVOT_CAP,
) -> LpOutcome:
    """Exact minimum of sum(|x_j|) under the problem's constraints.

    Free variables only.  Returns Optimal with the minimizing witness, dual
    multipliers certifying the bound and the solved tableau, or Infeasible
    with a verified combination certificate.
    """
    if problem.nonneg and any(problem.nonneg):
        raise LpError("min_l1 expects free variables")
    return _DualL1(problem).certify(max_pivots)


def solve(problem: LpProblem, max_pivots: int = DEFAULT_PIVOT_CAP) -> LpOutcome:
    """Feasibility check with a verified witness or Farkas certificate.

    Runs the L1 routine of ``min_l1``; a feasible outcome's witness is the
    minimum-L1 point.
    """
    for coeffs, rel, _ in problem.constraints:
        if rel not in _RELS:
            raise LpError(f"unknown relation {rel!r}")
        for j in coeffs:
            if not 0 <= j < problem.num_vars:
                raise LpError(f"variable {j} out of range")
    out = _DualL1(problem).certify(max_pivots)
    if out.status == "infeasible":
        return out
    return LpOutcome(status="feasible", witness=out.witness, stats=out.stats)


# ---------------------------------------------------------------------------
# Branch and bound for exact integer minimal L1 weight
# ---------------------------------------------------------------------------


def _round_nearest(v: Fraction) -> int:
    return (2 * v.numerator + v.denominator) // (2 * v.denominator)


def ilp_min(
    problem: LpProblem,
    node_budget: int = 2000,
    max_pivots: int = DEFAULT_PIVOT_CAP,
    incumbent: list | None = None,
    root: LpOutcome | None = None,
) -> IlpResult:
    """Exact integer minimum of sum(|x_j|) by depth-first branch and bound.

    Branches on the most fractional coordinate of each node's relaxation
    witness, prunes with ceil(LP value) against the incumbent, and rounds
    relaxation witnesses as a cheap upper-bound heuristic.  ``incumbent``
    may seed the search with a known integer-feasible point.  ``root`` is
    the problem's ``min_l1`` outcome when the caller already solved it; the
    search then starts from its tableau instead of solving again.
    """
    if root is None:
        root = min_l1(problem, max_pivots)
    if root.status == "infeasible":
        return IlpResult(status="infeasible", nodes=1)
    relaxation = root.value

    # margin-style systems (>= with nonnegative rhs, <= with nonpositive,
    # equalities through zero) stay feasible under scaling by any factor
    # >= 1, so fractional witnesses round up to integer incumbents
    scalable = all(
        (rel == GE and rhs >= 0) or (rel == LE and rhs <= 0) or (rel == EQ and rhs == 0)
        for _, rel, rhs in problem.constraints
    )

    best_w: int | None = None
    best_c: list | None = None
    tried: set = set()

    def consider(cand) -> None:
        nonlocal best_w, best_c
        ints = [int(v) for v in cand]
        if any(iv != v for iv, v in zip(ints, cand)):
            return
        w = sum(abs(v) for v in ints)
        if best_w is not None and w >= best_w:
            return
        key = tuple(ints)
        if key in tried:
            return
        tried.add(key)
        if not check_witness(problem, ints):
            return
        best_w, best_c = w, ints

    if incumbent is not None:
        consider([Fraction(v) for v in incumbent])

    nodes = 0
    exhausted = False
    half = Fraction(1, 2)
    stack: list[_DualL1] = [root.solver]

    while stack:
        solver = stack.pop()
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            break
        witness = solver.witness()
        value = solver.value()
        if best_w is not None and _ceil(value) >= best_w:
            continue
        fracs = [(v - (v.numerator // v.denominator)) for v in witness]
        if all(f == 0 for f in fracs):
            consider(witness)
            continue
        consider([Fraction(_round_nearest(v)) for v in witness])
        if scalable:
            mult = 1
            for v in witness:
                mult = mult * v.denominator // math.gcd(mult, v.denominator)
            if 1 < mult <= 64:
                consider([v * mult for v in witness])
        if best_w is not None and _ceil(value) >= best_w:
            continue
        # most fractional coordinate, least index on ties
        pick = min(
            (j for j, f in enumerate(fracs) if f != 0),
            key=lambda j: (abs(fracs[j] - half), j),
        )
        floor_v = witness[pick].numerator // witness[pick].denominator
        children = [(-1, Fraction(-floor_v)), (1, Fraction(floor_v + 1))]
        if fracs[pick] > half:
            children.reverse()
        # LIFO stack: push the preferred child last so it is explored first
        ready = []
        for sign, rhs in children:
            child = solver.clone()
            child.add_ge_row({pick: sign}, rhs)
            if child.t.optimize(max_pivots) == "unbounded":
                continue  # child region infeasible
            ready.append(child)
        stack.extend(reversed(ready))

    if exhausted:
        return IlpResult(
            status="budget",
            value=best_w,
            witness=best_c,
            lower_bound=relaxation,
            relaxation=relaxation,
            nodes=nodes,
        )
    if best_w is None:
        return IlpResult(status="infeasible", relaxation=relaxation, nodes=nodes)
    return IlpResult(
        status="optimal",
        value=best_w,
        witness=best_c,
        lower_bound=Fraction(best_w),
        relaxation=relaxation,
        nodes=nodes,
    )


# ---------------------------------------------------------------------------
# Plain-text serialization for debugging and replay
# ---------------------------------------------------------------------------


def problem_to_text(problem: LpProblem) -> str:
    lines = [f"vars {problem.num_vars}"]
    if problem.names:
        lines.append("names " + " ".join(problem.names))
    if problem.nonneg and any(problem.nonneg):
        lines.append("nonneg " + " ".join("1" if b else "0" for b in problem.nonneg))
    for coeffs, rel, rhs in problem.constraints:
        dense = [str(_frac(coeffs.get(j, 0))) for j in range(problem.num_vars)]
        lines.append(" ".join(dense) + f" {rel} {rhs}")
    return "\n".join(lines) + "\n"


def problem_from_text(text: str) -> LpProblem:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("vars "):
        raise LpError("expected 'vars N' header")
    n = int(lines[0].split()[1])
    problem = LpProblem(n)
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "names":
            problem.names = parts[1:]
            continue
        if parts[0] == "nonneg":
            problem.nonneg = [p == "1" for p in parts[1:]]
            continue
        try:
            if len(parts) < 2 or parts[-2] not in _RELS:
                raise ValueError
            coeffs = {j: Fraction(p) for j, p in enumerate(parts[:-2]) if Fraction(p)}
            rhs = Fraction(parts[-1])
        except ValueError:
            raise LpError(f"bad constraint line: {ln}") from None
        problem.add(coeffs, parts[-2], rhs)
    return problem
