"""The dict-row revised tableau that the block tableau of ``exact_lp._DualL1``
replaced: the per-step reference its block form is tested against.

It keeps all 2N columns of den * B^-1 under the slacks, each row a dict of
its nonzero entries, the basic values ``rhs``, the slack cost row ``w`` and
the dual objective ``corner`` (over den), and prices every column with a
loop over the rows.  The dual variable of the primal row a . x >= b has the
original column [a; -a] and cost -b; columns are numbered as in
``_DualL1``: one per row, then the 2N slacks.
"""

from operator import mul

from ptflab import LpProblem
from ptflab.exact_lp import GE


def ge_problem(nvars, rows):
    """The problem of the integer rows (coeffs, b) of a . x >= b, through
    ``LpProblem.add``."""
    problem = LpProblem(nvars)
    for coeffs, b in rows:
        problem.add(coeffs, GE, b)
    return problem


def reference_entering(nvars, w, den, rows, rule):
    """The pricing loop the limbs replace: den * (-b) + z . a per row, then
    the slack costs w, then Dantzig's rule (most negative, least index on
    ties) or Bland's (first negative)."""
    z = [p - q for p, q in zip(w[:nvars], w[nvars:])]
    cost = [sum(a.get(j, 0) * z[j] for j in range(nvars)) - den * b for a, b in rows] + w
    if rule == "bland":
        return next(((j, v) for j, v in enumerate(cost) if v < 0), None)
    best = min(range(len(cost)), key=cost.__getitem__)
    return (best, cost[best]) if cost[best] < 0 else None


class DictTableau:
    def __init__(self, nvars: int, rows: list):
        """``rows``: the integer rows (coeffs, b) of a . x >= b."""
        m = 2 * nvars
        self.nvars = nvars
        self.rows = list(rows)
        self.inv: list[dict[int, int]] = [{i: 1} for i in range(m)]
        self.rhs: list[int] = [1] * m
        self.w: list[int] = [0] * m
        self.corner = 0
        self.den = 1
        self.basis: list[int] = [len(rows) + i for i in range(m)]

    @property
    def m(self) -> int:
        return len(self.inv)

    def clone(self) -> "DictTableau":
        t = DictTableau.__new__(DictTableau)
        t.nvars, t.rows = self.nvars, self.rows[:]
        t.inv = [row.copy() for row in self.inv]
        t.rhs, t.w, t.corner, t.den = self.rhs[:], self.w[:], self.corner, self.den
        t.basis = self.basis[:]
        return t

    def add_row(self, coeffs: dict, rhs: int) -> None:
        """Add the row last: its column comes after the other rows', so the
        slacks move up one."""
        n0 = len(self.rows)
        self.basis = [b + (b >= n0) for b in self.basis]
        self.rows.append((coeffs, rhs))

    def entering(self, rule: str) -> tuple | None:
        return reference_entering(self.nvars, self.w, self.den, self.rows, rule)

    def column(self, c: int) -> list:
        """Column c of the full tableau: inv times the original column."""
        n, n0 = self.nvars, len(self.rows)
        if c >= n0:
            return [row.get(c - n0, 0) for row in self.inv]
        coeffs = self.rows[c][0]
        a = [coeffs.get(j, 0) for j in range(n)]
        a += [-v for v in a]  # the original column [a; -a]
        return [sum(map(mul, row.values(), map(a.__getitem__, row))) for row in self.inv]

    def leaving(self, col: list) -> int | None:
        best_i = None
        best_num = 0
        best_den = 0
        best_var = -1
        for i, a in enumerate(col):
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

    def pivot(self, r: int, c: int, col: list, f: int) -> None:
        """Pivot column c (entries ``col``, reduced cost ``f``) into row r."""
        den = self.den
        piv = col[r]
        prow = self.inv[r]
        pitems = prow.items()
        prhs = self.rhs[r]
        inv = self.inv
        for i in range(self.m):
            if i == r:
                continue
            row = inv[i]
            g = col[i]
            if g == 0:
                if piv != den:
                    inv[i] = {k: v * piv // den for k, v in row.items()}
                    self.rhs[i] = self.rhs[i] * piv // den
                continue
            # zero where both rows are zero; entries that cancel are dropped
            get = row.get
            new = {k: v * piv // den for k, v in row.items() if k not in prow}
            new.update({k: x for k, pv in pitems if (x := (get(k, 0) * piv - g * pv) // den)})
            inv[i] = new
            self.rhs[i] = (self.rhs[i] * piv - g * prhs) // den
        w = self.w
        new_w = [v * piv // den for v in w]
        for k, pv in pitems:
            new_w[k] = (w[k] * piv - f * pv) // den
        self.w = new_w
        self.corner = (self.corner * piv - f * prhs) // den
        self.den = piv
        self.basis[r] = c
