"""Exact linear programming over integer rows with machine-checkable
certificates.

Every row is integers: coefficients and right-hand side (``LpProblem.add``
turns an integer-valued rational into an int and refuses any other).  The
solver is a revised primal simplex over integers with a running common
denominator (fraction-free pivoting: each step divides by the odd part of
the denominator, then divides the whole state by the power of two common
to all of it), so every quantity it reports is an exact rational.
Feasibility and L1 minimization are one routine: the L1 problem over many
constraints and few variables is solved through its dual, which keeps the
working basis small (2N for N variables).  Of the scaled basis inverse
only the columns under the nonbasic slacks are stored (a basic slack's
column is a unit vector), at most N of the 2N, beside the basic values
and the cost row in one integer matrix that each pivot updates in
whole-array steps: in int64 while a bound on the quotient proves it exact
there (Hensel division of the numerator, wrapped or not, by the odd
divisor), over Python integers otherwise.  The constraint rows are one
integer matrix, and every column is priced from it in float64 (BLAS)
matrix products, with no loop over the columns and no rounding: every
entry, product and partial sum is an integer below 2^53, which float64
holds exactly.  That takes one product while a bound proves it, otherwise
one product per limb of the multipliers, cut so narrow that each limb's
product stays below 2^53, and exact carries; rows too wide for any limb
take one product over Python integers.  The float64 copy of the rows is
made once per root tableau and shared by the tableaux forked off it.  The
entering column is an int64 array under the same kind of bound.  One
class, ``_DualL1``, is the dual problem, its tableau and the reading of its
certificates; one solve, ``min_l1``, answers feasibility, the L1 optimum
and the branch-and-bound root.  Its witnesses come back out of the simplex
multipliers and every outcome is re-verified by an independent checker:

  * optimal outcomes carry a witness checked by substitution and dual
    multipliers proving the lower bound,
  * infeasible outcomes carry nonnegative combination multipliers that
    collapse the constraints into an exact contradiction.

Every problem has one shape and one row format: free rational variables
and one integer matrix of rows [a | b], each meaning a . x >= b (a row
stated as <= is stored negated and flagged).  The matrix is int64, or
Python integers once an entry passes 2^62.  The builders fill it in array
steps, the simplex prices its dual columns from it through one float64
copy, and the checkers take one exact product with it (the witness
check's in int64 when a bound proves it exact).
Each certificate vector holds one multiplier per row, a zero one as the
int 0, and the checkers' work past a type check of the vector grows with
its nonzero entries; witnesses, multipliers and values are exact
rationals.

Problems that extend one base by one row each (a lemma's negated
inequalities) are solved by ``solve_extensions`` on one walk of the base's
pivot path.  A problem's path is the base's until its own row's column
would first enter: it prices below the base's entering column (or ties
with an entering slack, which comes after it), or prices negative where
the base is optimal.  The problem forks off the base tableau there
(``_DualL1.fork``, the one way a row reaches a tableau: its column is
numbered before the slacks, as in the problem's own tableau), and is
solved and certified on its own.  Its pivot path, stats and certificate
are those of a cold solve.

A small depth-first branch-and-bound, ``ilp_min``, starts from an optimal
``min_l1`` outcome's tableau and computes exact integer-minimal weights.
Each node is its parent plus its branching row, forked the same way.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress

import numpy as np

LE, GE = "<=", ">="
_RELS = (LE, GE)

PIVOT_BUDGET = 400_000  # pivots of a tableau, its ancestors' counted; read at each pivot
DEFAULT_NODE_BUDGET = 2000  # branch-and-bound nodes


class LpError(Exception):
    pass


class BudgetError(LpError):
    """A resource cap (pivots, branch-and-bound nodes, input size) was hit;
    the result so far is reported, never faked."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _int(x) -> int:
    """A row entry as an int: an integer, or a Fraction whose denominator
    is 1.  Anything else (1/2, 0.5, 2.0) raises ``LpError``."""
    if isinstance(x, numbers.Integral):
        return int(x)
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise LpError(f"row entry {x!r} is not an integer")


def _is_row_matrix(rows, nvars: int) -> bool:
    """Whether ``rows`` is a row matrix over ``nvars`` variables: nvars + 1
    columns of int64 entries below 2^62 in magnitude, or of Python ints in
    an object array.  The solver's bounds hold for nothing else."""
    if not isinstance(rows, np.ndarray) or rows.shape[1:] != (nvars + 1,):
        return False
    if rows.dtype == object:
        return all(type(v) is int for v in rows.flat)
    return rows.dtype == np.int64 and (not rows.size or -(1 << 62) < rows.min() and rows.max() < 1 << 62)


@dataclass(eq=False)
class LpProblem:
    """Constraints over ``num_vars`` free rational variables, as one integer
    matrix.

    ``constraints`` holds one row [a | b] per constraint, meaning
    a . x >= b: int64, or Python ints (an object array) once an entry
    passes 2^62.  ``le`` flags the rows stated as ``<=``; they are stored
    negated (a . x <= b as -a . x >= -b), so every row reads as >=.
    ``add`` appends one sparse row and checks it; builders hand the
    constructor a matrix and its flags.
    """

    num_vars: int
    constraints: np.ndarray | None = None
    le: np.ndarray | None = None
    # no variable is sign-restricted; kept readable for callers that digest it
    nonneg = None

    def __post_init__(self):
        if self.constraints is None:
            self.constraints = np.zeros((0, self.num_vars + 1), np.int64)
        if self.le is None:
            self.le = np.zeros(len(self.constraints), bool)
        rows, n = self.constraints, self.num_vars
        if not _is_row_matrix(rows, n) or self.le.shape != rows.shape[:1]:
            raise LpError(f"need a row matrix of {n + 1} columns (see _is_row_matrix) and one le flag per row")

    def extended(self, coeffs: dict, rel: str, rhs) -> "LpProblem":
        """A new problem: these constraints plus one more, added last.

        ``solve_extensions`` solves such problems on one walk of this one's
        pivot path, and replay of a ``farkas-batch`` certificate rebuilds
        each of a lemma's LPs this way.
        """
        # ``add`` checks the new row and replaces both arrays: the base's stay
        # as they are, and its checked rows are not scanned again
        child = copy.copy(self)
        child.add(coeffs, rel, rhs)
        return child

    def add(self, coeffs: dict, rel: str, rhs) -> None:
        """Append the row coeffs . x (rel) rhs, ``coeffs`` a dict of the
        nonzero coefficients.  An unknown relation, a variable out of range
        and an entry that is not an integer raise ``LpError``.  Each call
        copies the whole matrix, so building m rows this way takes time
        quadratic in m: builders hand the constructor a matrix instead."""
        if rel not in _RELS:
            raise LpError(f"unknown relation {rel!r}")
        n = self.num_vars
        row = [0] * n + [_int(rhs)]
        for j, c in coeffs.items():
            if not 0 <= j < n:
                raise LpError(f"variable {j} out of range")
            row[j] = _int(c)
        if rel == LE:
            row = [-v for v in row]
        wide = max(map(abs, row)) >> 62  # past 2^62 the row is Python ints
        self.constraints = np.concatenate((self.constraints, np.array([row], object if wide else np.int64)))
        self.le = np.append(self.le, rel == LE)


@dataclass
class LpOutcome:
    status: str  # optimal (witness, value, dual, solver) | infeasible (farkas)
    witness: list | None = None
    value: Fraction | None = None
    farkas: list | None = None
    dual: list | None = None
    # pivots, wide_pivots (those done over Python integers, not int64),
    # den_bits (bit length of the final common denominator) and bland
    # (whether the stall guard switched to Bland's rule)
    stats: dict = field(default_factory=dict)
    # solved dual tableau of an optimal L1 outcome; branch and bound starts there
    solver: "_DualL1 | None" = field(default=None, repr=False, compare=False)


@dataclass
class IlpResult:
    status: str  # optimal | infeasible | budget
    value: int | None = None
    witness: list | None = None
    lower_bound: Fraction | None = None
    nodes: int = 0


# ---------------------------------------------------------------------------
# Independent certificate checkers (no solver code shared)
# ---------------------------------------------------------------------------


def _checkable(problem: LpProblem, vector) -> bool:
    """Whether the checkers read ``problem`` and ``vector`` exactly: every
    entry of the vector an int or a Fraction (not a bool, a float, a numpy
    scalar or a string), and the rows a matrix of int64 or Python ints,
    one column wider than the variables.  Only the checkers call it; the
    solver has its own test, ``_is_row_matrix``."""
    rows = problem.constraints
    if not isinstance(rows, np.ndarray) or rows.shape[1:] != (problem.num_vars + 1,):
        return False
    if not set(map(type, vector)) <= {int, Fraction}:
        return False
    return rows.dtype == np.int64 or rows.dtype == object and all(type(v) is int for v in rows.flat)


def check_witness(problem: LpProblem, x) -> bool:
    """Exact substitution check of every row; a witness that is not one int
    or Fraction per variable fails, and so does a matrix that is not int64
    or Python ints, one column wider than the variables.

    One exact product: each row [a | b] times ints = [x * s | -s], s the
    lcm of the denominators of x, must be >= 0, which keeps the sign of
    a . x - b.  No partial sum passes max|entry| * sum|ints|, so the
    product is one in int64 when that bound is below 2^63 (numpy arrays
    would wrap silently past it), over Python integers otherwise.
    """
    if len(x) != problem.num_vars or not _checkable(problem, x):
        return False
    scale = math.lcm(*(v.denominator for v in x))
    ints = [v.numerator * (scale // v.denominator) for v in x] + [-scale]
    rows = problem.constraints
    top = max(1, -int(rows.min()), int(rows.max())) if rows.dtype != object and len(rows) else 1 << 63
    if top * sum(map(abs, ints)) < 1 << 63:
        return bool((rows @ np.array(ints, np.int64) >= 0).all())
    return bool((rows.astype(object) @ np.array(ints, object) >= 0).all())


def _combine_rows(problem: LpProblem, mults):
    """(coefficients, rhs, scale): the rows [a | b] combined with ``mults``,
    all times ``scale``, the lcm of the multipliers' denominators, so the
    sums are integers.  None when the vector is not one nonnegative int or
    Fraction per row, or the matrix is not int64 or Python ints, one column
    wider than the variables.

    The type of every entry is checked; past that the work is bounded by
    the support, the rows with a nonzero multiplier: ``compress`` finds
    them at C speed (an int 0 tests false there without a Python call),
    and only they are checked for sign, scaled and combined, in one
    product over Python integers (an int64 one would wrap silently).  Only
    the checkers call it.
    """
    rows = problem.constraints
    if not _checkable(problem, mults) or len(mults) != len(rows):
        return None
    used = list(compress(range(len(mults)), mults))
    if not used:  # every combined coefficient is 0: no vector of num_vars zeros
        return np.zeros(0, object), 0, 1
    support = [mults[i] for i in used]
    if min(support) < 0:
        return None
    scale = math.lcm(*(v.denominator for v in support))
    ints = np.array([v.numerator * (scale // v.denominator) for v in support], object)
    combined = ints @ rows[used].astype(object)
    return combined[:-1], combined[-1], scale


def check_farkas(problem: LpProblem, lam) -> bool:
    """Verify an infeasibility certificate by exact row combination.

    One multiplier per row, each >= 0.  The combination of the rows, each
    read as a . x >= b, must have zero coefficients and a positive
    right-hand side: 0 >= a positive number.
    """
    combination = _combine_rows(problem, lam)
    if combination is None:
        return False
    combined, total, _ = combination
    return not any(combined) and total > 0


def check_l1_bound(problem: LpProblem, dual, value) -> bool:
    """Verify that ``value`` lower-bounds sum(|x|) over the feasible set.

    ``dual`` holds one multiplier per row, each nonnegative, and combines
    the rows read as a . x >= b.  The combined coefficient of every
    variable must lie in [-1, 1], and the combined right-hand side must
    equal ``value``.
    """
    combination = _combine_rows(problem, dual)
    if combination is None:
        return False
    combined, total, unit = combination  # unit: the integer image of 1
    if any(abs(c) > unit for c in combined):
        return False
    value = _frac(value)
    return total * value.denominator == value.numerator * unit


# ---------------------------------------------------------------------------
# The L1 dual: a revised integer tableau with fraction-free pivoting
# ---------------------------------------------------------------------------


def _limb_width(l1: int) -> int:
    """The width of the limbs that float64 pricing cuts its vector into.

    A price is the dot product of the vector, cut into ``width``-bit limbs
    (each below 2^width in magnitude), with a row of L1 norm at most
    ``l1``.  Every partial sum of a limb's product is then below
    l1 * 2^width <= 2^53, an integer that float64 holds, so the product is
    exact in any summation order.  Below 1, no width does: rows that wide
    are priced over Python integers.
    """
    return 53 - l1.bit_length()


def _limbs(x: np.ndarray, width: int, count: int) -> np.ndarray:
    """The integers of ``x`` as ``count`` limbs of ``width`` bits in one int64
    array, limb axis first, which float64 holds exactly for any width
    pricing uses: v = sum(limb[l] << (l * width)), the lower limbs in
    [0, 2^width) and the top limb signed, holding the rest of v.  The top
    limb is below 2^(width - 1) in magnitude when count exceeds
    bit_length(v) // width."""
    out = np.empty((count, *x.shape), np.int64)
    mask = (1 << width) - 1
    for limb in range(count - 1):
        out[limb] = (x >> (limb * width)) & mask
    out[-1] = x >> ((count - 1) * width)
    return out


def _join(limbs: np.ndarray, width: int):
    """The exact Python integers that ``_limbs`` split (a scalar for one)."""
    x = limbs.astype(object)
    out = x[-1]
    for part in x[-2::-1]:
        out = (out << width) + part
    return out


def _l1(rows: np.ndarray, floor: int) -> int:
    """The largest L1 norm of a row of ``rows``, at least ``floor``."""
    wide = _abs_max(rows) * rows.shape[1] >= _I64  # a row sum may not fit in int64
    return max(floor, _abs_max(np.abs(rows).astype(object if wide else np.int64, copy=False).sum(axis=1)))


_I64 = 1 << 63  # int64 holds every integer of magnitude below this
_F53 = 1 << 53  # float64 holds every integer of magnitude up to this


def _abs_max(x: np.ndarray) -> int:
    """max |x| as a Python int; 0 for an empty array."""
    return int(np.maximum.reduce(np.abs(x), axis=None)) if x.size else 0


def _step64(T: np.ndarray, r: int, g: np.ndarray, div: int, tmax: int, gmax: int, rmax: int) -> np.ndarray | None:
    """The fraction-free step (T * piv - g (x) T[r]) / div, piv = g[r], of an
    int64 block ``T`` with max|T| = ``tmax`` and max|T[r]| = ``rmax`` and an
    int64 column ``g`` with max|g| = ``gmax`` below 2^63, in int64; None
    when its quotient may reach 2^63.

    ``div`` is odd and divides every entry of the numerator, so the
    quotient q is an integer.  The numerator is bounded entrywise by
    top = tmax * piv + gmax * rmax, and q by top / div.  The
    numerator may wrap in int64, but it is still exact mod 2^64, and the
    odd div is invertible mod 2^64, so the product num * inv(div) is
    q mod 2^64 (Hensel division); top // div < 2^63 makes that residue q
    itself.
    """
    piv = int(g[r])
    if (tmax * piv + gmax * rmax) // div >= _I64:
        return None
    inv = pow(div, -1, 1 << 64)
    num = T * piv - np.multiply.outer(g, T[r])  # numpy arrays wrap mod 2^64
    return num * (inv - (inv >> 63 << 64))  # the inverse as a signed int64


def _twos(x: np.ndarray) -> int:
    """The bitwise or of every entry of ``x`` as a Python int: its lowest
    set bit is the largest power of two dividing them all, and it is 0
    when they are all 0."""
    return int(np.bitwise_or.reduce(x, axis=None))


def _v2(x: int) -> int:
    """The exponent of the largest power of two dividing the nonzero int x."""
    return (x & -x).bit_length() - 1


def _shift(x, k: int):
    """x times 2^k, exactly: a left shift, a right shift when k < 0 (then
    2^-k divides x), or x itself when k = 0."""
    return x << k if k > 0 else x >> -k if k < 0 else x


class _DualL1:
    """min sum|x| subject to the problem's rows, solved as its always-feasible
    dual on a revised simplex tableau over integers sharing one denominator.

    The dual has one variable per row and two rows per primal variable
    (|combined coefficient| <= 1), so the basis stays at 2N even when the
    constraint count is in the thousands.  The primal witness is read off
    the reduced costs of the dual slacks; an unbounded dual ray is exactly
    an infeasibility certificate for the primal rows.

    The tableau's rows are the 2N dual constraints.  Columns are numbered
    as in the full tableau: one dual variable per row of ``A``, then the 2N
    slacks (``fork`` adds a row and moves them up one).  The dual variable
    of the primal >=-row a . x >= b has the original column [a; -a] and
    cost -b.

    The state is one integer matrix ``T``, the block of the full
    fraction-free tableau that any other column is computed from: int64
    while a bound proves each pivot exact there (see ``pivot``), Python
    integers in an object array otherwise; its readers return Python ints
    either way.  Its columns are the columns of den * B^-1 under the
    nonbasic slacks, named by ``slacks``, then the basic values (rhs);
    its rows are the 2N dual rows, then the cost row (the slack costs,
    and the dual objective b . y = corner / den in the rhs column).  A
    basic slack j needs no column: B^-1 e_j is the unit vector of its
    row (``basic_slack`` names the slack basic in each row), so its
    column is den there and 0 elsewhere, and its cost is 0.
    Each pair +-(A^T y)_k <= 1 keeps a slack basic (the pair's two slacks
    sum to 2, so one is positive), so at most N slacks are nonbasic and
    ``T`` is at most (2N+1) x (N+1).

    ``A`` is ``problem.constraints``, the same object, never a copy: a row
    [a | b] of a . x >= b per dual variable, int64, or Python integers
    once an entry passes 2^62.  ``l1`` is the largest L1 norm of a row (at
    least 1) and ``width`` the ``_limb_width`` of its rows.  ``F`` is the
    float64 copy of the rows, exact as every entry is below 2^52 when
    ``width`` is at least 1 (None otherwise).  It is made once per root
    tableau and shared by every clone and fork, whose rows past it are
    their own.  Column j is den * B^-1 [a_j; -a_j], and its reduced cost
    is [z | -den] . [a_j | b_j] with z = w[:N] - w[N:] for the slack
    costs w.  A pivot updates at most (2N+1) x (N+1) integers in whole-array
    steps instead of 2N x (rows + 2N) one at a time.

    ``T`` and ``den`` are any integers that hold these rationals over one
    den, not necessarily the full fraction-free tableau's (the Bareiss
    state, whose integers are subdeterminants of the data).  Each pivot
    divides by den's odd part and takes out the power of two common to
    the whole state (see ``pivot``), so the state is the Bareiss one
    times 2^-j for some j >= 0: no power of two divides every stored
    integer, and each is at most its Bareiss counterpart.  On +-1 rows,
    whose subdeterminants carry large powers of two, that keeps den and
    the block far smaller.  Every choice of the simplex compares
    rationals that all scale by the same positive factor, so the pivot
    path is that of the fraction-free tableau.

    One iteration (``_entering``, ``column``, ``_leaving``, ``pivot``)
    hands numpy arrays from step to step, int64 where a bound on
    tmax = max|T| (taken once per block), den (below 2^63 while the block
    is int64) and ``l1`` proves a step exact there, Python integers
    otherwise:

      * every entry of [z | -den | w] is below max(2 * tmax, den), so when
        that bound times ``l1``, B, is below 2^53, every entry of A and of
        the vector, every product and every partial sum is an integer below
        2^53, which float64 holds: one float64 (BLAS) product A @ [z | -den]
        is exact in any summation order, and it and the slack costs w are
        written into one int64 cost row.  Otherwise the vector is cut into
        ``width``-bit limbs, one float64 product per limb, exact by the
        same argument, and int64 carries make the sums exact however large
        they grow.  Rows too wide for any limb (``width`` below 1, as for
        an ``A`` of Python integers) are priced in one product over
        Python integers;
      * a column is int64 when max(tmax, den) * 2 * l1 < 2^63, as each
        entry sums the block or den times distinct entries of [a; -a];
      * the ratio test picks the rows with a positive entry in numpy and
        compares their ratios exactly over Python integers;
      * a pivot is an int64 step when ``_step64`` proves it exact.
    """

    def __init__(self, problem: LpProblem):
        A, nvars = problem.constraints, problem.num_vars
        if not _is_row_matrix(A, nvars):  # it may be replaced after the build
            raise LpError("constraints are no row matrix of int64 below 2^62 or Python ints")
        m = 2 * nvars
        self.problem = problem
        self.nvars = nvars
        self.A = A
        self.l1 = _l1(A, 1)
        # every tableau prices, so the copy is made at once; shared by every clone and fork
        self.F = A.astype(np.float64) if self.width >= 1 else None
        # every slack basic: no stored column, the basic values all 1
        self.T = np.array([[1]] * m + [[0]], dtype=np.int64)
        self.slacks: list[int] = []
        self.den = 1
        self.basis: list[int] = [len(A) + i for i in range(m)]
        # the slack basic in each row, or m where the basic variable is no slack
        self.basic_slack = np.arange(m)
        self.pivots = 0
        self.wide_pivots = 0  # pivots done over Python integers
        self.rule = "hybrid"
        self._stall = 0
        self._max = (None, 0)  # (T, max|T|) once taken
        self.ray_col: int | None = None

    @property
    def m(self) -> int:
        return 2 * self.nvars

    @property
    def width(self) -> int:
        return _limb_width(self.l1)

    @property
    def corner(self) -> int:
        return int(self.T[-1, -1])

    def rhs(self) -> list:
        """den times the basic values, one per row."""
        return self.T[:-1, -1].tolist()

    def costs(self) -> list:
        """The cost row on the 2N slack columns; a basic slack's is 0."""
        w = [0] * self.m
        for j, v in zip(self.slacks, self.T[-1, :-1].tolist()):
            w[j] = v
        return w

    def _block_max(self) -> int:
        """max|T| as a Python int, taken once per block."""
        if self._max[0] is not self.T:
            self._max = self.T, _abs_max(self.T)
        return self._max[1]

    def clone(self) -> "_DualL1":
        t = copy.copy(self)  # the problem and A are never written, so the clones share them
        # the integers are immutable, so shallow copies
        t.T, t.slacks, t.basis, t.basic_slack = self.T.copy(), self.slacks[:], self.basis[:], self.basic_slack.copy()
        t.ray_col = None
        return t

    # -- pricing -------------------------------------------------------------

    def _priced(self) -> np.ndarray:
        """Every reduced cost in column order as limbs, limb axis first: one
        limb, the cost itself (int64 or a Python integer), or ``width``-bit
        limbs, the lowest first.

        Three paths (see ``_DualL1``): one float64 product while
        B = max(2 * tmax, den) * l1 is below 2^53, its integers cast into
        the int64 cost row as they are; otherwise one float64 product per
        ``width``-bit limb of [z | -den], each cast into its int64 limb row
        and carried; or, when ``width`` is below 1, one product over Python
        integers.

        After the carries the lower limbs lie in [0, 2^width), so the top
        limb has the sign of the cost and the limbs compare lexicographically.
        """
        n, n0, width, A, T, den = self.nvars, len(self.A), self.width, self.A, self.T, self.den
        wide = T.dtype == object or (tmax := self._block_max()) >= 1 << 62
        # B >= 2 * l1 (some basic slack is positive), so width >= 1 and F is made
        if not wide and max(2 * tmax, den) * self.l1 < _F53:  # one product
            p = np.zeros((1, n0 + 2 * n), np.int64)
            w = p[0, n0:]
            w[self.slacks] = T[-1, :-1]
            v = np.empty(n + 1)  # [z | -den]
            np.subtract(w[:n], w[n:], out=v[:n])
            v[n] = -den
            self._dot(v, p[0, :n0])
            return p
        w = np.zeros(2 * n, object if wide else np.int64)
        w[self.slacks] = T[-1, :-1]
        vals = np.concatenate((w[:n] - w[n:], [-den], w))  # [z | -den | w]
        if width < 1:  # rows too wide for any limb: one limb of Python integers
            vals = vals.astype(object)
            return np.concatenate((A @ vals[: n + 1], vals[n + 1 :]))[None]
        top = _abs_max(vals) if wide else max(2 * tmax, den)  # bounds |vals|
        limbs = _limbs(vals, width, top.bit_length() // width + 1)
        p = np.empty((len(limbs), n0 + 2 * n), np.int64)
        p[:, n0:] = limbs[:, n + 1 :]
        for x, row in zip(limbs[:, : n + 1].astype(np.float64), p):
            self._dot(x, row[:n0])
        for lo, hi in zip(p, p[1:]):
            hi += lo >> width
            lo &= (1 << width) - 1
        return p

    def _dot(self, x: np.ndarray, out: np.ndarray) -> None:
        """out = A @ x for a float64 vector x that keeps every partial sum an
        integer below 2^53: the shared copy ``F``, then the rows a fork
        appended past it."""
        k = len(self.F)
        out[:k] = self.F @ x
        if k < len(out):
            out[k:] = self.A[k:] @ x

    def column(self, c: int) -> np.ndarray:
        """Column c of the full tableau: den * B^-1 times the original column
        a, the stored block times its entries under the nonbasic slacks plus
        den times its entry under each basic slack, in that slack's row.

        An entry sums the block or den times distinct entries of a, so it
        is below max(max|T|, den) * sum|a|; the column is int64 when that
        bound is below 2^63 (sum|a| is 1 for a slack, at most 2 * l1 for a
        row), Python integers otherwise."""
        n, n0, m, T = self.nvars, len(self.A), self.m, self.T
        if c >= n0:
            a = np.zeros(m + 1, np.int64)
            a[c - n0] = 1
            norm = 1
        else:
            a = self.A[c, :n]
            a = np.concatenate((a, -a, [0]))  # [a; -a], then 0 for rows whose basic variable is no slack
            norm = 2 * self.l1
        wide = T.dtype == object or max(self._block_max(), self.den) * norm >= _I64
        dtype = object if wide else np.int64
        a = a.astype(dtype, copy=False)
        return T[:-1, :-1].astype(dtype, copy=False) @ a[self.slacks] + self.den * a[self.basic_slack]

    # -- pivoting ------------------------------------------------------------

    def _entering(self) -> tuple | None:
        """(column, exact reduced cost) of the entering column, or None:
        the most negative cost, least index on ties, under Dantzig's rule,
        the first negative one under Bland's."""
        p = self._priced()
        top = p[-1]
        if self.rule == "bland":
            negative = np.flatnonzero(top < 0)
            if not len(negative):
                return None
            c = int(negative[0])
        elif len(p) == 1:  # the costs themselves
            c = int(top.argmin())
            if top[c] >= 0:
                return None
        else:
            low = top.min()
            if low >= 0:
                return None
            # most negative reduced cost, least index on ties (lexsort is stable)
            ties = np.flatnonzero(top == low)
            c = int(ties[np.lexsort(p[:, ties])[0]])
        return c, int(p[0, c]) if len(p) == 1 else _join(p[:, c], self.width)

    def _leaving(self, col: np.ndarray) -> int | None:
        """The row of the least ratio rhs_i / col_i over the rows with
        col_i > 0, the least basis index on ties; None when there is none.

        numpy picks those rows; their ratios are compared exactly, by
        cross products of Python integers."""
        rows = (col > 0).nonzero()[0]
        best = None  # (row, rhs, entry, basis index)
        for i, num, a in zip(rows.tolist(), self.T[rows, -1].tolist(), col[rows].tolist()):
            if best is None or (num * best[2], self.basis[i]) < (best[1] * a, best[3]):
                best = i, num, a, self.basis[i]
        return None if best is None else best[0]

    def pivot(self, r: int, c: int, col: np.ndarray, f: int) -> None:
        """Pivot column c (entries ``col``, reduced cost ``f``) into row r.

        With g the column's entry in each row (``f`` in the cost row), the
        new state holds the rationals of row (row * piv - g * row r) / piv
        for every row but r, and row r / piv, over one new den.  The
        entering slack's column would become the new den in row r, so it is
        dropped first; the leaving slack's column, den in row r before,
        becomes -g with the old den in row r, and is stored.

        The state is the Bareiss one times 2^-j (see ``_DualL1``).  With
        den = 2^a * o, o odd, the Bareiss den divides every Bareiss
        numerator, so o divides every numerator row * piv - g * row r
        here; the step divides by o alone, and the new den is piv * 2^a,
        so row r and the slack column are shifted left by a.  The whole
        state, den included, is then divided by the largest power of two
        common to all of it (found from the bitwise or of its entries).
        Every choice the simplex makes compares rationals, and all of them
        scale by the same positive factor, so the pivot path does not
        change.

        An int64 block is updated in int64 when every entry of g is below
        2^63 and ``_step64`` proves that the quotient by o fits there.
        Otherwise the block turns into Python integers for the step
        (counted in ``wide_pivots``), and back into int64 after it when the
        new den and every new entry are below 2^62 (den is tested first:
        some basic slack holds at least 1, so its rhs den * value already
        rules out a wider den, and a block that stays wide pays no scan).
        A shift left that would pass 2^63 also leaves the block in Python
        integers.  While the block is int64, den is below 2^63: it was 1,
        a pivot of an int64 step shifted within that bound, or below 2^62
        at the conversion.  max|g|, max|T[r]| and the bitwise ors of g and
        row r are each taken once, for ``_step64``, the strip and the shift.
        """
        den, T, m, n0 = self.den, self.T, self.m, len(self.A)
        piv = int(col[r])
        if piv <= 0:
            raise LpError("pivot element must be positive")
        if c >= n0:
            k = self.slacks.index(c - n0)
            T = np.concatenate((T[:, :k], T[:, k + 1 :]), axis=1)
            del self.slacks[k]
        g = np.empty(len(col) + 1, col.dtype if -_I64 < f < _I64 else object)
        g[:-1], g[-1] = col, f
        leaving = self.basis[r] >= n0
        a = _v2(den)
        div = den >> a  # odd, and it divides the numerators
        # each reduction of g and row r is taken once, before any conversion
        twos = _twos(T[r]) | piv | (_twos(g) | den if leaving else 0)
        new = None
        if T.dtype != object and (gmax := _abs_max(g)) < _I64:
            g, rmax = g.astype(np.int64, copy=False), _abs_max(T[r])
            new = _step64(T, r, g, div, self._block_max() if T is self.T else _abs_max(T), gmax, rmax)
        if new is None:
            self.wide_pivots += 1
            T, g = T.astype(object, copy=False), g.astype(object, copy=False)
            new = T * piv
            rows = np.flatnonzero(g)  # the other rows are only rescaled
            new[rows] -= np.multiply.outer(g[rows], T[r])
        else:
            div = 1  # _step64 has divided
        # the power of two common to the quotient (0 in row r; div is odd, so
        # the numerator's is the same) and to row r, the slack column and
        # piv, these three shifted left by a
        s = _v2(_twos(new) | twos << a)
        if div > 1:
            new //= div << s  # the odd part and 2^s in one pass
        elif s:
            new >>= s
        shift = a - s  # row r, the leaving slack's column and the new den piv go times 2^shift
        if new.dtype != object and shift > 0:  # an int64 step, so gmax and rmax are taken
            grown = max(rmax, piv, *((gmax, den) if leaving else ()))
            if grown << shift >= _I64:
                new = new.astype(object)
        new[r] = _shift(T[r].astype(new.dtype, copy=False), shift)
        if leaving:
            # an int64 step had |g| < 2^63, and den < 2^63 with the block int64
            slack = (-g).astype(new.dtype, copy=False)
            slack[r] = den
            new = np.concatenate((new[:, :-1], _shift(slack, shift)[:, None], new[:, -1:]), axis=1)  # before the rhs
            self.slacks.append(self.basis[r] - n0)
        den = _shift(piv, shift)
        if new.dtype == object and den < 1 << 62 and _abs_max(new) < 1 << 62:
            new = new.astype(np.int64)
        self.T = new
        self.den = den
        self.basis[r] = c
        self.basic_slack[r] = c - n0 if c >= n0 else m
        self.pivots += 1

    def step(self, c: int, f: int) -> bool:
        """One iteration on the entering column c of reduced cost f: its
        column, the leaving row, the budget check, the pivot and the stall
        count that switches to Bland's rule.  False, with ``ray_col`` set,
        when no row leaves (the dual is unbounded); ``BudgetError`` when a
        pivot is due and ``PIVOT_BUDGET`` are spent."""
        col = self.column(c)
        r = self._leaving(col)
        if r is None:
            self.ray_col = c
            return False
        if self.pivots >= PIVOT_BUDGET:
            raise BudgetError(f"pivot budget {PIVOT_BUDGET} exhausted")
        before_num, before_den = self.corner, self.den
        self.pivot(r, c, col, f)
        if self.rule == "hybrid":
            if self.corner * before_den == before_num * self.den:
                self._stall += 1
                if self._stall > 3 * self.m + 30:
                    self.rule = "bland"
            else:
                self._stall = 0
        return True

    def optimize(self) -> str:
        """Step until no column enters or no row leaves (``ray_col``, set by any step)."""
        while self.ray_col is None and (entering := self._entering()) is not None:
            self.step(*entering)
        return "optimal" if self.ray_col is None else "unbounded"

    def fork(self, problem: LpProblem) -> "_DualL1":
        """A clone that solves ``problem``, this one's problem with one more
        row last; the only way a row reaches a tableau.  The clone prices
        ``problem``'s own matrix and numbers the row's column before the
        slacks, as a cold one does, so only the ``basis`` entries naming a
        slack move up one (the rest of the state is keyed by slack offset).
        The new column is nonbasic: the state of a cold tableau on the same
        pivots, while that column never entered."""
        child = self.clone()
        n0 = len(self.A)
        child.problem, child.A = problem, problem.constraints
        child.l1 = _l1(child.A[n0:], self.l1)
        child.basis = [b + 1 if b >= n0 else b for b in self.basis]
        return child

    # -- reading the solution ------------------------------------------------

    def value(self) -> Fraction:
        return Fraction(self.corner, self.den)

    def numerators(self) -> list:
        """The witness times den: its coordinates are these over ``den``."""
        n = self.nvars
        w = self.costs()
        return [w[k] - w[n + k] for k in range(n)]

    def witness(self) -> list:
        return [Fraction(v, self.den) for v in self.numerators()]

    def _per_row(self, nums: list) -> list:
        """One multiplier per problem row from one numerator over den per
        basis row (a row's column is its position; the slacks' come after
        every row): Fraction(num, den) at each basic row with a nonzero
        num, and the int 0 at every other row, which the checkers and a
        certificate's sparse multiplier map skip at C speed."""
        out = [0] * len(self.A)
        for b, v in zip(self.basis, nums):
            if v and b < len(out):
                out[b] = Fraction(v, self.den)
        return out

    def certify(self) -> LpOutcome:
        """Solve once and return the independently re-checked outcome.

        Infeasible rows give a Farkas vector over the problem's constraints:
        the dual ray, the entering column's variable at 1 and each basic one
        moving by minus its column entry.  Otherwise the outcome is optimal:
        the minimum-L1 witness, its value, the dual multipliers proving the
        bound (the basic values), and this solver, whose tableau branch and
        bound can start from.
        """
        problem = self.problem
        status = self.optimize()
        stats = {
            "pivots": self.pivots,
            "wide_pivots": self.wide_pivots,
            "den_bits": self.den.bit_length(),
            "bland": self.rule == "bland",
        }
        if status == "unbounded":
            lam = self._per_row([-a for a in self.column(self.ray_col).tolist()])
            lam[self.ray_col] = Fraction(1)  # a row: the slacks are bounded (each pair sums to 2)
            if not check_farkas(problem, lam):
                raise LpError("internal error: infeasibility certificate failed")
            return LpOutcome(status="infeasible", farkas=lam, stats=stats)
        value = self.value()
        witness = self.witness()
        if not check_witness(problem, witness):
            raise LpError("internal error: optimal witness failed substitution")
        if sum(abs(v) for v in witness) != value:
            raise LpError("internal error: witness weight disagrees with optimum")
        dual = self._per_row(self.rhs())
        if not check_l1_bound(problem, dual, value):
            raise LpError("internal error: dual bound certificate failed")
        return LpOutcome(
            status="optimal", witness=witness, value=value, dual=dual, stats=stats, solver=self
        )


# ---------------------------------------------------------------------------
# L1 minimization through the dual
# ---------------------------------------------------------------------------


def min_l1(problem: LpProblem) -> LpOutcome:
    """Exact minimum of sum(|x_j|) under the problem's constraints.

    Returns Optimal with the minimizing witness, dual multipliers (one per
    row) certifying the bound and the solved tableau, or Infeasible with a
    verified combination certificate.
    """
    return _DualL1(problem).certify()


def solve_extensions(base: LpProblem, rows: list) -> list[tuple[LpProblem, LpOutcome]]:
    """``min_l1`` of the base problem plus each one of ``rows``, walking the
    base's pivot path once.

    One (problem, outcome) pair per (coeffs, rel, rhs) row, in order: the
    problem is ``base.extended(*row)``, and the outcome, its fork's
    ``certify``, equals ``min_l1`` of it: pivot path, stats, certificate.

    A tableau of base + row numbers the row's dual column n0, after the
    base's rows and before the slacks.  While that column is nonbasic,
    every other column, price and ratio is the base's, and ties on the
    leaving row keep their order, so the path is the base's up to the
    first state where the new column would enter.  The walk solves the
    base.  At each state it prices every pending row's column exactly, as
    p = z . a - den * b (z the base's ``numerators``, [a | b] the row),
    all in one product over Python integers.  The row forks there (a
    clone of the base tableau, the row put in by ``_DualL1.fork``, its
    column entered at cost p with no pricing, then certified on its own)
    when p < 0 and:

      * the base is optimal at this state;
      * under Dantzig's rule, p < f, the base's entering cost, or p = f
        and the base enters a slack (on the tie the new column n0 comes
        before every slack, after every base row);
      * under Bland's rule, the base enters a slack (its first negative
        column would come after n0).

    Rows still pending when the base stops (unbounded, or optimal with
    p >= 0) fork at its final state and are priced there.  The fork state
    lies on the row's own cold path, so the rest of its solve is that path
    too.  Forking early is always safe (the fork then takes the shared
    pivots itself); only a fork after the new column would have entered
    changes a path.  A budget stop raises ``BudgetError`` exactly when
    some cold solve would: a pending row's next pivot is the base's.
    """
    problems = [base.extended(*row) for row in rows]
    walk, n = _DualL1(base), base.num_vars
    last = np.array([p.constraints[-1] for p in problems], object).reshape(len(problems), n + 1)
    pending = list(range(len(problems)))
    outcomes = {}

    def fork(i: int, p: int | None = None) -> None:
        child = walk.fork(problems[i])
        if p is not None:  # the row's column enters first, at cost p
            child.step(len(walk.A), p)
        outcomes[i] = child.certify()
        pending.remove(i)

    while pending:
        c, f = walk._entering() or (None, None)  # c None: the base is optimal
        slack = c is not None and c >= len(walk.A)
        prices = last[pending] @ np.array([*walk.numerators(), -walk.den], object)
        for i, p in zip(pending[:], prices.tolist()):
            if p < 0 and (c is None or (slack if walk.rule == "bland" else p < f or p == f and slack)):
                fork(i, p)
        if c is None or not pending or not walk.step(c, f):
            break
    for i in pending[:]:
        fork(i)
    return [(problem, outcomes[i]) for i, problem in enumerate(problems)]


# ---------------------------------------------------------------------------
# Branch and bound for exact integer minimal L1 weight
# ---------------------------------------------------------------------------


def ilp_min(root: LpOutcome, node_budget: int = DEFAULT_NODE_BUDGET, incumbent: list | None = None) -> IlpResult:
    """Exact integer minimum of sum(|x_j|) by depth-first branch and bound
    from ``root``, a problem's ``min_l1`` outcome: infeasible, or optimal,
    with the solved tableau (and its problem) the search starts from.

    Branches on the most fractional coordinate of each node's relaxation
    witness, prunes with ceil(LP value) against the incumbent, and rounds
    relaxation witnesses as a cheap upper-bound heuristic.  ``incumbent``
    may seed the search with a known integer-feasible point.  Each child is
    its parent's LP plus its branching row, forked off the parent's tableau
    (``_DualL1.fork``).  ``nodes`` counts the nodes taken off the stack; a
    budget stop, once ``node_budget`` of them are taken and one is left,
    reports the ceiling of the root value as the lower bound.

    A node's witness and value are read as integers over the tableau's den
    (``_DualL1.numerators`` and ``corner``), and every choice is made on
    them: each choice depends only on the rationals, so any den gives the
    same picks and candidates.
    """
    if root.status == "infeasible":  # no tableau to start from
        return IlpResult("infeasible", nodes=1)
    problem = root.solver.problem

    # margin-style systems (every row a . x >= b with b >= 0) stay feasible
    # under scaling by any factor >= 1, so fractional witnesses round up to
    # integer incumbents
    scalable = bool((problem.constraints[:, -1] >= 0).all())

    best_w: int | None = None
    best_c: list | None = None

    def consider(ints: list) -> None:
        nonlocal best_w, best_c
        w = sum(map(abs, ints))
        if (best_w is None or w < best_w) and check_witness(problem, ints):
            best_w, best_c = w, ints

    if incumbent is not None:
        seed = [Fraction(v) for v in incumbent]
        if all(v.denominator == 1 for v in seed):
            consider([v.numerator for v in seed])

    nodes = 0
    stack: list[_DualL1] = [root.solver]
    while stack and nodes < node_budget:
        solver = stack.pop()
        nodes += 1
        nums, den = solver.numerators(), solver.den
        bound = -(-solver.corner // den)  # ceil of the LP value
        if best_w is not None and bound >= best_w:
            continue
        fracs = [v % den for v in nums]  # den times the fractional parts
        if not any(fracs):
            consider([v // den for v in nums])
            continue
        consider([(2 * v + den) // (2 * den) for v in nums])  # each rounded to nearest, halves up
        if scalable:
            # the lcm of the witness's reduced denominators
            mult = den // math.gcd(den, *nums)
            if mult <= 64:
                consider([v // (den // mult) for v in nums])
        if best_w is not None and bound >= best_w:
            continue
        # most fractional coordinate, least index on ties
        pick = min((j for j, fr in enumerate(fracs) if fr), key=lambda j: (abs(2 * fracs[j] - den), j))
        floor_v = nums[pick] // den
        # LIFO stack: the preferred child (down, or up past a half) is made
        # and pushed last, so it is explored first
        children = [(1, floor_v + 1), (-1, -floor_v)]
        if 2 * fracs[pick] > den:
            children.reverse()
        for sign, rhs in children:
            child = solver.fork(solver.problem.extended({pick: sign}, GE, rhs))
            # the parent is optimal, so the row's column enters first, at its
            # cost [z | -den] . [a | b] < 0, with no pricing
            child.step(len(solver.A), sign * nums[pick] - den * rhs)
            if child.optimize() == "optimal":  # else the child region is infeasible
                stack.append(child)

    if stack:  # a node is left, and no budget to expand it; W is an integer
        return IlpResult("budget", best_w, best_c, Fraction(math.ceil(root.value)), nodes)
    if best_w is None:
        return IlpResult("infeasible", nodes=nodes)
    return IlpResult("optimal", best_w, best_c, Fraction(best_w), nodes)
