"""The block tableau of ``exact_lp._Tableau`` against the dict-row tableau it
replaced (``tableau_reference``), pivot by pivot."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ptflab import exact_lp
from tableau_reference import DictTableau

COEFFS = {
    "pm1": st.sampled_from([-1, 1]),
    "small": st.integers(-9, 9),
    "past 2^62": st.integers(-(2**63), 2**63),
}
STEPS = 60  # per solve; Bland's rule is forced before this many pivots


def assert_same(t, ref) -> None:
    """Same integers, and the stored block is exactly the nonbasic slacks."""
    assert (t.den, t.rhs(), t.costs(), t.corner) == (ref.den, ref.rhs, ref.w, ref.corner)
    assert t.basis == ref.basis
    m = 2 * t.nvars
    basic = {b - t.n0 for b in t.basis if 0 <= b - t.n0 < m}
    assert sorted(t.slacks) == sorted(set(range(m)) - basic)
    assert len(t.slacks) <= t.nvars and t.T.shape == (m + 1, len(t.slacks) + 1)
    for c in range(len(ref.rows) + m):
        assert t.column(c) == ref.column(c)


def drive(t, ref, bland_at: int) -> str:
    """Run both with the same rule until optimal or unbounded, comparing the
    entering column, its entries, the leaving row and the state after each
    pivot; the rule switches to Bland's after ``bland_at`` pivots."""
    for _ in range(STEPS):
        if t.pivots >= bland_at:
            t.rule = "bland"
        entering = t._entering()
        assert entering == ref.entering(t.rule)
        if entering is None:
            return "optimal"
        c, f = entering
        col = t.column(c)
        assert col == ref.column(c)
        r = t._leaving(col)
        assert r == ref.leaving(col)
        if r is None:
            return "unbounded"
        t.pivot(r, c, col, f)
        ref.pivot(r, c, col, f)
        assert_same(t, ref)
    raise AssertionError("Bland's rule did not terminate")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_block_tableau_matches_the_dict_rows(data):
    nvars = data.draw(st.integers(1, 4))
    coeff = COEFFS[data.draw(st.sampled_from(sorted(COEFFS)))]
    # dense rows and mostly positive right-hand sides, so the dual moves far
    # enough for slacks to leave and re-enter the basis
    dense = st.lists(coeff, min_size=nvars, max_size=nvars)
    row = st.tuples(dense.map(lambda a: {j: v for j, v in enumerate(a) if v}), st.integers(-3, 6) | coeff)
    rows = data.draw(st.lists(row, min_size=1, max_size=10))
    t = exact_lp._Tableau(nvars, exact_lp._ge_matrix(rows, nvars))
    ref = DictTableau(nvars, rows)
    bland_at = data.draw(st.integers(0, STEPS // 2))
    drive(t, ref, bland_at)
    # branch and bound: clone, append a row, solve again; the parent keeps its state
    for appended in data.draw(st.lists(row, max_size=3)):
        if data.draw(st.booleans()):
            parent, before = t, (t.T.copy(), t.slacks[:], t.den, t.basis[:], t.pivots)
            t, ref = t.clone(), ref.clone()
        else:
            parent = None
        t.add_row(*appended)
        ref.add_row(*appended)
        drive(t, ref, bland_at)
        if parent is not None:
            T, slacks, den, basis, pivots = before
            assert T.shape == parent.T.shape and (T == parent.T).all()
            assert (slacks, den, basis, pivots) == (parent.slacks, parent.den, parent.basis, parent.pivots)
