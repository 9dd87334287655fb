"""Witness gates, the u/v change of basis, and symmetrization."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptflab import (
    Convention,
    IntPolynomial,
    OrderContext,
    PolynomialError,
    assignment_of_index,
    enumerate_ordered,
    from_uv,
    make_hard,
    make_shape,
    symmetric_coefficient,
    symmetrize,
    to_uv,
    witness_gate,
)
from ptflab.threshold_analysis import check_sign_representation
from uv_reference import evaluate, uv_values

WEAK23 = make_shape("weak", (2, 3))


def x(shape, i, j):
    return shape.x_index(i, j)


def y(shape, i, j):
    return shape.y_index(i, j)


# ---------------------------------------------------------------------------
# gate construction
# ---------------------------------------------------------------------------


def test_gate_single_group_k2():
    shape = make_shape("weak", (2,))
    gate = witness_gate(shape)
    assert gate.coeffs == {
        (x(shape, 1, 1),): 2,
        (y(shape, 1, 1),): -2,
        (x(shape, 1, 2),): 4,
        (y(shape, 1, 2),): -4,
    }
    assert gate.weight == 12
    assert gate.degree == 1


def test_gate_weight_formula():
    for ks in [(2, 2), (2, 3), (2, 2, 3), (4, 3)]:
        shape = make_shape("weak", ks)
        gate = witness_gate(shape)
        assert gate.weight == (1 << shape.d) * ((1 << (shape.size_K + 1)) - 2)
    assert witness_gate(make_shape("weak", (2, 2))).weight == 120


def test_gate_vanishes_when_halves_agree():
    shape = WEAK23
    gate = witness_gate(shape)
    m = sum(shape.ks)
    for xbits in range(1 << m):
        a = [(xbits >> j) & 1 for j in range(m)]
        assert evaluate(gate, a + a) == 0


@pytest.mark.parametrize(
    "variant, ks, digest",
    [
        ("weak", (3, 3, 3), "5b6894edbdec82e1"),
        ("weak", (2, 2, 2, 3), "92b17ba419d51224"),
        ("strong", (5, 3), "325cefccc8e03622"),
    ],
)
def test_gate_coefficients_match_pinned_digests(variant, ks, digest):
    # digests taken when the gate was expanded from per-shape xy factors, not from_uv
    gate = witness_gate(make_shape(variant, ks))
    got = hashlib.sha256(repr(sorted(gate.coeffs.items())).encode()).hexdigest()[:16]
    assert got == digest


def test_gate_top_term_dominates():
    # at every input the highest-ranked nonzero product outweighs the rest
    shape = WEAK23
    ctx = OrderContext(shape)
    ordered = enumerate_ordered(ctx)
    for idx in range(1 << shape.n):
        a = assignment_of_index(idx, shape.n, Convention.ZERO_ONE)
        terms = []
        for rank, alpha in enumerate(ordered, start=1):
            prod = 1
            for i, ai in enumerate(alpha, start=1):
                prod *= a[x(shape, i, ai)] - a[y(shape, i, ai)]
            terms.append((1 << rank) * prod)
        nz = [t for t in terms if t]
        if not nz:
            continue
        top = max((j for j, t in enumerate(terms) if t))
        assert abs(terms[top]) > sum(abs(t) for t in terms[:top])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_empty_polynomial():
    p = IntPolynomial("xy", WEAK23, {})
    assert evaluate(p, [0] * WEAK23.n) == 0
    assert p.weight == 0 and p.degree == 0


def test_eval_tiny_gate():
    shape = make_shape("weak", (1,))
    gate = witness_gate(shape)
    assert evaluate(gate, [1, 0]) == 2
    assert evaluate(gate, [0, 1]) == -2


def test_json_round_trip():
    gate = witness_gate(WEAK23)
    blob = gate.to_json()
    assert all(set(rec) == {"vars", "coeff"} for rec in blob)
    back = IntPolynomial.from_json("xy", WEAK23, blob)
    assert back.coeffs == gate.coeffs
    q = symmetrize(to_uv(gate))
    back_uv = IntPolynomial.from_json("uv", WEAK23, q.to_json())
    assert back_uv.coeffs == q.coeffs


# ---------------------------------------------------------------------------
# change of basis
# ---------------------------------------------------------------------------


def random_xy_poly(data, shape, max_terms=6, coeff=8):
    n = shape.n
    d = shape.d
    coeffs = {}
    for _ in range(data.draw(st.integers(0, max_terms))):
        deg = data.draw(st.integers(0, d))
        key = tuple(sorted(data.draw(
            st.lists(st.integers(0, n - 1), min_size=deg, max_size=deg, unique=True)
        )))
        coeffs[key] = coeffs.get(key, 0) + data.draw(st.integers(-coeff, coeff))
    return IntPolynomial("xy", shape, coeffs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_uv_substitution_identity_weak(data):
    shapes = [WEAK23, make_shape("weak", (2, 2)), make_shape("weak", (3,)), make_shape("weak", (2, 2, 2))]
    shape = data.draw(st.sampled_from(shapes))
    p = random_xy_poly(data, shape)
    q = to_uv(p)
    idx = data.draw(st.integers(0, (1 << shape.n) - 1))
    a = assignment_of_index(idx, shape.n, Convention.ZERO_ONE)
    uv = uv_values(shape, a)
    assert evaluate(q, uv) == (1 << shape.d) * evaluate(p, a)
    assert q.weight <= (1 << shape.d) * p.weight


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_uv_substitution_identity_strong(data):
    # strong(5,3)'s x rows have 5 terms
    shapes = [make_shape("strong", (3, 3)), make_shape("strong", (3, 2)), make_shape("strong", (5, 3))]
    shape = data.draw(st.sampled_from(shapes))
    p = random_xy_poly(data, shape)
    q = to_uv(p)
    idx = data.draw(st.integers(0, (1 << shape.n) - 1))
    a = assignment_of_index(idx, shape.n, Convention.PLUS_MINUS)
    uv = uv_values(shape, a)
    assert evaluate(q, uv) == (1 << shape.d) * evaluate(p, a)
    assert q.weight <= shape.n**shape.d * p.weight


def test_uv_weight_bounds_on_gates():
    for variant, ks in [("weak", (2, 3)), ("weak", (2, 2, 3)), ("strong", (3, 3)), ("strong", (5, 3))]:
        shape = make_shape(variant, ks)
        gate = witness_gate(shape)
        up = to_uv(gate)
        cap = (1 << shape.d) if variant == "weak" else shape.n**shape.d
        assert up.weight <= cap * gate.weight


def test_uv_assignment_ranges():
    shape = WEAK23
    for idx in range(1 << shape.n):
        uv = uv_values(shape, assignment_of_index(idx, shape.n, Convention.ZERO_ONE))
        for (kind, i, j), v in uv.items():
            if kind == "u":
                assert v in (-1, 0, 1)
            else:
                assert v in (0, 1, 2)
                assert (v - uv[("u", i, j)]) % 2 == 0
    strong = make_shape("strong", (3, 3))
    for idx in range(1 << strong.n):
        uv = uv_values(strong, assignment_of_index(idx, strong.n, Convention.PLUS_MINUS))
        for (kind, i, j), v in uv.items():
            assert v in (-2, 0, 2)


def test_to_uv_rejects_bad_inputs():
    shape = WEAK23
    toodeep = IntPolynomial("xy", shape, {(0, 1, 2): 1})
    with pytest.raises(PolynomialError):
        to_uv(toodeep)
    with pytest.raises(PolynomialError):
        to_uv(IntPolynomial("uv", shape, {}))
    with pytest.raises(PolynomialError):
        to_uv(IntPolynomial("xy", None, {(0,): 1}))
    shapeless = IntPolynomial("uv", None, {(("u", 1, 1),): 1})
    for needs_shape in (from_uv, symmetrize, lambda q: symmetric_coefficient(q, (1,))):
        with pytest.raises(PolynomialError, match="needs the group shape"):
            needs_shape(shapeless)


def test_degree2_same_pair_products_square_correctly():
    # x*y on the same coordinate turns into (v^2 - u^2)/4 scaled by 2^d
    shape = make_shape("weak", (1, 1))
    p = IntPolynomial("xy", shape, {(x(shape, 1, 1), y(shape, 1, 1)): 1})
    q = to_uv(p)
    assert q.coeffs == {
        (("v", 1, 1), ("v", 1, 1)): 1,
        (("u", 1, 1), ("u", 1, 1)): -1,
    }


# ---------------------------------------------------------------------------
# symmetrization
# ---------------------------------------------------------------------------


def test_symmetrize_filter():
    shape = make_shape("weak", (1, 1))
    p = IntPolynomial(
        "uv",
        shape,
        {
            (("u", 1, 1), ("u", 2, 1)): 3,
            (("u", 1, 1), ("v", 2, 1)): 5,
            (("v", 1, 1), ("v", 2, 1)): 7,
            (("u", 1, 1), ("u", 1, 1)): 11,
            (("u", 1, 1),): 13,
        },
    )
    q = symmetrize(p)
    assert q.coeffs == {(("u", 1, 1), ("u", 2, 1)): 3}
    assert q.weight <= p.weight


def test_symmetrized_gate_still_represents():
    shape = WEAK23
    f = make_hard(shape)
    q = symmetrize(to_uv(witness_gate(shape)))
    assert check_sign_representation(q, f) is None
    # integer coefficients indexed by K, matching the 2^d * 2^rank pattern
    ctx = OrderContext(shape)
    for rank, alpha in enumerate(enumerate_ordered(ctx), start=1):
        assert symmetric_coefficient(q, alpha) == (1 << shape.d) * (1 << rank)


def test_symmetrized_strong_gate_still_represents():
    shape = make_shape("strong", (3, 3))
    f = make_hard(shape)
    q = symmetrize(to_uv(witness_gate(shape)))
    assert check_sign_representation(q, f) is None


def test_symmetrized_gate_zero_on_matching_halves():
    shape = WEAK23
    q = symmetrize(to_uv(witness_gate(shape)))
    m = sum(shape.ks)
    for xbits in range(1 << m):
        a = [(xbits >> j) & 1 for j in range(m)]
        uv = uv_values(shape, a + a)
        assert evaluate(q, uv) == 0


def test_dominance_chain_on_gate_coefficients():
    # the explicit gate's symmetrized coefficients satisfy the chain bound
    from ptflab import dominance_chain

    for variant, ks in [("weak", (2, 3)), ("weak", (2, 2, 3)), ("strong", (3, 3)), ("strong", (5, 3))]:
        shape = make_shape(variant, ks)
        q = symmetrize(to_uv(witness_gate(shape)))
        ch = dominance_chain(OrderContext(shape), 1)
        w_a = symmetric_coefficient(q, ch.alpha)
        w_b = symmetric_coefficient(q, ch.beta)
        assert w_a > 0
        assert w_b >= ch.factor * w_a
