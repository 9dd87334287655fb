"""Sparse integer polynomials, witness gates, and the u/v change of basis.

Polynomials live in one of two bases.  The "xy" basis is indexed by the
canonical input variables of a shape (plain ints).  The "uv" basis is
indexed by namespaced difference/sum variables: ``("u", i, j)`` is
x^i_j - y^i_j for weak shapes (and the j-th linear form of group i < d, or
x^d_j - y^d_j, for strong shapes); ``("v", i, j)`` is the matching sum.
``_uv_forms`` is the one definition of these variables, and
``_snake_terms`` the one list of the tuples of K in snake order, each with
its u monomial and sign.  The witness gate, ``from_uv`` and ``make_hard``'s
scan read them; ``_substitution_rows`` is the inverse of the forms.
Monomial keys are sorted tuples *with repetition* — the u/v image of a
multilinear polynomial need not be multilinear.

Coefficients are arbitrary-precision from the start: the witness gates
carry 2^rank scaling and leave 64-bit range as soon as |K| grows past 30.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

from .shapes import GroupShape, Variant
from .tuple_order import OrderContext, enumerate_ordered, order_bits

Monomial = tuple  # sorted, possibly with repeated variables


class PolynomialError(ValueError):
    pass


def _canon(vars_iter) -> Monomial:
    return tuple(sorted(vars_iter))


@dataclass(frozen=True)
class IntPolynomial:
    """Sparse polynomial with integer coefficients.

    ``shape`` may be None for xy polynomials over anonymous variables
    (e.g. solver witnesses for a raw truth table); the u/v machinery
    requires it.
    """

    basis: str  # "xy" | "uv"
    shape: GroupShape | None
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.basis not in ("xy", "uv"):
            raise PolynomialError(f"unknown basis {self.basis!r}")
        clean = {}
        for key, c in self.coeffs.items():
            c = int(c)
            if c:
                clean[_canon(key)] = c
        object.__setattr__(self, "coeffs", clean)

    @property
    def weight(self) -> int:
        return sum(abs(c) for c in self.coeffs.values())

    @property
    def degree(self) -> int:
        return max((len(k) for k in self.coeffs), default=0)

    def __len__(self) -> int:
        return len(self.coeffs)

    def to_json(self) -> list[dict]:
        """Monomial list; variable tags are ints (xy) or [kind, i, j] (uv)."""
        out = []
        for key in sorted(self.coeffs, key=lambda k: (len(k), k)):
            tags = [list(v) if isinstance(v, tuple) else v for v in key]
            out.append({"vars": tags, "coeff": str(self.coeffs[key])})
        return out

    @classmethod
    def from_json(cls, basis: str, shape: GroupShape, monomials: list[dict]) -> "IntPolynomial":
        coeffs = {}
        for rec in monomials:
            key = _canon(tuple(v) if isinstance(v, list) else int(v) for v in rec["vars"])
            coeffs[key] = coeffs.get(key, 0) + int(rec["coeff"])
        return cls(basis, shape, coeffs)


# ---------------------------------------------------------------------------
# The u/v variables
# ---------------------------------------------------------------------------


def _strong_forms(xs) -> list:
    """The linear forms [(variable, coeff)] L_0, ..., L_{k-1} of a strong
    group on the k variables ``xs``: L_0 = x_1 + x_k, L_j = x_j - x_{j+1}."""
    return [[(xs[0], 1), (xs[-1], 1)]] + [[(xs[j - 1], 1), (xs[j], -1)] for j in range(1, len(xs))]


def _uv_forms(shape: GroupShape) -> dict:
    """Tag -> xy linear form [(variable, coeff)] of every u/v variable; a
    strong group i < d has the ``_strong_forms`` of its x variables."""
    forms: dict = {}
    d = shape.d
    for i in range(1, d + 1):
        k = shape.ks[i - 1]
        if shape.variant is Variant.STRONG and i < d:
            xs = [shape.x_index(i, j) for j in range(1, k + 1)]
            forms.update((("u", i, j), form) for j, form in enumerate(_strong_forms(xs)))
            continue
        for j in range(1, k + 1):
            x, y = shape.x_index(i, j), shape.y_index(i, j)
            forms[("u", i, j)] = [(x, 1), (y, -1)]
            forms[("v", i, j)] = [(x, 1), (y, 1)]
    return forms


def _snake_terms(shape: GroupShape) -> list:
    """(u monomial, sign) of every tuple alpha of K, in ascending snake order.

    The monomial is the product of one u variable per group, u_(i, alpha_i).
    The sign is 1 for weak shapes; for strong shapes it is (-1)^c, c the
    number of groups i < d whose coordinate is 0 (the form L_0) under
    ordering type 0.  It depends only on the tuple, never on the input.
    """
    ctx = OrderContext(shape)
    terms = []
    for alpha in enumerate_ordered(ctx):
        sign = 1
        if shape.variant is Variant.STRONG:
            bits = order_bits(ctx, alpha)
            c = sum(1 for i in range(shape.d - 1) if alpha[i] == 0 and bits[i] == 0)
            sign = -1 if c % 2 else 1
        terms.append((tuple(("u", i, a) for i, a in enumerate(alpha, start=1)), sign))
    return terms


def _expand(coeffs: dict, rows: dict, basis: str, shape: GroupShape) -> IntPolynomial:
    """Replace each variable of every monomial by its row [(variable, coeff)]
    and multiply out."""
    out: dict = {}
    for key, c in coeffs.items():
        for choice in product(*(rows[v] for v in key)):
            mono = _canon(v for v, _ in choice)
            out[mono] = out.get(mono, 0) + c * math.prod(s for _, s in choice)
    return IntPolynomial(basis, shape, out)


def _shape_of(p: IntPolynomial) -> GroupShape:
    if p.shape is None:
        raise PolynomialError("the u/v machinery needs the group shape")
    return p.shape


def from_uv(q: IntPolynomial) -> IntPolynomial:
    """The xy polynomial equal to a uv polynomial at every input; its
    monomials may repeat a variable."""
    if q.basis != "uv":
        raise PolynomialError("from_uv expects a uv polynomial")
    return _expand(q.coeffs, _uv_forms(_shape_of(q)), "xy", q.shape)


# ---------------------------------------------------------------------------
# The explicit witness gate
# ---------------------------------------------------------------------------


def witness_gate(shape: GroupShape) -> IntPolynomial:
    """Degree-d gate sum(sign * 2^rank * t_rank) over the snake terms of K.

    Each t is the product of one u variable per group (a difference, or a
    linear form on the strong groups i < d), so the top nonzero term
    strictly dominates everything below it and the gate's sign agrees with
    the hard function everywhere.  Coefficients reach 2^|K|; the only cap
    is the input cap on the truth table (|K| <= 2916 at n <= 24).  The gate is
    returned over the input variables.
    """
    coeffs = {key: sign << rank for rank, (key, sign) in enumerate(_snake_terms(shape), start=1)}
    return from_uv(IntPolynomial("uv", shape, coeffs))


# ---------------------------------------------------------------------------
# Change of basis and symmetrization
# ---------------------------------------------------------------------------


def _substitution_rows(shape: GroupShape) -> dict:
    """For each xy variable, its u/v expansion row: 2*var = sum of tagged terms."""
    rows: dict = {}
    d = shape.d
    if shape.variant is Variant.WEAK:
        for i in range(1, d + 1):
            for j in range(1, shape.ks[i - 1] + 1):
                rows[shape.x_index(i, j)] = [(("u", i, j), 1), (("v", i, j), 1)]
                rows[shape.y_index(i, j)] = [(("v", i, j), 1), (("u", i, j), -1)]
        return rows
    for i in range(1, d):
        k = shape.ks[i - 1]
        for j in range(1, k + 1):
            row = [(("u", i, 0), 1)]
            row += [(("u", i, t), -1) for t in range(1, j)]
            row += [(("u", i, t), 1) for t in range(j, k)]
            rows[shape.x_index(i, j)] = row
    for j in range(1, shape.ks[-1] + 1):
        rows[shape.x_index(d, j)] = [(("u", d, j), 1), (("v", d, j), 1)]
        rows[shape.y_index(d, j)] = [(("v", d, j), 1), (("u", d, j), -1)]
    return rows


def to_uv(p: IntPolynomial) -> IntPolynomial:
    """Rewrite an xy polynomial over the u/v variables, scaled by 2^d.

    Each variable is half an integer combination of u/v variables, so a
    monomial of degree l picks up 2^-l; multiplying through by 2^d keeps
    every coefficient an integer.  The result's sign agrees with 2^d * p
    at every derived assignment, and its weight is at most 2^d (weak) or
    n^d (strong) times the weight of p.
    """
    if p.basis != "xy":
        raise PolynomialError("to_uv expects an xy polynomial")
    d = _shape_of(p).d
    if p.degree > d:
        raise PolynomialError(f"degree {p.degree} exceeds group count {d}")
    scaled = {key: c << (d - len(key)) for key, c in p.coeffs.items()}
    return _expand(scaled, _substitution_rows(p.shape), "uv", p.shape)


def symmetrize(p: IntPolynomial) -> IntPolynomial:
    """Keep only monomials with exactly one u-variable from every group
    (and nothing else).  The result is indexable by tuples of K."""
    if p.basis != "uv":
        raise PolynomialError("symmetrize expects a uv polynomial")
    d = _shape_of(p).d
    kept = {
        key: c
        for key, c in p.coeffs.items()
        if len(key) == d == len({i for kind, i, _ in key if kind == "u"})
    }
    return IntPolynomial("uv", p.shape, kept)


def symmetric_coefficient(q: IntPolynomial, alpha: tuple[int, ...]) -> int:
    """Coefficient w_alpha of a symmetrized polynomial."""
    key = _canon(("u", i, alpha[i - 1]) for i in range(1, _shape_of(q).d + 1))
    return q.coeffs.get(key, 0)
