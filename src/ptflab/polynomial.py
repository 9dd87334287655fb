"""Sparse integer polynomials, witness gates, and the u/v change of basis.

Polynomials live in one of two bases.  The "xy" basis is indexed by the
canonical input variables of a shape (plain ints).  The "uv" basis is
indexed by namespaced difference/sum variables: ``("u", i, j)`` is
x^i_j - y^i_j for weak shapes (and the j-th linear form of group i < d, or
x^d_j - y^d_j, for strong shapes); ``("v", i, j)`` is the matching sum.
``_uv_forms`` is the one definition of these variables: the witness gate
and ``from_uv`` read it, and ``_substitution_rows`` is its inverse.
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


def from_uv(q: IntPolynomial) -> IntPolynomial:
    """The xy polynomial equal to a uv polynomial at every input; its
    monomials may repeat a variable."""
    if q.basis != "uv":
        raise PolynomialError("from_uv expects a uv polynomial")
    if q.shape is None:
        raise PolynomialError("change of basis needs the group shape")
    forms = _uv_forms(q.shape)
    out: dict = {}
    for key, c in q.coeffs.items():
        for choice in product(*(forms[tag] for tag in key)):
            mono = _canon(v for v, _ in choice)
            out[mono] = out.get(mono, 0) + c * math.prod(s for _, s in choice)
    return IntPolynomial("xy", q.shape, out)


# ---------------------------------------------------------------------------
# The explicit witness gate
# ---------------------------------------------------------------------------


def witness_gate(shape: GroupShape) -> IntPolynomial:
    """Degree-d gate sum(2^rank * t_rank) over the snake enumeration of K.

    Each t is the product of one u variable per group (a difference, or a
    linear form on the strong groups i < d), so the top nonzero term
    strictly dominates everything below it and the gate's sign agrees with
    the hard function everywhere.  Coefficients reach 2^|K|; the only cap
    is the caller's input cap (|K| <= 2916 at n <= 24).  The gate is
    returned over the input variables.
    """
    ctx = OrderContext(shape)
    coeffs: dict = {}
    for rank, alpha in enumerate(enumerate_ordered(ctx), start=1):
        sign = 1
        if shape.variant is Variant.STRONG:
            bits = order_bits(ctx, alpha)
            c = sum(
                1 for i in range(shape.d - 1) if alpha[i] == 0 and bits[i] == 0
            )
            sign = -1 if c % 2 else 1
        key = tuple(("u", i, a) for i, a in enumerate(alpha, start=1))
        coeffs[key] = sign * (1 << rank)
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


def to_uv(p: IntPolynomial, monomial_cap: int = 200_000) -> IntPolynomial:
    """Rewrite an xy polynomial over the u/v variables, scaled by 2^d.

    Each variable is half an integer combination of u/v variables, so a
    monomial of degree l picks up 2^-l; multiplying through by 2^d keeps
    every coefficient an integer.  The result's sign agrees with 2^d * p
    at every derived assignment, and its weight is at most 2^d (weak) or
    n^d (strong) times the weight of p.
    """
    if p.basis != "xy":
        raise PolynomialError("to_uv expects an xy polynomial")
    if p.shape is None:
        raise PolynomialError("change of basis needs the group shape")
    d = p.shape.d
    if p.degree > d:
        raise PolynomialError(f"degree {p.degree} exceeds group count {d}")
    rows = _substitution_rows(p.shape)
    out: dict = {}
    for key, c in p.coeffs.items():
        base = c * (1 << (d - len(key)))
        terms: dict = {(): base}
        for var in key:
            nxt: dict = {}
            for mono, coeff in terms.items():
                for tag, s in rows[var]:
                    nk = _canon(mono + (tag,))
                    nc = nxt.get(nk, 0) + coeff * s
                    if nc:
                        nxt[nk] = nc
                    elif nk in nxt:
                        del nxt[nk]
            terms = nxt
        for mono, coeff in terms.items():
            nc = out.get(mono, 0) + coeff
            if nc:
                out[mono] = nc
            elif mono in out:
                del out[mono]
        if len(out) > monomial_cap:
            raise PolynomialError(
                f"expansion exceeded {monomial_cap} monomials; raise the cap"
            )
    return IntPolynomial("uv", p.shape, out)


def symmetrize(p: IntPolynomial) -> IntPolynomial:
    """Keep only monomials with exactly one u-variable from every group
    (and nothing else).  The result is indexable by tuples of K."""
    if p.basis != "uv":
        raise PolynomialError("symmetrize expects a uv polynomial")
    d = p.shape.d
    kept = {}
    for key, c in p.coeffs.items():
        if len(key) != d:
            continue
        groups = set()
        ok = True
        for tag in key:
            kind, i, _ = tag
            if kind != "u" or i in groups:
                ok = False
                break
            groups.add(i)
        if ok and len(groups) == d:
            kept[key] = c
    return IntPolynomial("uv", p.shape, kept)


def symmetric_coefficient(q: IntPolynomial, alpha: tuple[int, ...]) -> int:
    """Coefficient w_alpha of a symmetrized polynomial."""
    key = _canon(("u", i, alpha[i - 1]) for i in range(1, q.shape.d + 1))
    return q.coeffs.get(key, 0)
