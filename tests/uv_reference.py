"""The u/v values of one raw input, and a polynomial's value at one input:
the per-input reference that the whole-cube u/v paths (``to_uv``,
``from_uv``, the uv sign check, the cube value table) and the all-equal
detector's lemma rows are tested against."""

from ptflab.polynomial import IntPolynomial, PolynomialError, _uv_forms


def evaluate(p: IntPolynomial, assignment) -> int:
    """Exact value of ``p`` at an assignment: a sequence indexed by variable
    id in the xy basis, a mapping from uv tags in the uv basis."""
    total = 0
    for key, c in p.coeffs.items():
        term = c
        for v in key:
            term *= assignment[v]
            if term == 0:
                break
        total += term
    return total


def scaled(p: IntPolynomial, factor: int) -> IntPolynomial:
    """``p`` with every coefficient times ``factor``."""
    return IntPolynomial(p.basis, p.shape, {k: c * factor for k, c in p.coeffs.items()})


def uv_values(shape, assignment) -> dict:
    """The value of every u/v variable of ``shape`` at one raw input."""
    assignment = tuple(assignment)
    if len(assignment) != shape.n:
        raise PolynomialError(f"expected {shape.n} values")
    return {tag: sum(s * assignment[v] for v, s in form) for tag, form in _uv_forms(shape).items()}


def linear_forms(x: tuple[int, ...]) -> list[int]:
    """L_0(x) = x_1 + x_k and L_j(x) = x_j - x_{j+1} for j = 1..k-1."""
    k = len(x)
    return [x[0] + x[k - 1]] + [x[j - 1] - x[j] for j in range(1, k)]
