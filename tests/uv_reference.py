"""The u/v values of one raw input: the per-input reference that the
whole-cube u/v paths (``to_uv``, ``from_uv``, the uv sign check) are
tested against."""

from ptflab.polynomial import PolynomialError, _uv_forms


def uv_values(shape, assignment) -> dict:
    """The value of every u/v variable of ``shape`` at one raw input."""
    assignment = tuple(assignment)
    if len(assignment) != shape.n:
        raise PolynomialError(f"expected {shape.n} values")
    return {tag: sum(s * assignment[v] for v, s in form) for tag, form in _uv_forms(shape).items()}
