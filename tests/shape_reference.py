"""The coordinate tuples K of a group shape, written out from its
definition: the reference the orderings and the hard functions are
enumerated against."""

import itertools


def all_tuples(shape) -> list:
    """Every tuple (a_1, ..., a_d) of K: coordinate i ranges over 1..k_i,
    except on a strong shape's groups before the last, where it ranges
    over 0..k_i - 1."""
    strong = shape.variant.value == "strong"
    ranges = [range(k) if strong and i < shape.d - 1 else range(1, k + 1) for i, k in enumerate(shape.ks)]
    return list(itertools.product(*ranges))
